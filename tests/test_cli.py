from dataclasses import fields

import numpy as np
import pytest

from slotrank import (
    CostReport,
    HEParams,
    HESimulator,
    KernelConfig,
    SortConfig,
    StatisticQuery,
    median,
    order_statistic_value,
    sort,
)
from slotrank.cli import (
    EXIT_DEPTH,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_USAGE,
    generate_values,
    load_values,
    main,
)
from slotrank.ranking import rank_pipeline


@pytest.fixture
def tied_vector(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("50\n10\n20\n20\n40\n")
    return path


def run(tmp_path, *argv):
    out = tmp_path / "results.csv"
    cost = tmp_path / "cost.csv"
    code = main([*argv, "--output", str(out), "--cost-output", str(cost)])
    return code, out, cost


def test_rank_fixture_fractional(tmp_path, tied_vector):
    code, out, cost = run(tmp_path, "rank", "--input", str(tied_vector), "--mode", "ideal")
    assert code == EXIT_OK
    assert "5,1,2.5,2.5,4" in out.read_text().splitlines()
    header = cost.read_text().splitlines()[0].split(",")
    counters = [f.name for f in fields(CostReport)]
    assert header == ["task", "n", "mode", "cmp_degree", "ind_degree", *counters, "avg_err", "max_err", "wall_ms"]
    assert counters[:2] == ["rotations", "critical_rotations"] and "additions" in counters


def test_rank_tie_corrected(tmp_path, tied_vector):
    code, out, _ = run(
        tmp_path, "rank", "--input", str(tied_vector), "--mode", "ideal", "--tie-correction"
    )
    assert code == EXIT_OK
    assert "5,1,2,3,4" in out.read_text().splitlines()


def test_sort_generated_self_check(tmp_path):
    code, out, cost = run(
        tmp_path, "sort", "--gen", "uniform", "--count", "4", "--seed", "1", "--mode", "ideal"
    )
    assert code == EXIT_OK
    values = [float(x) for x in out.read_text().splitlines()[1].split(",")]
    assert values == sorted(values)
    row = cost.read_text().splitlines()[1].split(",")
    assert float(row[-3]) == 0.0  # oracle max_err

def test_sort_file_input_unscaled_output(tmp_path, tied_vector):
    code, out, _ = run(tmp_path, "sort", "--input", str(tied_vector), "--mode", "ideal")
    assert code == EXIT_OK
    assert "10,20,20,40,50" in out.read_text().splitlines()


def test_stat_median_and_kth(tmp_path, tied_vector):
    code, out, _ = run(tmp_path, "stat", "--stat", "median", "--input", str(tied_vector))
    assert code == EXIT_OK
    assert out.read_text().splitlines()[1] == "20"
    code, out, _ = run(
        tmp_path, "stat", "--stat", "kth", "--k", "4", "--input", str(tied_vector)
    )
    assert code == EXIT_OK
    assert out.read_text().splitlines()[1] == "40"


def test_stat_on_ties_without_correction_fails(tmp_path, capsys):
    # a statistic is always a window of tie-corrected ranks: asking for an
    # uncorrected one is a usage error, for stat and for bench's min and max
    path = tmp_path / "tied.csv"
    path.write_text("50,10,20,20,40,30\n")
    for stat in (["median"], ["kth", "--k", "3"], ["percentile", "--p", "50"], ["min"], ["max"]):
        code, out, cost = run(tmp_path, "stat", "--stat", *stat, "--input", str(path), "--no-tie-correction")
        assert code == EXIT_USAGE, stat
        assert "a statistic is always tie-corrected" in capsys.readouterr().err
        assert not out.exists() and not cost.exists()
    for task in ("min", "max"):
        code, out, cost = run(tmp_path, "bench", "--task", task, "--count", "4", "--seeds", "1", "--no-tie-correction")
        assert code == EXIT_USAGE, task
        assert not out.exists() and not cost.exists()
    for stat, value in ((["median"], "25"), (["min"], "10"), (["max"], "50"), (["percentile", "--p", "100"], "50")):
        code, out, _ = run(tmp_path, "stat", "--stat", *stat, "--input", str(path))
        assert code == EXIT_OK, stat
        assert out.read_text().splitlines()[1] == value


def test_stat_percentile(tmp_path, tied_vector):
    code, out, _ = run(
        tmp_path, "stat", "--stat", "percentile", "--p", "100", "--input", str(tied_vector)
    )
    assert code == EXIT_OK
    assert out.read_text().splitlines()[1] == "50"


def test_multi_ciphertext_rank_via_slot_count(tmp_path):
    code, out, _ = run(
        tmp_path, "rank", "--gen", "uniform", "--count", "12", "--seed", "4",
        "--slot-count", "16", "--mode", "ideal",
    )
    assert code == EXIT_OK
    ranks = np.array([float(x) for x in out.read_text().splitlines()[1].split(",")])
    v = generate_values(12, 4, 0.0)
    assert np.array_equal(np.sort(ranks), np.sort(np.argsort(np.argsort(v)) + 1.0))


def test_one_matrix_input_costs_as_the_single_vector_pipeline(tmp_path):
    # rank, sort and stat always run block_split -> multi_* ; an input that
    # fits one matrix is one block and costs exactly the single-vector circuit
    v = generate_values(5, 3, 0.0)
    kernel = KernelConfig(mode="ideal", degree=256)
    single = {
        "rank": lambda e, ct: rank_pipeline(e, ct, 5, kernel, tie_correction=True),
        "sort": lambda e, ct: sort(e, ct, 5, SortConfig(kernel=kernel)),
        "median": lambda e, ct: median(e, ct, 5, kernel),
        "min": lambda e, ct: order_statistic_value(e, ct, 5, StatisticQuery("min"), kernel),
    }
    for task, circuit in single.items():
        command = [task] if task in ("rank", "sort") else ["stat", "--stat", task]
        code, _, cost = run(
            tmp_path, *command, "--gen", "uniform", "--count", "5", "--seed", "3",
            "--slot-count", "256", "--mode", "ideal", "--tie-correction",
        )
        assert code == EXIT_OK
        header, row = (line.split(",") for line in cost.read_text().splitlines()[:2])
        record = dict(zip(header, row))
        eng = HESimulator(HEParams(slot_count=256, max_level=64))
        circuit(eng, eng.encrypt(v))
        rep = eng.cost_snapshot()
        for column in (f.name for f in fields(CostReport)):
            assert int(record[column]) == getattr(rep, column), (task, column)
        # a statistic is divided by its mask's norm through the Goldschmidt
        # reciprocal, which is exact to the last bits only
        assert float(record["max_err"]) <= (0.0 if task in ("rank", "sort") else 1e-15), task


@pytest.mark.parametrize("stat", ["median", "min"])
def test_stat_splits_a_long_vector_into_blocks(tmp_path, stat):
    # 100 values in 4096 slots: two 64x64 blocks, as rank and sort run them
    code, out, cost = run(
        tmp_path, "stat", "--stat", stat, "--gen", "uniform", "--count", "100",
        "--slot-count", "4096", "--tie-fraction", "0.1", "--mode", "ideal",
    )
    assert code == EXIT_OK
    header, row = (line.split(",") for line in cost.read_text().splitlines()[:2])
    record = dict(zip(header, row))
    assert int(record["cmp_evals"]) == 3  # the block pairs (0, 0), (0, 1), (1, 1)
    assert float(record["max_err"]) <= 1e-15


@pytest.mark.parametrize("task", [("rank",), ("sort",), ("stat", "--stat", "median"), ("stat", "--stat", "min")])
def test_ideal_mode_refuses_a_noisy_engine(tmp_path, capsys, task):
    # noise of any size breaks the exact kernels' ties: 8 tied values used to
    # rank as 1,4,7,7,7,1,4,3 with exit 0
    code, out, cost = run(
        tmp_path, *task, "--mode", "ideal", "--noise-sigma", "1e-9", "--gen", "uniform",
        "--count", "8", "--seed", "3", "--tie-fraction", "0.25", "--tie-correction",
    )
    assert code == EXIT_INPUT
    assert "chebyshev.compare_kernel" in capsys.readouterr().err
    assert not out.exists() and not cost.exists()


def test_bench_rank_sweep(tmp_path):
    code, out, cost = run(
        tmp_path, "bench", "--task", "rank", "--count", "16", "--seeds", "2",
        "--degrees", "32,64",
    )
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[1] == "task,n,mode,cmp_degree,ind_degree,avg_err,max_err"
    assert len([l for l in lines if l.startswith("rank,")]) == 2
    assert any(l.startswith("# avg_err_non_increasing=") for l in lines)
    cost_lines = cost.read_text().splitlines()
    assert len(cost_lines) == 3  # header + one row per degree
    header = cost_lines[0].split(",")
    for row in cost_lines[1:]:
        record = dict(zip(header, row.split(",")))
        # every bench row satisfies the ranking budgets
        assert int(record["rotations"]) <= 4 * 4  # 4 * log2(16)
        assert int(record["cmp_evals"]) == 1


def test_bench_grid_sweep(tmp_path):
    code, out, cost = run(
        tmp_path, "bench", "--task", "min", "--count", "8", "--seeds", "2",
        "--degrees", "64,128", "--ind-degrees", "64,128", "--max-level", "80",
    )
    assert code == EXIT_OK
    rows = [l for l in cost.read_text().splitlines()[1:] if l]
    assert len(rows) == 4  # full cmp x ind grid


def test_bench_single_degree_single_row(tmp_path):
    code, out, cost = run(
        tmp_path, "bench", "--task", "sort", "--count", "8", "--seeds", "2", "--degrees", "256",
    )
    assert code == EXIT_OK
    assert len([l for l in cost.read_text().splitlines()[1:] if l]) == 1


@pytest.mark.parametrize("size", [["--count", "8"], ["--count", "12", "--slot-count", "16"]])
@pytest.mark.parametrize("task", ["rank", "sort"])
def test_bench_matches_the_single_run_commands(tmp_path, task, size):
    # bench runs the pipelines of rank/sort; the multi-block case splits into blocks
    common = [*size, "--seed", "5", "--mode", "ideal", "--no-tie-correction"]
    code, _, bench_cost = run(tmp_path, "bench", "--task", task, "--seeds", "1", "--degrees", "256", *common)
    assert code == EXIT_OK
    bench_row = bench_cost.read_text().splitlines()[1].split(",")[:-1]
    code, _, cost = run(tmp_path, task, "--gen", "uniform", *common)
    assert code == EXIT_OK
    assert cost.read_text().splitlines()[1].split(",")[:-1] == bench_row


def test_bench_rank_applies_tie_correction(tmp_path):
    code, _, cost = run(
        tmp_path, "bench", "--task", "rank", "--mode", "ideal", "--tie-correction",
        "--tie-fraction", "0.5", "--count", "8", "--seeds", "1", "--degrees", "256",
    )
    assert code == EXIT_OK
    header, row = (line.split(",") for line in cost.read_text().splitlines()[:2])
    record = dict(zip(header, row))
    assert float(record["max_err"]) == 0.0  # against the corrected ranks
    assert int(record["ctct_mults"]) == 1  # the tie-offset product


def test_deterministic_outputs(tmp_path):
    runs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.csv"
        cost = tmp_path / f"{tag}_cost.csv"
        code = main([
            "bench", "--task", "rank", "--count", "8", "--seeds", "2", "--degrees", "32,64",
            "--seed", "9", "--output", str(out), "--cost-output", str(cost),
        ])
        assert code == EXIT_OK
        cost_rows = [",".join(l.split(",")[:-1]) for l in cost.read_text().splitlines()]
        runs.append((out.read_bytes(), cost_rows))
    assert runs[0][0] == runs[1][0]  # results byte-identical
    assert runs[0][1] == runs[1][1]  # cost identical apart from wall_ms


def test_usage_errors(tmp_path, tied_vector):
    assert main(["stat", "--stat", "kth", "--input", str(tied_vector)]) == EXIT_USAGE
    assert main(["rank"]) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main(["rank", "--gen", "uniform", "--count", "1"]) == EXIT_USAGE


def test_bench_rejects_input_file(tmp_path, tied_vector, capsys):
    code, out, cost = run(tmp_path, "bench", "--task", "rank", "--input", str(tied_vector))
    assert code == EXIT_USAGE
    assert "--count, --seed and --tie-fraction" in capsys.readouterr().err
    assert not out.exists() and not cost.exists()


@pytest.mark.parametrize(
    "bad, flag",
    [
        (["--seeds", "0"], "--seeds"),
        (["--seeds", "-2"], "--seeds"),
        (["--degrees", ","], "--degrees"),
        (["--degrees", "0,64"], "--degrees"),
        (["--ind-degrees", ","], "--ind-degrees"),
    ],
)
def test_bench_sweep_arguments_are_checked(tmp_path, capsys, bad, flag):
    # unchecked, no seed fails deep in the sweep (exit 3) and no degree
    # writes an empty table that reads as a passing trend (exit 0)
    code, out, cost = run(tmp_path, "bench", "--task", "rank", "--count", "4", "--degrees", "16", *bad)
    assert code == EXIT_USAGE
    assert flag in capsys.readouterr().err
    assert not out.exists() and not cost.exists()


def test_input_errors(tmp_path):
    assert main(["rank", "--input", str(tmp_path / "absent.csv")]) == EXIT_INPUT
    bad = tmp_path / "bad.csv"
    bad.write_text("1,zap,3\n")
    assert main(["rank", "--input", str(bad)]) == EXIT_INPUT


def test_bench_sort_on_ties_without_correction_fails(tmp_path, capsys):
    code, out, cost = run(
        tmp_path, "bench", "--task", "sort", "--count", "16", "--seeds", "2",
        "--degrees", "64", "--tie-fraction", "0.1",
    )
    assert code == EXIT_INPUT
    assert "multi_sort" in capsys.readouterr().err
    assert not out.exists() and not cost.exists()


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_non_finite_noise_sigma_is_an_input_error(tmp_path, capsys, sigma):
    code, out, cost = run(
        tmp_path, "sort", "--gen", "uniform", "--count", "16", "--seed", "1",
        "--mode", "chebyshev", "--noise-sigma", sigma,
    )
    assert code == EXIT_INPUT
    assert "noise_sigma must be finite" in capsys.readouterr().err
    assert not out.exists() and not cost.exists()


def test_non_finite_result_is_refused(tmp_path, capsys):
    code, out, cost = run(
        tmp_path, "sort", "--gen", "uniform", "--count", "16", "--seed", "1",
        "--mode", "chebyshev", "--noise-sigma", "1.0",
    )
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == "error: result: sort produced non-finite output\n"
    assert not out.exists() and not cost.exists()


@pytest.mark.parametrize("bad", ["inf", "nan"])
@pytest.mark.parametrize("task", [("rank",), ("sort",), ("stat", "--stat", "median")])
def test_non_finite_input_is_an_input_error(tmp_path, capsys, task, bad):
    # inf and nan parse as floats; unchecked, ranking 1,2,inf,0.5 printed 1,1,0.5,1
    path = tmp_path / "v.csv"
    path.write_text(f"1,2,{bad},0.5\n")
    code, out, cost = run(tmp_path, *task, "--input", str(path), "--mode", "ideal")
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: input: {path}: value 3 is {bad}; inputs must be finite\n"
    )
    assert not out.exists() and not cost.exists()


@pytest.mark.parametrize("task", ["rank", "sort"])
def test_input_span_overflow_is_an_input_error(tmp_path, capsys, task):
    # each value is finite but max - min is not; unchecked, rank printed 0.5,1,1,1
    path = tmp_path / "v.csv"
    path.write_text("1e308,-1e308,0,5\n")
    code, out, cost = run(tmp_path, task, "--input", str(path), "--mode", "ideal")
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: input: input span 1e+308 - -1e+308 overflows to inf; inputs must span a finite range\n"
    )
    assert not out.exists() and not cost.exists()


def test_depth_budget_error(tmp_path, tied_vector):
    code = main([
        "rank", "--input", str(tied_vector), "--mode", "chebyshev",
        "--cmp-degree", "1024", "--max-level", "3",
        "--output", str(tmp_path / "r.csv"), "--cost-output", str(tmp_path / "c.csv"),
    ])
    assert code == EXIT_DEPTH


def test_load_values_formats(tmp_path):
    one_per_line = tmp_path / "a.txt"
    one_per_line.write_text("1.5\n2\n-3\n")
    assert np.array_equal(load_values(str(one_per_line)), [1.5, 2, -3])
    comma = tmp_path / "b.txt"
    comma.write_text("1.5, 2, -3\n")
    assert np.array_equal(load_values(str(comma)), [1.5, 2, -3])


def test_generator_tie_fraction():
    v = generate_values(100, 3, 0.5)
    assert len(v) == 100
    assert len(np.unique(v)) < 100  # duplicates were injected
    assert np.array_equal(v, generate_values(100, 3, 0.5))
