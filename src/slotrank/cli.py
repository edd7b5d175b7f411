"""Command-line front end: demos, statistics, and degree sweeps.

Subcommands::

    slotrank rank   --input v.csv --mode ideal
    slotrank sort   --gen uniform --count 16 --seed 1
    slotrank stat   --stat median --gen uniform --count 32 --seed 7
    slotrank bench  --task rank --count 128 --degrees 64,128,256,512

Input vectors come from a file (one value per line, or a single
comma-separated line) or from the built-in uniform generator.  Values are
affinely scaled into [0, 1] before comparison; the scale is recorded in
the results file and undone on value outputs.  Every run writes a results
file and a cost-report file and self-checks against the plaintext oracle.

Exit codes: 0 success, 2 usage error, 3 input error, 4 depth budget
exhausted.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import reference
from .chebyshev import KernelConfig
from .engine import CapacityError, DepthBudgetError, HEParams, HESimulator
from .ranking import block_split, block_merge, multi_rank, next_pow2, rank_pipeline, read_row
from .select import StatisticQuery, order_statistic_value
from .sorting import SortConfig, multi_sort, sort

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_DEPTH = 4

COST_COLUMNS = (
    "task,n,mode,cmp_degree,ind_degree,rotations,critical_rotations,"
    "ctct_mults,ctpt_mults,cmp_evals,ind_evals,levels_consumed,"
    "avg_err,max_err,wall_ms"
)


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _fmt_row(values) -> str:
    return ",".join(_fmt(v) for v in values)


@dataclass
class Scale:
    lo: float
    span: float

    def forward(self, v: np.ndarray) -> np.ndarray:
        return (v - self.lo) / self.span

    def back(self, v):
        return np.asarray(v) * self.span + self.lo


def _make_scale(values: np.ndarray) -> Scale:
    lo = float(values.min())
    hi = float(values.max())
    return Scale(lo=lo, span=(hi - lo) if hi > lo else 1.0)


def load_values(path: str) -> np.ndarray:
    text = Path(path).read_text(encoding="utf-8").strip()
    if not text:
        raise ValueError(f"input file {path} is empty")
    if "," in text:
        parts = [p for p in text.replace("\n", ",").split(",") if p.strip()]
    else:
        parts = [p for p in text.split() if p.strip()]
    try:
        return np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ValueError(f"cannot parse {path}: {exc}") from None


def generate_values(count: int, seed: int, tie_fraction: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0, count)
    n_ties = int(round(tie_fraction * count))
    if n_ties:
        targets = rng.choice(count, size=n_ties, replace=False)
        for t in targets:
            donor = int(rng.integers(0, count))
            if donor != t:
                values[t] = values[donor]
    return values


def _kernel_config(args, input_range=(0.0, 1.0)) -> KernelConfig:
    return KernelConfig(
        mode=args.mode,
        degree=args.cmp_degree,
        indicator_degree=args.ind_degree,
        input_range=input_range,
        tie_margin=args.tie_margin,
    )


def _engine_for(args, n: int) -> HESimulator:
    slot_count = args.slot_count
    if not slot_count:
        slot_count = max(4, next_pow2(n) ** 2)
    params = HEParams(
        slot_count=slot_count,
        max_level=args.max_level,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
    )
    return HESimulator(params)


def _write_results(path: str, meta: dict, lines: list[str]):
    meta_line = "# " + " ".join(f"{k}={v}" for k, v in meta.items())
    Path(path).write_text("\n".join([meta_line, *lines]) + "\n", encoding="utf-8")


def _write_cost(path: str, rows: list[str]):
    Path(path).write_text("\n".join([COST_COLUMNS, *rows]) + "\n", encoding="utf-8")


def _cost_row(task, n, args, report, avg_err, max_err, wall_ms) -> str:
    return ",".join(
        [
            task,
            str(n),
            args.mode,
            str(args.cmp_degree),
            str(args.ind_degree or args.cmp_degree),
            str(report.rotations),
            str(report.critical_rotations),
            str(report.ctct_mults),
            str(report.ctpt_mults),
            str(report.cmp_evals),
            str(report.ind_evals),
            str(report.levels_consumed),
            _fmt(avg_err),
            _fmt(max_err),
            _fmt(wall_ms),
        ]
    )


def _obtain_values(args) -> np.ndarray:
    if args.input:
        values = load_values(args.input)
    else:
        values = generate_values(args.count, args.seed, args.tie_fraction)
    if values.size < 2:
        raise ValueError("need at least 2 input values")
    return values


def _run_rank(args) -> int:
    values = _obtain_values(args)
    scale = _make_scale(values)
    scaled = scale.forward(values)
    n = values.size
    engine = _engine_for(args, n)
    cfg = _kernel_config(args)
    start = time.perf_counter()
    blocks = block_split(engine, scaled)
    ranks = block_merge(engine, multi_rank(engine, blocks, cfg, tie_correction=args.tie_correction))
    wall_ms = (time.perf_counter() - start) * 1000.0
    report = engine.cost_snapshot()
    oracle = (
        reference.corrected_ranks(scaled) if args.tie_correction else reference.fractional_ranks(scaled)
    )
    err = np.abs(ranks - oracle)
    meta = {"task": "rank", "n": n, "mode": args.mode, "scale_lo": _fmt(scale.lo), "scale_span": _fmt(scale.span)}
    _write_results(args.output, meta, [_fmt_row(ranks)])
    _write_cost(args.cost_output, [_cost_row("rank", n, args, report, err.mean(), err.max(), wall_ms)])
    print(_fmt_row(ranks))
    return EXIT_OK


def _run_sort(args) -> int:
    values = _obtain_values(args)
    scale = _make_scale(values)
    scaled = scale.forward(values)
    n = values.size
    engine = _engine_for(args, n)
    cfg = SortConfig(kernel=_kernel_config(args), tie_correction=args.tie_correction)
    start = time.perf_counter()
    out = block_merge(engine, multi_sort(engine, block_split(engine, scaled), cfg))
    wall_ms = (time.perf_counter() - start) * 1000.0
    report = engine.cost_snapshot()
    result = scale.back(out)
    err = np.abs(result - reference.sorted_values(values))
    meta = {"task": "sort", "n": n, "mode": args.mode, "scale_lo": _fmt(scale.lo), "scale_span": _fmt(scale.span)}
    _write_results(args.output, meta, [_fmt_row(result)])
    _write_cost(args.cost_output, [_cost_row("sort", n, args, report, err.mean(), err.max(), wall_ms)])
    print(_fmt_row(result))
    return EXIT_OK


def _stat_query(args, n: int) -> StatisticQuery:
    if args.stat == "kth":
        return StatisticQuery("kth", k=args.k)
    if args.stat == "percentile":
        return StatisticQuery("percentile", p=args.p)
    return StatisticQuery(args.stat)


def _stat_oracle(values: np.ndarray, args) -> float:
    if args.stat == "min":
        return float(values.min())
    if args.stat == "max":
        return float(values.max())
    if args.stat == "median":
        return reference.median_value(values)
    if args.stat == "kth":
        return reference.kth_smallest(values, args.k)
    return reference.percentile_value(values, args.p)


def _run_stat(args) -> int:
    values = _obtain_values(args)
    scale = _make_scale(values)
    scaled = scale.forward(values)
    n = values.size
    engine = _engine_for(args, n)
    cfg = _kernel_config(args)
    query = _stat_query(args, n)
    start = time.perf_counter()
    if args.stat == "median":
        from .select import median as median_op

        ct = median_op(engine, engine.encrypt(scaled), n, cfg)
    else:
        ct = order_statistic_value(
            engine, engine.encrypt(scaled), n, query, cfg, tie_correction=args.tie_correction
        )
    wall_ms = (time.perf_counter() - start) * 1000.0
    report = engine.cost_snapshot()
    value = float(scale.back(engine.decrypt(ct)[0]))
    err = abs(value - _stat_oracle(values, args))
    meta = {
        "task": f"stat:{args.stat}", "n": n, "mode": args.mode,
        "scale_lo": _fmt(scale.lo), "scale_span": _fmt(scale.span),
    }
    _write_results(args.output, meta, [_fmt(value)])
    _write_cost(args.cost_output, [_cost_row(f"stat:{args.stat}", n, args, report, err, err, wall_ms)])
    print(_fmt(value))
    return EXIT_OK


def bench_sweep(args) -> tuple[list[dict], bool]:
    """One aggregated record per (cmp_degree, ind_degree); trend flag for rank.

    Each record averages the oracle error over ``seeds`` runs and carries
    the cost counters of one run (the circuit shape does not depend on the
    seed).
    """
    degrees = args.degrees
    ind_degrees = args.ind_degrees or [None]
    records = []
    for dc in degrees:
        for di in ind_degrees:
            errs = []
            wall = 0.0
            report = None
            for s in range(args.seeds):
                values = generate_values(args.count, args.seed + s, args.tie_fraction)
                scale = _make_scale(values)
                scaled = scale.forward(values)
                n = values.size
                run_args = argparse.Namespace(**vars(args))
                run_args.cmp_degree = dc
                run_args.ind_degree = di
                engine = _engine_for(run_args, n)
                cfg = _kernel_config(run_args)
                start = time.perf_counter()
                if args.task == "rank":
                    pipe = rank_pipeline(engine, engine.encrypt(scaled), n, cfg)
                    est = read_row(engine, pipe.result.ranks, n)
                    errs.append(reference.rank_displacement(est, scaled))
                elif args.task == "sort":
                    sc = SortConfig(kernel=cfg, tie_correction=args.tie_correction)
                    out = read_row(engine, sort(engine, engine.encrypt(scaled), n, sc), n)
                    errs.append(np.abs(scale.back(out) - reference.sorted_values(values)))
                else:
                    query = StatisticQuery(args.task)
                    ct = order_statistic_value(engine, engine.encrypt(scaled), n, query, cfg)
                    truth = float(values.min() if args.task == "min" else values.max())
                    errs.append(np.abs(scale.back(engine.decrypt(ct)[0]) - truth))
                wall += (time.perf_counter() - start) * 1000.0
                report = engine.cost_snapshot()
            flat = np.concatenate([np.atleast_1d(e) for e in errs])
            records.append(
                {
                    "cmp_degree": dc,
                    "ind_degree": di or dc,
                    "avg_err": float(flat.mean()),
                    "max_err": float(flat.max()),
                    "report": report,
                    "wall_ms": wall / args.seeds,
                }
            )
    if len(ind_degrees) == 1:
        by_degree = [r["avg_err"] for r in records]
        monotone = all(b <= a * 1.10 for a, b in zip(by_degree, by_degree[1:]))
    else:
        monotone = True
    return records, monotone


def _run_bench(args) -> int:
    records, monotone = bench_sweep(args)
    result_lines = ["task,n,mode,cmp_degree,ind_degree,avg_err,max_err"]
    cost_rows = []
    for r in records:
        result_lines.append(
            ",".join(
                [
                    args.task, str(args.count), args.mode,
                    str(r["cmp_degree"]), str(r["ind_degree"]),
                    _fmt(r["avg_err"]), _fmt(r["max_err"]),
                ]
            )
        )
        row_args = argparse.Namespace(**vars(args))
        row_args.cmp_degree = r["cmp_degree"]
        row_args.ind_degree = r["ind_degree"]
        cost_rows.append(
            _cost_row(
                args.task, args.count, row_args, r["report"],
                r["avg_err"], r["max_err"], r["wall_ms"],
            )
        )
    result_lines.append(f"# avg_err_non_increasing={'yes' if monotone else 'no'} tolerance=10%")
    meta = {"task": f"bench:{args.task}", "n": args.count, "mode": args.mode, "seeds": args.seeds}
    _write_results(args.output, meta, result_lines)
    _write_cost(args.cost_output, cost_rows)
    for line in result_lines:
        print(line)
    return EXIT_OK


def _int_list(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slotrank",
        description="Ranking, order statistics, and sorting on SIMD-packed vectors "
        "over an instrumented leveled-HE simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    src = common.add_argument_group("input")
    src.add_argument("--input", help="input vector file (one value per line or comma-separated)")
    src.add_argument("--gen", choices=["uniform"], help="generate the input instead of reading it")
    src.add_argument("--count", type=int, default=16, help="generated vector length")
    src.add_argument("--seed", type=int, default=0, help="generator / noise seed")
    src.add_argument("--tie-fraction", type=float, default=0.0, help="fraction of generated entries duplicated")
    ker = common.add_argument_group("kernels")
    ker.add_argument(
        "--mode", choices=["ideal", "chebyshev"], default=None,
        help="kernel realisation (default: ideal; bench defaults to chebyshev)",
    )
    ker.add_argument("--cmp-degree", type=int, default=256)
    ker.add_argument("--ind-degree", type=int, default=None)
    ker.add_argument("--tie-margin", type=float, default=0.0)
    ker.add_argument(
        "--tie-correction", action=argparse.BooleanOptionalAction, default=None,
        help="redistribute tied ranks into a permutation "
        "(default: off for rank, on for sort and stat)",
    )
    eng = common.add_argument_group("simulator")
    eng.add_argument("--slot-count", type=int, default=0, help="0 = smallest power of two that fits")
    eng.add_argument("--max-level", type=int, default=64)
    eng.add_argument("--noise-sigma", type=float, default=0.0)
    out = common.add_argument_group("output")
    out.add_argument("--output", default=None, help="results file (default <command>_results.csv)")
    out.add_argument("--cost-output", default=None, help="cost report file (default <command>_cost.csv)")

    sub.add_parser("rank", parents=[common], help="fractional or tie-corrected ranking")
    sub.add_parser("sort", parents=[common], help="sort ascending")
    stat = sub.add_parser("stat", parents=[common], help="order statistic extraction")
    stat.add_argument("--stat", choices=["min", "max", "median", "kth", "percentile"], required=True)
    stat.add_argument("--k", type=int, help="rank for --stat kth")
    stat.add_argument("--p", type=float, help="percentile for --stat percentile")
    bench = sub.add_parser("bench", parents=[common], help="approximation-degree sweep")
    bench.add_argument("--task", choices=["rank", "sort", "min", "max"], default="rank")
    bench.add_argument("--degrees", type=_int_list, default=[64, 128, 256, 512])
    bench.add_argument("--ind-degrees", type=_int_list, default=None)
    bench.add_argument("--seeds", type=int, default=10)
    return parser


def _validate(parser, args):
    if args.mode is None:
        args.mode = "chebyshev" if args.command == "bench" else "ideal"
    if args.tie_correction is None:
        args.tie_correction = args.command not in ("rank", "bench")
    if args.command != "bench" and not args.input and not args.gen:
        parser.error("either --input or --gen is required")
    if args.command == "stat":
        if args.stat == "kth" and args.k is None:
            parser.error("--stat kth requires --k")
        if args.stat == "percentile" and args.p is None:
            parser.error("--stat percentile requires --p")
        if args.p is not None and not 0.0 <= args.p <= 100.0:
            parser.error("--p must lie in [0, 100]")
    if not 0.0 <= args.tie_fraction <= 1.0:
        parser.error("--tie-fraction must lie in [0, 1]")
    if args.count < 2:
        parser.error("--count must be >= 2")
    if args.cmp_degree < 1 or (args.ind_degree is not None and args.ind_degree < 1):
        parser.error("approximation degrees must be >= 1")
    if args.slot_count and (args.slot_count < 2 or args.slot_count & (args.slot_count - 1)):
        parser.error("--slot-count must be a power of two >= 2")
    if args.output is None:
        args.output = f"{args.command}_results.csv"
    if args.cost_output is None:
        args.cost_output = f"{args.command}_cost.csv"


_RUNNERS = {"rank": _run_rank, "sort": _run_sort, "stat": _run_stat, "bench": _run_bench}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _validate(parser, args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _RUNNERS[args.command](args)
    except DepthBudgetError as exc:
        print(f"error: depth budget: {exc}", file=sys.stderr)
        return EXIT_DEPTH
    except (CapacityError, FileNotFoundError, ValueError, OSError) as exc:
        print(f"error: input: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
