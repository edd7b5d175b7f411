"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS line per
criterion; a failing assertion marks the criterion red.
"""

import argparse
import time

import numpy as np
from numpy.polynomial import chebyshev as npcheb

import plain_matrix as plain
from slotrank import (
    ChebyshevPolynomial,
    HEParams,
    HESimulator,
    KernelConfig,
    SortConfig,
    StatisticQuery,
    block_merge,
    block_split,
    kernel_depth,
    mask,
    multi_rank,
    multi_sort,
    order_statistic_mask,
    order_statistic_value,
    ps_eval,
    rank,
    rank_corrected,
    read_row,
    replicate,
    sort,
    sum_axis,
    tie_offset,
    transpose_vector,
)
from slotrank import reference
from slotrank.cli import bench_sweep
from slotrank.matrix import MatrixLayout
from slotrank.ranking import multi_rank_pipeline
from slotrank.sorting import sort_full

IDEAL = KernelConfig(mode="ideal", degree=256)
SIZES = (4, 8, 16, 32, 64, 128)


def engine_for(n, max_level=64):
    side = 1 << (n - 1).bit_length()
    return HESimulator(HEParams(slot_count=max(16, side * side), max_level=max_level))


def generate(rng, n, trial):
    v = rng.uniform(0.0, 1.0, n)
    if trial % 5 == 0:  # 20% of the vectors carry forced exact ties
        dup = rng.integers(0, n, size=max(1, n // 4))
        v[dup] = v[rng.integers(0, n, size=dup.size)]
    return v


def report(line):
    print(f"\nACCEPTANCE PASS: {line}")


def test_c1_oracle_exactness_ideal_mode():
    start = time.monotonic()
    for n in SIZES:
        eng = engine_for(n)
        rng = np.random.default_rng(n)
        for trial in range(500):
            v = generate(rng, n, trial)
            res = rank_corrected(eng, eng.encrypt(v), n, IDEAL)
            assert np.array_equal(read_row(eng, res.ranks, n), reference.corrected_ranks(v))
            out = read_row(eng, sort(eng, eng.encrypt(v), n, SortConfig(kernel=IDEAL)), n)
            assert np.array_equal(out, reference.sorted_values(v))
            k = int(rng.integers(1, n + 1))
            val = eng.decrypt(
                order_statistic_value(eng, eng.encrypt(v), n, StatisticQuery("kth", k=k), IDEAL)
            )[0]
            assert abs(val - reference.kth_smallest(v, k)) <= 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(
        "criterion 1: rank_corrected/sort exact and k-statistic within 1e-6 "
        f"for 500 vectors x N in {SIZES} ({elapsed:.1f}s < 120s)"
    )


def test_c2_corrected_ranks_are_permutations():
    for n in SIZES:
        eng = engine_for(n)
        rng = np.random.default_rng(1000 + n)
        cases = [generate(rng, n, trial) for trial in range(100)]
        cases.append(np.full(n, 0.37))                # all equal
        cases.append(np.repeat(rng.uniform(0, 1, max(1, n // 4)), 4)[:n])  # long runs
        for v in cases:
            res = rank_corrected(eng, eng.encrypt(v), n, IDEAL)
            ranks = read_row(eng, res.ranks, n)
            assert np.array_equal(np.sort(ranks), np.arange(1.0, n + 1.0))
    report("criterion 2: tie-corrected ranks are a permutation of 1..N, all-equal included")


def test_c3_cost_budgets():
    configs = [
        KernelConfig(mode="ideal", degree=256),
        KernelConfig(mode="chebyshev", degree=64, indicator_degree=64),
    ]
    for cfg in configs:
        d_c = kernel_depth(cfg, "compare")
        d_i = kernel_depth(cfg, "indicator")
        for n in SIZES:
            log_n = (n - 1).bit_length()
            rng = np.random.default_rng(n)
            v = rng.permutation(n) / n + 0.5 / n
            tied = np.floor(v * n / 2) / (n / 2) + 1 / n  # every value twice

            # tie correction rides in the one rank fold: same budgets
            for ranker, x in ((rank, v), (rank_corrected, tied)):
                eng = engine_for(n)
                eng.cost_reset()
                res = ranker(eng, eng.encrypt(x), n, cfg)
                rep = eng.cost_snapshot()
                assert rep.cmp_evals == 1
                assert rep.rotations <= 4 * log_n
                assert rep.levels_consumed <= d_c + 4
                if cfg.mode == "ideal" and res.corrected:
                    assert np.array_equal(read_row(eng, res.ranks, n), reference.corrected_ranks(x))

            eng = engine_for(n)
            eng.cost_reset()
            sel = order_statistic_mask(eng, eng.encrypt(v), n, StatisticQuery("kth", k=1 + n // 2), cfg)
            rep = eng.cost_snapshot()
            assert rep.levels_consumed <= d_c + d_i + 4
            if cfg.mode == "ideal":
                mask = read_row(eng, sel.mask, n)
                assert np.array_equal(mask, reference.corrected_ranks(v) == 1 + n // 2)

            for correct, x in ((False, v), (True, tied)):
                eng = engine_for(n)
                eng.cost_reset()
                out = sort(eng, eng.encrypt(x), n, SortConfig(kernel=cfg, tie_correction=correct))
                rep = eng.cost_snapshot()
                assert rep.cmp_evals == 1
                assert rep.ind_evals == 1
                assert rep.rotations <= 6 * log_n
                assert rep.critical_rotations <= 5 * log_n
                assert rep.levels_consumed <= d_c + d_i + 6
                if cfg.mode == "ideal":
                    assert np.array_equal(read_row(eng, out, n), reference.sorted_values(x))
    report(
        "criterion 3: rank <= 4logN rotations @ 1 comparison, sort <= 6logN "
        "(critical <= 5logN) @ 1 comparison + 1 indicator, with and without tie "
        "correction, level budgets met in both modes"
    )


def test_c4_multi_ciphertext():
    eng = HESimulator(HEParams(slot_count=1024, max_level=64))  # block side 32
    for n in (256, 512):
        rng = np.random.default_rng(n)
        v = rng.uniform(0, 1, n)
        blocks = block_split(eng, v)
        count = len(blocks.blocks)
        eng.cost_reset()
        ranks = block_merge(eng, multi_rank(eng, blocks, IDEAL))
        assert np.array_equal(ranks, reference.fractional_ranks(v))
        assert eng.cost_snapshot().cmp_evals == count * (count + 1) // 2
        out = block_merge(
            eng, multi_sort(eng, blocks, SortConfig(kernel=IDEAL, tie_correction=False))
        )
        assert np.array_equal(out, reference.sorted_values(v))

    bv = block_split(eng, np.random.default_rng(7).uniform(0, 1, 256))
    pipe = multi_rank_pipeline(eng, bv, IDEAL)
    side, count = pipe.layout.n_dim, len(bv.blocks)
    pairs = [(i, j) for i in range(count) for j in range(i + 1, count)]
    for i, j in pairs:
        forward = plain.comparison_matrix(eng, bv.blocks[i], bv.blocks[j], pipe.layout, IDEAL)
        reverse = plain.comparison_matrix(eng, bv.blocks[j], bv.blocks[i], pipe.layout, IDEAL)
        lhs = plain.from_slots(eng.decrypt(forward), side)
        rhs = plain.from_slots(eng.decrypt(reverse), side)
        assert np.array_equal(lhs + rhs.T, np.ones((side, side)))
    assert len(pairs) == count * (count - 1) // 2 == 28
    report(
        "criterion 4: multi-ciphertext rank/sort match the plaintext oracles at N in (256, 512), "
        "L(L+1)/2 comparisons, complement identity exact"
    )


def test_c5_matrix_primitives_against_brute_force():
    rng = np.random.default_rng(55)
    for n in (2, 4, 8, 16, 32, 64):
        eng = HESimulator(HEParams(slot_count=n * n, max_level=16))
        layout = MatrixLayout(n_dim=n, slot_count=n * n)
        log_n = (n - 1).bit_length()
        for _ in range(200):
            m = rng.integers(-9, 10, size=(n, n)).astype(np.float64)
            ct = eng.encrypt(m.ravel())
            k = int(rng.integers(0, n))
            row_only = np.zeros_like(m)
            row_only[0] = m[0]
            col_only = np.zeros_like(m)
            col_only[:, 0] = m[:, 0]
            row_ct = eng.encrypt(row_only.ravel())
            col_ct = eng.encrypt(col_only.ravel())

            eng.cost_reset()
            got = eng.decrypt(mask(eng, ct, layout, "row", k))
            assert np.array_equal(plain.from_slots(got, n), plain.mask_line(m, "row", k))
            got = eng.decrypt(mask(eng, ct, layout, "col", k))
            assert np.array_equal(plain.from_slots(got, n), plain.mask_line(m, "col", k))
            assert eng.cost_snapshot().rotations == 0

            for axis in ("row", "col"):
                eng.cost_reset()
                got = eng.decrypt(sum_axis(eng, ct, layout, axis))
                assert np.array_equal(plain.from_slots(got, n), plain.fold(m, axis, layout.full))
                assert eng.cost_snapshot().rotations == log_n

            eng.cost_reset()
            got = eng.decrypt(replicate(eng, row_ct, layout, "row"))
            assert np.array_equal(plain.from_slots(got, n), plain.spread(row_only, "row"))
            got = eng.decrypt(replicate(eng, col_ct, layout, "col"))
            assert np.array_equal(plain.from_slots(got, n), plain.spread(col_only, "col"))
            assert eng.cost_snapshot().rotations == 2 * log_n
            assert eng.cost_snapshot().ctpt_mults == 0

            eng.cost_reset()
            got = eng.decrypt(transpose_vector(eng, row_ct, layout, "row_to_col"))
            assert np.array_equal(plain.from_slots(got, n), plain.move_vector(row_only, "row_to_col"))
            got = eng.decrypt(transpose_vector(eng, col_ct, layout, "col_to_row"))
            assert np.array_equal(plain.from_slots(got, n), plain.move_vector(col_only, "col_to_row"))
            assert eng.cost_snapshot().rotations == 2 * log_n
            assert eng.cost_snapshot().ctpt_mults == 2

    eng = HESimulator(HEParams(slot_count=64, max_level=16))
    layout = MatrixLayout(n_dim=8, slot_count=64)
    col = np.zeros(64)
    col[0:64:8] = np.arange(1.0, 9.0)
    eng.cost_reset()
    transpose_vector(eng, eng.encrypt(col), layout, "col_to_row")
    assert eng.rotation_offsets() == [28, 14, 7]
    report(
        "criterion 5: all eight matrix primitives match the brute-force oracle "
        "(200 matrices x N in 2..64), rotation counts exact, 28/14/7 trace at N=8"
    )


def test_c6_degree_study():
    start = time.monotonic()
    args = argparse.Namespace(
        task="rank", count=128, seed=0, seeds=10, tie_fraction=0.0,
        mode="chebyshev", cmp_degree=None, ind_degree=None,
        degrees=[64, 128, 256, 512, 1024], ind_degrees=None,
        slot_count=0, max_level=64, noise_sigma=0.0, tie_correction=False,
    )
    records, monotone = bench_sweep(args)
    averages = [r["avg_err"] for r in records]
    assert monotone, f"displacements not non-increasing within 10%: {averages}"
    assert averages[-1] <= 0.5
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(
        "criterion 6: avg rank displacement non-increasing over degrees 2^6..2^10 "
        f"({', '.join(f'{a:.3f}' for a in averages)}), final <= 0.5 ({elapsed:.1f}s < 300s)"
    )


def test_c7_paterson_stockmeyer_economy():
    rng = np.random.default_rng(3)
    d = 1024
    coeffs = rng.uniform(-1, 1, d + 1)
    xs = rng.uniform(-1, 1, 64)
    eng = HESimulator(HEParams(slot_count=64, max_level=20))
    eng.cost_reset()
    out = eng.decrypt(
        ps_eval(eng, eng.encrypt(xs), ChebyshevPolynomial(interval=(-1.0, 1.0), coeffs=tuple(coeffs)))
    )
    rep = eng.cost_snapshot()
    assert rep.ctct_mults < 80
    assert rep.ctct_mults < d / 4
    err = np.max(np.abs(out - npcheb.chebval(xs, coeffs)))
    assert err <= 1e-8
    report(
        f"criterion 7: degree-1024 evaluation in {rep.ctct_mults} ct-ct multiplications "
        f"(< 80 and < d/4), Clenshaw agreement {err:.1e} <= 1e-8"
    )


def test_c8_paper_fixtures_bit_exact():
    eng = HESimulator(HEParams(slot_count=16, max_level=64))

    res = rank(eng, eng.encrypt([20, 30, 10, 40]), 4, IDEAL)
    assert np.array_equal(read_row(eng, res.ranks, 4), [2, 3, 1, 4])

    res = sort_full(eng, eng.encrypt([20, 30, 10, 40]), 4, SortConfig(kernel=IDEAL, tie_correction=False))
    assert np.array_equal(read_row(eng, res.values, 4), [10, 20, 30, 40])
    # row k of the paper's permutation matrix picks the element of rank k+1,
    # as column k of the selection does
    paper_mask = np.array([[0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float)
    assert np.array_equal(eng.decrypt(res.selection).reshape(4, 4), paper_mask.T)

    layout = MatrixLayout(n_dim=4, slot_count=16)
    tied = eng.encrypt([10, 20, 20, 40])
    cells = tie_offset(eng, plain.comparison_matrix(eng, tied, tied, layout, IDEAL), layout)
    offset = read_row(eng, sum_axis(eng, cells, layout, "row"), 4) - 0.5
    assert np.array_equal(offset, [0, -0.5, 0.5, 0])
    corrected = rank_corrected(eng, eng.encrypt([10, 20, 20, 40]), 4, IDEAL)
    assert np.array_equal(read_row(eng, corrected.ranks, 4), [1, 2, 3, 4])

    eng5 = HESimulator(HEParams(slot_count=64, max_level=64))
    res = rank(eng5, eng5.encrypt([50, 10, 20, 20, 40]), 5, IDEAL)
    assert np.array_equal(read_row(eng5, res.ranks, 5), [5, 1, 2.5, 2.5, 4])

    report(
        "criterion 8: fixtures reproduced bit-exactly - rank (20,30,10,40)->(2,3,1,4); "
        "sort ->(10,20,30,40) with the expected selection matrix; offset (0,-0.5,0.5,0) "
        "and corrected (1,2,3,4); ranking (50,10,20,20,40)->(5,1,2.5,2.5,4)"
    )
