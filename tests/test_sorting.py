import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from slotrank import (
    DepthBudgetError,
    HEParams,
    HESimulator,
    KernelConfig,
    SortConfig,
    block_merge,
    block_split,
    multi_rank,
    multi_sort,
    read_row,
    sort,
)
from slotrank import StatisticQuery, chebyshev, order_statistic_value, ranking, reference, select, sorting
from slotrank.sorting import sort_full

IDEAL = KernelConfig(mode="ideal", degree=256)


def make_engine(slot_count, max_level=48):
    return HESimulator(HEParams(slot_count=slot_count, max_level=max_level))


def cfg(tie_correction=True, kernel=IDEAL):
    return SortConfig(kernel=kernel, tie_correction=tie_correction)


def test_sort_known_vector():
    eng = make_engine(16)
    out = sort(eng, eng.encrypt([20, 30, 10, 40]), 4, cfg(tie_correction=False))
    assert np.array_equal(read_row(eng, out, 4), [10, 20, 30, 40])


def test_sort_mask_matrix_matches_rank_placement():
    # column k of the selection picks the element of rank k+1, whether or
    # not the matrix fills its slots
    expected_mask = np.array([[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1]], dtype=float)
    for slot_count in (16, 32):
        eng = make_engine(slot_count)
        res = sort_full(eng, eng.encrypt([20, 30, 10, 40]), 4, cfg(tie_correction=False))
        assert np.array_equal(eng.decrypt(res.selection)[:16].reshape(4, 4), expected_mask)
        assert np.array_equal(read_row(eng, res.values, 4), [10, 20, 30, 40])


def test_sort_already_sorted_is_unchanged():
    eng = make_engine(64)
    v = [0.1, 0.2, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95]
    out = sort(eng, eng.encrypt(v), 8, cfg(tie_correction=False))
    assert np.array_equal(read_row(eng, out, 8), v)


def test_sort_with_ties_needs_correction():
    eng = make_engine(16)
    v = [10, 20, 20, 40]
    out = sort(eng, eng.encrypt(v), 4, cfg(tie_correction=True))
    assert np.array_equal(read_row(eng, out, 4), [10, 20, 20, 40])


def test_sort_without_correction_rejects_ties():
    eng = make_engine(16)
    with pytest.raises(ValueError, match="sort_full"):
        sort(eng, eng.encrypt([0.3, 0.1, 0.3, 0.7]), 4, cfg(tie_correction=False))
    # zero padding past n is not a tie with a real zero
    out = sort(eng, eng.encrypt([0.3, 0.0, 0.7]), 3, cfg(tie_correction=False))
    assert np.array_equal(read_row(eng, out, 3), [0.0, 0.3, 0.7])


def test_sort_matches_oracle_randomised():
    rng = np.random.default_rng(91)
    for n in (4, 8, 16, 32):
        eng = make_engine(n * n)
        for trial in range(20):
            v = rng.uniform(0, 1, n)
            if trial % 4 == 0:
                v[rng.integers(0, n, size=n // 3)] = v[rng.integers(0, n, size=n // 3)]
            out = read_row(eng, sort(eng, eng.encrypt(v), n, cfg()), n)
            assert np.array_equal(out, reference.sorted_values(v))


def test_sort_output_is_permutation_of_input():
    rng = np.random.default_rng(14)
    eng = make_engine(256)
    v = rng.uniform(0, 1, 16)
    out = read_row(eng, sort(eng, eng.encrypt(v), 16, cfg()), 16)
    assert np.array_equal(np.sort(out), np.sort(v))


def test_sort_with_padding():
    eng = make_engine(64)
    v = [0.5, 0.1, 0.2, 0.2, 0.4]
    out = sort(eng, eng.encrypt(v), 5, cfg())
    assert np.array_equal(read_row(eng, out, 5), [0.1, 0.2, 0.2, 0.4, 0.5])


def test_optimized_sort_budgets():
    for n in (4, 8, 16, 32, 64):
        eng = make_engine(n * n, max_level=48)
        v = np.random.default_rng(n).permutation(n) / n
        eng.cost_reset()
        sort(eng, eng.encrypt(v), n, cfg(tie_correction=False))
        rep = eng.cost_snapshot()
        log_n = (n - 1).bit_length()
        assert rep.cmp_evals == 1
        assert rep.ind_evals == 1
        assert rep.rotations <= 6 * log_n
        assert rep.critical_rotations <= 5 * log_n
        assert rep.levels_consumed <= 9 + 9 + 6


def test_tie_corrected_sort_budget_keeps_critical_path():
    n = 16
    eng = make_engine(n * n)
    eng.cost_reset()
    sort(eng, eng.encrypt(np.random.default_rng(0).uniform(size=n)), n, cfg())
    rep = eng.cost_snapshot()
    log_n = (n - 1).bit_length()
    assert rep.critical_rotations <= 5 * log_n
    assert rep.levels_consumed <= 9 + 9 + 6


def test_chebyshev_sort_well_separated():
    v = np.array([0.15, 0.55, 0.35, 0.95, 0.05, 0.75, 0.25, 0.85])
    for d in (512, 1024):
        eng = make_engine(64, max_level=64)
        kernel = KernelConfig(mode="chebyshev", degree=d)
        out = read_row(eng, sort(eng, eng.encrypt(v), 8, cfg(tie_correction=False, kernel=kernel)), 8)
        assert np.max(np.abs(out - np.sort(v))) < 1e-6


@pytest.mark.parametrize("task", ["sort", "min"])
def test_chebyshev_window_reads_the_ranks_with_no_input_map(monkeypatch, task):
    # the ranks arrive mapped onto the window's fit interval, so the window's
    # powers start from its input at the ranks' level, on [-1, 1], and no
    # ct-pt product maps it there; the compare's powers start from the
    # difference of its operands as it comes, values in [0, 1], likewise
    seen = {"powers": []}

    def pipeline(*args, **kwargs):
        pipe = ranking.multi_rank_pipeline(*args, **kwargs)
        seen["ranks"] = pipe.ranks.blocks[0].level
        return pipe

    def compare(engine, x, y, kernel_cfg):
        seen["operands"] = min(x.level, y.level)
        return real_compare(engine, x, y, kernel_cfg)

    def mapped(engine, x, poly):
        before, level, reach = engine.cost_snapshot().ctpt_mults, x.level, float(np.abs(x.slots).max())
        out = real_mapped(engine, x, poly)
        seen["powers"].append((level, poly.interval, engine.cost_snapshot().ctpt_mults - before, reach))
        return out

    real_mapped, real_compare = chebyshev._mapped, ranking.compare_kernel
    monkeypatch.setattr(sorting, "multi_rank_pipeline", pipeline)
    monkeypatch.setattr(select, "multi_rank_pipeline", pipeline)
    monkeypatch.setattr(ranking, "compare_kernel", compare)
    monkeypatch.setattr(chebyshev, "_mapped", mapped)
    eng = make_engine(64, max_level=64)
    v = np.random.default_rng(5).integers(0, 16, 8) / 16.0
    kernel = KernelConfig(mode="chebyshev", degree=64)
    if task == "sort":
        got = read_row(eng, sort(eng, eng.encrypt(v), 8, cfg(kernel=kernel)), 8)
        assert np.max(np.abs(got - np.sort(v))) < 0.3
    else:
        got = eng.decrypt(order_statistic_value(eng, eng.encrypt(v), 8, StatisticQuery("min"), kernel))[0]
        assert abs(got - v.min()) < 0.05
    (*compare_in, compare_reach), (*window_in, window_reach) = seen["powers"]
    assert compare_in == [seen["operands"], (-1.0, 1.0), 0] and compare_reach < 1.0
    assert window_in == [seen["ranks"], (-1.0, 1.0), 0] and window_reach <= 1.0


# ----------------------------------------------------------------------
# multi-ciphertext
# ----------------------------------------------------------------------


def test_multi_sort_reverse_input():
    eng = make_engine(16)  # block side 4, two blocks
    v = np.arange(8.0, 0.0, -1.0)
    out = block_merge(eng, multi_sort(eng, block_split(eng, v), cfg(tie_correction=False)))
    assert np.array_equal(out, np.arange(1.0, 9.0))


def test_multi_sort_single_block_equals_sort():
    # The sort ranks along the columns and spreads its ranks to every
    # column, and its values land in row 0 by the row fold, B 2^k.  On a
    # full matrix (16 slots) multi_sort's rank fold is an all-reduce over
    # the rows, which spreads for free, where the sort's rank fold masks
    # its sums to column 0, one ct-pt and one level, and its spread takes
    # log2 B more rotations and additions, on the critical path; but the
    # sort's value fold over the rows is an all-reduce too, which drops the
    # mask multi_sort's column fold keeps, so the two differ only by the
    # spread.  Otherwise (32 slots) both spread and mask: the same counters,
    # the sort's rotations along the other axis.
    cases = [([0.4, 0.1, 0.9, 0.6], 16), ([0.4, 0.1, 0.4], 16), ([0.4, 0.1, 0.9, 0.6], 32), ([0.4, 0.1, 0.4], 32)]
    for v, slot_count in cases:  # the second of each pair is padded and tied
        v = np.array(v)
        n = v.size
        multi_eng, single_eng = make_engine(slot_count), make_engine(slot_count)
        multi = block_merge(multi_eng, multi_sort(multi_eng, block_split(multi_eng, v), cfg()))
        single = sort(single_eng, single_eng.encrypt(v), n, cfg())
        assert np.array_equal(multi, read_row(single_eng, single, n))
        assert np.array_equal(multi, np.sort(v))
        m = multi_eng.cost_snapshot()
        if slot_count == 16:
            m = replace(
                m, rotations=m.rotations + 2, critical_rotations=m.critical_rotations + 2, additions=m.additions + 2
            )
        assert single_eng.cost_snapshot() == m
        assert single_eng.rotation_offsets()[-2:] == [4, 8]


def test_multi_sort_indicator_count_is_block_count_squared():
    eng = make_engine(16)
    v = np.random.default_rng(0).uniform(size=16)  # 4 blocks
    eng.cost_reset()
    multi_sort(eng, block_split(eng, v), cfg(tie_correction=False))
    rep = eng.cost_snapshot()
    assert rep.ind_evals == 16
    assert rep.cmp_evals == 10


@pytest.mark.parametrize("blocks", [1, 3, 5])
def test_tie_corrected_rotations_follow_the_closed_forms(blocks):
    # L blocks of side B = 8, the last one padded.  Per block: 3 log B to
    # replicate and transpose, log B for the one rank fold (the tie offset
    # rides in it), 2 log B per block but the last for the later blocks'
    # column fold and its transpose; the sort adds a fold per block, and a spread
    # per block unless the 8x8 matrix fills the slots, where the rank fold
    # is an all-reduce that leaves the ranks in every row (64 slots).
    side, log_b = 8, 3
    v = np.random.default_rng(blocks).integers(0, 6, size=blocks * side - 3) / 6.0
    for slot_count, per_block in ((64, 7), (128, 8)):
        ranked, sorted_ = make_engine(slot_count), make_engine(slot_count)
        ranks = multi_rank(ranked, block_split(ranked, v), IDEAL, tie_correction=True)
        out = multi_sort(sorted_, block_split(sorted_, v), cfg())
        assert np.array_equal(block_merge(ranked, ranks), reference.corrected_ranks(v))
        assert np.array_equal(block_merge(sorted_, out), reference.sorted_values(v))
        assert ranked.cost_snapshot().rotations == (6 * blocks - 2) * log_b
        assert sorted_.cost_snapshot().rotations == (per_block * blocks - 2) * log_b


def test_multi_sort_with_ties_and_padding():
    rng = np.random.default_rng(33)
    eng = make_engine(16)
    for n in (5, 8, 11, 16):
        v = rng.uniform(0, 1, n)
        v[rng.integers(0, n, size=n // 3)] = v[rng.integers(0, n, size=n // 3)]
        out = block_merge(eng, multi_sort(eng, block_split(eng, v), cfg()))
        assert np.array_equal(out, np.sort(v))


def test_multi_sort_without_correction_rejects_ties():
    eng = make_engine(16)  # block side 4
    v = np.array([0.5, 0.1, 0.9, 0.2, 0.7, 0.9])  # the tie spans two blocks
    with pytest.raises(ValueError, match="multi_sort"):
        multi_sort(eng, block_split(eng, v), cfg(tie_correction=False))
    # zero padding of the last block is not a tie with a real zero
    v[-1] = 0.0
    out = block_merge(eng, multi_sort(eng, block_split(eng, v), cfg(tie_correction=False)))
    assert np.array_equal(out, np.sort(v))


def test_multi_sort_large_vector():
    eng = make_engine(16384)  # block side 128
    v = np.random.default_rng(9).uniform(0, 1, 256)
    out = block_merge(eng, multi_sort(eng, block_split(eng, v), cfg(tie_correction=False)))
    assert np.array_equal(out, np.sort(v))


def _traced_peak(eng, run):
    """``run()`` and the ``tracemalloc`` peak of a second call, once the
    cached plaintext masks and targets the first call made are warm; the
    engine counts the second call only."""
    run()
    eng.cost_reset()
    tracemalloc.start()
    try:
        out = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def _tied_values(count, ties, seed):
    rng = np.random.default_rng(seed)
    v = rng.uniform(0, 1, count)
    v[rng.integers(0, count, size=ties)] = v[rng.integers(0, count, size=ties)]
    return v


def test_many_block_sort_holds_o_l_slot_vectors():
    # 64 blocks of 64: the 2080 block comparisons, 2016 weak copies and 64
    # row replications took 110 MB when all were kept until the ranks were
    # done.  Releasing each comparison after its last reader left 10.6 MB,
    # with every column replication built up front, a block's row of
    # comparisons and weak copies held at once, and each output block's
    # products kept in a list; holding each slot vector only while it is
    # read leaves 6.6 MB: the row replications, ranks and outputs, 3L of
    # the 4L + O(1) slot vectors, as the inputs are made before the trace
    v = _tied_values(4096, 400, 3)
    eng = make_engine(4096)
    bv = block_split(eng, v)
    assert len(bv.blocks) == 64
    out, peak = _traced_peak(eng, lambda: multi_sort(eng, bv, cfg()))
    assert np.array_equal(block_merge(eng, out), reference.sorted_values(v))
    assert eng.cost_snapshot().rotations == (7 * 64 - 2) * 6
    assert peak < 7.2e6


def test_sixteen_block_sort_holds_4l_slot_vectors():
    # the multisort_ideal benchmark shape: 1024 tied values in 16 blocks of
    # 64 that fill 4096 slots.  The row replications, ranks and outputs are
    # 1.5 MB; the circuit that held every column replication, a block's row
    # of comparisons and an output block's products at once peaked at 2.65 MB
    v = _tied_values(1024, 100, 5)
    eng = make_engine(4096)
    bv = block_split(eng, v)
    assert len(bv.blocks) == 16
    out, peak = _traced_peak(eng, lambda: multi_sort(eng, bv, cfg()))
    assert np.array_equal(block_merge(eng, out), reference.sorted_values(v))
    assert peak < 2.0e6


def test_blocks_that_do_not_fill_the_slots_hold_only_their_spread_ranks():
    # 300 tied values in 8192 slots: five 64x64 blocks in half the slots, so
    # each block's ranks are spread to every row.  Each is spread as its
    # shift is added, and the placement reads only the spread copies: 1.32
    # MB, where holding the ranks beside them took 1.65 MB
    v = _tied_values(300, 30, 4)
    eng = make_engine(8192)
    bv = block_split(eng, v)
    assert len(bv.blocks) == 5
    out, peak = _traced_peak(eng, lambda: multi_sort(eng, bv, cfg()))
    assert np.array_equal(block_merge(eng, out), reference.sorted_values(v))
    assert peak < 1.5e6


def test_one_block_sort_drops_its_row_replications_before_the_folds():
    # 256 values in 2^16 slots, the sort_cheb shape: the column-axis sort
    # compares the row replication once and places with the column one, so
    # the row replication goes before the folds; kept, it took 4.2 MB
    v = np.random.default_rng(6).uniform(0, 1, 256)
    eng = make_engine(1 << 16)
    ct = eng.encrypt(v)
    out, peak = _traced_peak(eng, lambda: sort(eng, ct, 256, cfg()))
    assert np.array_equal(read_row(eng, out, 256), np.sort(v))
    assert peak < 3.9e6


def test_chebyshev_sort_holds_one_product_per_level_of_the_giant_step_walk():
    # the sort_cheb benchmark shape: 256 values in 2^16 slots at degree 1024.
    # The peak falls in the comparison's walk, beside its 16 baby-step rows
    # and 5 giant powers; holding each level's quotient part through the
    # remainder's walk as well took 18.9 MB, where 17.3 MB is left
    v = np.random.default_rng(0).uniform(0, 1, 256)
    eng = make_engine(1 << 16, max_level=64)
    ct = eng.encrypt(v)
    kernel = KernelConfig(mode="chebyshev", degree=1024)
    out, peak = _traced_peak(eng, lambda: sort(eng, ct, 256, cfg(kernel=kernel)))
    assert np.max(np.abs(read_row(eng, out, 256) - np.sort(v))) < 1.0
    assert peak < 18.1e6


def test_sort_fills_every_row_only_on_a_matrix_that_fills_the_slots():
    # 40 tied values in a 64x64 matrix: in 4096 slots the placement's fold
    # over the rows, rotations by 64 2^k, is cyclic, so it needs no mask and
    # every row holds the sorted values; in 8192 slots it is not, so its
    # mask keeps them in row 0, at one ct-pt and one level, and every other
    # slot is zero
    v = _tied_values(40, 4, 9)
    reports, offsets = {}, {}
    for slots in (4096, 8192):
        eng = make_engine(slots)
        out = sort(eng, eng.encrypt(v), 40, cfg())
        grid = eng.decrypt(out)[:4096].reshape(64, 64)
        assert np.array_equal(grid[0, :40], np.sort(v))
        if slots == 4096:
            assert all(np.array_equal(row, grid[0]) for row in grid)
        else:
            assert not grid[1:].any() and not eng.decrypt(out)[4096:].any()
        reports[slots], offsets[slots] = eng.cost_snapshot(), eng.rotation_offsets()[-6:]
    assert reports[8192] == replace(
        reports[4096], ctpt_mults=reports[4096].ctpt_mults + 1, levels_consumed=reports[4096].levels_consumed + 1
    )
    assert offsets[4096] == offsets[8192] == [64 << k for k in range(6)]


@pytest.mark.parametrize(
    "max_level,stage",
    [(8, "chebyshev.compare_kernel"), (14, "matrix.sum_axis"), (24, "chebyshev.indicator_kernel")],
)
def test_depth_budget_error_names_the_stage_that_ran_out(max_level, stage):
    # At degree 1024 the comparison, the rank fold's mask and the placement
    # indicator each end in the same engine ops; only the call path tells
    # which stage ran out of levels.  A kernel evaluation is counted once it
    # completes, so the one that ran out is not.  The 16x16 matrix does not
    # fill the 512 slots, so its rank fold, ``matrix.sum_axis`` along the
    # rows, ends in a mask.
    v = np.random.default_rng(1).uniform(0, 1, 16)
    eng = make_engine(512, max_level)
    with pytest.raises(DepthBudgetError) as err:
        multi_sort(eng, block_split(eng, v), cfg(kernel=KernelConfig(mode="chebyshev", degree=1024)))
    assert err.value.site.startswith("sorting.multi_sort/")
    assert stage in err.value.site
    assert err.value.site in str(err.value)
    report = eng.cost_snapshot()
    assert (report.cmp_evals, report.ind_evals) == (int(stage != "chebyshev.compare_kernel"), 0)


def test_sort_config_requires_kernel():
    with pytest.raises(TypeError):
        SortConfig()
