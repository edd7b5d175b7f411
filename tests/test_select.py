import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from slotrank import (
    CostReport,
    HEParams,
    HESimulator,
    KernelConfig,
    MatrixLayout,
    SortConfig,
    StatisticQuery,
    block_split,
    median,
    multi_sort,
    multi_statistic,
    order_statistic_mask,
    order_statistic_value,
    percentile,
    read_row,
)
from slotrank import reference
from slotrank import select as select_module

IDEAL = KernelConfig(mode="ideal", degree=256)


def make_engine(slot_count=64, max_level=64):
    return HESimulator(HEParams(slot_count=slot_count, max_level=max_level))


def value_of(engine, ct):
    return float(engine.decrypt(ct)[0])


def test_query_rejects_a_non_integer_k():
    # 2.5 failed later, in the mask-norm check, and True was taken as k = 1
    for k in (2.5, True):
        with pytest.raises(ValueError, match=f"k must be an integer, got {k!r}"):
            StatisticQuery("kth", k=k)
    assert StatisticQuery("kth", k=np.int64(2)).k == 2  # numpy integers pass


def test_query_rejects_a_bool_percentile():
    # True compared as 1 and was taken as the 1st percentile
    with pytest.raises(ValueError, match="p must be a real number, got True"):
        StatisticQuery("percentile", p=True)
    assert StatisticQuery("percentile", p=np.float64(5.0)).p == 5.0  # numpy floats pass


def test_query_rejects_a_string_percentile():
    # "5" raised TypeError from the range comparison
    with pytest.raises(ValueError, match="p must be a real number, got '5'"):
        StatisticQuery("percentile", p="5")


@pytest.mark.parametrize("p", [True, "5"])
def test_percentile_rejects_a_percentile_that_is_no_real_number(p):
    # percentile() converted p with float(), which took both
    eng = make_engine(16)
    with pytest.raises(ValueError, match=f"p must be a real number, got {p!r}"):
        percentile(eng, eng.encrypt([0.1, 0.2, 0.3]), 3, p, IDEAL)


def test_query_validation():
    with pytest.raises(ValueError):
        StatisticQuery("smallest")
    with pytest.raises(ValueError):
        StatisticQuery("kth")
    with pytest.raises(ValueError):
        StatisticQuery("percentile", p=123.0)


def test_mask_picks_rank_one_and_four():
    eng = make_engine(16)
    v = [0.20, 0.30, 0.10, 0.40]
    m1 = order_statistic_mask(eng, eng.encrypt(v), 4, StatisticQuery("kth", k=1), IDEAL)
    assert m1.layout == MatrixLayout(4, 16)  # masks land in row 0
    assert np.array_equal(read_row(eng, m1.mask, 4), [0, 0, 1, 0])
    m4 = order_statistic_mask(eng, eng.encrypt(v), 4, StatisticQuery("kth", k=4), IDEAL)
    assert np.array_equal(read_row(eng, m4.mask, 4), [0, 0, 0, 1])


def test_min_mask_on_constant_vector_selects_the_first():
    # tie correction ranks the three copies 1, 2, 3 by position
    eng = make_engine(16)
    m = order_statistic_mask(eng, eng.encrypt([0.5] * 3), 3, StatisticQuery("min"), IDEAL)
    assert np.array_equal(read_row(eng, m.mask, 3), [1, 0, 0])


@pytest.mark.parametrize(
    "slot_count, blocks", [(64, 1), (16, 2), (4, 4)], ids=["one-block", "two-blocks", "four-blocks"]
)
def test_extreme_masks_are_one_hot_at_every_block_count(slot_count, blocks):
    # tied extremes, within a block and across blocks: the min and max masks
    # select rank 1 and rank n of the tie-corrected ranking, one entry each,
    # however many blocks of side 8, 4 or 2 hold the 8 values
    v = np.array([0.9, 0.1, 0.5, 0.1, 0.9, 0.3, 0.1, 0.9])
    for kind, rank in (("min", 1), ("max", v.size)):
        eng = make_engine(slot_count)
        pipe, sels, width = select_module._select(eng, block_split(eng, v), StatisticQuery(kind), IDEAL)
        sels = list(sels)  # each mask is built when it is read
        assert len(sels) == blocks and width == 1
        mask = np.concatenate([read_row(eng, sel, pipe.layout.n_dim) for sel in sels])
        assert np.array_equal(mask, reference.corrected_ranks(v) == rank), kind


def test_mask_l1_norm_counts_rank_holders():
    rng = np.random.default_rng(31)
    eng = make_engine(64)
    for _ in range(10):
        v = rng.uniform(0, 1, 8)
        k = int(rng.integers(1, 9))
        m = eng.decrypt(
            order_statistic_mask(eng, eng.encrypt(v), 8, StatisticQuery("kth", k=k), IDEAL).mask
        ).reshape(8, 8)
        # the 8x8 matrix fills the slots, so every row holds the row-0 mask
        assert m[0].sum() == 1.0
        assert np.array_equal(m, np.tile(m[0], (8, 1)))


def test_k_out_of_range():
    eng = make_engine(16)
    with pytest.raises(ValueError):
        order_statistic_mask(eng, eng.encrypt([0.1, 0.2]), 2, StatisticQuery("kth", k=3), IDEAL)


def test_min_value_inner_product_path():
    eng = make_engine(16)
    v = [0.20, 0.30, 0.10, 0.40]
    out = value_of(eng, order_statistic_value(eng, eng.encrypt(v), 4, StatisticQuery("min"), IDEAL))
    assert abs(out - 0.10) < 1e-2


def test_min_of_constant_vector_divides_by_multiplicity():
    eng = make_engine(16)
    out = value_of(eng, order_statistic_value(eng, eng.encrypt([0.7] * 3), 3, StatisticQuery("min"), IDEAL))
    assert abs(out - 0.7) < 1e-6


def test_all_k_statistics_match_sorted_values():
    rng = np.random.default_rng(13)
    for n in (4, 8, 16):
        eng = make_engine(n * n)
        v = rng.uniform(0, 1, n)
        sorted_v = np.sort(v)
        values = []
        for k in range(1, n + 1):
            out = value_of(
                eng, order_statistic_value(eng, eng.encrypt(v), n, StatisticQuery("kth", k=k), IDEAL)
            )
            assert abs(out - sorted_v[k - 1]) < 1e-6
            values.append(out)
        assert np.all(np.diff(values) >= -1e-9)  # monotone in k


def test_min_max_with_duplicated_extremes():
    # a tied extreme is selected once, so the division by the norm 1 is exact
    eng = make_engine(64)
    v = [0.1, 0.1, 0.5, 0.9, 0.9, 0.3]
    lo = value_of(eng, order_statistic_value(eng, eng.encrypt(v), 6, StatisticQuery("min"), IDEAL))
    hi = value_of(eng, order_statistic_value(eng, eng.encrypt(v), 6, StatisticQuery("max"), IDEAL))
    assert (lo, hi) == (0.1, 0.9)


def test_median_odd_and_even():
    eng = make_engine(16)
    out = value_of(eng, median(eng, eng.encrypt([0.20, 0.30, 0.10, 0.40]), 4, IDEAL))
    assert abs(out - 0.25) < 1e-6
    out = value_of(eng, median(eng, eng.encrypt([0.10, 0.20, 0.30]), 3, IDEAL))
    assert abs(out - 0.20) < 1e-6


def test_median_constant_vector():
    eng = make_engine(64)
    out = value_of(eng, median(eng, eng.encrypt([0.42] * 6), 6, IDEAL))
    assert abs(out - 0.42) < 1e-6


def test_median_matches_oracle_randomised():
    rng = np.random.default_rng(55)
    for n in (3, 4, 5, 8, 9, 16):
        side = 1 << (n - 1).bit_length()
        eng = make_engine(max(16, side * side))
        v = rng.uniform(0, 1, n)
        out = value_of(eng, median(eng, eng.encrypt(v), n, IDEAL))
        assert abs(out - reference.median_value(v)) < 1e-6


def test_percentile_boundaries_delegate_to_min_max():
    eng = make_engine(16)
    v = [0.15, 0.15, 0.60, 0.90]
    lo = value_of(eng, percentile(eng, eng.encrypt(v), 4, 0.0, IDEAL))
    hi = value_of(eng, percentile(eng, eng.encrypt(v), 4, 100.0, IDEAL))
    assert (lo, hi) == (0.15, 0.90)


def test_percentile_half_is_median_for_odd_length():
    eng = make_engine(64)
    v = np.random.default_rng(1).uniform(0, 1, 5)
    p50 = value_of(eng, percentile(eng, eng.encrypt(v), 5, 50.0, IDEAL))
    med = value_of(eng, median(eng, eng.encrypt(v), 5, IDEAL))
    assert abs(p50 - med) < 1e-9
    assert abs(p50 - reference.median_value(v)) < 1e-6


def test_percentile_nearest_rank():
    eng = make_engine(16)
    v = [0.10, 0.20, 0.30, 0.40]
    out = value_of(eng, percentile(eng, eng.encrypt(v), 4, 75.0, IDEAL))
    assert abs(out - 0.30) < 1e-6  # nearest rank k=3
    assert reference.percentile_value(v, 75.0) == 0.30


def test_percentile_out_of_range():
    eng = make_engine(16)
    with pytest.raises(ValueError):
        percentile(eng, eng.encrypt([0.1, 0.2]), 2, 101.0, IDEAL)


def test_statistic_level_budget():
    eng = make_engine(64, max_level=64)
    eng.cost_reset()
    order_statistic_mask(
        eng, eng.encrypt(np.random.default_rng(0).uniform(size=8)), 8,
        StatisticQuery("kth", k=3), IDEAL,
    )
    rep = eng.cost_snapshot()
    assert rep.levels_consumed <= 9 + 9 + 4  # ideal depths of degree 256
    assert rep.cmp_evals == 1 and rep.ind_evals == 1


def test_chebyshev_mode_min_value():
    eng = make_engine(64, max_level=72)
    cfg = KernelConfig(mode="chebyshev", degree=512)
    v = [0.15, 0.55, 0.35, 0.95, 0.05, 0.75, 0.25, 0.85]
    out = value_of(eng, order_statistic_value(eng, eng.encrypt(v), 8, StatisticQuery("min"), cfg))
    assert abs(out - 0.05) < 1e-2


def test_chebyshev_mode_extremes_span_the_whole_range():
    # the stats_cheb_noisy benchmark's kernel; no pipeline reads its tie_margin
    cfg = KernelConfig(mode="chebyshev", degree=256, tie_margin=1 / 512)
    spread = [0.3, 1.0, 0.6, 0.0, 0.45, 0.8, 0.15, 0.7]
    cases = [
        ("min", spread, 0.0),
        ("max", spread, 1.0),
        # tied extremes: one copy holds rank 1 (rank n), as for distinct values
        ("max", [0.3, 0.9, 0.6, 0.1, 0.45, 0.9, 0.15, 0.7], 0.9),
        ("min", [0.3, 0.9, 0.6, 0.1, 0.45, 0.1, 0.15, 0.7], 0.1),
    ]
    for kind, v, want in cases:
        eng = make_engine(64, max_level=72)
        out = value_of(eng, order_statistic_value(eng, eng.encrypt(v), 8, StatisticQuery(kind), cfg))
        assert abs(out - want) < 1e-2, (kind, v, out)


PINNED_INPUT = [0.62, 0.13, 0.91, 0.47, 0.05, 0.78, 0.34, 0.56]
PINNED_CHEB = KernelConfig(mode="chebyshev", degree=64)


def _tied_values(rng, n):
    # uniform values of which 10-30% repeat another entry
    v = rng.uniform(0, 1, n)
    count = max(1, round(rng.uniform(0.1, 0.3) * n))
    v[rng.choice(n, size=count, replace=False)] = v[rng.choice(n, size=count)]
    return v


def test_multi_block_statistics_match_the_oracle():
    # one to four blocks of 8, the last one padded or full, odd and even
    # lengths; ranks and masks are exact in ideal mode, and the division by
    # a tie-corrected window's norm k is seeded at 1/k, exact for k = 1, 2
    rng = np.random.default_rng(2024)
    b = 8
    checked = 0
    for blocks in (1, 2, 3, 4):
        for n in (blocks * b - 3, blocks * b - 2, blocks * b):
            v = _tied_values(rng, n)
            if n % 2 == 0:  # the last block repeats the extremes of the others
                v[-2:] = v[:-2].min(), v[:-2].max()
            queries = [
                StatisticQuery("min"), StatisticQuery("max"), StatisticQuery("median"),
                StatisticQuery("kth", k=int(rng.integers(1, n + 1))),
                StatisticQuery("percentile", p=0.0), StatisticQuery("percentile", p=100.0),
                StatisticQuery("percentile", p=float(rng.uniform(0, 100))),
            ]
            for query in queries:
                eng = make_engine(b * b)
                bv = block_split(eng, v)
                assert len(bv.blocks) == blocks
                out = value_of(eng, multi_statistic(eng, bv, query, IDEAL))
                assert out == reference.statistic_value(v, query.kind, query.k, query.p), (n, query)
                checked += 1
    assert checked == 12 * 7


def _sixteen_tied_blocks():
    # 1024 tied values in 16 blocks of 64 that fill 4096 slots, as the
    # multisort_ideal benchmark sorts them
    rng = np.random.default_rng(5)
    v = rng.uniform(0, 1, 1024)
    v[rng.integers(0, 1024, size=100)] = v[rng.integers(0, 1024, size=100)]
    eng = make_engine(4096)
    bv = block_split(eng, v)
    assert len(bv.blocks) == 16
    return v, eng, bv


def _traced_peak(run):
    """``run()`` and the ``tracemalloc`` peak of a second call, once the
    cached plaintext masks the first call made are warm."""
    run()
    tracemalloc.start()
    try:
        out = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_multi_block_median_holds_4l_slot_vectors():
    # the row replications and ranks are 1 MB; each block's mask is built
    # just before its product, and the masked products are summed as they
    # are made.  The circuit that held every column replication, a block's
    # row of comparisons and every product at once peaked at 2.68 MB, and
    # the one that built every mask before the first product at 1.83 MB
    v, eng, bv = _sixteen_tied_blocks()
    out, peak = _traced_peak(lambda: multi_statistic(eng, bv, StatisticQuery("median"), IDEAL))
    assert value_of(eng, out) == reference.median_value(v)
    assert peak < 2.0e6


def test_multi_block_median_peaks_no_higher_than_the_same_shape_sort():
    # the statistic holds the sort's row replications and ranks and one mask
    # at a time, where the sort holds its outputs: 1.34 MB against 1.77 MB.
    # Built all before the first product, the masks took it to 1.83 MB
    v, eng, bv = _sixteen_tied_blocks()
    _, sort_peak = _traced_peak(lambda: multi_sort(eng, bv, SortConfig(kernel=IDEAL, tie_correction=True)))
    out, peak = _traced_peak(lambda: multi_statistic(eng, bv, StatisticQuery("median"), IDEAL))
    assert value_of(eng, out) == reference.median_value(v)
    assert peak <= sort_peak


def test_noisy_chebyshev_three_block_statistics(monkeypatch):
    # 40 values in 256 slots: three 16x16 blocks, the last one padded.  Shared
    # operands that an op took the owed noise of would raise when read again.
    # A padded entry ranks 0, which the chebyshev window at k = 1 partly
    # selects: counted, it took the min's norm to 2.03, where the division
    # seeded at 1 diverges; cut to the valid rows it reads 0.85
    norms = []
    divide = select_module.goldschmidt_inverse

    def spy(engine, x, k, numerator):
        norms.append(float(x.slots[0]))
        return divide(engine, x, k, numerator)

    monkeypatch.setattr(select_module, "goldschmidt_inverse", spy)
    rng = np.random.default_rng(8)
    v = _tied_values(rng, 40)
    cfg = KernelConfig(mode="chebyshev", degree=256)
    queries = [
        StatisticQuery("min"), StatisticQuery("max"), StatisticQuery("median"),
        StatisticQuery("kth", k=13), StatisticQuery("percentile", p=90.0),
    ]
    for seed, query in enumerate(queries):
        eng = HESimulator(HEParams(slot_count=256, max_level=64, noise_sigma=1e-6, seed=seed))
        bv = block_split(eng, v)
        assert len(bv.blocks) == 3 and bv.valid_in(2) == 8
        out = value_of(eng, multi_statistic(eng, bv, query, cfg))
        assert abs(out - reference.statistic_value(v, query.kind, query.k, query.p)) < 2e-2, query
    assert 0.0 < norms[0] < 1.2  # the min


def test_statistic_value_is_the_oracle_of_every_kind():
    v = [0.4, 0.1, 0.9, 0.1, 0.6]
    want = {("min", None, None): 0.1, ("max", None, None): 0.9, ("median", None, None): 0.4,
            ("kth", 2, None): 0.1, ("kth", 4, None): 0.6, ("percentile", None, 0.0): 0.1,
            ("percentile", None, 75.0): 0.6, ("percentile", None, 100.0): 0.9}
    for (kind, k, p), value in want.items():
        assert reference.statistic_value(v, kind, k, p) == value, (kind, k, p)
    with pytest.raises(ValueError, match="unknown statistic"):
        reference.statistic_value(v, "mode")


def test_even_median_is_one_query_on_one_ranking():
    v = [0.20, 0.30, 0.10, 0.40, 0.25, 0.35]
    eng = make_engine(64)
    via_query = value_of(eng, order_statistic_value(eng, eng.encrypt(v), 6, StatisticQuery("median"), IDEAL))
    assert via_query == pytest.approx(reference.median_value(v), rel=1e-13)
    assert eng.cost_snapshot().cmp_evals == 1 and eng.cost_snapshot().ind_evals == 1
    m = order_statistic_mask(eng, eng.encrypt(v), 6, StatisticQuery("median"), IDEAL)
    assert np.array_equal(read_row(eng, m.mask, 6), [0, 1, 0, 0, 1, 0])  # ranks 3 and 4


def test_long_vector_statistic_keeps_full_precision():
    # 300 values in nineteen 16x16 blocks: a window's mask norm is its
    # number of target ranks whatever n, so the division seeded at 1/k
    # stays exact
    rng = np.random.default_rng(5)
    v = _tied_values(rng, 300)
    for query in (StatisticQuery("median"), StatisticQuery("kth", k=211)):
        eng = make_engine(256)
        out = value_of(eng, multi_statistic(eng, block_split(eng, v), query, IDEAL))
        assert out == reference.statistic_value(v, query.kind, query.k, query.p), query


@pytest.mark.parametrize("scale, norm", [(2.5, "5"), (0.0, "0")])
def test_seeded_reciprocal_refuses_a_norm_it_would_diverge_on(monkeypatch, scale, norm):
    # an even-length median's window of 2 ranks promises norm 2, and the
    # division seeded at 1/2 converges on (0, 4) only; a hand-built mask
    # of norm 2.5k, or 0, raises instead of returning a wrong value.  One
    # block's mask fills every row of a matrix that fills the slots, and
    # the norm is read from row 1
    eng = make_engine(16)
    grid = np.zeros((4, 4))
    grid[:, :2] = scale
    monkeypatch.setattr(select_module, "indicator_kernel", lambda engine, *_: engine.encrypt(grid.ravel()))
    with pytest.raises(ValueError, match=rf"select\.median/\S*select\.multi_statistic: mask norm {norm} of a window "):
        median(eng, eng.encrypt([0.20, 0.30, 0.10, 0.40]), 4, IDEAL)


def test_one_block_statistic_folds_its_value_and_norm_together():
    # one block on a matrix of side B that fills the slots: one fold of
    # log2 B - 1 shared steps by 1..B/4, then B/2 for the value and B, 3B/2
    # for the norm, log2 B + 2 rotations where two folds took 2 log2 B
    rng = np.random.default_rng(12)
    for side in (4, 8, 64):
        v = rng.uniform(0, 1, side)
        eng = make_engine(side * side)
        out = order_statistic_value(eng, eng.encrypt(v), side, StatisticQuery("min"), IDEAL)
        assert value_of(eng, out) == v.min()
        tail = [1 << i for i in range(side.bit_length() - 2)] + [side // 2, side, 3 * side // 2]
        assert eng.rotation_offsets()[-len(tail):] == tail, side


def test_noisy_one_block_statistic_is_reproducible():
    # 8 values in 64 slots: the weights, the one product and the shared
    # fold read each shared value once, or a value an op took would raise
    # EngineError when read again; one seed gives one answer and one cost
    v = np.array(PINNED_INPUT)
    cfg = KernelConfig(mode="chebyshev", degree=256)
    queries = [
        StatisticQuery("min"), StatisticQuery("max"), StatisticQuery("median"),
        StatisticQuery("kth", k=3), StatisticQuery("percentile", p=75.0),
    ]
    for query in queries:
        runs = []
        for _ in range(2):
            eng = HESimulator(HEParams(slot_count=64, max_level=64, noise_sigma=1e-6, seed=11))
            out = eng.decrypt(order_statistic_value(eng, eng.encrypt(v), 8, query, cfg))
            runs.append((out, eng.cost_snapshot()))
        (out, report), (again, report_again) = runs
        assert np.array_equal(out, again) and report == report_again, query
        assert abs(out[0] - reference.statistic_value(v, query.kind, query.k, query.p)) < 2e-2, query


def test_padded_one_block_min_leaves_the_padding_out_without_a_cut():
    # 60 values in one 64x64 block that fills 4096 slots: the 4 padded
    # entries hold 0 and rank 0, which the chebyshev window at k = 1 partly
    # selects.  The weights hold 1/k on the valid columns only, so the min
    # costs what the unpadded one does plus the pad mask on its comparisons,
    # one ct-pt and one level, and the padding's zeros do not pull it down
    cfg = KernelConfig(mode="chebyshev", degree=256, tie_margin=1 / 512)
    reports = {}
    for n in (60, 64):
        v = np.random.default_rng(3).uniform(0.5, 1.0, n)
        eng = make_engine(4096)
        out = value_of(eng, order_statistic_value(eng, eng.encrypt(v), n, StatisticQuery("min"), cfg))
        assert abs(out - v.min()) < 2e-2, n
        reports[n] = eng.cost_snapshot()
    assert reports[60] == replace(
        reports[64], ctpt_mults=reports[64].ctpt_mults + 1, levels_consumed=reports[64].levels_consumed + 1
    )


@pytest.mark.parametrize(
    "kind, report",
    [
        # k = 1: the division's seed 2 - x is a free negation
        ("min", CostReport(rotations=6, critical_rotations=4, ctct_mults=42, ctpt_mults=59, additions=109,
                           cmp_evals=1, ind_evals=1, levels_consumed=24)),
        ("median", CostReport(rotations=6, critical_rotations=4, ctct_mults=45, ctpt_mults=92, additions=147,
                              cmp_evals=1, ind_evals=1, levels_consumed=24)),
    ],
)
def test_two_by_two_statistic_keeps_its_two_folds(kind, report):
    # 2 values in 4 slots: a 2x2 matrix, where one fold of both sums would
    # take 3 rotations and the weights an addition; its rows are alike, so
    # the value and the norm each fold in one step with no mask, as before.
    # Both divide with the value in the norm's chain; the median's seed
    # (4 - x)/4 takes a ct-pt and a level, as the value's product does, so
    # both end at 24 levels
    eng = make_engine(4)
    out = order_statistic_value(eng, eng.encrypt([0.7, 0.2]), 2, StatisticQuery(kind), PINNED_CHEB)
    assert abs(value_of(eng, out) - {"min": 0.2, "median": 0.45}[kind]) < 1e-3
    assert eng.cost_snapshot() == report
