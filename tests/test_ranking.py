import numpy as np
import pytest

from plain_matrix import comparison_matrix, from_slots
from slotrank import (
    CapacityError,
    CostReport,
    HEParams,
    HESimulator,
    KernelConfig,
    SortConfig,
    block_merge,
    block_size_for,
    block_split,
    multi_rank,
    multi_sort,
    rank,
    rank_corrected,
    read_row,
    sum_axis,
    tie_offset,
)
from slotrank import chebyshev, reference
from slotrank.matrix import MatrixLayout
from slotrank.ranking import multi_rank_pipeline, rank_pipeline

IDEAL = KernelConfig(mode="ideal", degree=256)


def make_engine(slot_count, max_level=40):
    return HESimulator(HEParams(slot_count=slot_count, max_level=max_level))


def tie_heavy_vector(rng, n):
    v = rng.uniform(0, 1, n)
    dup = rng.integers(0, n, size=max(1, n // 3))
    v[dup] = v[rng.integers(0, n, size=dup.size)]
    return v


# ----------------------------------------------------------------------
# single ciphertext
# ----------------------------------------------------------------------


def test_rank_known_vector():
    eng = make_engine(16)
    res = rank(eng, eng.encrypt([20, 30, 10, 40]), 4, IDEAL)
    assert np.array_equal(read_row(eng, res.ranks, 4), [2, 3, 1, 4])
    assert not res.corrected


def test_rank_with_padding_fractional_ties():
    eng = make_engine(64)
    res = rank(eng, eng.encrypt([50, 10, 20, 20, 40]), 5, IDEAL)
    assert np.array_equal(read_row(eng, res.ranks, 5), [5, 1, 2.5, 2.5, 4])
    # the 8x8 matrix fills the slots: its rank fold leaves the ranks in every
    # row, and nothing in the padded columns
    assert np.array_equal(eng.decrypt(res.ranks).reshape(8, 8), np.tile([5, 1, 2.5, 2.5, 4, 0, 0, 0], (8, 1)))


def test_rank_constant_vector():
    for n in (4, 8):
        eng = make_engine(64)
        res = rank(eng, eng.encrypt([3.3] * n), n, IDEAL)
        assert np.array_equal(read_row(eng, res.ranks, n), [(n + 1) / 2] * n)


def test_rank_budget_counters():
    for n in (4, 8, 16, 5, 100):
        side = 1 << (n - 1).bit_length()
        eng = make_engine(max(16, side * side))
        eng.cost_reset()
        rank(eng, eng.encrypt(np.random.default_rng(n).uniform(size=n)), n, IDEAL)
        rep = eng.cost_snapshot()
        log_n = (side - 1).bit_length()
        assert rep.cmp_evals == 1
        assert rep.rotations <= 4 * log_n
        assert rep.critical_rotations <= 3 * log_n
        assert rep.levels_consumed <= 9 + 4  # ideal depth of degree 256 is 9


def test_rank_capacity_error_points_at_blocks():
    eng = make_engine(16)
    with pytest.raises(CapacityError):
        rank(eng, eng.encrypt(np.zeros(5)), 5, IDEAL)


def test_rank_matches_oracle_randomised():
    rng = np.random.default_rng(40)
    for n in (4, 8, 16, 32):
        eng = make_engine(n * n)
        for trial in range(30):
            v = tie_heavy_vector(rng, n) if trial % 5 == 0 else rng.uniform(0, 1, n)
            res = rank(eng, eng.encrypt(v), n, IDEAL)
            assert np.array_equal(read_row(eng, res.ranks, n), reference.fractional_ranks(v))


# ----------------------------------------------------------------------
# tie correction
# ----------------------------------------------------------------------


def offset_of(eng, cells, layout, n):
    # the pipeline folds the cells with the block's comparisons; the -1/2
    # rides in its rank shift
    return read_row(eng, sum_axis(eng, cells, layout, "row"), n) - 0.5


LAYOUT_4 = MatrixLayout(4, 16)


def self_comparison(eng, values):
    ct = eng.encrypt(values)
    return comparison_matrix(eng, ct, ct, LAYOUT_4, IDEAL)


def test_tie_offset_known_vectors():
    eng = make_engine(16)
    cells = tie_offset(eng, self_comparison(eng, [10, 20, 20, 40]), LAYOUT_4)
    assert np.array_equal(offset_of(eng, cells, LAYOUT_4, 4), [0, -0.5, 0.5, 0])


def test_tie_offset_distinct_is_zero():
    eng = make_engine(16)
    cells = tie_offset(eng, self_comparison(eng, [4, 1, 3, 2]), LAYOUT_4)
    assert np.array_equal(offset_of(eng, cells, LAYOUT_4, 4), [0, 0, 0, 0])


def test_tie_offset_all_equal():
    # positions in the tie are 1..4, tie size 4: offsets (1..4) - 2 - 0.5
    eng = make_engine(16)
    cells = tie_offset(eng, self_comparison(eng, [7, 7, 7, 7]), LAYOUT_4)
    assert np.array_equal(offset_of(eng, cells, LAYOUT_4, 4), [-1.5, -0.5, 0.5, 1.5])
    assert np.array_equal(
        offset_of(eng, cells, LAYOUT_4, 4), reference.tie_offsets([7.0, 7.0, 7.0, 7.0])
    )


def test_noisy_tie_offset_reads_an_owing_comparison_twice():
    # c(1 - c) uses c in both factors, so an owing c is shared, not spent
    exact = make_engine(16)
    cmp_matrix = self_comparison(exact, [10, 20, 20, 40])
    eng = HESimulator(HEParams(slot_count=16, max_level=40, noise_sigma=1e-9, seed=1))
    owing = eng.mul_plain(eng.encrypt(2.0 * exact.decrypt(cmp_matrix)), 0.5)
    assert owing.owed == 1
    cells = tie_offset(eng, owing, LAYOUT_4)
    assert np.allclose(offset_of(eng, cells, LAYOUT_4, 4), [0, -0.5, 0.5, 0], atol=1e-6)


def test_rank_corrected_known_vectors():
    eng = make_engine(16)
    res = rank_corrected(eng, eng.encrypt([10, 20, 20, 40]), 4, IDEAL)
    assert res.corrected
    assert np.array_equal(read_row(eng, res.ranks, 4), [1, 2, 3, 4])
    res = rank_corrected(eng, eng.encrypt([5, 5, 5, 5]), 4, IDEAL)
    assert np.array_equal(read_row(eng, res.ranks, 4), [1, 2, 3, 4])


def test_rank_corrected_equals_rank_on_distinct_input():
    rng = np.random.default_rng(3)
    eng = make_engine(64)
    v = rng.permutation(8) * 0.1
    plain = rank(eng, eng.encrypt(v), 8, IDEAL)
    corrected = rank_corrected(eng, eng.encrypt(v), 8, IDEAL)
    assert np.array_equal(
        read_row(eng, plain.ranks, 8),
        read_row(eng, corrected.ranks, 8),
    )


def test_rank_corrected_is_permutation_and_respects_position_order():
    rng = np.random.default_rng(77)
    for n in (4, 8, 16, 32):
        eng = make_engine(n * n)
        for trial in range(25):
            v = tie_heavy_vector(rng, n)
            res = rank_corrected(eng, eng.encrypt(v), n, IDEAL)
            got = read_row(eng, res.ranks, n)
            assert np.array_equal(np.sort(got), np.arange(1, n + 1))
            assert np.array_equal(got, reference.corrected_ranks(v))
            # ranks inside a tie group increase with the position index
            for value in np.unique(v):
                group = got[v == value]
                assert np.all(np.diff(group) > 0)


def test_rank_corrected_level_budget():
    eng = make_engine(64, max_level=40)
    eng.cost_reset()
    rank_corrected(eng, eng.encrypt(np.random.default_rng(0).uniform(size=8)), 8, IDEAL)
    rep = eng.cost_snapshot()
    assert rep.levels_consumed <= 9 + 4
    assert rep.cmp_evals == 1


# ----------------------------------------------------------------------
# blocks
# ----------------------------------------------------------------------


def test_block_split_shapes():
    eng = make_engine(16)  # block side 4
    assert block_size_for(eng) == 4
    bv = block_split(eng, np.arange(8.0))
    assert len(bv.blocks) == 2 and bv.block_size == 4
    bv = block_split(eng, np.arange(5.0))
    assert len(bv.blocks) == 2
    assert np.array_equal(eng.decrypt(bv.blocks[1])[:4], [4, 0, 0, 0])
    assert bv.valid_in(1) == 1


def test_block_round_trip():
    eng = make_engine(16)
    rng = np.random.default_rng(0)
    for n in (3, 4, 5, 8, 13):
        v = rng.normal(size=n)
        assert np.array_equal(block_merge(eng, block_split(eng, v)), v)


def test_multi_rank_matches_single_and_oracle():
    eng = make_engine(16)
    v = np.array([3.0, 1.0, 7.0, 5.0, 8.0, 2.0, 6.0, 4.0])
    merged = block_merge(eng, multi_rank(eng, block_split(eng, v), IDEAL))
    assert np.array_equal(merged, v)  # a permutation of 1..8 ranks to itself
    assert np.array_equal(merged, reference.fractional_ranks(v))


def test_multi_rank_single_block_degenerates_to_rank():
    # same circuit: equal ranks, equal counters, same rotations in the same order
    for v in ([0.4, 0.1, 0.9, 0.6], [0.4, 0.1, 0.4]):  # the second is padded and tied
        v = np.array(v)
        n = v.size
        for tie_correction in (False, True):
            multi_eng, single_eng = make_engine(16), make_engine(16)
            bv = block_split(multi_eng, v)
            multi = block_merge(multi_eng, multi_rank(multi_eng, bv, IDEAL, tie_correction=tie_correction))
            pipe = rank_pipeline(single_eng, single_eng.encrypt(v), n, IDEAL, tie_correction=tie_correction)
            assert np.array_equal(multi, read_row(single_eng, pipe.ranks.blocks[0], n))
            assert multi_eng.cost_snapshot() == single_eng.cost_snapshot()
            assert multi_eng.rotation_offsets() == single_eng.rotation_offsets()


def test_multi_rank_comparison_count():
    for n, expected_pairs in ((16, 10), (12, 6), (8, 3)):
        eng = make_engine(16)  # block size 4
        eng.cost_reset()
        multi_rank(eng, block_split(eng, np.random.default_rng(n).uniform(size=n)), IDEAL)
        assert eng.cost_snapshot().cmp_evals == expected_pairs


def test_multi_rank_with_padding():
    eng = make_engine(16)
    v = np.array([50.0, 10.0, 20.0, 20.0, 40.0])
    merged = block_merge(eng, multi_rank(eng, block_split(eng, v), IDEAL))
    assert np.array_equal(merged, [5, 1, 2.5, 2.5, 4])


def test_multi_rank_leaves_padding_slots_zero():
    # padded entries rank 0 in every row.  A matrix that does not fill its
    # slots (32) masks its rank fold to row 0, so nothing lands outside the
    # valid row-0 prefix; a full one (16) folds every row, and its rows below
    # row 0 are not part of the result
    v = np.array([0.5, 0.1, 0.9, 0.5, 0.7, 0.1])
    for slot_count, tie_correction in ((16, False), (16, True), (32, False), (32, True)):
        eng = make_engine(slot_count)  # block side 4
        ranks = multi_rank(eng, block_split(eng, v), IDEAL, tie_correction=tie_correction)
        assert ranks.stride == 1
        for i, blk in enumerate(ranks.blocks):
            rest = eng.decrypt(blk)
            assert not rest[16:].any()
            grid = rest[:16].reshape(4, 4)
            assert not grid[:, ranks.valid_in(i) :].any()
            if slot_count > 16:
                assert not grid[1:].any()


def test_ranking_a_column_0_block_vector_is_refused():
    # ranks sit in row 0, but on a full matrix the rows below hold their
    # fold's partial sums, which the ranking's row replication would add in;
    # sorted values sit in column 0.  Both are refused on every engine,
    # before the replication's own check, which a noisy engine skips
    v = np.array([0.3, 0.7, 0.1, 0.9, 0.5, 0.2])
    cfg = KernelConfig(mode="chebyshev", degree=64)
    for noise_sigma in (0.0, 1e-9):
        eng = HESimulator(HEParams(slot_count=16, max_level=40, noise_sigma=noise_sigma, seed=1))
        ranks = multi_rank(eng, block_split(eng, v), cfg)
        assert ranks.computed and ranks.stride == 1
        with pytest.raises(ValueError, match="row 0"):
            multi_rank(eng, ranks, cfg)
        values = multi_sort(eng, block_split(eng, v), SortConfig(kernel=cfg))
        assert values.computed and values.stride == 4
        with pytest.raises(ValueError, match="row 0"):
            multi_rank(eng, values, cfg)


def test_ranking_several_blocks_along_the_columns_is_refused():
    # only the one-block sort ranks along the columns: that branch keeps no
    # row replication past block 0 and reads no cross-block sums, so two
    # blocks died mid-pipeline on a None.  They are refused before any op
    v = np.array([0.3, 0.7, 0.1, 0.9, 0.5, 0.2])
    eng = make_engine(16)
    bv = block_split(eng, v)
    assert len(bv.blocks) == 2
    eng.cost_reset()
    with pytest.raises(ValueError, match=r"^ranking\.multi_rank_pipeline: only one block ranks along the columns, not 2"):
        multi_rank_pipeline(eng, bv, IDEAL, axis="col")
    with pytest.raises(ValueError, match="axis must be 'row' or 'col'"):
        multi_rank_pipeline(eng, bv, IDEAL, axis="diag")
    assert eng.cost_snapshot() == CostReport()
    # one block ranks along the columns into column 0
    pipe = multi_rank_pipeline(eng, block_split(eng, v[:4]), IDEAL, axis="col")
    assert pipe.ranks.stride == 4
    assert np.array_equal(block_merge(eng, pipe.ranks), reference.fractional_ranks(v[:4]))


def test_multi_rank_tie_correction_matches_oracle():
    rng = np.random.default_rng(15)
    eng = make_engine(16)
    for n in (6, 8, 11, 16):
        for _ in range(10):
            v = tie_heavy_vector(rng, n)
            merged = block_merge(
                eng, multi_rank(eng, block_split(eng, v), IDEAL, tie_correction=True)
            )
            assert np.array_equal(merged, reference.corrected_ranks(v))


def test_noisy_multi_rank_is_reproducible_for_a_seed():
    v = tie_heavy_vector(np.random.default_rng(2), 16)
    cfg = KernelConfig(mode="chebyshev", degree=64)
    runs = []
    for _ in range(2):
        eng = HESimulator(HEParams(slot_count=16, max_level=40, noise_sigma=1e-6, seed=5))
        runs.append(block_merge(eng, multi_rank(eng, block_split(eng, v), cfg, tie_correction=True)))
    assert np.array_equal(runs[0], runs[1])
    assert not np.array_equal(runs[0], np.round(runs[0]))  # the noise is really there


def test_multi_rank_complement_identity():
    eng = make_engine(16)
    v = np.random.default_rng(6).uniform(size=16)
    bv = block_split(eng, v)
    pipe = multi_rank_pipeline(eng, bv, IDEAL)
    b, count = pipe.layout.n_dim, len(bv.blocks)
    pairs = [(i, j) for i in range(count) for j in range(i + 1, count)]
    for i, j in pairs:
        forward = comparison_matrix(eng, bv.blocks[i], bv.blocks[j], pipe.layout, IDEAL)
        reverse = comparison_matrix(eng, bv.blocks[j], bv.blocks[i], pipe.layout, IDEAL)
        lhs = from_slots(eng.decrypt(forward), b)
        rhs = from_slots(eng.decrypt(reverse), b)
        assert np.array_equal(lhs + rhs.T, np.ones((b, b)))
    assert len(pairs) == count * (count - 1) // 2 == 6
    # the pipeline's earlier-block ranks rest on the identity
    assert np.array_equal(block_merge(eng, pipe.ranks), reference.fractional_ranks(v))


def test_two_blocks_rank_a_tie_across_them_as_one_block_does():
    # The tied minimum 0.1 sits in both blocks; the complement identity
    # gives the second block's copy the shared rank 1.5 that one block does.
    v = np.array([0.3, 0.9, 0.1, 0.9, 0.5, 0.1, 0.7, 0.2])
    eng = make_engine(16)  # block side 4, two blocks
    blocks = multi_rank_pipeline(eng, block_split(eng, v), IDEAL).ranks
    assert len(blocks.blocks) == 2
    one_eng = make_engine(64)
    one_block = rank(one_eng, one_eng.encrypt(v), 8, IDEAL)
    assert np.array_equal(block_merge(eng, blocks), read_row(one_eng, one_block.ranks, 8))


def test_multi_rank_matches_single_when_both_fit():
    eng = make_engine(256)  # block side 16, and 16 values fit a single 16x16 matrix
    v = np.random.default_rng(12).uniform(size=16)
    res = rank(eng, eng.encrypt(v), 16, IDEAL)
    single = read_row(eng, res.ranks, 16)
    multi = block_merge(eng, multi_rank(eng, block_split(eng, v), IDEAL))
    assert np.array_equal(single, multi)


def test_polynomial_rank_tolerates_simulated_scheme_noise():
    # per-op noise emulates scheme error; the smooth comparison kernel
    # absorbs it for separated values (the ideal step would not)
    eng = HESimulator(HEParams(slot_count=64, max_level=40, noise_sigma=1e-9, seed=3))
    cfg = KernelConfig(mode="chebyshev", degree=256)
    v = np.array([0.9, 0.1, 0.35, 0.55, 0.7])
    res = rank(eng, eng.encrypt(v), 5, cfg)
    got = read_row(eng, res.ranks, 5)
    assert np.max(np.abs(got - reference.fractional_ranks(v))) < 1e-2


def test_tie_corrected_multi_rank_circuit_is_pinned():
    # three blocks of side 4 with ties inside and across blocks, ideal mode
    eng = make_engine(16, max_level=64)
    v = np.array([0.3, 0.7, 0.3, 0.1, 0.9, 0.5, 0.7, 0.2, 0.3, 0.8, 0.6, 0.4])
    bv = block_split(eng, v)
    assert len(bv.blocks) == 3
    ranks = multi_rank(eng, bv, IDEAL, tie_correction=True)
    assert np.array_equal(block_merge(eng, ranks), reference.corrected_ranks(v))
    # each block's rank fold is an all-reduce with no mask: 3 ct-pt fewer
    # than the masked fold into column 0 took; each block's tie cells take
    # one addition fewer than adding the tie offset to its comparisons
    assert eng.cost_snapshot() == CostReport(
        rotations=32, ctct_mults=6, ctpt_mults=10, additions=49,
        cmp_evals=6, ind_evals=0, levels_consumed=13, critical_rotations=8,
    )
    assert len(eng.rotation_offsets()) == 32


@pytest.mark.parametrize("slots", [16, 32])
def test_ranks_arrive_mapped_onto_the_fit_interval(slots):
    # two blocks of 4, the last one padded, on a matrix that fills the
    # slots and one that does not: each rank r reads s r + o, and every
    # other slot, padded entries too, reads o, the map of rank 0, at the
    # counters of the true ranks but for the later block's scaled sum
    v = np.array([0.3, 0.7, 0.3, 0.1, 0.9, 0.5, 0.7])
    cfg = KernelConfig(mode="chebyshev", degree=64)
    fit = chebyshev.fit_map(cfg, -0.5, 7.5)
    reports, blocks = [], []
    for f in (None, fit):
        eng = make_engine(slots, max_level=64)
        pipe = multi_rank_pipeline(eng, block_split(eng, v), cfg, tie_correction=True, fit=f)
        blocks.append([eng.decrypt(b) for b in pipe.ranks.blocks])
        reports.append(eng.cost_snapshot())
    rows = 4 if slots == 16 else 1
    for i, (true, mapped) in enumerate(zip(*blocks)):
        on = np.zeros(slots, dtype=bool)
        on[: 4 * rows].reshape(rows, 4)[:, : 4 if i == 0 else 3] = True
        np.testing.assert_allclose(mapped[on], fit.scale * true[on] + fit(0.0), atol=1e-12)
        assert np.all(mapped[~on] == fit(0.0))
    true, mapped = reports
    assert mapped.ctpt_mults == true.ctpt_mults + 1
    assert (mapped.rotations, mapped.ctct_mults, mapped.levels_consumed) == (
        true.rotations, true.ctct_mults, true.levels_consumed
    )


def test_spread_ranks_refuse_a_fit_interval_off_centre():
    eng = make_engine(16)
    cfg = KernelConfig(mode="chebyshev", degree=64)
    fit = chebyshev.fit_map(cfg, -0.5, 2.5)
    with pytest.raises(ValueError, match=r"^ranking\.multi_rank_pipeline: spread ranks need a fit interval centred on 0"):
        multi_rank_pipeline(eng, block_split(eng, [0.3, 0.7]), cfg, spread=True, fit=fit)
