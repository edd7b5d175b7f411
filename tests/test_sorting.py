import numpy as np
import pytest

from slotrank import (
    CostReport,
    HEParams,
    HESimulator,
    KernelConfig,
    SortConfig,
    block_merge,
    block_split,
    multi_sort,
    read_row,
    sort,
)
from slotrank import reference
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
    # column k of the selection picks the element of rank k+1
    eng = make_engine(16)
    res = sort_full(eng, eng.encrypt([20, 30, 10, 40]), 4, cfg(tie_correction=False))
    expected_mask = np.array(
        [[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1]], dtype=float
    )
    assert np.array_equal(eng.decrypt(res.selection).reshape(4, 4), expected_mask)
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


def test_chebyshev_sort_circuit_is_pinned():
    # the step and the centred placement window skip their zero-parity terms
    eng = make_engine(256, max_level=40)
    v = np.random.default_rng(3).uniform(0, 1, 16)
    sort(eng, eng.encrypt(v), 16, cfg(kernel=KernelConfig(mode="chebyshev", degree=64)))
    assert eng.cost_snapshot() == CostReport(
        rotations=32, ctct_mults=32, ctpt_mults=66, additions=136,
        cmp_evals=1, ind_evals=1, levels_consumed=22, critical_rotations=20,
    )


# ----------------------------------------------------------------------
# multi-ciphertext
# ----------------------------------------------------------------------


def test_multi_sort_reverse_input():
    eng = make_engine(16)  # block side 4, two blocks
    v = np.arange(8.0, 0.0, -1.0)
    out = block_merge(eng, multi_sort(eng, block_split(eng, v), cfg(tie_correction=False)))
    assert np.array_equal(out, np.arange(1.0, 9.0))


def test_multi_sort_single_block_equals_sort():
    # same circuit: equal values, equal counters, same rotations in the same order
    for v in ([0.4, 0.1, 0.9, 0.6], [0.4, 0.1, 0.4]):  # the second is padded and tied
        v = np.array(v)
        n = v.size
        multi_eng, single_eng = make_engine(16), make_engine(16)
        multi = block_merge(multi_eng, multi_sort(multi_eng, block_split(multi_eng, v), cfg()))
        single = sort(single_eng, single_eng.encrypt(v), n, cfg())
        assert np.array_equal(multi, read_row(single_eng, single, n))
        assert np.array_equal(multi, np.sort(v))
        assert multi_eng.cost_snapshot() == single_eng.cost_snapshot()
        assert multi_eng.rotation_offsets() == single_eng.rotation_offsets()


def test_multi_sort_indicator_count_is_block_count_squared():
    eng = make_engine(16)
    v = np.random.default_rng(0).uniform(size=16)  # 4 blocks
    eng.cost_reset()
    multi_sort(eng, block_split(eng, v), cfg(tie_correction=False))
    rep = eng.cost_snapshot()
    assert rep.ind_evals == 16
    assert rep.cmp_evals == 10


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


def test_sort_config_requires_kernel():
    with pytest.raises(TypeError):
        SortConfig()
