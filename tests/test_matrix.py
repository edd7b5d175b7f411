import numpy as np
import pytest

import plain_matrix as oracle
from slotrank import HEParams, HESimulator, MatrixLayout, head_row_sums, mask, replicate, sum_axis, transpose_vector

SIDES = [2, 4, 8, 16, 32, 64]


def setup(n, slot_count=None):
    slots = slot_count or n * n
    eng = HESimulator(HEParams(slot_count=slots, max_level=16))
    layout = MatrixLayout(n_dim=n, slot_count=slots)
    return eng, layout


def random_int_matrix(rng, n):
    # integer entries keep all sums exact regardless of association order
    return rng.integers(-9, 10, size=(n, n)).astype(np.float64)


def test_layout_validation():
    with pytest.raises(ValueError):
        MatrixLayout(n_dim=3, slot_count=16)
    with pytest.raises(ValueError):
        MatrixLayout(n_dim=8, slot_count=16)


def test_mask_row_and_col():
    eng, layout = setup(4)
    ones = eng.encrypt(np.ones(16))
    row0 = eng.decrypt(mask(eng, ones, layout, "row", 0))
    assert np.array_equal(row0, oracle.to_slots(oracle.mask_line(np.ones((4, 4)), "row", 0), 16))
    col0 = eng.decrypt(mask(eng, ones, layout, "col", 0))
    assert np.array_equal(np.nonzero(col0)[0], [0, 4, 8, 12])


def test_mask_is_idempotent():
    eng, layout = setup(4)
    x = eng.encrypt(np.random.default_rng(0).normal(size=16))
    once = mask(eng, x, layout, "row", 2)
    twice = mask(eng, once, layout, "row", 2)
    assert np.array_equal(eng.decrypt(once), eng.decrypt(twice))


def test_mask_index_out_of_range():
    eng, layout = setup(4)
    with pytest.raises(IndexError):
        mask(eng, eng.encrypt(np.ones(16)), layout, "row", 4)


def test_sum_rows_known_comparison_matrix():
    m = np.array(
        [[0.5, 1, 0, 1], [0, 0.5, 0, 1], [1, 1, 0.5, 1], [0, 0, 0, 0.5]]
    )
    # a matrix that fills the slots folds into every row; one in more slots
    # into row 0, zero elsewhere
    for slots, rows in ((16, 4), (32, 1)):
        eng, layout = setup(4, slot_count=slots)
        out = eng.decrypt(sum_axis(eng, eng.encrypt(m.ravel()), layout, "row"))
        assert np.array_equal(out[: 4 * rows], np.tile([1.5, 2.5, 0.5, 3.5], rows))
        assert np.all(out[4 * rows :] == 0)


def test_fold_mask_carries_a_scale():
    # the scale rides in the fold's mask: no product more; the row fold of a
    # matrix that fills the slots has no mask, and refuses a scale
    m = np.arange(16, dtype=np.float64).reshape(4, 4)
    for slots, axis in ((16, "col"), (32, "col"), (32, "row")):
        eng, layout = setup(4, slot_count=slots)
        x = eng.encrypt(m.ravel())
        plain = eng.decrypt(sum_axis(eng, x, layout, axis))
        eng.cost_reset()
        out = eng.decrypt(sum_axis(eng, x, layout, axis, 0.25))
        assert np.array_equal(out, plain * 0.25)
        assert eng.cost_snapshot().ctpt_mults == 1
    eng, layout = setup(4, slot_count=16)
    with pytest.raises(ValueError, match=r"^matrix\.sum_axis: .*no mask to scale"):
        sum_axis(eng, eng.encrypt(m.ravel()), layout, "row", 0.25)
    assert np.array_equal(eng.decrypt(mask(eng, eng.encrypt(m.ravel()), layout, "row", 1, 2.0))[4:8], 2 * m[1])


def test_row_fold_is_an_all_reduce_only_on_a_matrix_that_fills_the_slots():
    # 4x4 in 16 slots: rotations by 4 and 8 are cyclic over the rows, so the
    # sums reach every row and no mask is needed; in 32 slots they are not,
    # and the mask keeps row 0 and zeroes the rest
    m = np.arange(16, dtype=np.float64).reshape(4, 4)
    sums = m.sum(axis=0)
    for slots, want in ((16, np.tile(sums, 4)), (32, np.concatenate([sums, np.zeros(28)]))):
        eng, layout = setup(4, slot_count=slots)
        x = eng.encrypt(m.ravel())
        eng.cost_reset()
        out = eng.decrypt(sum_axis(eng, x, layout, "row"))
        assert np.array_equal(out, want)
        assert eng.rotation_offsets() == [4, 8]
        assert eng.cost_snapshot().ctpt_mults == (0 if layout.full else 1)


def test_sum_cols_of_identity():
    eng, layout = setup(4)
    out = eng.decrypt(sum_axis(eng, eng.encrypt(np.eye(4).ravel()), layout, "col"))
    assert np.array_equal(oracle.from_slots(out, 4), oracle.fold(np.eye(4), "col"))


def test_sum_uses_exactly_log_n_rotations():
    for n in SIDES:
        eng, layout = setup(n)
        eng.cost_reset()
        sum_axis(eng, eng.encrypt(np.ones(n * n)), layout, "row")
        assert eng.cost_snapshot().rotations == layout.steps


def test_head_row_sums_fold_rows_0_and_1_into_slot_0():
    # log2 N - 1 shared steps by 1..N/4, then N/2 for row 0 and N, 3N/2
    # for row 1: log2 N + 2 rotations, each sum log2 N after its input
    rng = np.random.default_rng(4)
    for n in SIDES:
        eng, layout = setup(n)
        m = random_int_matrix(rng, n)
        x = eng.encrypt(m.ravel())
        eng.cost_reset()
        first, second = head_row_sums(eng, x, layout)
        assert (eng.decrypt(first)[0], eng.decrypt(second)[0]) == (m[0].sum(), m[1].sum())
        assert eng.rotation_offsets() == [1 << i for i in range(layout.steps - 1)] + [n // 2, n, 3 * n // 2]
        report = eng.cost_snapshot()
        assert (report.critical_rotations, report.ctpt_mults) == (layout.steps, 0)
        assert (first.rot_chain, second.rot_chain) == (layout.steps, layout.steps)


def test_head_row_sums_refuse_a_matrix_that_does_not_fill_the_slots():
    eng, layout = setup(4, slot_count=32)
    with pytest.raises(ValueError, match=r"^matrix\.head_row_sums: .*fills the slots"):
        head_row_sums(eng, eng.encrypt(np.ones(16)), layout)


def test_replicate_row_and_col():
    eng, layout = setup(4)
    row = eng.encrypt([20, 30, 10, 40])
    out = oracle.from_slots(eng.decrypt(replicate(eng, row, layout, "row")), 4)
    assert np.array_equal(out, np.tile([20, 30, 10, 40], (4, 1)))

    col_slots = np.zeros(16)
    col_slots[[0, 4, 8, 12]] = [20, 30, 10, 40]
    out = oracle.from_slots(eng.decrypt(replicate(eng, eng.encrypt(col_slots), layout, "col")), 4)
    assert np.array_equal(out, np.tile(np.array([20, 30, 10, 40])[:, None], (1, 4)))


def test_replicate_zero_is_zero():
    eng, layout = setup(8)
    out = eng.decrypt(replicate(eng, eng.encrypt(np.zeros(64)), layout, "row"))
    assert np.all(out == 0)


def test_replicate_costs_rotations_only():
    for n in SIDES:
        eng, layout = setup(n)
        eng.cost_reset()
        replicate(eng, eng.encrypt(np.ones(n)), layout, "row")
        rep = eng.cost_snapshot()
        assert rep.rotations == layout.steps
        assert rep.ctct_mults == 0 and rep.ctpt_mults == 0


def test_transpose_offsets_for_side_8():
    eng, layout = setup(8)
    col_slots = np.zeros(64)
    col_slots[0:64:8] = np.arange(1, 9)
    eng.cost_reset()
    out = transpose_vector(eng, eng.encrypt(col_slots), layout, "col_to_row")
    assert eng.rotation_offsets() == [28, 14, 7]
    assert np.array_equal(eng.decrypt(out)[:8], np.arange(1, 9))
    assert eng.cost_snapshot().ctpt_mults == 1


def test_transpose_row_to_col_fixture():
    eng, layout = setup(4)
    out = eng.decrypt(transpose_vector(eng, eng.encrypt([20, 30, 10, 40]), layout, "row_to_col"))
    expected = np.zeros(16)
    expected[[0, 4, 8, 12]] = [20, 30, 10, 40]
    assert np.array_equal(out, expected)


def test_transpose_round_trip_many_sides():
    rng = np.random.default_rng(17)
    for n in SIDES:
        eng, layout = setup(n)
        vec = rng.normal(size=n)
        there = transpose_vector(eng, eng.encrypt(vec), layout, "row_to_col")
        back = transpose_vector(eng, there, layout, "col_to_row")
        assert np.array_equal(eng.decrypt(back)[:n], vec)


def test_all_primitives_match_plaintext_oracle():
    rng = np.random.default_rng(23)
    for n in SIDES:
        eng, layout = setup(n)
        for _ in range(20):
            m = random_int_matrix(rng, n)
            ct = eng.encrypt(m.ravel())
            k = int(rng.integers(0, n))
            cases = [
                (mask(eng, ct, layout, "row", k), oracle.mask_line(m, "row", k)),
                (mask(eng, ct, layout, "col", k), oracle.mask_line(m, "col", k)),
                (sum_axis(eng, ct, layout, "row"), oracle.fold(m, "row", layout.full)),
                (sum_axis(eng, ct, layout, "col"), oracle.fold(m, "col")),
            ]
            row_only = np.zeros_like(m)
            row_only[0] = m[0]
            col_only = np.zeros_like(m)
            col_only[:, 0] = m[:, 0]
            cases += [
                (replicate(eng, eng.encrypt(row_only.ravel()), layout, "row"), oracle.spread(row_only, "row")),
                (replicate(eng, eng.encrypt(col_only.ravel()), layout, "col"), oracle.spread(col_only, "col")),
                (
                    transpose_vector(eng, eng.encrypt(row_only.ravel()), layout, "row_to_col"),
                    oracle.move_vector(row_only, "row_to_col"),
                ),
                (
                    transpose_vector(eng, eng.encrypt(col_only.ravel()), layout, "col_to_row"),
                    oracle.move_vector(col_only, "col_to_row"),
                ),
            ]
            for got, want in cases:
                assert np.array_equal(oracle.from_slots(eng.decrypt(got), n), want)


def test_primitives_in_oversized_ciphertext():
    # slots beyond the matrix stay clean after each masked primitive
    rng = np.random.default_rng(5)
    n, slots = 8, 256
    eng, layout = setup(n, slot_count=slots)
    m = random_int_matrix(rng, n)
    row_only = np.zeros_like(m)
    row_only[0] = m[0]
    for got, want in [
        (sum_axis(eng, eng.encrypt(m.ravel()), layout, "row"), oracle.fold(m, "row")),
        (sum_axis(eng, eng.encrypt(m.ravel()), layout, "col"), oracle.fold(m, "col")),
        (replicate(eng, eng.encrypt(row_only.ravel()), layout, "row"), oracle.spread(row_only, "row")),
        (
            transpose_vector(eng, eng.encrypt(row_only.ravel()), layout, "row_to_col"),
            oracle.move_vector(row_only, "row_to_col"),
        ),
    ]:
        slots_out = eng.decrypt(got)
        assert np.array_equal(oracle.from_slots(slots_out, n), want)
        assert np.all(slots_out[n * n :] == 0)


def test_sum_after_replicate_scales_by_side():
    eng, layout = setup(4)
    vec = np.array([1.0, 2.0, 3.0, 4.0])
    spread_ct = replicate(eng, eng.encrypt(vec), layout, "row")
    out = eng.decrypt(sum_axis(eng, spread_ct, layout, "row"))
    assert np.array_equal(out[:4], 4 * vec)


def test_replicate_and_transpose_refuse_data_outside_their_line():
    # a stray 9 in slot 4, row 1 of a 4x4 matrix in 16 slots: replicating
    # row 0 used to add it in, and every row read 10 in column 0
    eng, layout = setup(4)
    stray = np.zeros(16)
    stray[[0, 4]] = [1.0, 9.0]
    with pytest.raises(ValueError, match=r"matrix\.replicate: data outside row 0 of the 4x4 matrix"):
        replicate(eng, eng.encrypt(stray), layout, "row")
    with pytest.raises(ValueError, match=r"matrix\.transpose_vector: data outside row 0"):
        transpose_vector(eng, eng.encrypt(stray), layout, "row_to_col")
    # slot 4 is in column 0, slot 1 is not
    stray[1] = 5.0
    with pytest.raises(ValueError, match=r"matrix\.replicate: data outside col 0"):
        replicate(eng, eng.encrypt(stray), layout, "col")
    with pytest.raises(ValueError, match=r"matrix\.transpose_vector: data outside col 0"):
        transpose_vector(eng, eng.encrypt(stray), layout, "col_to_row")
    # past the matrix, in a ciphertext it does not fill
    eng, layout = setup(4, slot_count=32)
    beyond = np.zeros(32)
    beyond[[0, 20]] = [1.0, 2.0]
    for axis in ("row", "col"):
        with pytest.raises(ValueError, match="data outside"):
            replicate(eng, eng.encrypt(beyond), layout, axis)


def test_negative_zero_and_noise_outside_the_line_are_let_through():
    # -0.0 is zero; a noisy engine's masked slots carry noise, so it is not checked
    eng, layout = setup(4)
    row = np.full(16, -0.0)
    row[:4] = [1.0, 2.0, 3.0, 4.0]
    spread = eng.decrypt(replicate(eng, eng.encrypt(row), layout, "row"))
    assert np.array_equal(spread, np.tile([1.0, 2.0, 3.0, 4.0], 4))
    noisy = HESimulator(HEParams(slot_count=16, max_level=16, noise_sigma=1e-9, seed=1))
    row[5] = 1e-9
    replicate(noisy, noisy.encrypt(row), layout, "row")
    transpose_vector(noisy, noisy.encrypt(row), layout, "row_to_col")
