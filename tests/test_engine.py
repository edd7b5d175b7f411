import numpy as np
import pytest

from slotrank import (
    CapacityError,
    DepthBudgetError,
    HEParams,
    HESimulator,
    IncompatibleParamsError,
)


def make_engine(slot_count=8, max_level=10, sigma=0.0, seed=0):
    return HESimulator(HEParams(slot_count=slot_count, max_level=max_level, noise_sigma=sigma, seed=seed))


def test_params_validation():
    with pytest.raises(ValueError):
        HEParams(slot_count=6, max_level=4)
    with pytest.raises(ValueError):
        HEParams(slot_count=1, max_level=4)
    with pytest.raises(ValueError):
        HEParams(slot_count=8, max_level=0)
    with pytest.raises(ValueError):
        HEParams(slot_count=8, max_level=4, noise_sigma=-0.1)


def test_encrypt_pads_with_zeros():
    eng = make_engine()
    ct = eng.encrypt([1, 2, 3])
    assert np.array_equal(eng.decrypt(ct), [1, 2, 3, 0, 0, 0, 0, 0])
    assert ct.level == 10


def test_encrypt_empty_input():
    eng = make_engine(slot_count=4)
    assert np.array_equal(eng.decrypt(eng.encrypt([])), [0, 0, 0, 0])


def test_encrypt_full_width():
    eng = make_engine()
    ct = eng.encrypt([0.5] * 8)
    assert np.array_equal(eng.decrypt(ct), [0.5] * 8)


def test_encrypt_capacity_error():
    eng = make_engine(slot_count=4)
    with pytest.raises(CapacityError):
        eng.encrypt(range(5))


def test_decrypt_round_trip_exact():
    eng = make_engine()
    v = np.array([1.25, -3.5, 7e-3])
    out = eng.decrypt(eng.encrypt(v))
    assert np.array_equal(out[:3], v)
    assert np.array_equal(eng.decrypt(eng.rotate(eng.encrypt(v), 0)), out)
    assert np.array_equal(eng.decrypt(eng.add_plain(eng.encrypt(v), 0.0)), out)


def test_add_and_level_min_rule():
    eng = make_engine()
    x = eng.encrypt([1, 2])
    y = eng.encrypt([3, 4])
    assert np.array_equal(eng.decrypt(eng.add(x, y))[:2], [4, 6])
    low = eng.mul(eng.mul(x, x), x)  # level 8
    mixed = eng.add(low, y)
    assert mixed.level == 8


def test_add_zero_identity():
    eng = make_engine()
    x = eng.encrypt([1.5, -2, 3])
    out = eng.add(x, eng.encrypt(np.zeros(8)))
    assert np.array_equal(eng.decrypt(out), eng.decrypt(x))


def test_mul_consumes_level_and_errors_at_zero():
    eng = make_engine(max_level=1)
    x = eng.encrypt([2, 3])
    y = eng.encrypt([4, 5])
    prod = eng.mul(x, y)
    assert np.array_equal(eng.decrypt(prod)[:2], [8, 15])
    assert prod.level == 0
    with pytest.raises(DepthBudgetError) as err:
        eng.mul(prod, prod, site="second-mul")
    assert "second-mul" in str(err.value)


def test_mul_by_ones_preserves_values():
    eng = make_engine()
    x = eng.encrypt([1.1, 2.2])
    out = eng.mul(x, eng.encrypt(np.ones(8)))
    assert np.array_equal(eng.decrypt(out), eng.decrypt(x))
    assert out.level == x.level - 1


def test_mul_plain_mask_and_scalar():
    eng = make_engine(slot_count=4)
    x = eng.encrypt([5, 6, 7, 8])
    assert np.array_equal(eng.decrypt(eng.mul_plain(x, [1, 1, 0, 0])), [5, 6, 0, 0])
    assert np.array_equal(eng.decrypt(eng.mul_plain(x, np.ones(4))), [5, 6, 7, 8])
    assert np.array_equal(eng.decrypt(eng.mul_plain(eng.encrypt([2, 4]), 0.5))[:2], [1, 2])
    assert eng.mul_plain(x, 1.0).level == x.level - 1


def test_plain_length_is_enforced():
    eng = make_engine(slot_count=4)
    with pytest.raises(ValueError):
        eng.mul_plain(eng.encrypt([1]), [1, 2])


def test_params_mismatch_rejected():
    a = make_engine(slot_count=8)
    b = make_engine(slot_count=8, max_level=11)
    with pytest.raises(IncompatibleParamsError):
        a.add(a.encrypt([1]), b.encrypt([1]))


def test_rotate_directions_and_inverse():
    eng = make_engine(slot_count=4)
    x = eng.encrypt([1, 2, 3, 4])
    assert np.array_equal(eng.decrypt(eng.rotate(x, 1)), [2, 3, 4, 1])
    assert np.array_equal(eng.decrypt(eng.rotate(x, -1)), [4, 1, 2, 3])
    assert np.array_equal(eng.decrypt(eng.rotate(eng.rotate(x, 3), 4 - 3)), eng.decrypt(x))


def test_rotate_full_cycle_is_free():
    eng = make_engine(slot_count=4)
    x = eng.encrypt([1, 2, 3, 4])
    out = eng.rotate(x, 4)
    assert np.array_equal(eng.decrypt(out), [1, 2, 3, 4])
    assert eng.cost_snapshot().rotations == 0


def test_rotation_group_action():
    eng = make_engine(slot_count=16)
    rng = np.random.default_rng(5)
    x = eng.encrypt(rng.normal(size=16))
    for a, b in [(1, 2), (7, 13), (15, 1), (-3, 9), (16, 5)]:
        lhs = eng.decrypt(eng.rotate(x, a + b))
        rhs = eng.decrypt(eng.rotate(eng.rotate(x, a), b))
        assert np.array_equal(lhs, rhs)


def test_counters_are_exact():
    eng = make_engine()
    x = eng.encrypt([1, 2, 3])
    for k in (1, 2, 0, 8, 3):  # 0 and 8 have no effect
        x = eng.rotate(x, k)
    rep = eng.cost_snapshot()
    assert rep.rotations == 3
    assert rep.critical_rotations == 3
    eng.cost_reset()
    assert eng.cost_snapshot() == type(rep)()


def test_levels_consumed_tracks_longest_chain():
    eng = make_engine(max_level=10)
    x = eng.encrypt([2.0])
    y = eng.mul(x, x)
    rep = eng.cost_snapshot()
    assert rep.levels_consumed == 1
    z = eng.mul(y, y)
    side = eng.mul(x, x)  # parallel branch, does not deepen the chain
    assert eng.cost_snapshot().levels_consumed == 2
    assert eng.add(z, side).level == z.level


def test_critical_rotations_takes_max_at_joins():
    eng = make_engine(slot_count=8)
    deep = eng.rotate(eng.rotate(eng.encrypt([1]), 1), 1)
    shallow = eng.rotate(eng.encrypt([2]), 1)
    joined = eng.add(deep, shallow)
    _ = eng.rotate(joined, 1)
    rep = eng.cost_snapshot()
    assert rep.rotations == 4
    assert rep.critical_rotations == 3
    assert rep.critical_rotations <= rep.rotations


def test_noise_injection_magnitude():
    eng = make_engine(slot_count=1024 * 4, sigma=1e-3, seed=42)
    x = eng.encrypt(np.zeros(4096))
    out = eng.decrypt(eng.add(x, x))
    assert 0 < np.std(out) < 5e-3
    exact = make_engine(slot_count=8, sigma=0.0)
    a = exact.encrypt([1, 2])
    assert np.array_equal(exact.decrypt(exact.add(a, a))[:2], [2, 4])


def test_noise_is_seeded_and_reproducible():
    runs = []
    for _ in range(2):
        eng = make_engine(slot_count=8, sigma=0.1, seed=7)
        runs.append(eng.decrypt(eng.add(eng.encrypt([1]), eng.encrypt([2]))))
    assert np.array_equal(runs[0], runs[1])


def test_rotation_stays_exact_under_noise():
    eng = make_engine(slot_count=8, sigma=0.5, seed=11)
    v = np.arange(8.0)
    out = eng.decrypt(eng.rotate(eng.encrypt(v), 3))
    assert np.array_equal(out, np.roll(v, -3))


def test_counters_tolerate_concurrent_increments():
    from concurrent.futures import ThreadPoolExecutor

    eng = make_engine(slot_count=8)
    x = eng.encrypt([1.0])

    def spin(_):
        ct = x
        for k in range(50):
            ct = eng.rotate(ct, 1 + k % 3)
            ct = eng.add(ct, x)
        return ct

    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(spin, range(8)))
    rep = eng.cost_snapshot()
    assert rep.rotations == 8 * 50
    assert rep.additions == 8 * 50
    assert rep.critical_rotations == 50


def test_ideal_map_burns_levels():
    eng = make_engine(max_level=4)
    x = eng.encrypt([1, -1])
    out = eng.ideal_map(lambda s: np.abs(s), x, levels=3)
    assert out.level == 1
    assert np.array_equal(eng.decrypt(out)[:2], [1, 1])
    with pytest.raises(DepthBudgetError):
        eng.ideal_map(lambda s: s, out, levels=2)


# A noise-free product by a scalar plaintext is computed by the op that
# consumes it; each consumer must give the same doubles as eager numpy.

SCALE = 0.1  # inexact in binary, so any change in rounding shows


def deferred_setup(slot_count=64):
    eng = make_engine(slot_count=slot_count)
    rng = np.random.default_rng(3)
    v, w = rng.normal(size=slot_count), rng.normal(size=slot_count)
    x, y = eng.encrypt(v), eng.encrypt(w)
    prod = eng.mul_plain(x, SCALE)
    assert prod.pending is not None
    return eng, prod, y, v * SCALE, w


def test_deferred_product_consumers_match_eager_numpy():
    cases = {
        "add": (lambda e, p, y: e.add(p, y), lambda pv, w: pv + w),
        "add reversed": (lambda e, p, y: e.add(y, p), lambda pv, w: w + pv),
        "sub": (lambda e, p, y: e.sub(p, y), lambda pv, w: pv - w),
        "sub reversed": (lambda e, p, y: e.sub(y, p), lambda pv, w: w - pv),
        "add to itself": (lambda e, p, y: e.add(p, p), lambda pv, w: pv + pv),
        "add_plain": (lambda e, p, y: e.add_plain(p, 0.3), lambda pv, w: pv + 0.3),
        "negate": (lambda e, p, y: e.negate(p), lambda pv, w: -pv),
        "mul": (lambda e, p, y: e.mul(p, y), lambda pv, w: pv * w),
        "rotate": (lambda e, p, y: e.rotate(p, 5), lambda pv, w: np.roll(pv, -5)),
        "ideal_map": (lambda e, p, y: e.ideal_map(np.tanh, p, levels=1), lambda pv, w: np.tanh(pv)),
        "mul_plain": (lambda e, p, y: e.mul_plain(p, 3.7), lambda pv, w: pv * 3.7),
    }
    for name, (op, eager) in cases.items():
        eng, prod, y, pv, w = deferred_setup()
        assert np.array_equal(eng.decrypt(op(eng, prod, y)), eager(pv, w)), name
    eng, prod, _, pv, _ = deferred_setup()
    assert np.array_equal(eng.decrypt(prod), pv)
    assert prod.pending is None  # a computed product no longer holds its base


def test_deferred_product_of_two_pending_operands():
    eng, prod, y, pv, w = deferred_setup()
    other = eng.mul_plain(y, -2.3)
    assert np.array_equal(eng.decrypt(eng.add(prod, other)), pv + w * -2.3)
    assert np.array_equal(eng.decrypt(eng.sub(other, prod)), w * -2.3 - pv)


def test_chained_scalar_products_are_not_folded():
    eng = make_engine(slot_count=64)
    v = np.random.default_rng(4).normal(size=64)
    a, b = 0.1, 0.7
    assert not np.array_equal((v * a) * b, v * (a * b))
    out = eng.decrypt(eng.mul_plain(eng.mul_plain(eng.encrypt(v), a), b))
    assert np.array_equal(out, (v * a) * b)


def test_deferred_product_is_charged_at_mul_plain():
    eng = make_engine(slot_count=8, max_level=1)
    x = eng.encrypt([1.0, 2.0])
    prod = eng.mul_plain(x, 0.5)
    rep = eng.cost_snapshot()
    assert prod.level == 0
    assert rep.ctpt_mults == 1
    assert rep.levels_consumed == 1
    with pytest.raises(DepthBudgetError) as err:
        eng.mul_plain(prod, 2.0, site="leaf-at-zero")
    assert err.value.site == "leaf-at-zero"
    assert eng.cost_snapshot() == rep


def test_numpy_and_int_scalars_are_deferred():
    eng = make_engine(slot_count=16)
    v = np.random.default_rng(7).normal(size=16)
    x = eng.encrypt(v)
    for c in (np.float32(0.1), np.float64(0.1), np.int64(3), 2):
        prod = eng.mul_plain(x, c)
        assert prod.pending is not None
        assert np.array_equal(eng.decrypt(prod), v * np.full(16, float(c)))


def test_noisy_scalar_product_is_eager_and_seeded():
    sigma, seed = 1e-3, 9
    eng = make_engine(slot_count=32, sigma=sigma, seed=seed)
    v = np.random.default_rng(5).normal(size=32)
    prod = eng.mul_plain(eng.encrypt(v), SCALE)
    assert prod.pending is None
    expected = v * SCALE + np.random.default_rng(seed).normal(0.0, sigma, 32)
    assert np.array_equal(eng.decrypt(prod), expected)


def test_scalar_add_plain_matches_vector_plaintext():
    eng = make_engine(slot_count=16)
    x = eng.encrypt(np.random.default_rng(6).normal(size=16))
    scalar = eng.decrypt(eng.add_plain(x, 0.3))
    vector = eng.decrypt(eng.add_plain(x, eng.plain(0.3)))
    assert np.array_equal(scalar, vector)
    assert eng.plain(0.3).shape == (16,)
