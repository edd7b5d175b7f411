import numpy as np
import pytest

from slotrank import (
    CapacityError,
    DepthBudgetError,
    EngineError,
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


@pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
def test_params_reject_non_finite_noise_sigma(sigma):
    with pytest.raises(ValueError, match="noise_sigma must be finite"):
        HEParams(slot_count=8, max_level=4, noise_sigma=sigma)


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
    for _ in range(4):
        x = eng.add(x, eng.sub(x, eng.add_plain(eng.negate(x), 1.0)))  # negate is free
    rep = eng.cost_snapshot()
    assert rep.rotations == 3
    assert rep.critical_rotations == 3
    assert rep.additions == 4 * 3
    assert eng.rotation_offsets() == [1, 2, 3]
    eng.cost_reset()
    assert eng.cost_snapshot() == type(rep)()
    assert eng.rotation_offsets() == []


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


def test_ideal_map_burns_levels():
    eng = make_engine(max_level=4)
    x = eng.encrypt([1, -1])
    out = eng.ideal_map(lambda s: np.abs(s), x, levels=3)
    assert out.level == 1
    assert np.array_equal(eng.decrypt(out)[:2], [1, 1])
    with pytest.raises(DepthBudgetError):
        eng.ideal_map(lambda s: s, out, levels=2)


# A product by a scalar plaintext is computed when the op that consumes it
# reads it; each consumer must give the same doubles as eager numpy.

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


def test_noisy_scalar_product_is_deferred_and_seeded():
    sigma, seed = 1e-3, 9
    eng = make_engine(slot_count=32, sigma=sigma, seed=seed)
    v = np.random.default_rng(5).normal(size=32)
    prod = eng.mul_plain(eng.encrypt(v), SCALE)
    assert prod.pending is not None
    expected = v * SCALE + np.random.default_rng(seed).normal(0.0, sigma, 32)
    assert np.array_equal(eng.decrypt(prod), expected)


def test_scalar_add_plain_matches_vector_plaintext():
    eng = make_engine(slot_count=16)
    x = eng.encrypt(np.random.default_rng(6).normal(size=16))
    scalar = eng.decrypt(eng.add_plain(x, 0.3))
    vector = eng.decrypt(eng.add_plain(x, eng.plain(0.3)))
    assert np.array_equal(scalar, vector)
    assert eng.plain(0.3).shape == (16,)


# ``add`` and ``sub`` of two pending operands give a pending sum; a lone read
# folds its terms left to right, as the eager chain of products and sums.


def pending_sum(eng, vs, scales):
    """sum_i vs[i] * scales[i] as a chain of charged ``add``s, and its eager fold."""
    acc = fold = None
    for v, s in zip(vs, scales):
        term = eng.mul_plain(eng.encrypt(v), s)
        acc = term if acc is None else eng.add(acc, term)
        fold = v * s if fold is None else fold + v * s
    return acc, fold


def sum_inputs(slot_count=64, terms=4, seed=11):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=slot_count) for _ in range(terms)], rng.uniform(-2.0, 2.0, terms)


def test_pending_sum_consumers_match_eager_fold():
    vs, scales = sum_inputs()
    ws, other_scales = sum_inputs(seed=12)
    w = ws[0]
    cases = {
        "pending sum + concrete": (lambda e, p, q, y: e.add(p, y), lambda pf, qf: pf + w),
        "concrete - pending sum": (lambda e, p, q, y: e.sub(y, p), lambda pf, qf: w - pf),
        "pending sum - pending sum": (lambda e, p, q, y: e.sub(p, q), lambda pf, qf: pf - qf),
        "pending sum + pending sum": (lambda e, p, q, y: e.add(q, p), lambda pf, qf: qf + pf),
        "mul_plain": (lambda e, p, q, y: e.mul_plain(p, 3.7), lambda pf, qf: pf * 3.7),
        "rotate": (lambda e, p, q, y: e.rotate(p, 5), lambda pf, qf: np.roll(pf, -5)),
        "add to itself": (lambda e, p, q, y: e.add(p, p), lambda pf, qf: pf + pf),
    }
    for name, (op, eager) in cases.items():
        eng = make_engine(slot_count=64)
        p, p_fold = pending_sum(eng, vs, scales)
        q, q_fold = pending_sum(eng, ws, other_scales)
        assert len(p.pending) == len(vs), name
        assert np.array_equal(eng.decrypt(op(eng, p, q, eng.encrypt(w))), eager(p_fold, q_fold)), name
    eng = make_engine(slot_count=64)
    p, p_fold = pending_sum(eng, vs, scales)
    q, _ = pending_sum(eng, ws, other_scales)
    assert eng.sub(p, q).pending is not None
    assert np.array_equal(eng.decrypt(p), p_fold)
    assert p.pending is None  # a folded sum no longer holds its bases


def test_pending_sum_is_charged_at_each_add():
    vs, scales = sum_inputs(terms=5)
    eng = make_engine(slot_count=64)
    p, _ = pending_sum(eng, vs, scales)
    rep = eng.cost_snapshot()
    assert (rep.ctpt_mults, rep.additions, rep.levels_consumed) == (5, 4, 1)
    assert p.level == eng.params.max_level - 1


def test_realise_matches_fold_within_rounding():
    from slotrank.engine import _SLOT_TILE

    for slot_count in (64, 2 * _SLOT_TILE):
        vs, scales = sum_inputs(slot_count=slot_count, terms=6)
        eng = make_engine(slot_count=slot_count)
        shared = [eng.encrypt(v) for v in vs]
        sums, folds, bounds = [], [], []
        for r in range(3):
            coeffs = np.roll(scales, r)
            acc = None
            for ct, s in zip(shared, coeffs):
                term = eng.mul_plain(ct, s)
                acc = term if acc is None else eng.add(acc, term)
            sums.append(acc)
            folds.append(sum((v * s for v, s in zip(vs[1:], coeffs[1:])), vs[0] * coeffs[0]))
            bounds.append(sum(np.abs(v * s) for v, s in zip(vs, coeffs)))
        doubled = eng.add(eng.mul_plain(shared[0], 0.1), eng.mul_plain(shared[0], 0.1))
        sums.append(doubled)
        folds.append(vs[0] * 0.1 + vs[0] * 0.1)
        bounds.append(2 * np.abs(vs[0] * 0.1))
        concrete = eng.encrypt(vs[1])
        out = eng.realise([sums[0], concrete, *sums[1:]])
        assert out[1] is concrete
        results = [out[0], *out[2:]]
        for res, fold, bound in zip(results, folds, bounds):
            assert res.pending is None
            assert np.all(np.abs(res.slots - fold) <= 1e-14 * bound)
            assert not res.slots.flags.writeable
            for other in [*results, *shared]:
                assert other is res or not np.shares_memory(res.slots, other.slots)


def test_realise_charges_nothing_and_keeps_levels():
    vs, scales = sum_inputs(terms=3)
    eng = make_engine(slot_count=64)
    low, _ = pending_sum(eng, vs, scales)
    x = eng.mul(eng.encrypt(vs[0]), eng.encrypt(vs[1]))
    rotated = eng.rotate(eng.encrypt(vs[2]), 3)
    deep = eng.add(eng.mul_plain(x, 0.5), eng.mul_plain(rotated, -0.25))
    before = eng.cost_snapshot()
    out = eng.realise([low, deep])
    assert eng.cost_snapshot() == before
    assert [c.level for c in out] == [low.level, deep.level] == [9, 8]
    assert [c.rot_chain for c in out] == [0, 1]
    assert eng.rotation_offsets() == [3]


# A noisy pending sum owes the noise of its charged ops and draws it once,
# as one draw of the summed variance, when it is read or realised.

SIGMA = 1e-3


def noisy_sums(slot_count, count, terms, seed=0, sigma=SIGMA):
    """A fresh engine with noise ``sigma``, and ``count`` pending sums on it,
    each of ``terms`` scalar products of the same base ciphertexts."""
    eng = make_engine(slot_count=slot_count, sigma=sigma, seed=seed)
    rng = np.random.default_rng(21)
    bases = [eng.encrypt(rng.normal(size=slot_count)) for _ in range(terms)]
    scales = rng.uniform(-2.0, 2.0, (count, terms))
    sums = []
    for row in scales:
        acc = None
        for ct, s in zip(bases, row):
            term = eng.mul_plain(ct, s)
            acc = term if acc is None else eng.add(acc, term)
        sums.append(acc)
    return eng, sums


@pytest.mark.parametrize("realise", [False, True], ids=["slots", "realise"])
@pytest.mark.parametrize("slot_count,count", [(1 << 16, 1), (1 << 12, 16)], ids=["2^16", "16x2^12"])
def test_pending_sum_draws_the_summed_noise_once(realise, slot_count, count):
    from slotrank.engine import _SLOT_TILE

    assert (slot_count > _SLOT_TILE) == (count == 1)  # BLAS above one tile, folds below
    terms = 5
    eng, noisy = noisy_sums(slot_count, count, terms)
    _, exact = noisy_sums(slot_count, count, terms, sigma=0.0)
    assert all(c.owed == 2 * terms - 1 for c in noisy) and all(c.owed == 0 for c in exact)
    if realise:
        noisy = eng.realise(noisy)
    std = np.std(np.concatenate([a.slots - b.slots for a, b in zip(noisy, exact)]))
    assert abs(std / (SIGMA * np.sqrt(2 * terms - 1)) - 1.0) < 0.03


def test_add_to_itself_reads_its_operand_once():
    n = 1 << 16
    eng = make_engine(slot_count=n, sigma=SIGMA, seed=4)
    v = np.random.default_rng(8).normal(size=n)
    p = eng.mul_plain(eng.encrypt(v), SCALE)
    doubled = eng.add(p, p)  # noise 2 * e_p + e
    assert doubled.pending is None and p.pending is None
    assert abs(np.std(doubled.slots - 2 * (v * SCALE)) / (SIGMA * np.sqrt(5.0)) - 1.0) < 0.03
    # e_p, the noise p drew when read, and e, the addition's own, are both N(0, sigma^2)
    for noise in (p.slots - v * SCALE, doubled.slots - 2 * p.slots):
        assert abs(np.std(noise) / SIGMA - 1.0) < 0.03


def test_spent_operand_raises_on_read_sum_and_realise():
    eng, (p, q) = noisy_sums(16, 2, 1)
    s = eng.add(p, q)
    assert s.owed == 3
    concrete = eng.encrypt(np.ones(16))
    uses = {
        "read": lambda x: x.slots,
        "decrypt": lambda x: eng.decrypt(x),
        "sum with a pending sum": lambda x: eng.add(eng.mul_plain(concrete, 2.0), x),
        "sum with itself": lambda x: eng.sub(x, x),
        "sum with a ciphertext": lambda x: eng.add(concrete, x),
        "mul_plain": lambda x: eng.mul_plain(x, 2.0),
        "rotate": lambda x: eng.rotate(x, 1),
        "realise": lambda x: eng.realise([s, x]),
    }
    for name, use in uses.items():
        for spent in (p, q):
            with pytest.raises(EngineError, match="spent") as err:
                use(spent)
            assert "noise moved into a sum" in str(err.value), name
    assert np.isfinite(s.slots).all()


def test_realise_keeps_the_drawn_noise_and_charges_nothing():
    for slot_count in (64, 1 << 13):
        eng, sums = noisy_sums(slot_count, 3, 4, seed=5)
        concrete = eng.rotate(eng.encrypt(np.arange(4.0)), 1)
        before, offsets = eng.cost_snapshot(), eng.rotation_offsets()
        out = eng.realise([sums[0], concrete, *sums[1:]])
        assert eng.cost_snapshot() == before and eng.rotation_offsets() == offsets
        assert all(a is b for a, b in zip(out, [sums[0], concrete, *sums[1:]]))
        values = [c.slots for c in sums]
        assert all(c.pending is None and c.owed == 0 for c in sums)
        assert all(not v.flags.writeable for v in values)
        # later reads and later realises see the noise already drawn
        assert all(a is b.slots for a, b in zip(values, eng.realise(sums)))


def test_seeded_noisy_run_repeats_bit_for_bit():
    def run(seed):
        eng, sums = noisy_sums(1 << 13, 3, 4, seed=seed)
        a, b, c = eng.realise(sums)
        x = eng.mul(eng.sub(eng.mul_plain(a, 0.5), eng.mul_plain(b, 0.25)), c)
        return eng.decrypt(eng.add(eng.rotate(x, 3), eng.add_plain(x, 1.0)))

    assert np.array_equal(run(7), run(7))
    assert not np.array_equal(run(7), run(8))


def test_rotate_matches_roll_and_is_fresh_and_read_only():
    n = 16
    v = np.random.default_rng(8).normal(size=n)
    for pending in (False, True):
        for k in (1, -1, 3, n - 1, n + 3, -n - 3):
            eng = make_engine(slot_count=n)
            x = eng.mul_plain(eng.encrypt(v), SCALE) if pending else eng.encrypt(v)
            base = v * SCALE if pending else v
            out = eng.rotate(x, k)
            assert np.array_equal(out.slots, np.roll(base, -k)), (pending, k)
            assert not out.slots.flags.writeable
            assert not np.shares_memory(out.slots, x.slots)
            assert eng.rotation_offsets() == [k % n]
        for k in (0, n, 2 * n, -n):
            eng = make_engine(slot_count=n)
            x = eng.mul_plain(eng.encrypt(v), SCALE) if pending else eng.encrypt(v)
            before = eng.cost_snapshot()
            assert eng.rotate(x, k) is x
            assert eng.cost_snapshot() == before
            assert eng.rotation_offsets() == []


# every op that checks its operands, applied to one or two ciphertexts
CHECKED_OPS = {
    "decrypt": (1, lambda e, x: e.decrypt(x)),
    "negate": (1, lambda e, x: e.negate(x)),
    "add_plain": (1, lambda e, x: e.add_plain(x, 0.5)),
    "mul_plain": (1, lambda e, x: e.mul_plain(x, 0.5)),
    "mul_plain vector": (1, lambda e, x: e.mul_plain(x, e.plain(np.arange(8.0)))),
    "rotate": (1, lambda e, x: e.rotate(x, 3)),
    "add": (2, lambda e, x, y: e.add(x, y)),
    "sub": (2, lambda e, x, y: e.sub(x, y)),
    "mul": (2, lambda e, x, y: e.mul(x, y)),
    "ideal_map": (2, lambda e, x, y: e.ideal_map(np.maximum, x, y, levels=1)),
}


def operand_sets(arity, eng, other):
    """Every way to hand ``other`` one operand and ``eng`` the rest."""
    v = np.arange(8.0)
    for foreign in range(arity):
        yield [other.encrypt(v) if i == foreign else eng.encrypt(v) for i in range(arity)]


@pytest.mark.parametrize("name", CHECKED_OPS)
def test_ops_accept_equal_params_from_another_engine(name):
    arity, op = CHECKED_OPS[name]
    eng, other = make_engine(slot_count=8), make_engine(slot_count=8)
    assert other.params is not eng.params and other.params == eng.params
    for cts in operand_sets(arity, eng, other):
        out = op(eng, *cts)
        if name != "decrypt":
            assert out.slots.shape == (8,)
            assert not out.slots.flags.writeable


@pytest.mark.parametrize("name", CHECKED_OPS)
def test_ops_reject_unequal_params(name):
    arity, op = CHECKED_OPS[name]
    eng = make_engine(slot_count=8)
    for other in (make_engine(slot_count=8, max_level=11), make_engine(slot_count=8, seed=1)):
        for cts in operand_sets(arity, eng, other):
            with pytest.raises(IncompatibleParamsError):
                op(eng, *cts)
