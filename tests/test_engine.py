from dataclasses import fields

import numpy as np
import pytest

from slotrank import (
    CapacityError,
    Ciphertext,
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


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_params_reject_a_negative_or_non_integer_seed(seed):
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        HEParams(slot_count=8, max_level=4, seed=seed)


def test_params_reject_a_fractional_max_level():
    # a fresh ciphertext would sit at level 2.5, and one product later at 1.5
    with pytest.raises(ValueError, match="max_level must be an integer, got 2.5"):
        HEParams(slot_count=8, max_level=2.5)


def test_params_reject_a_bool_max_level():
    # True compares as 1, so it would pass as a budget of one level
    with pytest.raises(ValueError, match="max_level must be an integer, got True"):
        HEParams(slot_count=8, max_level=True)


def test_params_reject_a_bool_seed():
    # True is an integer to isinstance, and seeded the stream of seed 1
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got True"):
        HEParams(slot_count=8, max_level=4, seed=True)
    assert HEParams(slot_count=8, max_level=4, seed=np.uint32(3)).seed == 3  # numpy integers pass


def test_params_reject_a_bool_noise_sigma():
    # True is finite and non-negative, so it passed as a noise level of 1
    with pytest.raises(ValueError, match="noise_sigma must be a real number, got True"):
        HEParams(slot_count=8, max_level=4, noise_sigma=True)
    with pytest.raises(ValueError, match="noise_sigma must be a real number, got '0'"):
        HEParams(slot_count=8, max_level=4, noise_sigma="0")
    assert HEParams(slot_count=8, max_level=4, noise_sigma=np.float32(0.5)).noise_sigma == 0.5
    assert HEParams(slot_count=8, max_level=4, noise_sigma=0).noise_sigma == 0


def test_params_reject_a_float_slot_count():
    # 8.0 is a power of two by value, but the bit test raised an unnamed TypeError
    with pytest.raises(ValueError, match="slot_count must be an integer, got 8.0"):
        HEParams(slot_count=8.0, max_level=4)
    assert HEParams(slot_count=np.int64(8), max_level=np.int64(4)).max_level == 4  # numpy integers pass


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
        eng.mul(prod, prod)
    assert err.value.site.endswith("engine.mul")
    assert err.value.site in str(err.value)


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
    assert eng.mul_plain(x, 0.5).level == x.level - 1


@pytest.mark.parametrize("sigma", [0.0, 1e-6], ids=["exact", "noisy"])
def test_identity_scalars_return_the_operand_uncharged(sigma):
    # times the scalar 1 and plus the scalar +-0 are free, as rotate(x, 0) is
    eng = make_engine(slot_count=4, max_level=1, sigma=sigma)
    x = eng.add_plain(eng.encrypt([-0.0, 1.5, -2.0, 3.0]), 0.25)  # owes on a noisy engine
    owed, before = x.owed, eng.cost_snapshot()
    for one in (1.0, 1, np.float64(1.0), np.int64(1)):
        assert eng.mul_plain(x, one) is x
    for zero in (0.0, -0.0, 0, np.float32(0.0)):
        assert eng.add_plain(x, zero) is x
    assert eng.cost_snapshot() == before
    assert x.owed == owed and x.level == 1  # kept, not spent
    low = eng.mul_plain(eng.encrypt([1.0]), 0.5)
    assert eng.mul_plain(low, 1.0) is low  # free at level 0 too
    assert eng.cost_snapshot().ctpt_mults == before.ctpt_mults + 1
    assert np.allclose(eng.decrypt(x), [0.25, 1.75, -1.75, 3.25], atol=1e-4)
    # a non-identity scalar and plaintext vectors are still charged
    with pytest.raises(DepthBudgetError):
        eng.mul_plain(low, 0.5)
    y = eng.encrypt([2.0, 4.0])
    assert eng.mul_plain(y, 0.5).level == 0
    assert eng.mul_plain(y, np.ones(4)).level == 0
    assert eng.add_plain(y, np.zeros(4)) is not y
    rep = eng.cost_snapshot()
    assert (rep.ctpt_mults, rep.additions) == (before.ctpt_mults + 3, before.additions + 1)


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
    eng.mul_plain(eng.mul(x, x), 0.5)
    eng.note_compare_eval()
    eng.note_indicator_eval()
    rep = eng.cost_snapshot()
    assert rep.rotations == 3
    assert rep.critical_rotations == 3
    assert rep.additions == 4 * 3
    assert (rep.ctct_mults, rep.ctpt_mults, rep.cmp_evals, rep.ind_evals, rep.levels_consumed) == (1, 1, 1, 1, 2)
    assert all(getattr(rep, f.name) for f in fields(rep))  # every counter moved, so the reset below zeroes each
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


# A product by a scalar plaintext is an unshared value, which the next
# linear op takes; each consumer must give the same doubles as eager numpy.

SCALE = 0.1  # inexact in binary, so any change in rounding shows
SIGMA = 1e-3


def deferred_setup(slot_count=64):
    eng = make_engine(slot_count=slot_count)
    rng = np.random.default_rng(3)
    v, w = rng.normal(size=slot_count), rng.normal(size=slot_count)
    x, y = eng.encrypt(v), eng.encrypt(w)
    prod = eng.mul_plain(x, SCALE)
    assert prod.unshared
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
    assert not prod.unshared and not prod.slots.flags.writeable  # read, shared from now on


def test_deferred_product_of_two_pending_operands():
    # each op takes both unshared operands, so each case builds its own
    eng, prod, y, pv, w = deferred_setup()
    assert np.array_equal(eng.decrypt(eng.add(prod, eng.mul_plain(y, -2.3))), pv + w * -2.3)
    eng, prod, y, pv, w = deferred_setup()
    assert np.array_equal(eng.decrypt(eng.sub(eng.mul_plain(y, -2.3), prod)), w * -2.3 - pv)


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
        eng.mul_plain(prod, 2.0)
    assert err.value.site.endswith("engine.mul_plain")
    assert eng.cost_snapshot() == rep


def test_numpy_and_int_scalars_are_deferred():
    eng = make_engine(slot_count=16)
    v = np.random.default_rng(7).normal(size=16)
    x = eng.encrypt(v)
    for c in (np.float32(0.1), np.float64(0.1), np.int64(3), 2):
        prod = eng.mul_plain(x, c)
        assert prod.unshared
        assert np.array_equal(eng.decrypt(prod), v * np.full(16, float(c)))


@pytest.mark.parametrize("s", [np.inf, -np.inf])
def test_product_by_an_infinite_scalar_is_the_numpy_product(s):
    # +-inf where the slot is non-zero and NaN only where it is zero, as
    # numpy gives; the weight of the noise the product owes was once
    # s * s * 0.0, NaN, so the read drew NaN into every slot
    eng = make_engine(slot_count=8)
    x = eng.encrypt([1.5, -2.0, 0.0, -0.0, 3.0])
    with np.errstate(invalid="ignore"):
        want = x.slots * s
        out = eng.mul_plain(x, s)
        assert out.owed == 0
        assert eng.decrypt(out).tobytes() == want.tobytes()


def test_noisy_scalar_product_is_deferred_and_seeded():
    sigma, seed = 1e-3, 9
    eng = make_engine(slot_count=32, sigma=sigma, seed=seed)
    v = np.random.default_rng(5).normal(size=32)
    prod = eng.mul_plain(eng.encrypt(v), SCALE)
    assert prod.unshared and prod.owed == 1
    expected = v * SCALE + np.random.Generator(np.random.SFC64(seed)).normal(0.0, sigma, 32)
    assert np.array_equal(eng.decrypt(prod), expected)


def test_scalar_add_plain_matches_vector_plaintext():
    eng = make_engine(slot_count=16)
    x = eng.encrypt(np.random.default_rng(6).normal(size=16))
    scalar = eng.decrypt(eng.add_plain(x, 0.3))
    vector = eng.decrypt(eng.add_plain(x, eng.plain(0.3)))
    assert np.array_equal(scalar, vector)
    assert eng.plain(0.3).shape == (16,)


# ``add`` and ``sub`` that take an unshared operand give an unshared sum,
# the eager chain of products and sums to the double.


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
        assert p.unshared and q.unshared, name
        assert np.array_equal(eng.decrypt(op(eng, p, q, eng.encrypt(w))), eager(p_fold, q_fold)), name
    eng = make_engine(slot_count=64)
    p, p_fold = pending_sum(eng, vs, scales)
    q, _ = pending_sum(eng, ws, other_scales)
    assert eng.sub(p, q).unshared
    assert spent(p) and spent(q)  # the sub took their values
    p, _ = pending_sum(eng, vs, scales)
    assert np.array_equal(eng.decrypt(p), p_fold)
    assert not p.unshared  # a read sum is shared


def test_pending_sum_is_charged_at_each_add():
    vs, scales = sum_inputs(terms=5)
    eng = make_engine(slot_count=64)
    p, _ = pending_sum(eng, vs, scales)
    rep = eng.cost_snapshot()
    assert (rep.ctpt_mults, rep.additions, rep.levels_consumed) == (5, 4, 1)
    assert p.level == eng.params.max_level - 1


def probe_of(ct):
    """A zero-width probe of ``ct``: its level and rotation chain, no slots."""
    return Ciphertext(np.empty(0), ct.level, ct.rot_chain, ct.params)


@pytest.mark.parametrize("sigma", [0.0, SIGMA], ids=["noise-free", "noisy"])
def test_adopt_gives_an_array_the_level_chain_and_noise_its_probe_charged(sigma):
    # a linear sum charged on zero-width probes of its operands charges what
    # the same ops on the operands do; adopt gives the value computed apart
    # the probe's level, rotation chain and owed noise, and charges nothing
    eng = make_engine(slot_count=64, sigma=sigma, seed=3)
    ref = make_engine(slot_count=64, sigma=sigma, seed=3)
    rng = np.random.default_rng(36)
    v, w = rng.normal(size=64), rng.normal(size=64)
    deep = [e.share(e.rotate(e.mul(e.encrypt(v), e.encrypt(w)), 3))[0] for e in (eng, ref)]

    def linear(e, x):
        return e.add(e.mul_plain(x, 0.5), e.mul_plain(x, -0.25), x)

    charged = linear(eng, probe_of(deep[0]))
    want = linear(ref, deep[1])
    assert eng.cost_snapshot() == ref.cost_snapshot() and eng.rotation_offsets() == ref.rotation_offsets()
    before = eng.cost_snapshot()
    value = deep[0].slots * 0.5 + deep[0].slots * -0.25 + deep[0].slots
    out = eng.adopt(value.copy(), charged)
    assert eng.cost_snapshot() == before
    assert (out.level, out.rot_chain, out.owed) == (want.level, want.rot_chain, want.owed) == (8, 1, 4 if sigma else 0)
    assert out.unshared and spent(charged)
    # the same doubles and the same draw from the same stream
    assert same_doubles(out.slots, want.slots) and not out.slots.flags.writeable
    with pytest.raises(EngineError, match="HESimulator.share"):
        eng.adopt(value.copy(), charged)


def test_realise_matches_fold_within_rounding():
    # sums over the rows take one BLAS product, which rounds within a few
    # ulps of sum_i |scale_i * base_i| of the left-to-right fold
    for slot_count in (64, 1 << 13, 1 << 16):
        vs, scales = sum_inputs(slot_count=slot_count, terms=6)
        eng = make_engine(slot_count=slot_count)
        rows = [eng.encrypt(v) for v in vs]
        weights = [np.roll(scales, r) for r in range(3)] + [np.array([0.2, 0, 0, 0, 0, 0])]
        folds = [sum((v * s for v, s in zip(vs[1:], w[1:])), vs[0] * w[0]) for w in weights[:3]]
        folds.append(vs[0] * 0.1 + vs[0] * 0.1)  # the doubled product, one weight of 0.2
        bounds = [sum(np.abs(v * s) for v, s in zip(vs, w)) for w in weights]
        results = realise(eng, weights, rows)
        assert all(res.unshared for res in results)
        for res, fold, bound in zip(results, folds, bounds):
            assert np.all(np.abs(res.slots - fold) <= 1e-14 * bound)
            assert not res.slots.flags.writeable
            for other in [*results, *rows]:
                assert other is res or not np.shares_memory(res.slots, other.slots)


def test_realise_charges_nothing_and_keeps_levels():
    vs, scales = sum_inputs(terms=3)
    eng = make_engine(slot_count=64)
    x = eng.mul(eng.encrypt(vs[0]), eng.encrypt(vs[1]))
    rotated = eng.rotate(eng.encrypt(vs[2]), 3)
    rows = [eng.encrypt(vs[0]), x, rotated]
    low = eng.add(*[eng.mul_plain(probe_of(rows[0]), s) for s in scales])
    deep = eng.add(eng.mul_plain(probe_of(rows[1]), 0.5), eng.mul_plain(probe_of(rows[2]), -0.25))
    before = eng.cost_snapshot()
    out = [eng.adopt(np.zeros(64), c) for c in (low, deep)]
    assert eng.cost_snapshot() == before
    assert [c.level for c in out] == [low.level, deep.level] == [9, 8]
    assert [c.rot_chain for c in out] == [0, 1]
    assert eng.rotation_offsets() == [3]


@pytest.mark.parametrize("sigma", [0.0, 1e-3], ids=["noise-free", "noisy"])
def test_realise_of_a_leaf_does_not_depend_on_its_term_order(sigma):
    # a product by 1 is the row itself: a leaf led by two such rows charges
    # and owes what any order of its terms does, and its value is its row of
    # the product whatever the order
    vs, _ = sum_inputs(terms=3)
    orders = {
        "two rows first": lambda e, a, b, c: e.add(a, b, e.mul_plain(c, 0.5)),
        "product first": lambda e, a, b, c: e.add(e.mul_plain(c, 0.5), a, b),
        "product between": lambda e, a, b, c: e.add(b, e.mul_plain(c, 0.5), a),
        "as ps_eval builds it": lambda e, a, b, c: e.add(*[e.mul_plain(r, s) for r, s in ((a, 1), (b, 1.0), (c, 0.5))]),
    }
    values = {}
    for name, leaf_of in orders.items():
        eng = make_engine(slot_count=64, sigma=sigma, seed=3)
        rows = [eng.encrypt(v) for v in vs]
        leaf = leaf_of(eng, *[probe_of(r) for r in rows])
        assert leaf.unshared and leaf.owed == (3 if sigma else 0), name
        out = eng.adopt(np.array([1.0, 1.0, 0.5]) @ np.array(vs), leaf)
        values[name] = out.slots
        assert eng.cost_snapshot().additions == 2 and eng.cost_snapshot().ctpt_mults == 1, name
    first = values["two rows first"]
    assert all(same_doubles(v, first) for v in values.values())
    eager = vs[0] + vs[1] + vs[2] * 0.5
    # the noise of 1 product and 2 sums, drawn once: within 6 standard deviations
    assert np.max(np.abs(first - eager)) < (6 * sigma * np.sqrt(3) if sigma else 1e-14 * np.max(np.abs(eager)))


def test_realise_over_tiled_rows_gives_the_doubles_of_array_rows():
    # the product over a tile of the rows, copied into a scratch as the
    # noise-free tile pass copies its powers, gives the doubles of the same
    # columns of the product over the whole rows, as a noisy engine takes it
    vs, scales = sum_inputs(slot_count=1 << 13, terms=4)
    rows = np.array(vs)
    weights = np.array([np.roll(scales, k) for k in range(3)])
    whole = weights @ rows
    for width in (32, 1000, 4096):
        for lo in range(0, 1 << 13, width):
            tile = np.empty((4, min(width, (1 << 13) - lo)))
            np.copyto(tile, rows[:, lo : lo + width])
            assert (weights @ tile).tobytes() == whole[:, lo : lo + width].copy().tobytes()


def test_realise_keeps_the_drawn_noise_and_charges_nothing():
    for slot_count in (64, 1 << 13):
        eng, sums, _ = noisy_sums(slot_count, 3, 4, seed=5, realised=True)
        ref, _, _ = noisy_sums(slot_count, 3, 4, seed=5)
        assert eng.cost_snapshot() == ref.cost_snapshot()  # the probes charged what the sums on the bases did
        # realised, not read: the noise of 4 products and 3 sums is still owed
        assert all(c.unshared and c.owed == 7 for c in sums)
        before = eng.cost_snapshot()
        values = [c.slots for c in sums]  # the reads draw it and charge nothing
        assert eng.cost_snapshot() == before
        assert all(not c.unshared and c.owed == 0 for c in sums)
        assert all(not v.flags.writeable for v in values)
        # later reads see the noise already drawn
        assert all(a is b.slots for a, b in zip(values, eng.share(*sums)))


def test_rows_hold_an_array_only_on_a_noisy_engine(monkeypatch):
    # a noisy ps_eval runs its circuit on full-width ciphertexts, its baby-step
    # powers copied into the rows of one array; a noise-free one charges it on
    # zero-width probes, whose rows hold no slot
    from slotrank import chebyshev, ps_eval

    shapes, powers = [], chebyshev._powers

    def recorded(*args):
        out = powers(*args)
        shapes.append(out[1].shape)
        return out

    monkeypatch.setattr(chebyshev, "_powers", recorded)
    for sigma in (SIGMA, 0.0):
        eng = make_engine(slot_count=64, max_level=20, sigma=sigma)
        ps_eval(eng, eng.encrypt(np.linspace(-1.0, 1.0, 64)), chebyshev._step_poly(64))
    assert shapes == [(4, 64), (4, 0)]


def test_probe_raises_depth_budget_error_where_the_full_width_op_does():
    eng = make_engine(slot_count=16, max_level=2)
    for x in (eng.encrypt(np.arange(16.0)), probe_of(eng.encrypt(np.arange(16.0)))):
        low = eng.mul(eng.mul(x, x), x)
        with pytest.raises(DepthBudgetError) as err:
            eng.mul_plain(low, 0.5)
        assert err.value.site.endswith("engine.mul_plain") and low.slots.size in (0, 16)


# One rule on both engines: ``add`` and ``sub`` that take an unshared
# operand, ``x + x`` and a scalar ``mul_plain`` give an unshared value, the
# eager numpy expression to the double, signed zeros included; every other
# linear op gives a read one, unless it owes noise.  The op takes an
# unshared operand and leaves it spent, owed noise or not.


def linear_operands(eng, n=64):
    """A computed ciphertext, an unshared scalar product and an unshared sum
    of two, with their eager values; half of every vector is negative."""
    rng = np.random.default_rng(31)
    u, v, w = (rng.normal(size=n) for _ in range(3))
    computed = eng.encrypt(u)
    product = eng.mul_plain(eng.encrypt(v), SCALE)
    total = eng.add(eng.mul_plain(eng.encrypt(w), 0.7), eng.mul_plain(eng.encrypt(u), -1.3))
    return {"computed": (computed, u), "product": (product, v * SCALE), "sum": (total, w * 0.7 + u * -1.3)}


RAMP = np.linspace(-1.0, 1.0, 64)
LINEAR = {
    "x + x": (lambda e, x, y: e.add(x, x), lambda a, b: a + a),
    "x + y": (lambda e, x, y: e.add(x, y), lambda a, b: a + b),
    "y + x": (lambda e, x, y: e.add(y, x), lambda a, b: b + a),
    "x - y": (lambda e, x, y: e.sub(x, y), lambda a, b: a - b),
    "y - x": (lambda e, x, y: e.sub(y, x), lambda a, b: b - a),
    "x - x": (lambda e, x, y: e.sub(x, x), lambda a, b: a - a),
    "add_plain scalar": (lambda e, x, y: e.add_plain(x, -0.3), lambda a, b: a + -0.3),
    "add_plain vector": (lambda e, x, y: e.add_plain(x, RAMP), lambda a, b: a + RAMP),
    "negate": (lambda e, x, y: e.negate(x), lambda a, b: -a),
    "negate of x - x": (lambda e, x, y: e.negate(e.sub(x, x)), lambda a, b: -(a - a)),
}


def same_doubles(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("kind", ["product", "sum", "computed"])
@pytest.mark.parametrize("name", LINEAR)
def test_linear_op_of_a_pending_operand_stays_pending(name, kind):
    op, eager = LINEAR[name]
    eng = make_engine(slot_count=64)
    operands = linear_operands(eng)
    (x, a), (y, b) = operands[kind], operands["computed" if kind != "computed" else "product"]
    unshared = [c.unshared for c in (x, y)]
    before = eng.cost_snapshot()
    out = op(eng, x, y)
    # only x + x, and a sum or difference with an unshared operand, stays
    # unshared; x - x is +0.0, read, whatever x is
    uses_y = name in {"x + y", "y + x", "x - y", "y - x"}
    stays_unshared = name == "x + x" or (uses_y and any(unshared))
    assert out.unshared == stays_unshared, (name, kind)
    assert eng.cost_snapshot().additions - before.additions == (0 if name == "negate" else 1)
    assert same_doubles(out.slots, eager(a, b)), (name, kind)
    # every op takes x, and an unshared operand it took is spent; any other keeps its value
    for ct, value, taken in ((x, a, unshared[0]), (y, b, unshared[1] and uses_y)):
        if taken:
            with pytest.raises(EngineError, match="share"):
                ct.slots
        else:
            assert same_doubles(ct.slots, value), (name, kind)


def test_difference_with_itself_reads_positive_zero():
    # x - x takes x, on every engine, as any linear op does
    for kind in ("product", "sum", "computed"):
        eng = make_engine(slot_count=64)
        x, _ = linear_operands(eng)[kind]
        zero = eng.sub(x, x)
        assert not zero.unshared and same_doubles(zero.slots, np.zeros(64)), kind
        assert spent(x) == (kind != "computed"), kind
        # -(a - a) is -0.0 everywhere, as the eager negation gives
        x, _ = linear_operands(eng)[kind]
        assert np.signbit(eng.negate(eng.sub(x, x)).slots).all(), kind
        # on a noisy engine the difference owes one op's noise, whatever x owes
        noisy = make_engine(slot_count=64, sigma=SIGMA)
        x, _ = linear_operands(noisy)[kind]
        x = noisy.add(x, x)
        assert noisy.sub(x, x).owed == 1 and spent(x), kind


# every charged op that computes at once, on two read operands ``x``, ``y``
COMPUTING_OPS = {
    "add": lambda e, x, y: e.add(x, y),
    "sub": lambda e, x, y: e.sub(x, y),
    "add_plain": lambda e, x, y: e.add_plain(x, 0.5),
    "mul": lambda e, x, y: e.mul(x, y),
    "vector mul_plain": lambda e, x, y: e.mul_plain(x, np.arange(16.0)),
    "negate of a product": lambda e, x, y: e.negate(e.mul(x, y)),
}


@pytest.mark.parametrize("op", COMPUTING_OPS)
@pytest.mark.parametrize("sigma", [0.0, 1e-3], ids=["noise-free", "noisy"])
def test_owed_noise_is_a_weight_on_a_computed_value(op, sigma):
    # an owing ciphertext is unshared; a noise-free one is read
    eng = make_engine(slot_count=16, sigma=sigma)
    x, y = eng.encrypt(np.arange(16.0)), eng.encrypt(np.ones(16))
    out = COMPUTING_OPS[op](eng, x, y)
    assert out.unshared == (out.owed > 0) == (sigma > 0), op
    if sigma:
        assert "owing" in repr(out) and not spent(out)
    assert np.isfinite(out.slots).all() and out.owed == 0


# every op that takes an unshared operand, applied to an unshared ``p``
SPENDING_OPS = {
    "add": lambda e, p: e.add(p, e.encrypt(np.ones(16))),
    "sub": lambda e, p: e.sub(e.encrypt(np.ones(16)), p),
    "add_plain": lambda e, p: e.add_plain(p, 0.5),
    "negate": lambda e, p: e.negate(p),
    "scalar mul_plain": lambda e, p: e.mul_plain(p, 3.0),
    "adopt": lambda e, p: e.adopt(np.zeros(16), p),
}


@pytest.mark.parametrize("op", SPENDING_OPS)
def test_noise_free_op_spends_the_pending_operand_it_takes(op):
    # an unshared sum that owes nothing is spent as an owing one is
    eng = make_engine(slot_count=16)
    row = eng.encrypt(np.arange(16.0))
    p = eng.add(eng.mul_plain(row, 0.5), eng.mul_plain(row, -0.25))
    assert p.unshared and p.owed == 0
    SPENDING_OPS[op](eng, p)
    for use in (lambda: p.slots, lambda: eng.add(p, row), lambda: eng.share(p), lambda: eng.adopt(np.zeros(16), p)):
        with pytest.raises(EngineError, match="HESimulator.share"):
            use()


# A noisy sum owes the noise of its charged ops and draws it once, as one
# draw of the summed variance, when it is read.


def realise(eng, scales, rows):
    """The sums of ``rows`` by each row of ``scales`` as ``ps_eval`` realises
    its leaves: each charged on zero-width probes of the rows, its value its
    row of one BLAS product over them, adopted."""
    probes = [probe_of(r) for r in rows]
    charged = [eng.add(*[eng.mul_plain(p, s) for p, s in zip(probes, row)]) for row in scales]
    return list(map(eng.adopt, np.asarray(scales) @ np.array([r.slots for r in rows]), charged))


def noisy_sums(slot_count, count, terms, seed=0, sigma=SIGMA, realised=False):
    """A fresh engine with noise ``sigma``, ``count`` unshared sums on it,
    each of ``terms`` scalar products of the same base ciphertexts, and
    those bases; ``realised`` as ``realise`` gives them."""
    eng = make_engine(slot_count=slot_count, sigma=sigma, seed=seed)
    rng = np.random.default_rng(21)
    vs = [rng.normal(size=slot_count) for _ in range(terms)]
    bases = [eng.encrypt(v) for v in vs]
    scales = rng.uniform(-2.0, 2.0, (count, terms))
    if realised:
        return eng, realise(eng, scales, bases), bases
    sums = []
    for row in scales:
        acc = None
        for ct, s in zip(bases, row):
            term = eng.mul_plain(ct, s)
            acc = term if acc is None else eng.add(acc, term)
        sums.append(acc)
    return eng, sums, bases


@pytest.mark.parametrize("realised", [False, True], ids=["slots", "realise"])
@pytest.mark.parametrize("slot_count,count", [(1 << 16, 1), (1 << 12, 16)], ids=["2^16", "16x2^12"])
def test_pending_sum_draws_the_summed_noise_once(realised, slot_count, count):
    # a realised sum owes the noise its probes charged, drawn at its read
    terms = 5
    _, noisy, _ = noisy_sums(slot_count, count, terms, realised=realised)
    _, exact, _ = noisy_sums(slot_count, count, terms, sigma=0.0, realised=realised)
    assert all(c.owed == 2 * terms - 1 for c in noisy) and all(c.owed == 0 for c in exact)
    std = np.std(np.concatenate([a.slots - b.slots for a, b in zip(noisy, exact)]))
    assert abs(std / (SIGMA * np.sqrt(2 * terms - 1)) - 1.0) < 0.03


def test_add_to_itself_reads_its_operand_once():
    # add(p, p) is p doubled: its noise 2 e_p + e is one draw of weight 4 + 1
    n = 1 << 16
    eng = make_engine(slot_count=n, sigma=SIGMA, seed=4)
    v = np.random.default_rng(8).normal(size=n)
    p = eng.mul_plain(eng.encrypt(v), SCALE)
    doubled = eng.add(p, p)
    assert doubled.owed == 5 and doubled.unshared
    with pytest.raises(EngineError, match="spent"):
        p.slots
    assert abs(np.std(doubled.slots - 2 * (v * SCALE)) / (SIGMA * np.sqrt(5.0)) - 1.0) < 0.03
    # a shared p is read first: e_p, the noise it drew, and e, the addition's
    # own, are both N(0, sigma^2)
    (q,) = eng.share(eng.mul_plain(eng.encrypt(v), SCALE))
    doubled = eng.add(q, q)
    assert doubled.owed == 1
    for noise in (q.slots - v * SCALE, doubled.slots - 2 * q.slots):
        assert abs(np.std(noise) / SIGMA - 1.0) < 0.03


def test_spent_operand_raises_on_read_sum_and_realise():
    # one rule on both engines: the add took p's and q's values, owed noise or not
    for sigma in (SIGMA, 0.0):
        eng, (p, q), rows = noisy_sums(16, 2, 1, sigma=sigma)
        s = eng.add(p, q)
        assert s.owed == (3 if sigma else 0)
        concrete = eng.encrypt(np.ones(16))
        uses = {
            "read": lambda x: x.slots,
            "decrypt": lambda x: eng.decrypt(x),
            "sum with an unshared sum": lambda x: eng.add(eng.mul_plain(concrete, 2.0), x),
            "sum with itself": lambda x: eng.sub(x, x),
            "sum with a ciphertext": lambda x: eng.add(concrete, x),
            "mul_plain": lambda x: eng.mul_plain(x, 2.0),
            "mul": lambda x: eng.mul(concrete, x),
            "rotate": lambda x: eng.rotate(x, 1),
            "adopt": lambda x: eng.adopt(np.ones(16), x),
            "share": lambda x: eng.share(x),
        }
        for name, use in uses.items():
            for spent in (p, q):
                with pytest.raises(EngineError, match="spent") as err:
                    use(spent)
                message = str(err.value)
                assert "moved into another ciphertext" in message and "HESimulator.share" in message, name
        assert np.isfinite(s.slots).all()


def test_realised_noise_joins_the_op_that_takes_it_over():
    # a leaf as ps_eval realises it: charged on probes of its rows, its value
    # adopted, owing the noise of 3 products and 2 sums
    n = 1 << 16
    eng = make_engine(slot_count=n, sigma=SIGMA, seed=6)
    rng = np.random.default_rng(37)
    rows = [eng.encrypt(rng.normal(size=n)) for _ in range(3)]
    scales = rng.uniform(-2.0, 2.0, 3)
    charged = eng.add(*[eng.mul_plain(probe_of(r), s) for r, s in zip(rows, scales)])
    value = scales @ np.array([r.slots for r in rows])
    exact = value.copy()
    leaf = eng.adopt(value, charged)
    assert leaf.unshared and leaf.owed == 5
    x = eng.encrypt(np.ones(n))
    # as the giant-step walk adds a constant and a product to a leaf: both
    # run in its array, and the read draws the noise of all of them once
    out = eng.add(eng.add_plain(leaf, 0.5), eng.mul(x, x))
    assert out.owed == 5 + 1 + 1 + 1 and out.unshared
    with pytest.raises(EngineError, match="spent"):
        leaf.slots
    assert abs(np.std(out.slots - (exact + 1.5)) / (SIGMA * np.sqrt(8.0)) - 1.0) < 0.03
    assert np.shares_memory(out.slots, value)  # computed in the leaf's own array


# A leaf that ``adopt`` gives a value is private, an unshared array nothing
# else holds: ``add``, ``sub`` and ``add_plain`` with it as first operand
# write into that array and take it; ``mul`` reads it.  Each gives the
# doubles, costs and noise draws of the same leaf issued on its rows.

PRIVATE_OPS = {
    "add": lambda e, p, y: e.add(p, y, y),
    "sub": lambda e, p, y: e.sub(p, y),
    "add_plain": lambda e, p, y: e.add_plain(p, 0.5),
    "mul": lambda e, p, y: e.mul(p, y),
    "add of a pending sum": lambda e, p, y: e.add(p, e.mul_plain(y, 0.3)),
}


def leaves_of(sigma, scales, seed=15, n=1 << 12, full_width=False):
    """An engine, the sums of its rows by each row of ``scales``, and a read
    ``y``: each sum charged on zero-width probes of the rows and adopted,
    or, with ``full_width``, issued on the rows themselves."""
    eng = make_engine(slot_count=n, sigma=sigma, seed=seed)
    rng = np.random.default_rng(16)
    rows = [eng.encrypt(rng.normal(size=n)) for _ in range(len(scales[0]))]
    operands = rows if full_width else [probe_of(r) for r in rows]
    leaves = []
    for row in scales:
        leaf = eng.add(*[eng.mul_plain(c, s) for c, s in zip(operands, row)])
        if not full_width:
            value = rows[0].slots * row[0]
            for r, s in zip(rows[1:], row[1:]):
                value += r.slots * s
            leaf = eng.adopt(value, leaf)
        leaves.append(leaf)
    y = eng.share(eng.rotate(eng.encrypt(rng.normal(size=n)), 1))[0]
    return eng, leaves, y


def private_leaf(sigma, full_width=False):
    """An engine, the private leaf 0.7 r_0 - 1.3 r_1 of two rows, and a read ``y``."""
    eng, (leaf,), y = leaves_of(sigma, [(0.7, -1.3)], full_width=full_width)
    return eng, leaf, y


@pytest.mark.parametrize("sigma", [0.0, SIGMA], ids=["noise-free", "noisy"])
@pytest.mark.parametrize("op", PRIVATE_OPS)
def test_op_on_a_private_operand_runs_in_its_array(op, sigma):
    # a linear op writes into the leaf's array and takes it; a noisy mul
    # draws the noise it owes into that array, reading it
    eng, leaf, y = private_leaf(sigma)
    value, owed = leaf._value, leaf.owed
    assert leaf.unshared and (owed > 0) == (sigma > 0) and "unshared" in repr(leaf)
    out = PRIVATE_OPS[op](eng, leaf, y)
    assert spent(leaf) != (op == "mul")
    copy_eng, copy, copy_y = private_leaf(sigma, full_width=True)
    want = PRIVATE_OPS[op](copy_eng, copy, copy_y)
    assert (out.owed, out.level, out.unshared) == (want.owed, want.level, want.unshared)
    assert eng.cost_snapshot() == copy_eng.cost_snapshot()
    # the same doubles, and the same draws from the same stream
    result = out.slots
    assert same_doubles(result, want.slots) and not result.flags.writeable
    assert np.shares_memory(result, value) == (op != "mul")
    after = [e.decrypt(e.add_plain(e.mul(e.encrypt(np.ones(1 << 12)), y), 1.0)) for e in (eng, copy_eng)]
    assert same_doubles(*after)


@pytest.mark.parametrize("sigma", [0.0, SIGMA], ids=["noise-free", "noisy"])
@pytest.mark.parametrize("op", PRIVATE_OPS)
def test_private_operand_an_op_took_raises_when_used_again(op, sigma):
    eng, leaf, y = private_leaf(sigma)
    PRIVATE_OPS[op](eng, leaf, y)
    uses = {
        "read": lambda: leaf.slots,
        "add": lambda: eng.add(leaf, y),
        "later operand": lambda: eng.add(y, leaf),
        "add_plain": lambda: eng.add_plain(leaf, 1.0),
        "mul": lambda: eng.mul(leaf, y),
        "share": lambda: eng.share(leaf),
        "rotate": lambda: eng.rotate(leaf, 1),
    }
    for name, use in uses.items():
        if op == "mul":  # mul reads its operands, so every op may use the leaf again
            use()
            continue
        with pytest.raises(EngineError, match="HESimulator.share"):
            use()


READS = {
    "share": lambda e, p, y: e.share(p),
    "rotate": lambda e, p, y: e.rotate(p, 1),
    "decrypt": lambda e, p, y: e.decrypt(p),
    "later operand of mul": lambda e, p, y: e.mul(y, p),
    "ideal_map": lambda e, p, y: e.ideal_map(np.negative, p),
    "mul_plain": lambda e, p, y: e.mul_plain(p, np.full(1 << 12, 0.5)),
}


@pytest.mark.parametrize("read", READS)
def test_read_makes_a_private_value_read_only(read):
    eng, leaf, y = private_leaf(0.0)
    value = private_leaf(0.0, full_width=True)[1].slots
    READS[read](eng, leaf, y)
    assert not leaf.unshared and not leaf.slots.flags.writeable and same_doubles(leaf.slots, value)
    out = eng.add_plain(leaf, 0.5)  # a read value is left as it is
    assert not out.unshared and same_doubles(leaf.slots, value) and same_doubles(out.slots, value + 0.5)


@pytest.mark.parametrize("sigma", [0.0, SIGMA], ids=["noise-free", "noisy"])
def test_private_later_operand_nests_in_the_first_operands_program(sigma):
    # a - b of two private leaves runs in a's array and takes both, to the
    # doubles and draws of the same op on the leaves issued on their rows
    scales = [(0.7, -1.3, 0.2), (0.4, 0.9, -2.1)]
    eng, (a, b), _ = leaves_of(sigma, scales, seed=19)
    value, owed = a._value, a.owed + b.owed
    out = eng.sub(a, b)
    assert out.unshared and out._value is value and out.owed == owed + (1 if sigma else 0)
    assert spent(a) and spent(b)
    copy_eng, (copy_a, copy_b), _ = leaves_of(sigma, scales, seed=19, full_width=True)
    want = copy_eng.sub(copy_a, copy_b)
    assert same_doubles(out.slots, want.slots) and eng.cost_snapshot() == copy_eng.cost_snapshot()
    with pytest.raises(EngineError, match="HESimulator.share"):
        eng.add(eng.encrypt(np.ones(1 << 12)), b)


@pytest.mark.parametrize("sigma", [0.0, SIGMA], ids=["noise-free", "noisy"])
def test_add_to_itself_doubles_a_private_program(sigma):
    eng, leaf, y = private_leaf(sigma)
    value, owed = leaf._value, leaf.owed
    out = eng.add(leaf, leaf)
    assert out._value is value and spent(leaf)
    copy_eng, copy, _ = private_leaf(sigma, full_width=True)
    want = copy_eng.add(copy, copy)
    assert out.owed == want.owed == 4 * owed + (1 if sigma else 0)
    assert same_doubles(out.slots, want.slots) and eng.cost_snapshot() == copy_eng.cost_snapshot()


# On a noisy engine every charged op owes its noise until a read; a linear op
# takes over an owing operand's noise, scaled by its coefficient squared, and
# leaves the operand spent.  Each case builds its ciphertext from x, y and
# returns it, the operands it spent and its owed weight.
FORWARDING = {
    "add, first owing": lambda e, x, y: ((p := e.mul_plain(x, SCALE)), e.add(p, y), [p], 2),
    "add, second owing": lambda e, x, y: ((p := e.mul_plain(x, SCALE)), e.add(y, p), [p], 2),
    "sub, first owing": lambda e, x, y: ((p := e.mul(x, y)), e.sub(p, y), [p], 2),
    "sub, second owing": lambda e, x, y: ((p := e.mul(x, y)), e.sub(y, p), [p], 2),
    "add_plain": lambda e, x, y: ((p := e.mul_plain(x, SCALE)), e.add_plain(p, 0.3), [p], 2),
    "negate": lambda e, x, y: ((p := e.mul(x, y)), e.negate(p), [p], 1),
    "add to itself": lambda e, x, y: ((p := e.mul(x, y)), e.add(p, p), [p], 5),
    "scalar mul_plain": lambda e, x, y: ((p := e.mul_plain(x, SCALE)), e.mul_plain(p, 3.0), [p], 10),
    "mul, add(p, p), add_plain": lambda e, x, y: (
        (m := e.mul(x, y)), (d := e.add(m, m)), e.add_plain(d, -1.0), [m, d], 6
    ),
    "mul, add(leaf), add_plain": lambda e, x, y: (
        (m := e.mul(x, y)), (leaf := e.mul_plain(y, 0.7)), (s := e.add(m, leaf)),
        e.add_plain(s, 0.25), [m, leaf, s], 4,
    ),
}


def forwarded(name, sigma, n=1 << 16):
    eng = make_engine(slot_count=n, sigma=sigma, seed=12)
    rng = np.random.default_rng(13)
    x, y = eng.encrypt(rng.normal(size=n)), eng.encrypt(rng.normal(size=n))
    *_, out, spent, owed = FORWARDING[name](eng, x, y)
    return eng, out, spent, owed


@pytest.mark.parametrize("name", FORWARDING)
def test_forwarding_op_owes_the_summed_variance(name):
    eng, out, _, owed = forwarded(name, SIGMA)
    _, exact, _, _ = forwarded(name, 0.0)
    assert out.owed == owed and exact.owed == 0
    before = eng.cost_snapshot()
    noise = out.slots - exact.slots  # the read draws once and charges nothing
    assert eng.cost_snapshot() == before
    assert abs(np.std(noise) / (SIGMA * np.sqrt(owed)) - 1.0) < 0.03


@pytest.mark.parametrize("name", FORWARDING)
def test_forwarding_op_spends_its_owing_operands(name):
    eng, out, spent, _ = forwarded(name, SIGMA, n=16)
    concrete = eng.encrypt(np.ones(16))
    uses = {
        "read": lambda c: c.slots,
        "sum": lambda c: eng.add(concrete, c),
        "rotate": lambda c: eng.rotate(c, 1),
        "adopt": lambda c: eng.adopt(np.ones(16), c),
        "share": lambda c: eng.share(c),
    }
    for ct in spent:
        for use_name, use in uses.items():
            with pytest.raises(EngineError, match="spent"):
                use(ct)
    assert np.isfinite(out.slots).all()


def test_share_draws_the_owed_noise_and_charges_nothing():
    for sigma in (SIGMA, 0.0):
        eng = make_engine(slot_count=64, sigma=sigma, seed=2)
        rng = np.random.default_rng(14)
        u, w = rng.normal(size=64), rng.normal(size=64)
        x, y = eng.encrypt(u), eng.encrypt(w)
        p, m = eng.mul_plain(x, SCALE), eng.mul(x, y)
        s = eng.add(eng.mul_plain(x, 0.5), eng.mul_plain(y, -0.25))
        before, offsets = eng.cost_snapshot(), eng.rotation_offsets()
        out = eng.share(p, m, s, x)
        assert eng.cost_snapshot() == before and eng.rotation_offsets() == offsets
        assert len(out) == 4 and all(a is b for a, b in zip(out, (p, m, s, x)))
        # computed and drawn once, on either engine: every later use sees the same value
        assert all(not c.unshared and c.owed == 0 for c in (p, m, s))
        for c in (p, m, s):
            value = c.slots
            eng.add(c, y)
            eng.mul_plain(c, 3.0)
            assert np.array_equal(eng.rotate(c, 1).slots, np.roll(value, -1))
            assert c.slots is value
        if not sigma:  # the fold, to the double
            assert same_doubles(s.slots, u * 0.5 + w * -0.25) and same_doubles(p.slots, u * SCALE)


def test_seeded_noisy_run_repeats_bit_for_bit():
    def run(seed):
        eng, (a, b, c), _ = noisy_sums(1 << 13, 3, 4, seed=seed)
        x = eng.mul(eng.sub(eng.mul_plain(a, 0.5), eng.mul_plain(b, 0.25)), c)
        return eng.decrypt(eng.add(eng.rotate(x, 3), eng.add_plain(x, 1.0)))

    assert np.array_equal(run(7), run(7))
    assert not np.array_equal(run(7), run(8))


# ``add`` of n operands is the left fold of binary adds, charged n - 1
# additions in one call: same doubles, level, rotation chain, owed noise and
# spent operands.

NARY_KINDS = ("product", "sum", "computed", "deep")


def nary_operands(eng, kinds, repeat):
    """Operands of the given kinds, the one at ``repeat`` (if any) replaced
    by the first: a scalar product, a sum of two, a computed ciphertext
    rotated once, and a product a level lower."""
    rng = np.random.default_rng(33)
    n = eng.params.slot_count
    ops = []
    for kind in kinds:
        v, w = rng.normal(size=n), rng.normal(size=n)
        if kind == "product":
            ops.append(eng.mul_plain(eng.encrypt(v), SCALE))
        elif kind == "sum":
            ops.append(eng.add(eng.mul_plain(eng.encrypt(v), 0.7), eng.mul_plain(eng.encrypt(w), -1.3)))
        elif kind == "computed":
            ops.append(eng.rotate(eng.encrypt(v), 3))
        else:
            ops.append(eng.mul(eng.encrypt(v), eng.encrypt(w)))
    if repeat is not None:
        ops[repeat] = ops[0]
    return ops


def spent(ct):
    return not ct.unshared and getattr(ct, "_value", 0) is None


def left_fold_or_nary(nary, sigma, kinds, repeat):
    from functools import reduce

    eng = make_engine(slot_count=256, sigma=sigma, seed=5)
    ops = nary_operands(eng, kinds, repeat)
    taken = [ct.unshared for ct in ops]
    before = eng.cost_snapshot().additions
    try:
        out = eng.add(*ops) if nary else reduce(eng.add, ops)
    except EngineError as err:
        return eng, ops, taken, err
    assert eng.cost_snapshot().additions - before == len(ops) - 1
    return eng, ops, taken, out


@pytest.mark.parametrize("sigma", [0.0, SIGMA], ids=["noise-free", "noisy"])
@pytest.mark.parametrize("repeat", [None, 1, -1], ids=["distinct", "x+x", "last repeats first"])
@pytest.mark.parametrize("count", [2, 3, 4, 5, 6])
def test_nary_add_is_the_left_fold_of_binary_adds(count, repeat, sigma):
    kinds = [NARY_KINDS[(i + count) % len(NARY_KINDS)] for i in range(count)]
    eng, ops, taken, out = left_fold_or_nary(True, sigma, kinds, repeat)
    ref_eng, ref_ops, _, ref = left_fold_or_nary(False, sigma, kinds, repeat)
    assert eng.cost_snapshot() == ref_eng.cost_snapshot()
    if isinstance(ref, EngineError):
        # an unshared operand used again after an earlier add spent it
        assert isinstance(out, EngineError) and "spent" in str(out)
        assert repeat == -1 and taken[0]
        return
    assert not isinstance(out, EngineError)
    assert (out.level, out.rot_chain, out.owed) == (ref.level, ref.rot_chain, ref.owed)
    assert out.owed >= count - 1 if sigma else out.owed == 0
    assert [spent(c) for c in ops] == [spent(c) for c in ref_ops]
    assert same_doubles(out.slots, ref.slots)
    assert eng.rotation_offsets() == ref_eng.rotation_offsets()
    # every unshared operand was handed over and is spent; a read one keeps its value
    for ct, ref_ct, was_taken in zip(ops, ref_ops, taken):
        if was_taken:
            with pytest.raises(EngineError, match="spent"):
                ct.slots
        else:
            assert same_doubles(ct.slots, ref_ct.slots)


@pytest.mark.parametrize("sigma", [0.0, SIGMA], ids=["noise-free", "noisy"])
def test_add_of_one_operand_is_that_operand_uncharged(sigma):
    # as a zero rotation is: a sum over a list of one needs no branch
    eng = make_engine(slot_count=16, sigma=sigma)
    v = np.arange(16.0)
    for x in (eng.encrypt(v), eng.mul_plain(eng.encrypt(v), SCALE)):
        before, owed = eng.cost_snapshot(), x.owed
        assert eng.add(x) is x
        assert eng.cost_snapshot() == before and x.owed == owed


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


# Every charge is made inside the engine op that names it, which is what
# the benchmark's trace reconciles against ``cost_snapshot()``: the ct-pt
# products of a leaf inside ``mul_plain``, its additions inside ``add``.
# A single charged linear-combination op would break that.

CHARGING_OPS = {
    "mul": "ctct_mults",
    "mul_plain": "ctpt_mults",
    "add": "additions",
    "sub": "additions",
    "add_plain": "additions",
    "rotate": "rotations",
}


def _sort_cheb(eng):
    from slotrank import KernelConfig, SortConfig, sort

    values = np.random.default_rng(41).uniform(size=16)
    values[3] = values[9]
    cfg = KernelConfig(mode="chebyshev", degree=64)
    return sort(eng, eng.encrypt(values), 16, SortConfig(kernel=cfg))


def _median_noisy(eng):
    from slotrank import KernelConfig, median

    values = np.random.default_rng(42).uniform(size=16)
    return median(eng, eng.encrypt(values), 16, KernelConfig(mode="chebyshev", degree=64))


def _ps_eval_1024(eng):
    from slotrank import cheb_fit, ps_eval

    poly = cheb_fit(np.tanh, (0.0, 2.0), 1024)
    x = eng.encrypt(np.random.default_rng(43).uniform(0.0, 2.0, eng.params.slot_count))
    return ps_eval(eng, x, poly)


@pytest.mark.parametrize(
    "run,params",
    [
        (_ps_eval_1024, HEParams(slot_count=1 << 16, max_level=20)),
        (_sort_cheb, HEParams(slot_count=256, max_level=40)),
        (_median_noisy, HEParams(slot_count=256, max_level=60, noise_sigma=1e-6, seed=3)),
    ],
    ids=["ps_eval degree 1024", "chebyshev sort", "noisy median"],
)
def test_every_charge_lands_inside_its_op(monkeypatch, run, params):
    deltas = dict.fromkeys(((op, c) for op in CHARGING_OPS for c in set(CHARGING_OPS.values())), 0)

    def wrap(name, fn):
        def charged(self, *args, **kwargs):
            before = self.cost_snapshot()
            out = fn(self, *args, **kwargs)
            after = self.cost_snapshot()
            for counter in set(CHARGING_OPS.values()):
                deltas[(name, counter)] += getattr(after, counter) - getattr(before, counter)
            return out

        return charged

    for name in CHARGING_OPS:
        monkeypatch.setattr(HESimulator, name, wrap(name, getattr(HESimulator, name)))
    eng = HESimulator(params)
    eng.decrypt(run(eng))
    total = eng.cost_snapshot()
    assert min(total.ctct_mults, total.ctpt_mults, total.additions) > 0
    for counter in set(CHARGING_OPS.values()):
        assert sum(deltas[(op, counter)] for op in CHARGING_OPS) == getattr(total, counter), counter
    for (op, counter), delta in deltas.items():
        assert counter == CHARGING_OPS[op] or delta == 0, (op, counter)


@pytest.mark.parametrize(
    "coeffs",
    [(0, 1, 1, 0.5, 0, 0, 0, 0, 0.25), (0.5, 1, 1, 1, 1, 1, 1, 1, 1), (0, 1, -1, 1, 0, 0, 0, 0, 1, 1, 1)],
    ids=["unit terms lead a leaf", "all-unit leaves", "unit leaf and unit quotient"],
)
def test_noisy_ps_eval_with_unit_leaf_coefficients_matches_clenshaw(coeffs):
    # a leaf with coefficients of exactly 1 reads its rows themselves; on a
    # noisy engine it evaluates within a bound that scales with sigma
    from slotrank import ChebyshevPolynomial, cheb_eval, ps_eval

    xs = np.random.default_rng(24).uniform(-1.0, 1.0, 1 << 12)
    poly = ChebyshevPolynomial(interval=(-1.0, 1.0), coeffs=tuple(float(c) for c in coeffs))
    for sigma in (1e-9, 1e-6):
        eng = make_engine(slot_count=1 << 12, max_level=12, sigma=sigma, seed=8)
        err = eng.decrypt(ps_eval(eng, eng.encrypt(xs), poly)) - cheb_eval(poly, xs)
        # |T_i'| <= i^2 on [-1, 1]: each coefficient amplifies the noise of
        # its power by at most that much, each op adding its own
        amplification = 1 + sum(abs(c) * i * i for i, c in enumerate(coeffs))
        assert np.max(np.abs(err)) < 10 * sigma * amplification, sigma
        assert np.std(err) > 0.1 * sigma  # the noise was drawn
