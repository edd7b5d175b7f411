import dataclasses
import gc
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb

from slotrank import (
    ChebyshevPolynomial,
    CostReport,
    DepthBudgetError,
    HEParams,
    HESimulator,
    KernelConfig,
    SortConfig,
    StatisticQuery,
    block_merge,
    block_split,
    cheb_eval,
    cheb_fit,
    compare_ge_kernel,
    compare_gt_kernel,
    compare_kernel,
    equality_from_compare,
    goldschmidt_inverse,
    indicator_kernel,
    kernel_depth,
    median,
    multi_rank,
    multi_sort,
    order_statistic_value,
    percentile,
    ps_eval,
    rank,
    rank_corrected,
    sort,
)
from slotrank import chebyshev


def make_engine(slot_count=64, max_level=40, sigma=0.0):
    return HESimulator(HEParams(slot_count=slot_count, max_level=max_level, noise_sigma=sigma))


def ideal_cfg(degree=256, **kw):
    return KernelConfig(mode="ideal", degree=degree, **kw)


def cheb_cfg(degree=256, **kw):
    return KernelConfig(mode="chebyshev", degree=degree, **kw)


# ----------------------------------------------------------------------
# fitting
# ----------------------------------------------------------------------


def test_fit_constant():
    poly = cheb_fit(lambda t: 7.0 + 0.0 * t, (-2.0, 3.0), 5)
    coeffs = np.array(poly.coeffs)
    assert abs(coeffs[0] - 7.0) < 1e-12
    assert np.all(np.abs(coeffs[1:]) < 1e-12)


def test_fit_identity_is_first_basis_polynomial():
    poly = cheb_fit(lambda t: t, (-1.0, 1.0), 3)
    coeffs = np.array(poly.coeffs)
    assert abs(coeffs[1] - 1.0) < 1e-12
    assert np.all(np.abs(coeffs[[0, 2, 3]]) < 1e-12)


def test_fit_step_and_clenshaw_cross_check():
    poly = cheb_fit(lambda t: (t > 0).astype(float), (-1.0, 1.0), 63)
    coeffs = np.array(poly.coeffs)
    assert abs(npcheb.chebval(0.5, coeffs) - 1.0) < 0.05
    # values agree with an independent Clenshaw evaluation at random points
    rng = np.random.default_rng(0)
    xs = rng.uniform(-1, 1, 10)
    eng = make_engine()
    out = eng.decrypt(ps_eval(eng, eng.encrypt(np.pad(xs, (0, 54))), poly))[:10]
    assert np.allclose(out, npcheb.chebval(xs, coeffs), atol=1e-9)


def test_fit_reproduces_target_at_nodes():
    f = lambda t: np.sin(3 * t) + t * t
    d = 40
    poly = cheb_fit(f, (0.0, 2.0), d)
    theta = (np.arange(d + 1) + 0.5) * np.pi / (d + 1)
    nodes = 1.0 + np.cos(theta)
    u = (2 * nodes - 2.0) / 2.0
    got = npcheb.chebval(u, np.array(poly.coeffs))
    assert np.max(np.abs(got - f(nodes)) / np.maximum(1.0, np.abs(f(nodes)))) < 1e-9


def _cosine_sum_fit(f, interval, d):
    # the definition: c_k = (2/n) sum_j y_j cos(k theta_j), c_0 halved
    a, b = interval
    n = d + 1
    theta = (np.arange(n) + 0.5) * np.pi / n
    coeffs = (2.0 / n) * (np.cos(np.outer(np.arange(n), theta)) @ f(0.5 * (a + b) + 0.5 * (b - a) * np.cos(theta)))
    coeffs[0] *= 0.5
    return coeffs


@pytest.mark.parametrize("d", [0, 1, 2, 63, 64, 255, 1024])
def test_fit_matches_the_cosine_sum(d):
    for f, interval in ((_step_target(max(d, 1)), (-1.0, 1.0)), (lambda t: np.sin(3 * t) + 0.25 * t * t, (0.0, 2.0))):
        got = np.array(cheb_fit(f, interval, d).coeffs)
        assert got.shape == (d + 1,)
        assert np.max(np.abs(got - _cosine_sum_fit(f, interval, d))) < 1e-13


def test_fit_rejects_non_finite_targets():
    with pytest.raises(ValueError):
        cheb_fit(lambda t: np.full_like(t, np.inf), (-1.0, 1.0), 4)
    with pytest.raises(ValueError):
        cheb_fit(lambda t: t, (1.0, 1.0), 4)


@pytest.mark.parametrize("degree", [2.5, True])
def test_fit_rejects_a_non_integer_degree(degree):
    # 2.5 failed in numpy's slicing with an unnamed TypeError, and True fitted degree 1
    with pytest.raises(ValueError, match=f"degree must be an integer, got {degree!r}"):
        cheb_fit(np.sin, (0.0, 1.0), degree)
    assert cheb_fit(np.sin, (0.0, 1.0), np.int64(3)).degree == 3  # numpy integers pass


def test_polynomial_rejects_a_non_finite_coefficient():
    # ps_eval of (0.1, nan, 0.3) returned NaN in every slot, with no error
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="coeffs must be finite"):
            ChebyshevPolynomial(interval=(-1.0, 1.0), coeffs=(0.1, bad, 0.3))


def test_polynomial_rejects_a_non_finite_interval_end():
    # (0, inf) passed a < b and mapped every input to 0 or NaN
    for interval in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="interval must have finite ends"):
            ChebyshevPolynomial(interval=interval, coeffs=(0.1, 0.2))


# ----------------------------------------------------------------------
# exact parity of the kernel fits
# ----------------------------------------------------------------------


def _step_target(d):
    w = chebyshev._STEP_WIDTH / d * math.sqrt(2.0)
    return lambda t: 0.5 * (1.0 + chebyshev._erf(t / w))


def _window_target(a, b, lo, hi, d):
    w = chebyshev._WINDOW_WIDTH * (hi - lo) / d * math.sqrt(2.0)
    return lambda t: 0.5 * (chebyshev._erf((t - a) / w) - chebyshev._erf((t - b) / w))


@pytest.mark.parametrize("d", [64, 256, 1024])
def test_step_fit_is_one_half_plus_odd(d):
    coeffs = np.array(chebyshev._step_poly(d).coeffs)
    assert coeffs[0] == 0.5
    assert np.all(coeffs[2::2] == 0.0)
    assert np.all(coeffs[1::2] != 0.0)


@pytest.mark.parametrize("bound,d", [(16.0, 256), (64.0, 1024)])
def test_centred_window_fit_is_even(bound, d):
    coeffs = np.array(chebyshev._window_poly(-0.5, 0.5, -bound, bound, d).coeffs)
    assert np.all(coeffs[1::2] == 0.0)
    assert np.count_nonzero(coeffs[0::2]) > d // 4


def test_off_centre_window_keeps_odd_terms():
    coeffs = np.array(chebyshev._window_poly(1.5, 2.5, -0.5, 64.5, 256).coeffs)
    assert np.max(np.abs(coeffs[1::2])) > 1e-3


@pytest.mark.parametrize(
    "poly,target,interval,d",
    [
        *[(chebyshev._step_poly(d), _step_target(d), (-1.0, 1.0), d) for d in (64, 256, 1024)],
        *[
            (chebyshev._window_poly(*w), _window_target(*w), w[2:4], w[4])
            for w in [(-0.5, 0.5, -64.0, 64.0, 1024), (1.5, 2.5, -0.5, 64.5, 256), (31.5, 32.5, -0.5, 64.5, 256)]
        ],
    ],
)
def test_parity_projection_only_drops_rounding(poly, target, interval, d):
    # the projected fit, evaluated homomorphically, matches the plain fit
    xs = np.linspace(*interval, 1024)
    eng = make_engine(slot_count=1024)
    out = eng.decrypt(ps_eval(eng, eng.encrypt(xs), poly))
    assert np.max(np.abs(out - cheb_eval(cheb_fit(target, interval, d), xs))) < 1e-12


# ----------------------------------------------------------------------
# homomorphic evaluation
# ----------------------------------------------------------------------


def test_ps_eval_identity():
    eng = make_engine(slot_count=4)
    poly = ChebyshevPolynomial(interval=(-1.0, 1.0), coeffs=(0.0, 1.0))
    out = eng.decrypt(ps_eval(eng, eng.encrypt([-1.0, 0.0, 1.0]), poly))
    assert np.allclose(out[:3], [-1, 0, 1], atol=1e-15)
    assert eng.cost_snapshot().ctct_mults == 0


def test_ps_eval_constant_costs_nothing():
    eng = make_engine(slot_count=4)
    poly = ChebyshevPolynomial(interval=(-1.0, 1.0), coeffs=(3.0,))
    x = eng.encrypt([0.3, -0.7])
    out = ps_eval(eng, x, poly)
    assert np.array_equal(eng.decrypt(out), [3, 3, 3, 3])
    rep = eng.cost_snapshot()
    assert rep.ctct_mults == 0 and rep.ctpt_mults == 0
    assert out.level == x.level


def test_ps_eval_matches_scalar_clenshaw_random_degrees():
    rng = np.random.default_rng(11)
    for d in (1, 2, 7, 20, 33, 100, 257):
        coeffs = rng.uniform(-1, 1, d + 1)
        xs = rng.uniform(-1, 1, 32)
        eng = make_engine(slot_count=32)
        poly = ChebyshevPolynomial(interval=(-1.0, 1.0), coeffs=tuple(coeffs))
        out = eng.decrypt(ps_eval(eng, eng.encrypt(xs), poly))
        assert np.max(np.abs(out - npcheb.chebval(xs, coeffs))) < 1e-8


def test_ps_eval_matches_clenshaw_on_sparse_polynomials():
    # zero coefficients leave leaves without terms and remainders of zero;
    # a quotient never vanishes, since its top coefficient is c_d or 2 c_d
    rng = np.random.default_rng(17)
    xs = rng.uniform(-1, 1, 32)
    for _ in range(400):
        d = int(rng.integers(1, 301))
        coeffs = rng.uniform(-1, 1, d + 1)
        coeffs[rng.random(d + 1) < rng.uniform(0.0, 0.95)] = 0.0
        poly = ChebyshevPolynomial(interval=(-1.0, 1.0), coeffs=tuple(coeffs))
        eng = make_engine(slot_count=32)
        out = eng.decrypt(ps_eval(eng, eng.encrypt(xs), poly))
        assert np.max(np.abs(out - cheb_eval(poly, xs))) < 1e-8, (d, np.flatnonzero(coeffs))


@pytest.mark.parametrize("sigma", [0.0, 1e-12], ids=["noise-free", "noisy"])
def test_ps_eval_matches_clenshaw_with_unit_leaf_coefficients(sigma):
    # a product by exactly 1 is its baby-step row itself: leaves led by such
    # terms, or made only of them, still evaluate
    rng = np.random.default_rng(23)
    xs = rng.uniform(-1, 1, 32)
    fixed = [(0, 1, 1, 0.5, 0, 0, 0, 0, 0.25), (0, 1, 1, 1, 0, 0, 0, 0, 0.25), (0.5, 1, 1, 1, 1, 1, 1, 1, 1)]
    drawn = [rng.choice([0.0, 1.0, 1.0, -1.0, 0.5], int(d) + 1) for d in rng.integers(1, 130, 40)]
    for coeffs in [*fixed, *drawn]:
        poly = ChebyshevPolynomial(interval=(-1.0, 1.0), coeffs=tuple(float(c) for c in coeffs))
        eng = make_engine(slot_count=32, sigma=sigma)
        out = eng.decrypt(ps_eval(eng, eng.encrypt(xs), poly))
        assert np.max(np.abs(out - cheb_eval(poly, xs))) < 1e-6, tuple(coeffs)


def test_ps_eval_general_interval():
    rng = np.random.default_rng(3)
    coeffs = rng.uniform(-1, 1, 21)
    xs = rng.uniform(2.0, 5.0, 16)
    eng = make_engine(slot_count=16)
    poly = ChebyshevPolynomial(interval=(2.0, 5.0), coeffs=tuple(coeffs))
    out = eng.decrypt(ps_eval(eng, eng.encrypt(xs), poly))
    u = (2 * xs - 7.0) / 3.0
    assert np.max(np.abs(out - npcheb.chebval(u, coeffs))) < 1e-10


def test_ps_eval_multiplication_economy():
    rng = np.random.default_rng(1)
    for d, cap in ((64, None), (256, None), (1024, 80)):
        coeffs = rng.uniform(-1, 1, d + 1)
        eng = make_engine(slot_count=16, max_level=20)
        poly = ChebyshevPolynomial(interval=(-1.0, 1.0), coeffs=tuple(coeffs))
        ps_eval(eng, eng.encrypt(rng.uniform(-1, 1, 16)), poly)
        rep = eng.cost_snapshot()
        budget = 2 * math.ceil(math.sqrt(d + 1)) + math.ceil(math.log2(d + 1)) + 4
        assert rep.ctct_mults <= budget
        if cap:
            assert rep.ctct_mults < cap
            assert rep.ctct_mults < d / 4
        assert rep.levels_consumed <= math.ceil(math.log2(d + 1)) + 2


def _parity_coeffs(kind, d, rng):
    coeffs = rng.uniform(-1, 1, d + 1)
    coeffs[{"odd": 2, "even": 1, "full": d + 1}[kind]::2] = 0.0
    coeffs[0] = 0.5
    return coeffs


@pytest.mark.parametrize("d", [15, 64, 255, 256, 1023, 1024])
@pytest.mark.parametrize("kind", ["odd", "even", "full"])
def test_powers_build_one_parity_and_the_powers_of_two(kind, d):
    # each power is anchored at the power of two below it, so an odd or even
    # polynomial builds its own parity class and the powers of two only
    coeffs = _parity_coeffs(kind, d, np.random.default_rng(d))
    plan = chebyshev._plan(tuple(chebyshev._trim(coeffs).tolist()), 1 << max(1, math.ceil(math.log2(d + 1)) // 2))
    wanted = set(plan.baby) | set(plan.giants)
    twos = {1 << k for k in range(1, max(wanted).bit_length()) if 1 << k <= max(wanted)}
    built = (wanted | twos) - {1}
    assert all(i % 2 == {"odd": 1, "even": 0}.get(kind, i % 2) for i in built - twos)
    if d == 1024 and kind != "full":
        # as the kernel fits; both parities below the baby step would take 28
        assert len(built) == {"odd": 24, "even": 21}[kind]
    eng = make_engine(slot_count=16, max_level=20)
    poly = chebyshev.ChebyshevPolynomial((-1.0, 1.0), tuple(coeffs))
    assert set(plan.built) == built
    powers, rows = chebyshev._powers(eng, eng.encrypt(np.linspace(-1, 1, 16)), plan.baby, plan.giants)
    assert all(np.shares_memory(powers[i].slots, row) for i, row in zip(plan.baby, rows))
    assert eng.cost_snapshot() == CostReport(
        ctct_mults=len(built), additions=2 * len(built), levels_consumed=math.ceil(math.log2(max(wanted)))
    )
    for i, ct in powers.items():
        assert ct.level == 20 - math.ceil(math.log2(i)), i
        assert np.allclose(eng.decrypt(ct), np.cos(i * np.arccos(np.linspace(-1, 1, 16))), atol=1e-9), i


def test_ps_eval_computes_its_walk_once_at_the_share_of_its_result(monkeypatch):
    # noise-free, the probe's circuit charges every op first; then one tile
    # pass computes the value, which adopt gives the probe's result and the
    # share of the result reads before ps_eval returns it
    poly = chebyshev._step_poly(1024)
    eng = make_engine(slot_count=256)
    tile_pass, passes = chebyshev._tile_pass, []

    def counted(t, plan):
        passes.append(eng.cost_snapshot())
        return tile_pass(t, plan)

    monkeypatch.setattr(chebyshev, "_tile_pass", counted)
    xs = np.random.default_rng(9).uniform(-1.0, 1.0, 256)
    out = ps_eval(eng, eng.encrypt(xs), poly)
    assert passes == [eng.cost_snapshot()] and passes[0].ctpt_mults > 0
    assert not out.unshared and not out.slots.flags.writeable
    assert np.max(np.abs(out.slots - cheb_eval(poly, xs))) < 1e-9


# The giant-step walk runs in place, in its leaves' product tiles or in
# arrays of their own, so it must write no array it reads.  Each digest is
# the sha256 prefix of the output doubles, which the walk that allocated a
# fresh array at every node gave too.
IN_PLACE_POLYS = {
    "odd step": lambda d: chebyshev._step_poly(d),
    "centred window": lambda d: chebyshev._window_poly(-0.25, 0.25, -1.0, 1.0, d),
    "off-centre window": lambda d: chebyshev._window_poly(0.1, 0.6, -1.0, 1.0, d),
}
PINNED_IN_PLACE = {
    ("odd step", 15, 0.0): "aa553ee702cc2689",
    ("odd step", 15, 1e-9): "538d1d74d7e1fb72",
    ("odd step", 256, 0.0): "3cc345dcba54c504",
    ("odd step", 256, 1e-9): "6f53e75602ab9564",
    ("odd step", 1024, 0.0): "1e87c3c416088226",
    ("odd step", 1024, 1e-9): "b2bf3b60f8e10a3b",
    ("centred window", 15, 0.0): "36f455fcb30b5b24",
    ("centred window", 15, 1e-9): "0660c360d7c589c5",
    ("centred window", 256, 0.0): "db0ff4b64a1c4b07",
    ("centred window", 256, 1e-9): "24db020157728670",
    ("centred window", 1024, 0.0): "034d94476e6c3b02",
    ("centred window", 1024, 1e-9): "2d0732b86ec16169",
    ("off-centre window", 15, 0.0): "a1ae11ed3bd7168d",
    ("off-centre window", 15, 1e-9): "3ec56e8ec11875b9",
    ("off-centre window", 256, 0.0): "fd5d8ef5d72a71b5",
    ("off-centre window", 256, 1e-9): "4fe5c12734a39c6d",
    ("off-centre window", 1024, 0.0): "a5f6a54d328fd052",
    ("off-centre window", 1024, 1e-9): "54abf2d2a0660228",
}


@pytest.mark.parametrize(
    "name,degree,sigma", list(PINNED_IN_PLACE), ids=[f"{n}-{d}-{'noisy' if s else 'exact'}" for n, d, s in PINNED_IN_PLACE]
)
def test_in_place_walk_writes_only_its_own_arrays(name, degree, sigma):
    eng = HESimulator(HEParams(slot_count=256, max_level=40, noise_sigma=sigma, seed=7))
    x = eng.encrypt(np.random.default_rng(17).uniform(-1.0, 1.0, 256))
    seen = [(x, x.slots.tobytes())]  # and every power ps_eval shares, a noisy engine's at full width
    share = eng.share

    def shared(*cts):
        seen.extend((c, c.slots.tobytes()) for c in share(*cts))
        return cts

    eng.share = shared
    out = ps_eval(eng, x, IN_PLACE_POLYS[name](degree))
    assert len(seen) > 3 and all(c.slots.tobytes() == b for c, b in seen)
    assert not out.slots.flags.writeable
    assert hashlib.sha256(out.slots.tobytes()).hexdigest()[:16] == PINNED_IN_PLACE[(name, degree, sigma)]


@pytest.mark.parametrize(
    "name,degree,sigma", list(PINNED_IN_PLACE), ids=[f"{n}-{d}-{'noisy' if s else 'exact'}" for n, d, s in PINNED_IN_PLACE]
)
def test_walk_in_narrow_tiles_gives_the_pinned_doubles(monkeypatch, name, degree, sigma):
    # the noise-free pass's tile width changes how often each BLAS product
    # and step runs, never a double: 8 tiles of 32 columns at 256 slots, or
    # 5 of 48 and a ragged one of 16, give the digests of one whole-width
    # tile; a noisy engine runs no tile pass
    for tile in (32, 48):
        monkeypatch.setattr(chebyshev, "_TILE", tile)
        eng = HESimulator(HEParams(slot_count=256, max_level=40, noise_sigma=sigma, seed=7))
        x = eng.encrypt(np.random.default_rng(17).uniform(-1.0, 1.0, 256))
        out = ps_eval(eng, x, IN_PLACE_POLYS[name](degree))
        assert hashlib.sha256(out.slots.tobytes()).hexdigest()[:16] == PINNED_IN_PLACE[(name, degree, sigma)], tile


def difference_grid(side, seed=0, levels=16):
    """The flat side x side grid x_c - x_r of ``side`` values in [0, 1] on
    ``levels`` steps, so that exact ties put +0 off the diagonal too: the
    comparison's input on a one-block matrix that fills the slots."""
    vals = np.random.default_rng(seed).integers(0, levels, side) / (levels - 1)
    return (vals[None, :] - vals[:, None]).ravel()


def warm_ps_eval_peak(slot_count, poly, xs=None):
    """The output and tracemalloc peak of ``ps_eval`` of ``poly`` on ``xs``,
    by default ``slot_count`` uniform inputs in [-1, 1], noise-free, once
    its fit, plan and grid triangle are cached."""
    eng = make_engine(slot_count=slot_count, max_level=40)
    if xs is None:
        xs = np.random.default_rng(0).uniform(-1.0, 1.0, slot_count)
    ps_eval(eng, eng.encrypt(xs), poly)
    x = eng.encrypt(xs)
    tracemalloc.start()
    try:
        out = ps_eval(eng, x, poly)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(out.slots - cheb_eval(poly, xs))) < 1e-9
    return out, peak


def test_ps_eval_peak_at_the_benchmark_shape():
    # degree 1024 at 2^16 slots: the output and a scratch of 4096 columns for
    # every power and leaf, the step's 25 and 32.  2,413,561 bytes measured
    # for the step and 2,344,113 for the centred window, which read
    # 2,865,568 while it built T_2 from the input at full width; 13,650,016
    # for the step when its 16 baby-step rows and 5 giant powers were built
    # at full width.  On a 256 x 256 difference grid the step's tiles cover
    # the upper triangle and the mirror cells are written from the scratch:
    # no temporary of the slot count but the antisymmetry check's, freed
    # before the scratch is made
    for name in ("odd step", "centred window"):
        _, peak = warm_ps_eval_peak(1 << 16, IN_PLACE_POLYS[name](1024))
        assert peak <= 1.02 * 2_442_200, name
    _, peak = warm_ps_eval_peak(1 << 16, IN_PLACE_POLYS["odd step"](1024), difference_grid(256))
    assert peak <= 1.02 * 2_442_200, "odd step on a difference grid"


def test_ps_eval_peak_does_not_grow_with_the_slot_count():
    # the scratch holds a tile of each power and leaf, not a row: at 2^18
    # slots 1.91 slot vectors measured, where full-width powers held 26.0
    slot_count = 1 << 18
    _, peak = warm_ps_eval_peak(slot_count, chebyshev._step_poly(1024))
    assert peak <= 4 * 8 * slot_count


@pytest.mark.parametrize("sigma", [0.0, 1e-9], ids=["exact", "noisy"])
@pytest.mark.parametrize("name", ["odd step", "centred window"])
def test_ps_eval_computes_no_power_at_full_width(name, sigma):
    # noise-free, every power is built on a zero-width probe and the tile
    # pass computes its value a tile at a time, T_2 of the even window too;
    # noisy, each is a full slot vector, read at its draw
    eng = HESimulator(HEParams(slot_count=256, max_level=40, noise_sigma=sigma, seed=7))
    x = eng.encrypt(np.random.default_rng(17).uniform(-1.0, 1.0, 256))
    widths, share = [], eng.share

    def shared(*cts):
        widths.extend(c.slots.size for c in share(*cts) if c.level < x.level)
        return cts

    eng.share = shared
    out = ps_eval(eng, x, IN_PLACE_POLYS[name](1024))
    assert widths.pop() == out.slots.size == 256  # the result, shared before it is returned
    assert len(widths) >= 20 and set(widths) == {256 if sigma else 0}


@pytest.mark.parametrize("degree", [15, 256, 1024])
@pytest.mark.parametrize("name", IN_PLACE_POLYS)
def test_tile_pass_gives_the_doubles_and_costs_of_the_circuit_op_by_op(name, degree):
    # noise-free, ps_eval charges its circuit on a zero-width probe and takes
    # its value from the tile pass: the same doubles as the circuit issued
    # op by op on full-width ciphertexts, the noisy engine's code, and the
    # same costs as that circuit, which are the probe's.  On a 64 x 64
    # difference grid with exact ties the step's pass covers the upper
    # triangle and writes each mirror cell as c_0 - o: the same doubles too,
    # +0 cells off the diagonal included
    poly = IN_PLACE_POLYS[name](degree)
    coeffs = chebyshev._trim(np.array(poly.coeffs))
    plan = chebyshev._plan(tuple(coeffs.tolist()), 1 << max(1, math.ceil(math.log2(len(coeffs))) // 2))
    grid = difference_grid(64, seed=degree)
    assert np.count_nonzero(grid == 0.0) > 64  # ties off the diagonal
    for xs in (np.random.default_rng(17).uniform(-1.0, 1.0, 1 << 12), grid):
        outs, costs = [], []
        for run in (lambda e, x: ps_eval(e, x, poly), lambda e, x: chebyshev._circuit(e, x, plan)):
            eng = HESimulator(HEParams(slot_count=1 << 12, max_level=40))
            out = run(eng, eng.encrypt(xs))
            outs.append(out.slots)
            costs.append((eng.cost_snapshot(), out.level, out.rot_chain))
        assert outs[0].tobytes() == outs[1].tobytes()
        assert costs[0] == costs[1]


def recorded_cells(monkeypatch) -> list[tuple[bool, int]]:
    """Record, for each noise-free tile pass from now on, whether its plan
    is odd about a nonzero c_0 and how many cells its tiles cover."""
    mirror_cells, cells = chebyshev._mirror_cells, []

    def recorded(t, plan):
        mirror = mirror_cells(t, plan)
        cells.append((plan.odd, t.size if mirror is None else mirror[0].size))
        return mirror

    monkeypatch.setattr(chebyshev, "_mirror_cells", recorded)
    return cells


def run_with_and_without_the_triangle(monkeypatch, run):
    """``run(engine)``'s output, ``CostReport`` and rotation offsets, on a
    fresh 40-level engine of 2^16 slots, with the cells each tile pass
    covered, then with every tile pass made to cover its full grid."""
    results = []
    for mirror_cells in (chebyshev._mirror_cells, lambda t, plan: None):
        monkeypatch.setattr(chebyshev, "_mirror_cells", mirror_cells)
        cells = recorded_cells(monkeypatch)
        eng = make_engine(slot_count=1 << 16, max_level=40)
        out = run(eng)
        results.append((cells, eng.cost_snapshot(), eng.rotation_offsets(), out))
    return results


def test_noise_free_sort_computes_the_compare_once_per_pair(monkeypatch):
    # one block of 256 values fills 2^16 slots: its compare reads the 256 x
    # 256 difference grid x_c - x_r, so the step's pass covers the upper
    # triangle, and the placement window, an even plan, every cell.  Made
    # to cover every cell, the compare gives the same doubles and costs
    xs = np.random.default_rng(5).uniform(0.0, 1.0, 256)
    cfg = SortConfig(kernel=cheb_cfg(1024))
    tri, full = run_with_and_without_the_triangle(
        monkeypatch, lambda eng: eng.decrypt(sort(eng, eng.encrypt(xs), 256, cfg))
    )
    assert tri[0] == [(True, 256 * 257 // 2), (False, 1 << 16)]
    assert full[0] == [(True, 1 << 16), (False, 1 << 16)]
    assert tri[1:3] == full[1:3] and tri[3].tobytes() == full[3].tobytes()


def test_noise_free_multi_sort_halves_only_its_diagonal_compares(monkeypatch):
    # three blocks of 256 cells that fill 2^16 slots, the last one padded:
    # block i against itself compares on a difference grid, each on its
    # upper triangle, padding included; block i against a later block j
    # compares entries of j with entries of i, no antisymmetric grid, and
    # each of the nine placement windows covers every cell
    xs = np.random.default_rng(6).uniform(0.0, 1.0, 600)
    cfg = SortConfig(kernel=cheb_cfg(64))
    tri, full = run_with_and_without_the_triangle(
        monkeypatch, lambda eng: block_merge(eng, multi_sort(eng, block_split(eng, xs), cfg))
    )
    half, whole = (True, 256 * 257 // 2), (True, 1 << 16)
    assert tri[0] == [half, whole, whole, half, whole, half] + [(False, 1 << 16)] * 9
    assert full[0] == [whole] * 6 + [(False, 1 << 16)] * 9
    assert tri[1:3] == full[1:3] and tri[3].tobytes() == full[3].tobytes()


def one_ulp_off_a_difference_grid():
    grid = difference_grid(64)
    grid[5 * 64 + 9] = np.nextafter(grid[5 * 64 + 9], 2.0)
    return grid


def step_without_its_constant():
    step = chebyshev._step_poly(256)
    return dataclasses.replace(step, coeffs=(0.0,) + step.coeffs[1:])


def odd_poly_reading_no_t1():
    # splits into leaves of T_3 and T_5 only: T_1 is no baby-step row
    coeffs = np.zeros(36)
    coeffs[[0, 3, 35]] = [0.5, 0.125, 0.25]
    return ChebyshevPolynomial((-1.0, 1.0), tuple(coeffs))


# input, polynomial, noise, and (plan odd, cells covered) of each tile pass:
# the first case covers the triangle, and each other misses one condition
TRIANGLE_CASES = {
    "odd plan reading no T_1": (lambda: difference_grid(64), odd_poly_reading_no_t1, 0.0, [(True, 64 * 65 // 2)]),
    "one cell off by an ulp": (one_ulp_off_a_difference_grid, lambda: chebyshev._step_poly(256), 0.0, [(True, 1 << 12)]),
    "non-square slot count": (
        lambda: np.concatenate((difference_grid(64), np.zeros(1 << 12))),
        lambda: chebyshev._step_poly(256),
        0.0,
        [(True, 1 << 13)],
    ),
    "odd with c_0 = 0": (lambda: difference_grid(64), step_without_its_constant, 0.0, [(False, 1 << 12)]),
    "noisy engine": (lambda: difference_grid(64), lambda: chebyshev._step_poly(256), 1e-9, []),
}


@pytest.mark.parametrize("case", TRIANGLE_CASES)
def test_ps_eval_covers_the_triangle_only_where_an_odd_plan_meets_an_antisymmetric_grid(monkeypatch, case):
    # every case gives the doubles of the circuit issued op by op on
    # full-width ciphertexts: the triangle pass gathers T_1 into a row of
    # its own where it is no baby-step row, and a noisy engine is that
    # circuit, with no tile pass at all
    make_xs, make_poly, sigma, want = TRIANGLE_CASES[case]
    xs, poly = make_xs(), make_poly()
    coeffs = chebyshev._trim(np.array(poly.coeffs))
    plan = chebyshev._plan(tuple(coeffs.tolist()), 1 << max(1, math.ceil(math.log2(len(coeffs))) // 2))
    assert (1 in plan.baby) == (case != "odd plan reading no T_1")
    cells = recorded_cells(monkeypatch)
    outs = []
    for run in (lambda e, x: ps_eval(e, x, poly), lambda e, x: chebyshev._circuit(e, x, plan)):
        eng = HESimulator(HEParams(slot_count=xs.size, max_level=40, noise_sigma=sigma, seed=3))
        outs.append(run(eng, eng.encrypt(xs)).slots)
    assert cells == want
    assert outs[0].tobytes() == outs[1].tobytes()


def test_ps_eval_leaves_nothing_for_the_garbage_collector():
    # the rows, powers and probes form no cycle: they go as ps_eval returns
    poly = chebyshev._window_poly(-0.25, 0.25, -1.0, 1.0, 256)
    eng = make_engine(slot_count=1 << 12, max_level=40)
    x = eng.encrypt(np.random.default_rng(1).uniform(-1.0, 1.0, 1 << 12))
    ps_eval(eng, x, poly)
    gc.disable()
    tracemalloc.start()
    try:
        out = ps_eval(eng, x, poly)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert current < 1.5 * out.slots.nbytes  # the output and small objects: no slot vector more


def test_noisy_ps_eval_is_reproducible():
    poly = chebyshev._window_poly(7.5, 8.5, 0.0, 16.0, 256)
    xs = np.random.default_rng(6).uniform(0.0, 16.0, 64)
    outs = []
    for _ in range(2):
        eng = HESimulator(HEParams(slot_count=64, max_level=40, noise_sigma=1e-6, seed=5))
        outs.append(eng.decrypt(ps_eval(eng, eng.encrypt(xs), poly)))
    assert np.array_equal(*outs)
    assert np.max(np.abs(outs[0] - cheb_eval(poly, xs))) < 1e-2


def test_noisy_ps_eval_reads_a_power_without_a_row_twice():
    # T_3 has no row: T_5 = 2 T_4 T_1 - T_3 subtracts it and T_7 = 2 T_4 T_3 - T_1
    # multiplies by it, so it is shared when built, not spent by the first
    coeffs = np.zeros(64)
    coeffs[[5, 7, 63]] = [0.3, -0.2, 0.1]
    poly = ChebyshevPolynomial(interval=(-1.0, 1.0), coeffs=tuple(coeffs))
    xs = np.linspace(-1.0, 1.0, 64)
    eng = make_engine(slot_count=64, sigma=1e-9)
    out = eng.decrypt(ps_eval(eng, eng.encrypt(xs), poly))
    assert np.max(np.abs(out - cheb_eval(poly, xs))) < 1e-5


# The std of (noisy - noise-free) ps_eval output at 2^14 slots, sigma 1e-6,
# averaged over seeds 0-11, as measured when every charged op drew its own
# noise (spread over the seeds: 5.3e-6 and 2.5e-7).  When and how the noise
# is drawn may move the outputs, never this distribution.
PINNED_NOISE_STD = {
    "step": (lambda: chebyshev._step_poly(256), 1.6127e-4),
    "off-centre window": (lambda: chebyshev._window_poly(0.2, 0.45, 0.0, 1.0, 256), 2.0619e-5),
}


@pytest.mark.parametrize("name", PINNED_NOISE_STD)
def test_ps_eval_noise_distribution_is_pinned(name):
    make_poly, pinned = PINNED_NOISE_STD[name]
    poly = make_poly()
    n = 1 << 14
    xs = np.random.default_rng(0).uniform(*poly.interval, n)
    exact = make_engine(slot_count=n, max_level=20)
    clean = exact.decrypt(ps_eval(exact, exact.encrypt(xs), poly))
    stds = []
    for seed in range(12):
        eng = HESimulator(HEParams(slot_count=n, max_level=20, noise_sigma=1e-6, seed=seed))
        stds.append(np.std(eng.decrypt(ps_eval(eng, eng.encrypt(xs), poly)) - clean))
    assert abs(np.mean(stds) - pinned) < 0.05 * pinned


# Every pipeline, run on a noisy engine.  An op that takes over an owing
# operand's noise spends it, so a value used twice that was not shared first
# raises ``EngineError`` here.
NOISY_PIPELINES = {
    "rank": lambda e, xs, cfg: rank_corrected(e, e.encrypt(xs), xs.size, cfg).ranks,
    "fractional rank": lambda e, xs, cfg: rank(e, e.encrypt(xs), xs.size, cfg).ranks,
    "sort": lambda e, xs, cfg: sort(e, e.encrypt(xs), xs.size, SortConfig(kernel=cfg)),
    "multi_rank": lambda e, xs, cfg: multi_rank(e, block_split(e, xs), cfg, tie_correction=True).blocks[-1],
    "uncorrected multi_rank": lambda e, xs, cfg: multi_rank(e, block_split(e, xs), cfg).blocks[-1],
    "multi_sort": lambda e, xs, cfg: multi_sort(e, block_split(e, xs), SortConfig(kernel=cfg)).blocks[-1],
    "padded multi_sort": lambda e, xs, cfg: multi_sort(  # 3 of the last block's 4 entries are real
        e, block_split(e, xs[:-1]), SortConfig(kernel=cfg)
    ).blocks[-1],
    "min": lambda e, xs, cfg: order_statistic_value(e, e.encrypt(xs), xs.size, StatisticQuery("min"), cfg),
    "max": lambda e, xs, cfg: order_statistic_value(e, e.encrypt(xs), xs.size, StatisticQuery("max"), cfg),
    "even median": lambda e, xs, cfg: median(e, e.encrypt(xs), xs.size, cfg),
    "odd median": lambda e, xs, cfg: median(e, e.encrypt(xs[:-1]), xs.size - 1, cfg),
    "kth": lambda e, xs, cfg: order_statistic_value(
        e, e.encrypt(xs), xs.size, StatisticQuery("kth", k=3), cfg
    ),
    "percentile": lambda e, xs, cfg: percentile(e, e.encrypt(xs), xs.size, 40.0, cfg),
}


@pytest.mark.parametrize(
    "name,mode",
    [
        pytest.param(name, mode, id=name if mode == "chebyshev" else f"{name}-ideal")
        for name in NOISY_PIPELINES
        for mode in ("chebyshev", "ideal")
    ],
)
def test_noisy_chebyshev_pipelines_run(name, mode):
    xs = np.array([0.5, 0.1, 0.2, 0.2, 0.4, 0.9, 0.7, 0.4])  # two tied pairs
    slot_count = 16 if "multi" in name else 64  # blocks of 4
    cfg = KernelConfig(mode=mode, degree=64)

    def run(sigma):
        eng = HESimulator(HEParams(slot_count=slot_count, max_level=60, noise_sigma=sigma, seed=3))
        return eng.decrypt(NOISY_PIPELINES[name](eng, xs, cfg))

    if mode == "ideal":
        # The ideal kernels are exact, so noise of any size would break a tie
        # (and the comparison of a value with itself) that the noise-free run
        # sees as one: they refuse a noisy engine instead of answering wrong.
        with pytest.raises(
            ValueError, match=r"chebyshev\.(compare_kernel|compare_gt_kernel|compare_ge_kernel|indicator_kernel)"
        ):
            run(1e-9)
        return
    noisy, clean = run(1e-9), run(0.0)
    assert np.all(np.isfinite(noisy))
    assert np.max(np.abs(noisy - clean)) < 1e-3


def test_ps_eval_depth_budget_error_names_site():
    eng = make_engine(slot_count=8, max_level=2)
    coeffs = tuple(np.random.default_rng(0).uniform(-1, 1, 65))
    poly = ChebyshevPolynomial(interval=(-1.0, 1.0), coeffs=coeffs)
    with pytest.raises(DepthBudgetError) as err:
        ps_eval(eng, eng.encrypt(np.zeros(8)), poly)
    assert err.value.site.startswith("chebyshev.ps_eval/")


@pytest.mark.parametrize("diff", [1.5, 3.0, -2.0])
def test_noise_free_compare_refuses_a_difference_outside_its_range(diff):
    # the range [0, 1] bounds differences to [-1, 1]; unchecked, the degree-256
    # step returned -6.9e101, -3.7e190 and 1.4e141 for these, silently
    eng = make_engine(slot_count=16)
    with pytest.raises(ValueError, match=r"chebyshev\.compare_kernel/chebyshev\.ps_eval/.*slot 1 holds"):
        compare_kernel(eng, eng.encrypt([0.25, 0.25 + diff]), eng.encrypt([0.25, 0.0]), cheb_cfg(256))


@pytest.mark.parametrize("x, inside", [(4.06, True), (-0.06, True), (4.07, False), (-0.07, False), (np.nan, False)])
def test_noise_free_ps_eval_allows_a_slack_of_a_quarter_grid_step(x, inside):
    # on [0, 4] at degree 4 the slack is (b - a)/(4 d^2) = 1/16: within it
    # every T_k stays below cosh(1), so the value is bounded
    coeffs = (0.5, -1.0, 0.25, 2.0, -0.75)
    poly = ChebyshevPolynomial(interval=(0.0, 4.0), coeffs=coeffs)
    eng = make_engine(slot_count=8)
    ct = eng.encrypt([1.0, x])
    if inside:
        assert abs(eng.decrypt(ps_eval(eng, ct, poly))[1]) <= math.cosh(1.0) * np.abs(coeffs).sum()
    else:
        with pytest.raises(ValueError, match=r"chebyshev\.ps_eval/.*slot 1 .*interval \[0, 4\]"):
            ps_eval(eng, ct, poly)


def test_noisy_ps_eval_does_not_check_its_interval():
    # noise moves every slot, so a noisy engine's inputs are not checked
    eng = make_engine(slot_count=16, sigma=1e-6)
    out = eng.decrypt(compare_kernel(eng, eng.encrypt([1.5]), eng.encrypt([0.0]), cheb_cfg(256)))
    assert abs(out[0]) > 1e6


# ----------------------------------------------------------------------
# comparison kernels
# ----------------------------------------------------------------------


def test_compare_ideal_three_way():
    eng = make_engine()
    cfg = ideal_cfg()
    x = eng.encrypt([1.0, 0.0, 5.0])
    y = eng.encrypt([0.0, 0.0, 5.0])
    out = eng.decrypt(compare_kernel(eng, x, y, cfg))
    assert np.array_equal(out[:3], [1.0, 0.5, 0.5])
    assert eng.cost_snapshot().cmp_evals == 1


def test_compare_ideal_self_is_half():
    eng = make_engine()
    x = eng.encrypt(np.random.default_rng(0).uniform(size=64))
    out = eng.decrypt(compare_kernel(eng, x, x, ideal_cfg()))
    assert np.all(out == 0.5)


def test_compare_ideal_burns_configured_depth():
    eng = make_engine(max_level=40)
    x = eng.encrypt([1.0])
    out = compare_kernel(eng, x, x, ideal_cfg(degree=256))
    assert x.level - out.level == math.ceil(math.log2(257))


@pytest.mark.parametrize("d", [256, 1024])
def test_unit_range_chebyshev_compare_takes_ideal_depth(d):
    # on [0, 1] the difference needs no scaling, so the compare is the step's
    # ps_eval alone: ceil(log2(d + 1)) levels, as ideal mode charges
    xs = np.random.default_rng(d).uniform(0, 1, (2, 64))
    levels = []
    for cfg in (ideal_cfg(degree=d), cheb_cfg(degree=d)):
        eng = make_engine(slot_count=64)
        x, y = eng.encrypt(xs[0]), eng.encrypt(xs[1])
        out = compare_kernel(eng, x, y, cfg)
        assert x.level - out.level == eng.cost_snapshot().levels_consumed
        levels.append(eng.cost_snapshot().levels_consumed)
    assert levels == [math.ceil(math.log2(d + 1))] * 2
    assert levels[1] < kernel_depth(cheb_cfg(degree=d))


def test_three_way_gives_the_doubles_of_two_wheres():
    rng = np.random.default_rng(12)
    xs = np.concatenate([rng.uniform(-1, 1, 64), rng.integers(-2, 3, 64) / 2.0, [0.0, -0.0, 0.0, -0.0]])
    ys = np.concatenate([rng.uniform(-1, 1, 64), rng.integers(-2, 3, 64) / 2.0, [-0.0, 0.0, 0.0, -0.0]])
    for a, b in ((xs, ys), (ys, xs), (xs, xs)):
        two_wheres = np.where(a == b, 0.5, np.where(a > b, 1.0, 0.0))
        got = chebyshev._three_way(a, b)
        assert got.dtype == np.float64 and got.tobytes() == two_wheres.tobytes()  # signed zeros too
    assert np.count_nonzero(xs == ys) > 10  # ties and signed zeros were exercised


def test_three_way_is_bitwise_the_sum_of_two_masks():
    # the in-place passes (x > y) + (x >= y), halved, give the doubles of the
    # two-mask sum they replace, signed zeros included, on tied inputs
    rng = np.random.default_rng(27)
    xs = np.concatenate([rng.integers(-3, 4, 4096) / 2.0, [0.0, -0.0, -0.0, 1.0]])
    ys = np.concatenate([rng.integers(-3, 4, 4096) / 2.0, [-0.0, 0.0, -0.0, 1.0]])
    for a, b in ((xs, ys), (ys, xs), (xs, xs)):
        assert chebyshev._three_way(a, b).tobytes() == ((a > b) + 0.5 * (a == b)).tobytes()
    assert np.count_nonzero(xs == ys) > 500


def test_compare_chebyshev_close_to_ideal_for_separated_inputs():
    rng = np.random.default_rng(9)
    cfg = cheb_cfg(degree=256)
    eng = make_engine(slot_count=64)
    xs = rng.uniform(0, 1, 64)
    gaps = rng.uniform(0.05, 0.9, 64) * rng.choice([-1.0, 1.0], 64)
    ys = np.clip(xs + gaps, 0, 1)
    keep = np.abs(xs - ys) >= 0.05
    approx = eng.decrypt(compare_kernel(eng, eng.encrypt(xs), eng.encrypt(ys), cfg))
    ideal = (xs > ys).astype(float)
    assert np.max(np.abs(approx[keep] - ideal[keep])) < 0.1


def test_compare_agreement_scales_with_degree():
    # errors stay under 0.5 once the gap exceeds 4/degree
    rng = np.random.default_rng(21)
    for d in (64, 128, 256, 512, 1024):
        eng = make_engine(slot_count=256)
        gap = 4.0 / d
        xs = rng.uniform(0, 1 - gap, 256)
        ys = np.where(rng.random(256) < 0.5, xs + gap, np.clip(xs - gap, 0, 1))
        approx = eng.decrypt(compare_kernel(eng, eng.encrypt(xs), eng.encrypt(ys), cheb_cfg(degree=d)))
        exact = eng.decrypt(
            compare_kernel(eng, eng.encrypt(xs), eng.encrypt(ys), ideal_cfg(degree=d))
        )
        mask = np.abs(xs - ys) >= gap
        assert np.max(np.abs(approx[mask] - exact[mask])) < 0.5


def test_compare_complement_identity():
    eng = make_engine(slot_count=32)
    rng = np.random.default_rng(4)
    xs, ys = rng.uniform(0, 1, 32), rng.uniform(0, 1, 32)
    x, y = eng.encrypt(xs), eng.encrypt(ys)
    ideal = ideal_cfg()
    fwd = eng.decrypt(compare_kernel(eng, x, y, ideal))
    bwd = eng.decrypt(compare_kernel(eng, y, x, ideal))
    assert np.array_equal(fwd + bwd, np.ones(32))
    cheb = cheb_cfg(degree=128)
    fwd = eng.decrypt(compare_kernel(eng, x, y, cheb))
    bwd = eng.decrypt(compare_kernel(eng, y, x, cheb))
    assert np.max(np.abs(fwd + bwd - 1.0)) < 1e-10


def test_strict_and_weak_comparisons_ideal():
    eng = make_engine()
    x = eng.encrypt([1.0, 2.0, 2.0])
    y = eng.encrypt([2.0, 2.0, 1.0])
    assert np.array_equal(
        eng.decrypt(compare_gt_kernel(eng, x, y, ideal_cfg()))[:3], [0, 0, 1]
    )
    assert np.array_equal(
        eng.decrypt(compare_ge_kernel(eng, x, y, ideal_cfg()))[:3], [0, 1, 1]
    )


def test_strict_weak_chebyshev_with_margin():
    eng = make_engine(slot_count=32)
    cfg = cheb_cfg(degree=256, tie_margin=0.02)
    rng = np.random.default_rng(2)
    xs = rng.uniform(0.1, 0.9, 32).round(1)  # coarse grid: exact ties, gaps >= 0.05
    ys = rng.uniform(0.1, 0.9, 32).round(1)
    gt = eng.decrypt(compare_gt_kernel(eng, eng.encrypt(xs), eng.encrypt(ys), cfg))
    ge = eng.decrypt(compare_ge_kernel(eng, eng.encrypt(xs), eng.encrypt(ys), cfg))
    assert np.max(np.abs(gt - (xs > ys))) < 0.1
    assert np.max(np.abs(ge - (xs >= ys))) < 0.1


@pytest.mark.parametrize("margin", [1 / 512, 0.02])
def test_strict_weak_chebyshev_margin_at_range_ends(margin):
    # the shifted difference must stay inside the fit interval even when
    # the operands sit at opposite ends of the declared input range
    eng = make_engine(slot_count=8)
    cfg = cheb_cfg(degree=256, tie_margin=margin)
    xs = np.array([0.0, 1.0, 0.0, 0.999, 0.001, 1.0])
    ys = np.array([0.999, 0.0, 1.0, 0.0, 1.0, 0.001])
    x, y = eng.encrypt(xs), eng.encrypt(ys)
    gt = eng.decrypt(compare_gt_kernel(eng, x, y, cfg))[:6]
    ge = eng.decrypt(compare_ge_kernel(eng, x, y, cfg))[:6]
    assert np.max(np.abs(gt - (xs > ys))) < 1e-3
    assert np.max(np.abs(ge - (xs >= ys))) < 1e-3


# ----------------------------------------------------------------------
# indicator and equality
# ----------------------------------------------------------------------


def mapped(fit, xs):
    """``xs`` under the window's map, as a pipeline builds its input."""
    return np.array([fit(x) for x in xs])


def test_indicator_ideal_open_interval():
    eng = make_engine()
    cfg = ideal_cfg()
    fit = chebyshev.fit_map(cfg, 0.0, 2.0)  # the identity in ideal mode
    x = eng.encrypt(mapped(fit, [1.0, 2.0, 0.5]))
    out = eng.decrypt(indicator_kernel(eng, x, fit(0.5), fit(1.5), cfg))
    assert np.array_equal(out[:3], [1, 0, 0])  # the endpoint 0.5 lies outside


def test_indicator_covering_whole_range():
    eng = make_engine()
    cfg = ideal_cfg()
    fit = chebyshev.fit_map(cfg, 0.0, 1.0)
    x = eng.encrypt(mapped(fit, np.linspace(0, 1, 64)))
    out = eng.decrypt(indicator_kernel(eng, x, fit(-0.5), fit(1.5), cfg))
    assert np.all(out == 1.0)


def test_indicator_rejects_empty_interval():
    eng = make_engine()
    with pytest.raises(ValueError):
        indicator_kernel(eng, eng.encrypt([1.0]), 2.0, 2.0, ideal_cfg())


def test_indicator_chebyshev_on_integer_ranks():
    n = 8
    eng = make_engine(slot_count=8, max_level=40)
    cfg = cheb_cfg(degree=256)
    fit = chebyshev.fit_map(cfg, 0.5, n + 0.5)
    ranks = np.arange(1.0, n + 1.0)
    for k in (1, 4, 8):
        out = eng.decrypt(indicator_kernel(eng, eng.encrypt(mapped(fit, ranks)), fit(k - 0.5), fit(k + 0.5), cfg))
        ideal = (ranks == k).astype(float)
        assert np.max(np.abs(out - ideal)) < 0.1


def test_equality_from_compare_values():
    eng = make_engine()
    c = eng.encrypt([0.0, 0.5, 1.0, 0.6])
    out = eng.decrypt(equality_from_compare(eng, c))
    assert np.allclose(out[:4], [0.0, 1.0, 0.0, 0.96], atol=1e-12)
    rep = eng.cost_snapshot()
    assert rep.ctct_mults == 1 and rep.ctpt_mults == 1


def test_equality_all_ties():
    eng = make_engine()
    out = eng.decrypt(equality_from_compare(eng, eng.encrypt([0.5] * 8)))
    assert np.array_equal(out[:8], np.ones(8))


def test_equality_composed_with_compare_is_exact_indicator():
    eng = make_engine(slot_count=32)
    rng = np.random.default_rng(19)
    xs = rng.integers(0, 4, 32) / 4.0
    ys = rng.integers(0, 4, 32) / 4.0
    c = compare_kernel(eng, eng.encrypt(xs), eng.encrypt(ys), ideal_cfg())
    out = eng.decrypt(equality_from_compare(eng, c))
    assert np.array_equal(out, (xs == ys).astype(float))


def test_noisy_equality_reads_an_owing_comparison_twice():
    # 4c(1 - c) uses c in both factors, so an owing c is shared, not spent
    eng = make_engine(sigma=1e-9)
    c = eng.mul_plain(eng.encrypt([0.0, 1.0, 2.0, 1.2]), 0.5)
    assert c.owed == 1
    out = eng.decrypt(equality_from_compare(eng, c))
    assert np.allclose(out[:4], [0.0, 1.0, 0.0, 0.96], atol=1e-6)


# ----------------------------------------------------------------------
# reciprocal
# ----------------------------------------------------------------------


def scalar_goldschmidt(b, k, a=None):
    # Goldschmidt's division a / b seeded at 1/k, op for op as the circuit
    # runs it: the reciprocal of b when a is None
    f = b * (-1.0 / (k * k)) + 2.0 / k
    n = f if a is None else f * a
    d = f * b
    for step in range(5):
        f = -d + 2.0
        n = f * n
        if step < 4:
            d = f * d
    return n


@pytest.mark.parametrize(
    "x,k,tol",
    [(1.0, 1, 1e-15), (5.0, 8, 1e-12), (0.3, 1, 1e-9)],
)
def test_goldschmidt_matches_scalar_oracle_and_truth(x, k, tol):
    # the error after the 4 squares is (1 - x/k)^64: 0.7^64 / 0.3 < 1e-9 at the last case
    eng = make_engine(slot_count=4, max_level=40)
    out = eng.decrypt(goldschmidt_inverse(eng, eng.encrypt([x]), k))[0]
    assert out == scalar_goldschmidt(x, k)
    assert abs(out - 1.0 / x) < tol


@pytest.mark.parametrize("k", [1, 2, 5])
def test_goldschmidt_division_matches_scalar_oracle_op_for_op(k):
    rng = np.random.default_rng(k)
    a, b = rng.uniform(-3, 3, 16), k * rng.uniform(0.5, 1.5, 16)
    eng = make_engine(slot_count=16)
    out = eng.decrypt(goldschmidt_inverse(eng, eng.encrypt(b), k, eng.encrypt(a)))
    assert np.array_equal(out, scalar_goldschmidt(b, k, a))
    np.testing.assert_allclose(out, a / b, rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("k", [1, 2])
def test_goldschmidt_division_is_exact_at_its_seed_point(k):
    # a divisor of exactly k, as a noise-free window mask of k ranks has:
    # the seed is 1/k, a power of two here, and every later factor exactly 1
    a = np.array([0.0, -0.0, 0.3, -7.25, 1e-300, 123456.789, 2.0 / 3.0, -1.0])
    eng = make_engine(slot_count=8)
    out = eng.decrypt(goldschmidt_inverse(eng, eng.encrypt(np.full(8, float(k))), k, eng.encrypt(a)))
    assert np.array_equal(out, a / k)


@pytest.mark.parametrize("k", [1, 3, 64])
def test_goldschmidt_division_error_is_the_64th_power_of_the_seed_error(k):
    # the quotient is (a/b)(1 - (1 - b/k)^64): below rounding within 55% of
    # k, where 0.55^64 < 3e-17, and that exact loss further out
    a = np.linspace(-2.0, 3.0, 64)
    a[a == 0.0] = 1.0
    for lo, hi in ((0.45, 1.55), (0.05, 0.4), (1.6, 1.95)):
        b = k * np.linspace(lo, hi, 64)
        eng = make_engine(slot_count=64)
        out = eng.decrypt(goldschmidt_inverse(eng, eng.encrypt(b), k, eng.encrypt(a)))
        loss = (1.0 - b / k) ** 64
        np.testing.assert_allclose(1.0 - out * b / a, loss, rtol=1e-9, atol=1e-15)


def test_goldschmidt_division_carries_the_numerator_in_the_divisor_chain():
    # 11 ct-ct products and 6 levels below the later of the numerator and
    # the seed, with 6 additions; a reciprocal and a product by it took 11
    # ct-ct, 7 additions and 7 levels.  The reciprocal alone is the division
    # with no numerator: one product fewer, the same 6 levels.  At k != 1
    # the seed's ct-pt puts it a level below its divisor
    costs = {}
    for k in (1, 2):
        eng = make_engine(slot_count=4)
        goldschmidt_inverse(eng, eng.encrypt([k * 0.9] * 4), k, eng.encrypt([0.5] * 4))
        costs["divide", k] = eng.cost_snapshot()
        eng = make_engine(slot_count=4)
        goldschmidt_inverse(eng, eng.encrypt([k * 0.9] * 4), k)
        costs["inverse", k] = eng.cost_snapshot()
    assert costs["divide", 1] == CostReport(ctct_mults=11, additions=6, levels_consumed=6)
    assert costs["divide", 2] == CostReport(ctct_mults=11, ctpt_mults=1, additions=6, levels_consumed=7)
    assert costs["inverse", 1] == CostReport(ctct_mults=10, additions=6, levels_consumed=6)
    assert costs["inverse", 2] == CostReport(ctct_mults=10, ctpt_mults=1, additions=6, levels_consumed=7)


def test_goldschmidt_division_runs_on_a_noisy_engine():
    # the divisor and each later one are read by two ops, so they are shared
    # first: an owing operand spent by its first reader would raise at the next
    eng = make_engine(slot_count=4, sigma=1e-9)
    a, b = eng.mul_plain(eng.encrypt([1.0, 2.0, 3.0, 4.0]), 0.5), eng.mul_plain(eng.encrypt([2.0] * 4), 0.5)
    assert a.owed and b.owed
    out = eng.decrypt(goldschmidt_inverse(eng, b, 1, a))
    np.testing.assert_allclose(out, [0.5, 1.0, 1.5, 2.0], atol=1e-7)


def test_goldschmidt_across_wide_range():
    # window widths k from one rank up to 128, each over norms in (k/2, 3k/2)
    for k in (1, 3, 64, 128):
        eng = make_engine(slot_count=64, max_level=40)
        xs = k * np.linspace(0.5, 1.5, 64)
        out = eng.decrypt(goldschmidt_inverse(eng, eng.encrypt(xs), k))
        assert np.max(np.abs(out * xs - 1.0)) < 1e-12


def test_unit_range_reciprocal_seeds_2_minus_x_with_a_free_negation():
    # at k = 1 the seed's slope is -1: a negation, free in CKKS, where any
    # other k multiplies by -1/k^2 at one ct-pt and level
    xs = np.array([0.6, 1.0, 1.3])
    costs = {}
    for k in (1, 2):
        eng = make_engine(slot_count=4, max_level=40)
        out = eng.decrypt(goldschmidt_inverse(eng, eng.encrypt(k * xs), k))[:3]
        np.testing.assert_allclose(out, [scalar_goldschmidt(k * x, k) for x in xs], rtol=1e-14)
        np.testing.assert_allclose(out * k * xs, 1.0, atol=1e-6)
        costs[k] = eng.cost_snapshot()
    assert (costs[1].ctpt_mults, costs[2].ctpt_mults) == (0, 1)
    assert costs[1].levels_consumed == costs[2].levels_consumed - 1
    assert costs[1].additions == costs[2].additions


def test_goldschmidt_rejects_bad_range():
    eng = make_engine()
    for k in (0, -1):
        with pytest.raises(ValueError, match="must be > 0"):
            goldschmidt_inverse(eng, eng.encrypt([1.0]), k)
        with pytest.raises(ValueError, match="must be > 0"):
            goldschmidt_inverse(eng, eng.encrypt([1.0]), k, eng.encrypt([1.0]))


def test_kernel_depth_by_mode():
    assert kernel_depth(ideal_cfg(degree=256)) == 9
    assert kernel_depth(cheb_cfg(degree=256)) == 10
    cfg = KernelConfig(mode="ideal", degree=256, indicator_degree=512)
    assert kernel_depth(cfg, "indicator") == 10


def test_chebyshev_kernels_stay_within_kernel_depth_at_every_degree():
    # the compare and the windows, centred and off-centre in [-1, 1], read
    # their inputs as they come; at most one level above ideal mode's depth
    # and exactly kernel_depth at d = 1023, where a leaf's scalar products
    # lie on the deepest path
    x = np.linspace(0.0, 1.0, 8)
    for d in [*range(1, 140), 255, 256, 511, 512, 1023, 1024]:
        cfg = cheb_cfg(degree=d)
        runs = [lambda eng: compare_kernel(eng, eng.encrypt(x), eng.encrypt(x[::-1]), cfg)]
        runs += [
            lambda eng, a=a, b=b: indicator_kernel(eng, eng.encrypt(2.0 * x - 1.0), a, b, cfg)
            for a, b in ((-0.5, 0.5), (-0.3, 0.6))
        ]
        for run in runs:
            eng = make_engine(slot_count=8, max_level=64)
            levels = 64 - run(eng).level
            assert levels <= kernel_depth(cfg) and (d != 1023 or levels == kernel_depth(cfg)), (d, levels)


def test_fit_map_is_the_identity_in_ideal_mode_and_onto_the_unit_interval_in_chebyshev_mode():
    ideal = chebyshev.fit_map(ideal_cfg(), -0.5, 8.5)
    assert (ideal.scale, ideal(-0.5), ideal(0.0), ideal(3.5)) == (1.0, -0.5, 0.0, 3.5)
    unit = chebyshev.fit_map(cheb_cfg(), -0.5, 8.5)
    assert (unit(-0.5), unit(8.5)) == (-1.0, 1.0)
    assert unit.scale * 3.5 + unit(0.0) == pytest.approx(unit(3.5), abs=1e-15)
    # a window centred in the fit interval stays exactly centred, so its
    # odd coefficients stay zero; a fit interval centred on 0 maps 0 to +0.0
    assert unit(3.5) == -unit(4.5)
    assert math.copysign(1.0, chebyshev.fit_map(cheb_cfg(), -16, 16)(0.0)) == 1.0
    with pytest.raises(ValueError, match="lo < hi"):
        chebyshev.fit_map(cheb_cfg(), 1.0, 1.0)


def test_window_on_a_mapped_input_costs_no_map():
    # the window fitted on [-1, 1] reads its input as it comes: no ct-pt
    # product and one level fewer than the same window fitted on [-0.5, 8.5],
    # whose powers map their input onto [-1, 1] first
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 8.0])
    cfg = cheb_cfg(degree=64)
    fit = chebyshev.fit_map(cfg, -0.5, 8.5)
    outs, reports = [], []
    for run in (
        lambda eng: ps_eval(eng, eng.encrypt(x), chebyshev._window_poly(1.5, 3.5, -0.5, 8.5, 64)),
        lambda eng: indicator_kernel(eng, eng.encrypt(mapped(fit, x)), fit(1.5), fit(3.5), cfg),
    ):
        eng = make_engine(64)
        outs.append(eng.decrypt(run(eng))[:6])
        reports.append(eng.cost_snapshot())
    np.testing.assert_allclose(outs[1], outs[0], atol=1e-9)
    raw, unit = reports
    assert (unit.ctpt_mults, unit.levels_consumed) == (raw.ctpt_mults - 1, raw.levels_consumed - 1)


def test_kernel_config_rejects_a_non_integer_degree():
    # 2.5 raised a TypeError deep inside cheb_fit, and True fitted degree 1
    for degree in (2.5, True):
        with pytest.raises(ValueError, match=f"degree must be an integer, got {degree!r}"):
            KernelConfig(mode="chebyshev", degree=degree)
    assert KernelConfig(mode="chebyshev", degree=np.int64(64)).degree == 64  # numpy integers pass


def test_kernel_config_rejects_a_non_integer_indicator_degree():
    for degree in (3.5, True):
        with pytest.raises(ValueError, match=f"indicator_degree must be an integer, got {degree!r}"):
            KernelConfig(mode="chebyshev", degree=64, indicator_degree=degree)
    assert KernelConfig(mode="chebyshev", degree=64, indicator_degree=np.int32(32)).ind_degree == 32


def test_kernel_config_validation():
    with pytest.raises(ValueError):
        KernelConfig(mode="magic")
    with pytest.raises(ValueError):
        KernelConfig(degree=0)
    with pytest.raises(ValueError):
        KernelConfig(indicator_degree=0)
    with pytest.raises(ValueError):
        KernelConfig(tie_margin=-1.0)
    # the kernels' domain is fixed, [-1, 1], so no field declares one
    assert [f.name for f in dataclasses.fields(KernelConfig)] == ["mode", "degree", "indicator_degree", "tie_margin"]
