import math

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
    powers = chebyshev._powers(eng, eng.encrypt(np.linspace(-1, 1, 16)), poly, plan.baby, plan.giants)
    assert eng.cost_snapshot() == CostReport(
        ctct_mults=len(built), additions=2 * len(built), levels_consumed=math.ceil(math.log2(max(wanted)))
    )
    for i, ct in powers.items():
        assert ct.level == 20 - math.ceil(math.log2(i)), i
        assert np.allclose(eng.decrypt(ct), np.cos(i * np.arccos(np.linspace(-1, 1, 16))), atol=1e-9), i


# The exact counters of ps_eval on the two degree-1024 kernel fits.  How the
# leaves are computed may change host time and rounding, never these.
PINNED_PS_EVAL = {
    "step": (
        lambda: chebyshev._step_poly(1024),
        CostReport(ctct_mults=55, ctpt_mults=512, additions=560, levels_consumed=11),
    ),
    "centred window": (
        lambda: chebyshev._window_poly(31.5, 32.5, 0.0, 64.0, 1024),
        CostReport(ctct_mults=52, ctpt_mults=482, additions=555, levels_consumed=12),
    ),
}


@pytest.mark.parametrize(
    "name,slot_count",
    [
        pytest.param(name, n, id=name if n == 256 else f"{name}-2^16")
        for n in (256, 1 << 16)  # 2^16: the shape sort_cheb runs
        for name in PINNED_PS_EVAL
    ],
)
def test_ps_eval_degree_1024_costs_are_pinned(name, slot_count):
    make_poly, cost = PINNED_PS_EVAL[name]
    poly = make_poly()
    xs = np.random.default_rng(5).uniform(*poly.interval, slot_count)
    eng = make_engine(slot_count=slot_count)
    out = ps_eval(eng, eng.encrypt(xs), poly)
    assert eng.cost_snapshot() == cost
    assert out.level == eng.params.max_level - cost.levels_consumed
    assert np.max(np.abs(eng.decrypt(out) - cheb_eval(poly, xs))) < 1e-12


def test_ps_eval_computes_each_leaf_batch_as_one_product():
    # realise is told the baby-step rows; a batch it folded instead would
    # leave each leaf an array of its own
    poly = chebyshev._step_poly(1024)
    eng = make_engine(slot_count=256)
    realise, blocks = eng.realise, []

    def spy(cts, rows=()):
        out = realise(cts, rows)
        blocks.append({id(c.slots.base) for c in out if c.slots.base is not None})
        return out

    eng.realise = spy
    xs = np.random.default_rng(9).uniform(-1.0, 1.0, 256)
    ps_eval(eng, eng.encrypt(xs), poly)
    plan = chebyshev._plan(tuple(poly.coeffs), 32)
    assert len(blocks) == math.ceil(len(plan.leaves) / chebyshev._LEAF_BATCH)
    assert all(len(b) == 1 for b in blocks)


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


def test_indicator_ideal_open_interval():
    eng = make_engine()
    cfg = ideal_cfg(input_range=(0.0, 2.0))
    x = eng.encrypt([1.0, 2.0, 0.5])
    out = eng.decrypt(indicator_kernel(eng, x, 0.5, 1.5, cfg))
    assert np.array_equal(out[:3], [1, 0, 0])  # the endpoint 0.5 lies outside


def test_indicator_covering_whole_range():
    eng = make_engine()
    cfg = ideal_cfg(input_range=(0.0, 1.0))
    x = eng.encrypt(np.linspace(0, 1, 64))
    out = eng.decrypt(indicator_kernel(eng, x, -0.5, 1.5, cfg))
    assert np.all(out == 1.0)


def test_indicator_rejects_empty_interval():
    eng = make_engine()
    with pytest.raises(ValueError):
        indicator_kernel(eng, eng.encrypt([1.0]), 2.0, 2.0, ideal_cfg())


def test_indicator_chebyshev_on_integer_ranks():
    n = 8
    eng = make_engine(slot_count=8, max_level=40)
    cfg = cheb_cfg(degree=256, input_range=(0.5, n + 0.5))
    ranks = np.arange(1.0, n + 1.0)
    for k in (1, 4, 8):
        out = eng.decrypt(indicator_kernel(eng, eng.encrypt(ranks), k - 0.5, k + 0.5, cfg))
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
    assert kernel_depth(cheb_cfg(degree=256)) == 11
    cfg = KernelConfig(mode="ideal", degree=256, indicator_degree=512)
    assert kernel_depth(cfg, "indicator") == 10


def test_fit_map_is_the_identity_in_ideal_mode_and_onto_the_unit_interval_in_chebyshev_mode():
    ideal = chebyshev.fit_map(ideal_cfg(), -0.5, 8.5)
    assert (ideal.scale, ideal.input_range, ideal(0.0), ideal(3.5)) == (1.0, (-0.5, 8.5), 0.0, 3.5)
    unit = chebyshev.fit_map(cheb_cfg(), -0.5, 8.5)
    assert unit.input_range == (-1.0, 1.0)
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
    # product and one level fewer than the same window on [-0.5, 8.5]
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 8.0])
    fit = chebyshev.fit_map(cheb_cfg(degree=64), -0.5, 8.5)
    unit = chebyshev.with_input_range(cheb_cfg(degree=64), *fit.input_range)
    outs, reports = [], []
    for values, cfg, edges in (
        (x, cheb_cfg(degree=64, input_range=(-0.5, 8.5)), (1.5, 3.5)),
        (fit.scale * x + fit(0.0), unit, (fit(1.5), fit(3.5))),
    ):
        eng = make_engine(64)
        outs.append(eng.decrypt(indicator_kernel(eng, eng.encrypt(values), *edges, cfg))[:6])
        reports.append(eng.cost_snapshot())
    np.testing.assert_allclose(outs[1], outs[0], atol=1e-9)
    raw, mapped = reports
    assert (mapped.ctpt_mults, mapped.levels_consumed) == (raw.ctpt_mults - 1, raw.levels_consumed - 1)


def test_kernel_config_validation():
    with pytest.raises(ValueError):
        KernelConfig(mode="magic")
    with pytest.raises(ValueError):
        KernelConfig(degree=0)
    with pytest.raises(ValueError):
        KernelConfig(input_range=(1.0, 0.0))
    with pytest.raises(ValueError):
        KernelConfig(tie_margin=-1.0)
