import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb

from slotrank import (
    ChebyshevPolynomial,
    CostReport,
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


# The exact counters of ps_eval on the two degree-1024 kernel fits.  How the
# leaves are computed may change host time and rounding, never these.
PINNED_PS_EVAL = {
    "step": (
        lambda: chebyshev._step_poly(1024),
        CostReport(ctct_mults=59, ctpt_mults=512, additions=568, levels_consumed=11),
    ),
    "centred window": (
        lambda: chebyshev._window_poly(31.5, 32.5, 0.0, 64.0, 1024),
        CostReport(ctct_mults=59, ctpt_mults=482, additions=569, levels_consumed=12),
    ),
}


@pytest.mark.parametrize("name", PINNED_PS_EVAL)
def test_ps_eval_degree_1024_costs_are_pinned(name):
    make_poly, cost = PINNED_PS_EVAL[name]
    poly = make_poly()
    xs = np.random.default_rng(5).uniform(*poly.interval, 256)
    eng = make_engine(slot_count=256)
    out = ps_eval(eng, eng.encrypt(xs), poly)
    assert eng.cost_snapshot() == cost
    assert out.level == eng.params.max_level - cost.levels_consumed
    assert np.max(np.abs(eng.decrypt(out) - cheb_eval(poly, xs))) < 1e-12


def test_noisy_ps_eval_is_reproducible():
    poly = chebyshev._window_poly(7.5, 8.5, 0.0, 16.0, 256)
    xs = np.random.default_rng(6).uniform(0.0, 16.0, 64)
    outs = []
    for _ in range(2):
        eng = HESimulator(HEParams(slot_count=64, max_level=40, noise_sigma=1e-6, seed=5))
        outs.append(eng.decrypt(ps_eval(eng, eng.encrypt(xs), poly)))
    assert np.array_equal(*outs)
    assert np.max(np.abs(outs[0] - cheb_eval(poly, xs))) < 1e-2


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


# Every pipeline, with its values computed through noisy chebyshev kernels:
# a pending sum read after its noise moved into another sum would raise.
NOISY_PIPELINES = {
    "rank": lambda e, xs, cfg: rank_corrected(e, e.encrypt(xs), xs.size, cfg).ranks,
    "sort": lambda e, xs, cfg: sort(e, e.encrypt(xs), xs.size, SortConfig(kernel=cfg)),
    "multi_rank": lambda e, xs, cfg: multi_rank(e, block_split(e, xs), cfg, tie_correction=True).blocks[-1],
    "multi_sort": lambda e, xs, cfg: multi_sort(e, block_split(e, xs), SortConfig(kernel=cfg)).blocks[-1],
    "min": lambda e, xs, cfg: order_statistic_value(e, e.encrypt(xs), xs.size, StatisticQuery("min"), cfg),
    "max": lambda e, xs, cfg: order_statistic_value(e, e.encrypt(xs), xs.size, StatisticQuery("max"), cfg),
    "even median": lambda e, xs, cfg: median(e, e.encrypt(xs), xs.size, cfg),
    "odd median": lambda e, xs, cfg: median(e, e.encrypt(xs[:-1]), xs.size - 1, cfg),
    "kth": lambda e, xs, cfg: order_statistic_value(
        e, e.encrypt(xs), xs.size, StatisticQuery("kth", k=3), cfg
    ),
    "percentile": lambda e, xs, cfg: percentile(e, e.encrypt(xs), xs.size, 40.0, cfg),
}


@pytest.mark.parametrize("name", NOISY_PIPELINES)
def test_noisy_chebyshev_pipelines_run(name):
    xs = np.array([0.5, 0.1, 0.2, 0.2, 0.4, 0.9, 0.7, 0.4])  # two tied pairs
    slot_count = 16 if name.startswith("multi") else 64  # two blocks of 4
    eng = HESimulator(HEParams(slot_count=slot_count, max_level=60, noise_sigma=1e-6, seed=3))
    out = NOISY_PIPELINES[name](eng, xs, cheb_cfg(degree=64))
    assert np.all(np.isfinite(eng.decrypt(out)))


def test_ps_eval_depth_budget_error_names_site():
    eng = make_engine(slot_count=8, max_level=2)
    coeffs = tuple(np.random.default_rng(0).uniform(-1, 1, 65))
    poly = ChebyshevPolynomial(interval=(-1.0, 1.0), coeffs=coeffs)
    with pytest.raises(Exception) as err:
        ps_eval(eng, eng.encrypt(np.zeros(8)), poly)
    assert "cheb" in str(err.value)


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


# ----------------------------------------------------------------------
# reciprocal
# ----------------------------------------------------------------------


def scalar_goldschmidt(x, lo, hi, iters):
    denom = lo * lo + 6.0 * lo * hi + hi * hi
    a, b = -8.0 / denom, 8.0 * (lo + hi) / denom
    y = a * x + b
    e = 1.0 - x * y
    y = y * (1.0 + e)
    for _ in range(iters):
        e = e * e
        y = y * (1.0 + e)
    return y


@pytest.mark.parametrize(
    "x,iters,tol",
    [(1.0, 6, 1e-3), (2.0, 8, 1e-3), (0.5, 8, 4e-3)],
)
def test_goldschmidt_matches_scalar_oracle_and_truth(x, iters, tol):
    eng = make_engine(slot_count=4, max_level=40)
    out = eng.decrypt(goldschmidt_inverse(eng, eng.encrypt([x]), (0.5, 8.5), iters))[0]
    oracle = scalar_goldschmidt(x, 0.5, 8.5, iters)
    assert abs(out - oracle) < 1e-12
    assert abs(out - 1.0 / x) < tol


def test_goldschmidt_across_wide_range():
    eng = make_engine(slot_count=64, max_level=64)
    xs = np.linspace(1.0, 128.0, 64)
    out = eng.decrypt(goldschmidt_inverse(eng, eng.encrypt(xs), (0.5, 128.5), 8))
    assert np.max(np.abs(out * xs - 1.0)) < 1e-6


def test_goldschmidt_rejects_bad_range():
    eng = make_engine()
    with pytest.raises(ValueError):
        goldschmidt_inverse(eng, eng.encrypt([1.0]), (0.0, 4.0), 8)
    with pytest.raises(ValueError):
        goldschmidt_inverse(eng, eng.encrypt([1.0]), (-1.0, 4.0), 8)


def test_kernel_depth_by_mode():
    assert kernel_depth(ideal_cfg(degree=256)) == 9
    assert kernel_depth(cheb_cfg(degree=256)) == 11
    cfg = KernelConfig(mode="ideal", degree=256, indicator_degree=512)
    assert kernel_depth(cfg, "indicator") == 10


def test_kernel_config_validation():
    with pytest.raises(ValueError):
        KernelConfig(mode="magic")
    with pytest.raises(ValueError):
        KernelConfig(degree=0)
    with pytest.raises(ValueError):
        KernelConfig(input_range=(1.0, 0.0))
    with pytest.raises(ValueError):
        KernelConfig(tie_margin=-1.0)
