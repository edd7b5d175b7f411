"""Chebyshev-basis approximation and the non-polynomial kernels.

Provides interpolation at Chebyshev nodes of the first kind, a baby-step /
giant-step polynomial evaluator that needs only O(sqrt(d)) ciphertext-
ciphertext multiplications, and the kernels built on top of it: three-way
comparison, strict/weak comparison, interval indicator, equality derived
from a comparison matrix, and a Goldschmidt reciprocal.

Every kernel runs in one of two modes:

* ``ideal``     -- the exact mathematical function is applied slotwise
                   while the level budget is charged as if a circuit of
                   depth ceil(log2(degree+1)) had run, so depth budgets
                   are testable without approximation error;
* ``chebyshev`` -- a cached Chebyshev interpolant of the target function
                   is evaluated on the ciphertext.

The fitted targets keep their exact parity: the comparison step is odd
about 1/2, and an indicator window centred in its fit interval (every
sort placement window) is even.  Their other-parity coefficients are
exactly zero, so the evaluator skips them and they cost nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .engine import Ciphertext, HESimulator

__all__ = [
    "ChebyshevPolynomial",
    "KernelConfig",
    "cheb_fit",
    "cheb_eval",
    "ps_eval",
    "kernel_depth",
    "compare_kernel",
    "compare_gt_kernel",
    "compare_ge_kernel",
    "indicator_kernel",
    "equality_from_compare",
    "goldschmidt_inverse",
]


@dataclass(frozen=True)
class ChebyshevPolynomial:
    """Coefficients c_0..c_d in the Chebyshev basis over [interval[0], interval[1]].

    The represented function is sum_k c_k * T_k(t) with t the affine map of
    x onto [-1, 1].
    """

    interval: tuple[float, float]
    coeffs: tuple[float, ...]

    def __post_init__(self):
        a, b = self.interval
        if not (a < b):
            raise ValueError(f"interval must satisfy a < b, got [{a}, {b}]")
        if len(self.coeffs) == 0:
            raise ValueError("coefficient list must not be empty")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class KernelConfig:
    """How the non-polynomial kernels are realised.

    mode: "ideal" or "chebyshev".
    degree: approximation degree of the comparison kernel.
    indicator_degree: degree of the indicator kernel; defaults to ``degree``.
    input_range: interval the caller promises all kernel inputs lie in.
    tie_margin: shift applied by the strict/weak comparisons in chebyshev
        mode to push exact ties off the step discontinuity.  Those
        comparisons widen ``input_range`` by the margin on one side.  The
        fitted step rises over about (hi - lo) / degree, so a tie reads
        roughly Phi(-margin * degree / (hi - lo)) off its exact value (0
        strict, 1 weak; Phi the normal CDF), plus the fit's ripple.  Half
        the smallest gap is therefore too small a margin unless that gap
        spans several transition widths: at degree 256 on [0, 1] with
        margin 1/512, ``gt(0.5, 0.5)`` reads 0.39, and ``max`` of [0.3,
        0.9, 0.6, 0.1, 0.45, 0.9, 0.15, 0.7] returns 0.848.  A margin of
        2-4 transition widths brings a tie within about 0.05, but the
        margin must also stay below the smallest gap between distinct
        values, or those compare like ties.
    """

    mode: str = "ideal"
    degree: int = 256
    indicator_degree: int | None = None
    input_range: tuple[float, float] = (0.0, 1.0)
    tie_margin: float = 0.0

    def __post_init__(self):
        if self.mode not in ("ideal", "chebyshev"):
            raise ValueError(f"unknown kernel mode {self.mode!r}")
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.indicator_degree is not None and self.indicator_degree < 1:
            raise ValueError("indicator_degree must be >= 1")
        lo, hi = self.input_range
        if not (lo < hi):
            raise ValueError(f"input_range must satisfy lo < hi, got [{lo}, {hi}]")
        if self.tie_margin < 0:
            raise ValueError("tie_margin must be non-negative")

    @property
    def ind_degree(self) -> int:
        return self.degree if self.indicator_degree is None else self.indicator_degree


def kernel_depth(cfg: KernelConfig, kind: str = "compare") -> int:
    """Worst-case levels one kernel evaluation consumes under ``cfg``.

    Ideal mode charges ceil(log2(d+1)); chebyshev mode adds two levels for
    the input scaling and the final plaintext combination.
    """
    d = cfg.degree if kind == "compare" else cfg.ind_degree
    base = math.ceil(math.log2(d + 1))
    return base if cfg.mode == "ideal" else base + 2


# ----------------------------------------------------------------------
# fitting and plaintext evaluation
# ----------------------------------------------------------------------


def cheb_fit(f, interval: tuple[float, float], degree: int) -> ChebyshevPolynomial:
    """Interpolate ``f`` at the degree+1 Chebyshev nodes of the first kind.

    Returns the Chebyshev-basis coefficients of the unique degree-``degree``
    interpolant on ``interval``.  The nodes avoid the interval endpoints, so
    jump discontinuities in ``f`` are admissible targets.
    """
    a, b = interval
    if not (a < b):
        raise ValueError(f"interval must satisfy a < b, got [{a}, {b}]")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    n = degree + 1
    theta = (np.arange(n) + 0.5) * np.pi / n
    nodes = 0.5 * (a + b) + 0.5 * (b - a) * np.cos(theta)
    try:
        ys = np.asarray(f(nodes), dtype=np.float64)
        if ys.shape != nodes.shape:
            raise TypeError
    except (TypeError, ValueError):
        ys = np.array([float(f(float(t))) for t in nodes])
    if not np.all(np.isfinite(ys)):
        raise ValueError("target function produced non-finite values at the fit nodes")
    k = np.arange(n)
    coeffs = (2.0 / n) * (np.cos(np.outer(k, theta)) @ ys)
    coeffs[0] *= 0.5
    return ChebyshevPolynomial(interval=(float(a), float(b)), coeffs=tuple(coeffs))


def cheb_eval(poly: ChebyshevPolynomial, x) -> np.ndarray:
    """Plaintext Clenshaw evaluation, for demos and cross-checks."""
    a, b = poly.interval
    t = (2.0 * np.asarray(x, dtype=np.float64) - a - b) / (b - a)
    b1 = np.zeros_like(t)
    b2 = np.zeros_like(t)
    for c in reversed(poly.coeffs[1:]):
        b1, b2 = 2.0 * t * b1 - b2 + c, b1
    return t * b1 - b2 + poly.coeffs[0]


# ----------------------------------------------------------------------
# homomorphic evaluation (baby-step / giant-step)
# ----------------------------------------------------------------------


def _split_by_cheb_power(coeffs: np.ndarray, g: int) -> tuple[np.ndarray, np.ndarray]:
    """Write the polynomial as q * T_g + r with deg(r) < g, in Chebyshev basis.

    Uses T_i = 2 T_{i-g} T_g - T_{|i-2g|}; valid because the caller always
    picks g with deg < 2g.
    """
    work = coeffs.astype(np.float64).copy()
    q = np.zeros(len(coeffs) - g)
    for i in range(len(coeffs) - 1, g - 1, -1):
        c = work[i]
        if c == 0.0:
            continue
        work[i] = 0.0
        if i == g:
            q[0] += c
        else:
            q[i - g] += 2.0 * c
            work[2 * g - i] -= c
    return q, work[:g]


class _PowerCache:
    """Lazily computed Chebyshev basis polynomials T_i of the input.

    Each T_i is built by index halving (T_{a+b} = 2 T_a T_b - T_{a-b}),
    costing one ciphertext-ciphertext multiplication and giving T_i a
    multiplication depth of ceil(log2 i).
    """

    def __init__(self, engine: HESimulator, t1: Ciphertext):
        self.engine = engine
        self.cache: dict[int, Ciphertext] = {1: t1}

    def get(self, i: int) -> Ciphertext:
        ct = self.cache.get(i)
        if ct is not None:
            return ct
        eng = self.engine
        hi, lo = (i + 1) // 2, i // 2
        prod = eng.mul(self.get(hi), self.get(lo), site=f"cheb-power-{i}")
        doubled = eng.add(prod, prod)
        if i % 2 == 0:
            ct = eng.add_plain(doubled, -1.0)
        else:
            ct = eng.sub(doubled, self.get(1))
        self.cache[i] = ct
        return ct


def _trim(coeffs: np.ndarray) -> np.ndarray:
    nz = np.nonzero(coeffs)[0]
    if len(nz) == 0:
        return coeffs[:1] * 0.0
    return coeffs[: nz[-1] + 1]


def _bsgs_eval(engine, coeffs: np.ndarray, powers: _PowerCache, bs: int):
    """Recursive evaluation; returns (ciphertext_part or None, constant_part)."""
    coeffs = _trim(coeffs)
    deg = len(coeffs) - 1
    if deg < bs:
        acc = None
        for i in range(1, deg + 1):
            if coeffs[i] == 0.0:
                continue
            term = engine.mul_plain(powers.get(i), coeffs[i], site="cheb-leaf")
            acc = term if acc is None else engine.add(acc, term)
        return acc, float(coeffs[0])
    g = 1 << int(math.floor(math.log2(deg)))
    q, r = _split_by_cheb_power(coeffs, g)
    q_ct, q_const = _bsgs_eval(engine, q, powers, bs)
    t_g = powers.get(g)
    if q_ct is None:
        prod = engine.mul_plain(t_g, q_const, site="cheb-giant") if q_const != 0.0 else None
    else:
        if q_const != 0.0:
            q_ct = engine.add_plain(q_ct, q_const)
        prod = engine.mul(q_ct, t_g, site="cheb-giant")
    r_ct, r_const = _bsgs_eval(engine, r, powers, bs)
    if prod is None:
        return r_ct, r_const
    if r_ct is None:
        return prod, r_const
    return engine.add(prod, r_ct), r_const


def ps_eval(engine: HESimulator, x: Ciphertext, poly: ChebyshevPolynomial) -> Ciphertext:
    """Evaluate ``poly`` slotwise on ``x`` (values promised inside the interval).

    Ciphertext-ciphertext multiplications stay below
    2*ceil(sqrt(d+1)) + ceil(log2(d+1)) + 4 and the consumed depth below
    ceil(log2(d+1)) + 2; a degree-0 polynomial costs nothing.
    """
    coeffs = _trim(np.asarray(poly.coeffs, dtype=np.float64))
    deg = len(coeffs) - 1
    if deg == 0:
        c0 = float(coeffs[0])
        return engine.ideal_map(lambda s: np.full_like(s, c0), x, site="cheb-constant")
    a, b = poly.interval
    if (a, b) == (-1.0, 1.0):
        t1 = x
    else:
        scaled = engine.mul_plain(x, 2.0 / (b - a), site="cheb-normalize")
        t1 = engine.add_plain(scaled, -(a + b) / (b - a))
    m = max(1, math.ceil(math.log2(deg + 1)))
    bs = 1 << max(1, m // 2)
    powers = _PowerCache(engine, t1)
    ct, const = _bsgs_eval(engine, coeffs, powers, bs)
    if ct is None:
        return engine.ideal_map(lambda s: np.full_like(s, const), x, site="cheb-constant")
    if const != 0.0:
        ct = engine.add_plain(ct, const)
    return ct


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------


_erf = np.vectorize(math.erf)

# Transition widths of the fitted targets.  A raw discontinuous step leaves
# slowly decaying oscillation over the whole domain; mollifying it over one
# grid unit (1/degree) confines the error to sub-resolution gaps.  Window
# edges need about three grid units so the interpolant still resolves them.
_STEP_WIDTH = 1.0
_WINDOW_WIDTH = 3.0


def _zero_from(poly: ChebyshevPolynomial, start: int) -> ChebyshevPolynomial:
    """Set c_start, c_{start+2}, ... to exactly 0.0.

    The first-kind nodes are symmetric about the interval's centre and
    T_k(-t) = (-1)^k T_k(t), so the interpolant of a target that is odd
    (even) about the centre has exactly zero coefficients of even (odd) k;
    only the rounding of the fit leaves noise there.  Zeroing it lets the
    evaluator skip those terms instead of paying a product for each.
    """
    coeffs = np.array(poly.coeffs)
    coeffs[start::2] = 0.0
    return replace(poly, coeffs=tuple(coeffs.tolist()))


@lru_cache(maxsize=None)
def _step_poly(degree: int) -> ChebyshevPolynomial:
    # 1/2 plus an odd function of t: every even k >= 2 is zero.
    w = _STEP_WIDTH / degree * math.sqrt(2.0)
    poly = cheb_fit(lambda t: 0.5 * (1.0 + _erf(t / w)), (-1.0, 1.0), degree)
    return _zero_from(poly, 2)


@lru_cache(maxsize=None)
def _window_poly(a: float, b: float, lo: float, hi: float, degree: int) -> ChebyshevPolynomial:
    # A window centred in the fit interval is even about the centre: every
    # odd k is zero.
    w = _WINDOW_WIDTH * (hi - lo) / degree * math.sqrt(2.0)
    poly = cheb_fit(
        lambda t: 0.5 * (_erf((t - a) / w) - _erf((t - b) / w)), (lo, hi), degree
    )
    return _zero_from(poly, 1) if a + b == lo + hi else poly


def _ideal_levels(degree: int) -> int:
    return math.ceil(math.log2(degree + 1))


def compare_kernel(engine: HESimulator, x: Ciphertext, y: Ciphertext, cfg: KernelConfig) -> Ciphertext:
    """Slotwise three-way comparison: 1 where x > y, 0.5 at ties, 0 where x < y.

    Chebyshev mode evaluates the fitted unit step on (x - y) scaled by the
    declared input range; ties and sub-resolution gaps then land on the
    smoothed part of the step.
    """
    engine.note_compare_eval()
    if cfg.mode == "ideal":
        def three_way(xs, ys):
            out = np.where(xs > ys, 1.0, 0.0)
            return np.where(xs == ys, 0.5, out)

        return engine.ideal_map(three_way, x, y, levels=_ideal_levels(cfg.degree), site="compare")
    lo, hi = cfg.input_range
    diff = engine.mul_plain(engine.sub(x, y), 1.0 / (hi - lo), site="compare-scale")
    return ps_eval(engine, diff, _step_poly(cfg.degree))


def _compare_shifted(engine, x, y, cfg, predicate, margin, site):
    # Strict (margin < 0) or weak (margin > 0) comparison.  Chebyshev mode
    # compares x + margin with y; the declared range is widened by the
    # margin so the shifted difference still maps into the fit interval.
    if cfg.mode == "ideal":
        engine.note_compare_eval()
        return engine.ideal_map(
            lambda xs, ys: predicate(xs, ys).astype(np.float64),
            x, y, levels=_ideal_levels(cfg.degree), site=site,
        )
    lo, hi = cfg.input_range
    widened = with_input_range(cfg, lo + min(margin, 0.0), hi + max(margin, 0.0))
    return compare_kernel(engine, engine.add_plain(x, margin), y, widened)


def compare_gt_kernel(engine: HESimulator, x: Ciphertext, y: Ciphertext, cfg: KernelConfig) -> Ciphertext:
    """Strict comparison: 1 where x > y, else 0 (ties count as 0)."""
    return _compare_shifted(engine, x, y, cfg, np.greater, -cfg.tie_margin, "compare-gt")


def compare_ge_kernel(engine: HESimulator, x: Ciphertext, y: Ciphertext, cfg: KernelConfig) -> Ciphertext:
    """Weak comparison: 1 where x >= y, else 0 (ties count as 1)."""
    return _compare_shifted(engine, x, y, cfg, np.greater_equal, cfg.tie_margin, "compare-ge")


def indicator_kernel(
    engine: HESimulator,
    x: Ciphertext,
    a: float,
    b: float,
    cfg: KernelConfig,
) -> Ciphertext:
    """Membership of the open interval (a, b): 1 inside, 0 outside.

    The endpoints read 0 in ideal mode, so that half-integer fractional
    ranks sitting exactly on a rank window's edge are not picked up.
    """
    if not (a < b):
        raise ValueError(f"indicator interval must satisfy a < b, got [{a}, {b}]")
    engine.note_indicator_eval()
    if cfg.mode == "ideal":
        return engine.ideal_map(
            lambda s: ((s > a) & (s < b)).astype(np.float64),
            x, levels=_ideal_levels(cfg.ind_degree), site="indicator",
        )
    lo, hi = cfg.input_range
    return ps_eval(engine, x, _window_poly(float(a), float(b), float(lo), float(hi), cfg.ind_degree))


def equality_from_compare(engine: HESimulator, c: Ciphertext) -> Ciphertext:
    """Map a comparison matrix to an equality matrix: 4*c*(1-c).

    Sends 0 and 1 to 0 and the tie value 0.5 to 1, costing one
    ciphertext-ciphertext and one ciphertext-plaintext multiplication.
    """
    complement = engine.add_plain(engine.negate(c), 1.0)
    return engine.mul_plain(engine.mul(c, complement, site="equality"), 4.0, site="equality")


def goldschmidt_inverse(
    engine: HESimulator,
    x: Ciphertext,
    value_range: tuple[float, float],
    iters: int,
) -> Ciphertext:
    """Slotwise reciprocal of values promised inside ``value_range``.

    Starts from the equioscillating linear seed y0 = a*x + b on [m, M] and
    applies ``iters`` squaring steps, leaving a relative error of
    e0^(2^(iters+1)) with e0 = (M-m)^2 / (m^2 + 6mM + M^2).
    """
    m, mx = value_range
    if not (0 < m <= mx):
        raise ValueError(f"reciprocal range must satisfy 0 < m <= M, got [{m}, {mx}]")
    if iters < 1:
        raise ValueError("iteration count must be >= 1")
    denom = m * m + 6.0 * m * mx + mx * mx
    a = -8.0 / denom
    b = 8.0 * (m + mx) / denom
    y = engine.add_plain(engine.mul_plain(x, a, site="reciprocal-seed"), b)
    err = engine.add_plain(engine.negate(engine.mul(x, y, site="reciprocal")), 1.0)
    y = engine.mul(y, engine.add_plain(err, 1.0), site="reciprocal")
    for _ in range(iters):
        err = engine.mul(err, err, site="reciprocal")
        y = engine.mul(y, engine.add_plain(err, 1.0), site="reciprocal")
    return y


def with_input_range(cfg: KernelConfig, lo: float, hi: float) -> KernelConfig:
    """Copy of ``cfg`` whose kernels operate on [lo, hi]."""
    return replace(cfg, input_range=(float(lo), float(hi)))
