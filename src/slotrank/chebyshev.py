"""Chebyshev-basis approximation and the non-polynomial kernels.

Provides interpolation at Chebyshev nodes of the first kind, a baby-step /
giant-step polynomial evaluator that needs only O(sqrt(d)) ciphertext-
ciphertext multiplications, and the kernels built on top of it: three-way
comparison, interval indicator and Goldschmidt's division (a quotient or
a reciprocal), which the pipelines use, and the strict/weak comparisons
(with ``KernelConfig.tie_margin``) and the equality derived from a
comparison matrix, which no pipeline reads: they stay only while the
benchmark's tracer and workloads name them.

Every kernel runs in one of two modes:

* ``ideal``     -- the exact mathematical function is applied slotwise
                   while the level budget is charged as if a circuit of
                   depth ceil(log2(degree+1)) had run, so depth budgets
                   are testable without approximation error; a noisy
                   engine is refused, since noise breaks exact ties;
* ``chebyshev`` -- a cached Chebyshev interpolant of the target function
                   is evaluated on the ciphertext.

The fitted targets keep their exact parity: the comparison step is odd
about 1/2, and an indicator window centred in its fit interval (every
sort placement window) is even.  Their other-parity coefficients are
exactly zero, so the evaluator skips them, and the basis polynomials of
that parity are never built: they cost nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .engine import Ciphertext, HESimulator, caller_path

__all__ = [
    "ChebyshevPolynomial",
    "KernelConfig",
    "cheb_fit",
    "cheb_eval",
    "ps_eval",
    "kernel_depth",
    "FitMap",
    "fit_map",
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
    tie_margin: shift applied by ``compare_gt_kernel`` and
        ``compare_ge_kernel`` in chebyshev mode to push exact ties off the
        step discontinuity.  No pipeline reads it or those kernels (every
        statistic is a window of tie-corrected ranks); they stay only while
        the benchmark's workloads and tracer name them.  The fitted step
        rises over about (hi - lo) / degree, so a tie reads roughly
        Phi(-margin * degree / (hi - lo)) off its exact value (0 strict, 1
        weak; Phi the normal CDF), plus the fit's ripple: at degree 256 on
        [0, 1] with margin 1/512, ``gt(0.5, 0.5)`` reads 0.39.
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

    Ideal mode charges ceil(log2(d+1)); chebyshev mode adds two levels, for
    the leaves' scalar products and for the scaling of the input onto the
    fit interval, which a compare on a unit-length range does not pay, nor
    a window whose input arrives mapped onto [-1, 1] (see ``fit_map``).
    """
    d = cfg.degree if kind == "compare" else cfg.ind_degree
    base = math.ceil(math.log2(d + 1))
    return base if cfg.mode == "ideal" else base + 2


@dataclass(frozen=True, slots=True)
class FitMap:
    """The affine map x -> scale * x + offset, offset the map of 0, of a
    window's fit interval [lo, hi] onto ``input_range``, the interval its
    kernel is fitted on.

    With ``unit`` set that is [-1, 1], on which ``ps_eval`` builds the
    powers with no map of its own: a caller that builds the window's input
    already mapped, with the scale carried by plaintexts it multiplies or
    adds anyway, saves the map's ct-pt product and its level.  Unset, the
    map is the identity.
    """

    lo: float
    hi: float
    unit: bool

    @property
    def scale(self) -> float:
        return 2.0 / (self.hi - self.lo) if self.unit else 1.0

    @property
    def input_range(self) -> tuple[float, float]:
        return (-1.0, 1.0) if self.unit else (self.lo, self.hi)

    def __call__(self, x: float) -> float:
        # a window centred in [lo, hi] maps exactly centred in [-1, 1], so
        # its odd coefficients stay exactly zero; its offset, the map of 0,
        # is +0.0 on an interval centred on 0
        return (2.0 * x - self.lo - self.hi) / (self.hi - self.lo) if self.unit else float(x)


@lru_cache(maxsize=None)
def fit_map(cfg: KernelConfig, lo: float, hi: float) -> FitMap:
    """The map of a window fitted on [lo, hi] under ``cfg``: onto [-1, 1] in
    chebyshev mode; the identity in ideal mode, whose kernels charge no
    input map.  Cached, so that a warm pipeline allocates no map."""
    if not lo < hi:
        raise ValueError(f"fit interval must satisfy lo < hi, got [{lo}, {hi}]")
    return FitMap(float(lo), float(hi), cfg.mode == "chebyshev")


# ----------------------------------------------------------------------
# fitting and plaintext evaluation
# ----------------------------------------------------------------------


def cheb_fit(f, interval: tuple[float, float], degree: int) -> ChebyshevPolynomial:
    """Interpolate ``f`` at the degree+1 Chebyshev nodes of the first kind.

    Returns the Chebyshev-basis coefficients of the unique degree-``degree``
    interpolant on ``interval``, computed as one FFT of length 2(degree+1).
    The nodes avoid the interval endpoints, so jump discontinuities in ``f``
    are admissible targets.
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
    # c_k = (2/n) sum_j y_j cos(k theta_j) is a DCT-II of the node values:
    # with V the FFT of y mirrored to length 2n, it is Re(e^{-i pi k / 2n} V_k) / n
    spectrum = np.fft.rfft(np.concatenate((ys, ys[::-1])))[:n]
    coeffs = (spectrum * np.exp(-0.5j * np.pi * np.arange(n) / n)).real / n
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


def _powers(
    engine: HESimulator, x: Ciphertext, poly: ChebyshevPolynomial, baby: tuple[int, ...], giants: tuple[int, ...]
) -> dict[int, Ciphertext]:
    """The Chebyshev basis polynomials T_i(t), t the affine map of ``x``
    from ``poly``'s interval onto [-1, 1], for each i in ``baby`` and
    ``giants``.

    Each baby-step power is written into its row of one array as it is
    built, in the order of ``baby``, so that ``HESimulator.realise``, told
    those rows, takes one product over them for a batch of leaves; the lower
    powers built on the way are released unless wanted.  On a noise-free
    engine, t is checked first by ``_require_inside``.
    """
    a, b = poly.interval
    if (a, b) != (-1.0, 1.0):
        x = engine.add_plain(engine.mul_plain(x, 2.0 / (b - a)), -(a + b) / (b - a))
    array = np.empty((len(baby), engine.params.slot_count))
    rows = {i: (array, r) for r, i in enumerate(baby)}
    cache = {1: engine.copy_into(x, *rows[1]) if 1 in rows else x}
    _require_inside(engine, cache[1], poly)
    return {i: _power(engine, cache, rows, i) for i in baby + giants}


def _require_inside(engine: HESimulator, t: Ciphertext, poly: ChebyshevPolynomial):
    """Raise ``ValueError`` if a noise-free ``t``, an input mapped onto
    [-1, 1], lies outside it by more than 1/(2d^2), (b - a)/(4d^2) before
    the map.  Up to that slack every T_k, k <= d, stays within cosh(1) in
    absolute value; further out T_d grows as (|t| + sqrt(t^2 - 1))^d and the
    evaluation returns garbage of any size.  A noisy engine's inputs carry
    noise, so they are not checked."""
    if engine.params.noise_sigma > 0:
        return
    d, ts = poly.degree, t.slots
    if not max(ts.max(), -ts.min()) <= 1.0 + 0.5 / (d * d):  # NaN fails too
        i = int(np.argmax(np.abs(np.nan_to_num(ts, nan=np.inf))))
        a, b = poly.interval
        raise ValueError(
            f"{caller_path()}: slot {i} holds {0.5 * (a + b) + 0.5 * (b - a) * ts[i]:.6g}, outside the interval "
            f"[{a:g}, {b:g}] of a degree-{d} polynomial by more than (b - a)/(4 d^2), where its evaluation is unbounded"
        )


def _power(engine: HESimulator, cache: dict[int, Ciphertext], rows: dict[int, tuple], i: int) -> Ciphertext:
    """T_i from ``cache``, built there first if missing, into its row if
    ``rows`` gives it one, as (array, index).

    Each T_i is anchored at g, the largest power of two below i:
    T_i = 2 T_g T_{i-g} - T_{2g-i}, with T_0 = 1 when i = 2g.  Both lower
    indices have the parity of i, so an odd or even polynomial builds only
    its own parity class and the powers of two.  Each T_i costs one
    ciphertext-ciphertext multiplication and two additions and has a
    multiplication depth of ceil(log2 i).  The doubled product less
    T_{2g-i} stays a pending sum, which ``copy_into`` folds into its row in
    one pass; for i = 2g, less T_0 = 1 is an ``add_plain``, computed at once
    and then copied.  A power with no row is shared, since several ops may
    read it.
    """
    if i not in cache:
        g = 1 << ((i - 1).bit_length() - 1)
        prod = engine.mul(_power(engine, cache, rows, g), _power(engine, cache, rows, i - g))
        doubled = engine.add(prod, prod)
        if i == 2 * g:
            ct = engine.add_plain(doubled, -1.0)
        else:
            ct = engine.sub(doubled, _power(engine, cache, rows, 2 * g - i))
        cache[i] = engine.copy_into(ct, *rows[i]) if i in rows else engine.share(ct)[0]
    return cache[i]


def _trim(coeffs: np.ndarray) -> np.ndarray:
    nz = np.nonzero(coeffs)[0]
    if len(nz) == 0:
        return coeffs[:1] * 0.0
    return coeffs[: nz[-1] + 1]


# Leaves computed by one ``HESimulator.realise`` at a time: each batch is one
# BLAS product over the array of baby-step powers, which reads every power
# once, and only this many leaves are alive.  A batch of 8 raised sort_cheb's
# peak memory by 9%.
_LEAF_BATCH = 4


@dataclass(frozen=True)
class _Plan:
    """The baby-step / giant-step split of one polynomial.

    leaves: the nonzero (i, c_i), i >= 1, of each leaf, in the order the
        walk consumes them;
    tree: a leaf node is (whether it has a leaf, constant), a split node
        (g, quotient node, remainder node) for q * T_g + r; the quotient's
        top coefficient is c_deg or 2 c_deg, never zero;
    baby: the baby-step powers i the leaves read, in ascending order;
    giants: the giant powers g, in ascending order.
    """

    leaves: tuple[tuple[tuple[int, float], ...], ...]
    tree: tuple
    baby: tuple[int, ...]
    giants: tuple[int, ...]


# Bounded, unlike the kernel fits: ps_eval takes any caller's polynomial.
@lru_cache(maxsize=256)
def _plan(coeffs: tuple[float, ...], bs: int) -> _Plan:
    leaves: list[tuple[tuple[int, float], ...]] = []
    giants: set[int] = set()

    def split(c: np.ndarray) -> tuple:
        c = _trim(c)
        deg = len(c) - 1
        if deg < bs:
            terms = tuple((i, float(c[i])) for i in range(1, deg + 1) if c[i])
            if terms:
                leaves.append(terms)
            return (bool(terms), float(c[0]))
        g = 1 << int(math.floor(math.log2(deg)))
        giants.add(g)
        q, r = _split_by_cheb_power(c, g)
        return (g, split(q), split(r))

    tree = split(np.asarray(coeffs, dtype=np.float64))
    return _Plan(tuple(leaves), tree, tuple(sorted({i for t in leaves for i, _ in t})), tuple(sorted(giants)))


def _leaves(engine: HESimulator, plan: _Plan, powers: dict[int, Ciphertext]):
    """The leaves of ``plan`` in walk order, ``_LEAF_BATCH`` per ``realise``,
    which is told the baby-step powers as the rows of their array.  A leaf
    is one ``add`` of ``mul_plain`` products, each pending or, by 1, its row
    itself, so every base of the sum is a row in any term order.  Each leaf
    is handed over, not kept, so none outlives its use.  The baby-step
    powers leave ``powers`` once the last batch is computed, which frees
    their array for the rest of the walk."""
    rows = [powers[i] for i in plan.baby]
    for start in range(0, len(plan.leaves), _LEAF_BATCH):
        batch = [
            engine.add(*[engine.mul_plain(powers[i], c) for i, c in terms])
            for terms in plan.leaves[start : start + _LEAF_BATCH]
        ]
        batch = engine.realise(batch, rows)
        if start + _LEAF_BATCH >= len(plan.leaves):
            rows.clear()
            for i in plan.baby:
                del powers[i]
        while batch:
            yield batch.pop(0)


def _walk(engine: HESimulator, node: tuple, powers: dict[int, Ciphertext], leaves) -> tuple:
    """Evaluate the giant-step tree below ``node``.

    Returns (ciphertext part or None, constant part); a node with a leaf
    takes the next one from ``leaves``.  The quotient's part is dropped once
    its product is made, so no level of the walk holds it through the
    remainder's walk.
    """
    if len(node) == 2:
        has_leaf, const = node
        return (next(leaves) if has_leaf else None), const
    g, q_node, r_node = node
    q_ct, q_const = _walk(engine, q_node, powers, leaves)
    if q_ct is None:
        prod = engine.mul_plain(powers[g], q_const)
    else:
        prod = engine.mul(engine.add_plain(q_ct, q_const), powers[g])
    del q_ct
    r_ct, r_const = _walk(engine, r_node, powers, leaves)
    return (prod if r_ct is None else engine.add(prod, r_ct)), r_const


def ps_eval(engine: HESimulator, x: Ciphertext, poly: ChebyshevPolynomial) -> Ciphertext:
    """Evaluate ``poly`` slotwise on ``x`` (values promised inside the interval).

    On a noise-free engine, a slot outside the interval by more than
    (b - a)/(4 d^2) raises ``ValueError`` naming the call path: there the
    basis polynomials grow without bound and the value is garbage.

    Ciphertext-ciphertext multiplications stay below
    2*ceil(sqrt(d+1)) + ceil(log2(d+1)) + 4 and the consumed depth below
    ceil(log2(d+1)) + 2; a degree-0 polynomial costs nothing.

    The split of the polynomial into leaves of degree below the baby step
    and giant-step products is cached per (coefficients, baby step).  Each
    call builds the powers first: the baby-step powers the leaves read, as
    rows of one array, then the giant powers and whatever lower powers those
    need, which it releases unless read.  The walk of the giant-step tree
    takes its leaves in turn from a stream, which computes ``_LEAF_BATCH`` of
    them when the walk first needs one: a leaf is its charged scalar
    ``mul_plain`` products of baby-step rows and one n-ary ``add`` of them,
    a pending sum of rows.  One ``HESimulator.realise`` computes each batch,
    told the rows: one BLAS product over them, which reads every power once
    per batch rather than once per term.  The baby-step rows are released
    once the last batch is computed, so the rest of the walk holds only the
    giant powers and its partial sums: one product per level of the tree.
    """
    coeffs = _trim(np.asarray(poly.coeffs, dtype=np.float64))
    deg = len(coeffs) - 1
    if deg == 0:
        c0 = float(coeffs[0])
        return engine.ideal_map(lambda s: np.full_like(s, c0), x)
    m = max(1, math.ceil(math.log2(deg + 1)))
    plan = _plan(tuple(coeffs.tolist()), 1 << max(1, m // 2))
    powers = _powers(engine, x, poly, plan.baby, plan.giants)
    ct, const = _walk(engine, plan.tree, powers, _leaves(engine, plan, powers))
    return engine.add_plain(ct, const)


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


def _ideal_kernel(engine: HESimulator, f, *cts: Ciphertext, levels: int) -> Ciphertext:
    # The exact function is discontinuous, so noise of any size breaks every
    # tie and every value's comparison with itself (the row and column
    # replicas carry independent noise): refuse a noisy engine.
    if engine.params.noise_sigma > 0:
        raise ValueError(
            f"{caller_path()}: ideal kernel on an engine with noise_sigma={engine.params.noise_sigma:g}: "
            "noise breaks the exact comparison of tied values; use mode='chebyshev'"
        )
    return engine.ideal_map(f, *cts, levels=levels)


def _three_way(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """1.0 where xs > ys, 0.5 where xs == ys, else 0.0."""
    d = (xs > ys).astype(np.float64)
    d += xs >= ys
    d *= 0.5
    return d


def compare_kernel(engine: HESimulator, x: Ciphertext, y: Ciphertext, cfg: KernelConfig) -> Ciphertext:
    """Slotwise three-way comparison: 1 where x > y, 0.5 at ties, 0 where x < y.

    Chebyshev mode evaluates the fitted unit step on (x - y) scaled by the
    declared input range; ties and sub-resolution gaps then land on the
    smoothed part of the step.  An evaluation is counted once it completes.
    """
    if cfg.mode == "ideal":
        out = _ideal_kernel(engine, _three_way, x, y, levels=kernel_depth(cfg))
    else:
        lo, hi = cfg.input_range
        diff = engine.mul_plain(engine.sub(x, y), 1.0 / (hi - lo))
        out = ps_eval(engine, diff, _step_poly(cfg.degree))
    engine.note_compare_eval()
    return out


def _compare_shifted(engine, x, y, cfg, predicate, margin):
    # Strict (margin < 0) or weak (margin > 0) comparison.  Chebyshev mode
    # compares x + margin with y; the declared range is widened by the
    # margin so the shifted difference still maps into the fit interval.
    if cfg.mode == "ideal":
        out = _ideal_kernel(engine, lambda xs, ys: predicate(xs, ys).astype(np.float64), x, y, levels=kernel_depth(cfg))
        engine.note_compare_eval()
        return out
    lo, hi = cfg.input_range
    widened = with_input_range(cfg, lo + min(margin, 0.0), hi + max(margin, 0.0))
    return compare_kernel(engine, engine.add_plain(x, margin), y, widened)


def compare_gt_kernel(engine: HESimulator, x: Ciphertext, y: Ciphertext, cfg: KernelConfig) -> Ciphertext:
    """Strict comparison: 1 where x > y, else 0 (ties count as 0)."""
    return _compare_shifted(engine, x, y, cfg, np.greater, -cfg.tie_margin)


def compare_ge_kernel(engine: HESimulator, x: Ciphertext, y: Ciphertext, cfg: KernelConfig) -> Ciphertext:
    """Weak comparison: 1 where x >= y, else 0 (ties count as 1)."""
    return _compare_shifted(engine, x, y, cfg, np.greater_equal, cfg.tie_margin)


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
    if cfg.mode == "ideal":
        out = _ideal_kernel(
            engine, lambda s: ((s > a) & (s < b)).astype(np.float64), x, levels=kernel_depth(cfg, "indicator")
        )
    else:
        lo, hi = cfg.input_range
        out = ps_eval(engine, x, _window_poly(float(a), float(b), float(lo), float(hi), cfg.ind_degree))
    engine.note_indicator_eval()
    return out


def quarter_equality(engine: HESimulator, c: Ciphertext) -> Ciphertext:
    """c*(1-c), one ct-ct product: 1/4 where the comparison ``c`` reads a tie, 0 where it reads 0 or 1."""
    engine.share(c)  # read by both factors
    return engine.mul(c, engine.add_plain(engine.negate(c), 1.0))


def equality_from_compare(engine: HESimulator, c: Ciphertext) -> Ciphertext:
    """Map a comparison matrix to an equality matrix: 4*c*(1-c).

    Sends 0 and 1 to 0 and the tie value 0.5 to 1, costing one
    ciphertext-ciphertext and one ciphertext-plaintext multiplication.
    """
    return engine.mul_plain(quarter_equality(engine, c), 4.0)


# Squaring steps of the divisor's error after the seed's step: 4 leave
# (1 - x/k)^64, below 1e-16 while x is within 55% of k.  The quotient takes
# one correction more than the divisor, after its last square.
_RECIPROCAL_STEPS = 4


def goldschmidt_inverse(
    engine: HESimulator, x: Ciphertext, k: float, numerator: Ciphertext | None = None
) -> Ciphertext:
    """Slotwise quotient numerator / x of divisors promised near ``k`` > 0,
    or the reciprocal 1 / x when no numerator is given.

    Goldschmidt's division multiplies the numerator and the divisor by the
    same factors until the divisor reaches 1.  The first is the seed
    F0 = (2k - x)/k^2, which leaves the divisor 1 - e with e = (1 - x/k)^2,
    so the iteration converges for every x in (0, 2k); each later factor
    2 - D squares the divisor's error.  After ``_RECIPROCAL_STEPS`` squares
    a last factor corrects the numerator alone: the quotient is
    (a/x)(1 - (1 - x/k)^64), 6 levels below the later of the numerator a
    and F0, where a reciprocal and a product by it took 7; the reciprocal
    takes 10 ct-ct products, the quotient 11.  At k = 1 this is the Inv
    iteration of Cheon, Kim, Kim, Lee and Lee (ASIACRYPT 2019), whose seed
    2 - x takes a negation, free in CKKS, in place of a ct-pt product and
    its level.
    """
    if not k > 0:
        raise ValueError(f"division seed point must be > 0, got {k}")
    slope = -1.0 / (k * k)
    engine.share(x)  # read by the seed and by the first divisor
    f = engine.add_plain(engine.negate(x) if slope == -1.0 else engine.mul_plain(x, slope), 2.0 / k)
    n = f if numerator is None else engine.mul(f, numerator)
    d = engine.mul(f, x)
    for step in range(_RECIPROCAL_STEPS + 1):
        engine.share(d)  # read by the factor and by the next divisor
        f = engine.add_plain(engine.negate(d), 2.0)
        n = engine.mul(f, n)
        if step < _RECIPROCAL_STEPS:  # the last factor corrects the quotient alone
            d = engine.mul(f, d)
    return n


def with_input_range(cfg: KernelConfig, lo: float, hi: float) -> KernelConfig:
    """Copy of ``cfg`` whose kernels operate on [lo, hi]."""
    return replace(cfg, input_range=(float(lo), float(hi)))
