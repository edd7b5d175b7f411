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

Chebyshev kernels are fitted on [-1, 1] and map no input: the compare
reads x - y of values promised in [0, 1], a window ranks that its pipeline
built already mapped there (``fit_map``).

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

from .engine import Ciphertext, HESimulator, caller_path, require_integer

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
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"interval must have finite ends, got [{a}, {b}]")
        if not (a < b):
            raise ValueError(f"interval must satisfy a < b, got [{a}, {b}]")
        if len(self.coeffs) == 0:
            raise ValueError("coefficient list must not be empty")
        if not all(map(math.isfinite, self.coeffs)):
            raise ValueError(f"coeffs must be finite, got {next(c for c in self.coeffs if not math.isfinite(c))}")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class KernelConfig:
    """How the non-polynomial kernels are realised.

    mode: "ideal" or "chebyshev".
    degree: approximation degree of the comparison kernel, an integer >= 1,
        whose inputs are promised in [0, 1]; a window's are mapped onto
        [-1, 1] (``fit_map``).
    indicator_degree: degree of the indicator kernel, an integer >= 1;
        defaults to ``degree``.
    tie_margin: shift applied by ``compare_gt_kernel`` and
        ``compare_ge_kernel`` in chebyshev mode to push exact ties off the
        step discontinuity.  No pipeline reads it or those kernels (every
        statistic is a window of tie-corrected ranks); they stay only while
        the benchmark's workloads and tracer name them.  The fitted step
        rises over about 1 / degree, so a tie reads roughly
        Phi(-margin * degree) off its exact value (0 strict, 1 weak; Phi
        the normal CDF), plus the fit's ripple: at degree 256 with margin
        1/512, ``gt(0.5, 0.5)`` reads 0.39.
    """

    mode: str = "ideal"
    degree: int = 256
    indicator_degree: int | None = None
    tie_margin: float = 0.0

    def __post_init__(self):
        if self.mode not in ("ideal", "chebyshev"):
            raise ValueError(f"unknown kernel mode {self.mode!r}")
        require_integer("degree", self.degree)
        if self.indicator_degree is not None:
            require_integer("indicator_degree", self.indicator_degree)
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.indicator_degree is not None and self.indicator_degree < 1:
            raise ValueError("indicator_degree must be >= 1")
        if self.tie_margin < 0:
            raise ValueError("tie_margin must be non-negative")

    @property
    def ind_degree(self) -> int:
        return self.degree if self.indicator_degree is None else self.indicator_degree


@lru_cache(maxsize=None)
def kernel_depth(cfg: KernelConfig, kind: str = "compare") -> int:
    """Worst-case levels one kernel evaluation consumes under ``cfg``.

    Ideal mode charges ceil(log2(d+1)).  Chebyshev mode evaluates on its
    input as it comes, on [-1, 1]: ceil(log2(d+1)) levels, and one more at
    degrees where a leaf's scalar products lie on the deepest path (15, 31,
    61 to 63, 125 to 127, 255, 511, 1023 among d <= 1024).  Cached, so an
    ideal kernel computes no logarithm.
    """
    d = cfg.degree if kind == "compare" else cfg.ind_degree
    base = math.ceil(math.log2(d + 1))
    return base if cfg.mode == "ideal" else base + 1


@dataclass(frozen=True, slots=True)
class FitMap:
    """The affine map x -> scale * x + offset, offset the map of 0, of a
    window's interval [lo, hi] onto the one its kernel is fitted on.

    With ``unit`` set that is [-1, 1], where ``ps_eval`` builds the powers
    with no map of its own: the caller builds the window's input already
    mapped, with the scale carried by plaintexts it multiplies or adds
    anyway, and maps the edges in the clear.  Unset, the map is the
    identity: ideal kernels are exact on any input.
    """

    lo: float
    hi: float
    unit: bool

    @property
    def scale(self) -> float:
        return 2.0 / (self.hi - self.lo) if self.unit else 1.0

    def __call__(self, x: float) -> float:
        # a window centred in [lo, hi] maps exactly centred in [-1, 1], so
        # its odd coefficients stay exactly zero; its offset, the map of 0,
        # is +0.0 on an interval centred on 0
        return (2.0 * x - self.lo - self.hi) / (self.hi - self.lo) if self.unit else float(x)


@lru_cache(maxsize=None)
def fit_map(cfg: KernelConfig, lo: float, hi: float) -> FitMap:
    """The map of a window over [lo, hi] under ``cfg``: onto [-1, 1] in
    chebyshev mode, where every window is fitted; the identity in ideal
    mode.  Cached, so that a warm pipeline allocates no map."""
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
    require_integer("degree", degree)
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


def _mapped(engine: HESimulator, x: Ciphertext, poly: ChebyshevPolynomial) -> Ciphertext:
    """t, the affine map of ``x`` from ``poly``'s interval onto [-1, 1]
    (``x`` itself on [-1, 1]), checked by ``_require_inside``."""
    a, b = poly.interval
    if (a, b) != (-1.0, 1.0):
        x = engine.add_plain(engine.mul_plain(x, 2.0 / (b - a)), -(a + b) / (b - a))
    _require_inside(engine, x, poly)
    return x


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


def _powers(
    engine: HESimulator, t: Ciphertext, baby: tuple[int, ...], giants: tuple[int, ...]
) -> tuple[dict[int, Ciphertext], np.ndarray]:
    """The Chebyshev basis polynomials T_i(t) of an input ``t`` on [-1, 1],
    for each i in ``baby`` and ``giants``, and the rows that hold the baby
    ones: one array, row r holding T_{baby[r]}.

    Each power is read once it is built, its noise drawn, and a baby-step
    one copied into its row, which its ciphertext then is; the lower powers
    built on the way are released unless wanted.  On a zero-width probe of
    ``t`` this charges the powers and builds nothing.
    """
    engine.share(t)  # T_1, which every power is built on
    rows = np.empty((len(baby), t.slots.size))
    slot = dict(zip(baby, rows))
    cache = {1: _kept(t, slot.get(1))}
    return {i: _power(engine, cache, slot, i) for i in baby + giants}, rows


def _power(engine: HESimulator, cache: dict[int, Ciphertext], slot: dict[int, np.ndarray], i: int) -> Ciphertext:
    """T_i from ``cache``, built there first if missing, and kept in its row
    if ``slot`` gives it one.

    Each T_i is anchored at g, the largest power of two below i:
    T_i = 2 T_g T_{i-g} - T_{2g-i}, with T_0 = 1 when i = 2g.  Both lower
    indices have the parity of i, so an odd or even polynomial builds only
    its own parity class and the powers of two.  Each T_i costs one
    ciphertext-ciphertext multiplication and two additions and has a
    multiplication depth of ceil(log2 i).  ``_tile_pass`` runs the same
    recurrence on the doubles.
    """
    if i not in cache:
        g = 1 << ((i - 1).bit_length() - 1)
        prod = engine.mul(_power(engine, cache, slot, g), _power(engine, cache, slot, i - g))
        doubled = engine.add(prod, prod)
        if i == 2 * g:
            ct = engine.add_plain(doubled, -1.0)
        else:
            ct = engine.sub(doubled, _power(engine, cache, slot, 2 * g - i))
        cache[i] = _kept(engine.share(ct)[0], slot.get(i))
    return cache[i]


def _kept(ct: Ciphertext, row: np.ndarray | None) -> Ciphertext:
    """``ct``, read, or copied into ``row`` and made a ciphertext of it."""
    if row is None:
        return ct
    np.copyto(row, ct.slots)
    return Ciphertext(row, ct.level, ct.rot_chain, ct.params)


def _trim(coeffs: np.ndarray) -> np.ndarray:
    nz = np.nonzero(coeffs)[0]
    if len(nz) == 0:
        return coeffs[:1] * 0.0
    return coeffs[: nz[-1] + 1]


# Leaves a noisy engine takes from one BLAS product over the baby-step
# rows, each leaf a row of it that the walk writes into; the product lives
# until the walk is done with all of them.  The size fixes the noisy
# doubles: a product of one row runs BLAS's matrix-vector kernel, which
# rounds otherwise than the matrix-matrix one, whose rows give the same
# doubles for any count of two or more, the tile pass's product of every
# leaf included.  Each leaf more per batch holds one slot vector more
# through the walk: a stats_cheb_noisy query peaks at 1.002 MB.
_LEAF_BATCH = 2

# Cells of one tile of the noise-free pass: every power, the leaves' BLAS
# product over that many columns of the baby-step rows, then the walk, on
# buffers that stay in cache.  A degree-1024 step at 2^16 slots, one BLAS
# thread, in 16 tiles of 4096 columns: 10.8-11.2 ms, with a scratch of
# 1.9 MB for its 25 powers and 32 leaves; 8192 columns took 10.5-11.2 ms
# with twice the scratch, 2048 took 12.5-13.2 and 1024 took 19.7-21.2,
# each tile's walk paying numpy's call overhead once more.  The same
# circuit issued op by op on full slot vectors took 29.4 ms.
_TILE = 4096


@dataclass(frozen=True)
class _Plan:
    """The baby-step / giant-step split of one polynomial.

    leaves: the nonzero (i, c_i), i >= 1, of each leaf, in the order the
        walk consumes them;
    tree: a leaf node is (whether it has a leaf, constant), a split node
        (g, quotient node, remainder node) for q * T_g + r; the quotient's
        top coefficient is c_deg or 2 c_deg, never zero;
    baby: the baby-step powers i the leaves read, in ascending order;
    giants: the giant powers g, in ascending order;
    built: every power i >= 2 that ``_power`` builds for them, ascending;
    scales: the leaves' coefficients over the baby-step powers, one row per
        leaf, read-only;
    odd: whether c_0 != 0 and every even coefficient from c_2 up is zero,
        as in the comparison step: then every quotient's constant is zero
        and only the root adds c_0.
    """

    leaves: tuple[tuple[tuple[int, float], ...], ...]
    tree: tuple
    baby: tuple[int, ...]
    giants: tuple[int, ...]
    built: tuple[int, ...]
    scales: np.ndarray
    odd: bool


# Bounded, unlike the kernel fits: ps_eval takes any caller's polynomial.
@lru_cache(maxsize=256)
def _plan(coeffs: tuple[float, ...], bs: int) -> _Plan:
    leaves: list[tuple[tuple[int, float], ...]] = []
    giants: set[int] = set()
    built: set[int] = set()

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

    def build(i: int):  # as _power does
        if i > 1 and i not in built:
            g = 1 << ((i - 1).bit_length() - 1)
            for j in (g, i - g, 2 * g - i):
                build(j)
            built.add(i)

    tree = split(np.asarray(coeffs, dtype=np.float64))
    baby = tuple(sorted({i for t in leaves for i, _ in t}))
    for i in (*baby, *giants):
        build(i)
    scales = np.zeros((len(leaves), len(baby)))
    for row, terms in zip(scales, leaves):
        for i, c in terms:
            row[baby.index(i)] = c
    scales.setflags(write=False)
    odd = coeffs[0] != 0.0 and not any(coeffs[2::2])
    return _Plan(tuple(leaves), tree, baby, tuple(sorted(giants)), tuple(sorted(built)), scales, odd)


def _leaves(engine: HESimulator, plan: _Plan, powers: dict[int, Ciphertext], rows: np.ndarray):
    """The leaves of ``plan`` in walk order, ``_LEAF_BATCH`` at a time.

    Each leaf is charged as its scalar ``mul_plain`` products and one n-ary
    ``add`` on zero-width probes of its baby-step powers; its value is its
    row of the batch's one BLAS product over ``rows``, which ``adopt``
    gives the probe's level, rotation chain and owed noise."""
    probes = {i: Ciphertext(np.empty(0), powers[i].level, powers[i].rot_chain, engine.params) for i in plan.baby}
    for start in range(0, len(plan.leaves), _LEAF_BATCH):
        charged = [
            engine.add(*[engine.mul_plain(probes[i], c) for i, c in terms])
            for terms in plan.leaves[start : start + _LEAF_BATCH]
        ]
        yield from map(engine.adopt, plan.scales[start : start + len(charged)] @ rows, charged)


def _walk(engine: HESimulator, node: tuple, powers: dict[int, Ciphertext], leaves) -> tuple:
    """Evaluate the giant-step tree below ``node``.

    Returns (ciphertext part or None, constant part); a node with a leaf
    takes the next one from ``leaves``.  The quotient's part is dropped once
    its product is made, so no level of the walk holds it through the
    remainder's walk.  ``_tile_walk`` runs the same walk on the doubles.
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


def _circuit(engine: HESimulator, t: Ciphertext, plan: _Plan) -> Ciphertext:
    """``plan``'s circuit on ``t``, op by op: the powers, then the walk of
    the giant-step tree over the leaves, then its constant."""
    powers, rows = _powers(engine, t, plan.baby, plan.giants)
    ct, const = _walk(engine, plan.tree, powers, _leaves(engine, plan, powers, rows))
    return engine.add_plain(ct, const)


def _tile_pass(t: np.ndarray, plan: _Plan) -> np.ndarray:
    """The noise-free value of ``_circuit`` on ``t``, to the double, in
    tiles of ``_TILE`` cells, the last one ragged.

    Each tile builds every power with ``_power``'s recurrence into one
    scratch, the baby-step powers first, in order, takes one BLAS product of
    every leaf's scales over them, and runs ``_tile_walk`` in place in the
    product's rows.  No power but T_1, the input itself, is a full slot
    vector.

    On an antisymmetric grid under an odd plan (``_mirror_cells``) the tiles
    cover the upper triangle only, T_1 gathered into the scratch, and each
    mirror cell is written as c_0 - o for the walk's value o there.  That is
    the full pass's double: negation is exact, so every power, leaf and walk
    step at -t negates its value at t, except for the sign of an exact zero,
    which adding c_0 != 0 erases.
    """
    mirror = _mirror_cells(t, plan)
    cells = t.size if mirror is None else mirror[0].size
    width = min(_TILE, cells)
    order = plan.baby + tuple(i for i in plan.built if i not in plan.baby)
    if mirror is not None and 1 not in order:
        order += (1,)  # the gathered input
    scratch = np.empty((len(order), width))
    product = np.empty((len(plan.leaves), width))
    out = np.empty(t.size)
    for lo in range(0, cells, width):
        cols = slice(lo, min(lo + width, cells))
        w = cols.stop - lo
        power = {i: row[:w] for i, row in zip(order, scratch)}
        if mirror is not None:  # mode "raise" would buffer the output
            np.take(t, mirror[0][cols], out=power[1], mode="clip")
        elif 1 in power:
            np.copyto(power[1], t[cols])
        else:
            power[1] = t[cols]
        for i in plan.built:
            g = 1 << ((i - 1).bit_length() - 1)
            row = np.multiply(power[g], power[i - g], out=power[i])
            row += row
            if i == 2 * g:
                row += -1.0
            else:
                row -= power[2 * g - i]
        leaves = product[:, :w]
        np.matmul(plan.scales, scratch[: len(plan.baby), :w], out=leaves)
        value, const = _tile_walk(plan.tree, power, iter(leaves))
        if mirror is not None:  # T_1's row is free once the walk is done
            np.put(out, mirror[1][cols], np.subtract(const, value, out=power[1]), mode="clip")
            value += const  # the diagonal cells, in both lists, read c_0 + o
            np.put(out, mirror[0][cols], value, mode="clip")
        elif const:
            np.add(value, const, out=out[cols])
        else:
            np.copyto(out[cols], value)
    return out


def _mirror_cells(t: np.ndarray, plan: _Plan) -> tuple[np.ndarray, np.ndarray] | None:
    """The flat indices of the upper triangle, diagonal included, of ``t``
    read as a side x side grid, side^2 its size, and those of their mirror
    cells, if ``plan`` is odd and the grid exactly antisymmetric, as a
    comparison's difference grid x_c - x_r is; else None.  Row 0 is checked
    against column 0 first, so that other inputs leave at once."""
    side = math.isqrt(t.size)
    if not plan.odd or side * side != t.size:
        return None
    grid = t.reshape(side, side)
    if not (np.array_equal(grid[0], -grid[:, 0]) and np.array_equal(grid, -grid.T)):
        return None
    return _triangle(side)


@lru_cache(maxsize=4)
def _triangle(side: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices of a side x side grid's upper triangle, row by row,
    and of their transposes: 0.53 MB at side 256.  Writeable, since
    ``np.take`` and ``np.put`` copy read-only indices at every call."""
    rows, cols = np.triu_indices(side)
    return rows * side + cols, cols * side + rows


def _tile_walk(node: tuple, power: dict[int, np.ndarray], leaves) -> tuple:
    """``_walk`` on one tile's doubles: a leaf is the next row of
    ``leaves``, written in place, and a power the tile's row of it.  An
    identity op of ``_walk`` (a constant of +-0) is skipped here too."""
    if len(node) == 2:
        has_leaf, const = node
        return (next(leaves) if has_leaf else None), const
    g, q_node, r_node = node
    q, q_const = _tile_walk(q_node, power, leaves)
    if q is None:
        prod = power[g] * q_const
    else:
        if q_const:
            q += q_const
        prod = np.multiply(q, power[g], out=q)
    r, r_const = _tile_walk(r_node, power, leaves)
    if r is not None:
        prod += r
    return prod, r_const


def ps_eval(engine: HESimulator, x: Ciphertext, poly: ChebyshevPolynomial) -> Ciphertext:
    """Evaluate ``poly`` slotwise on ``x`` (values promised inside the interval).

    On a noise-free engine, a slot outside the interval by more than
    (b - a)/(4 d^2) raises ``ValueError`` naming the call path: there the
    basis polynomials grow without bound and the value is garbage.

    Ciphertext-ciphertext multiplications stay below
    2*ceil(sqrt(d+1)) + ceil(log2(d+1)) + 4 and the consumed depth below
    ceil(log2(d+1)) + 2; a degree-0 polynomial costs nothing.

    The split of the polynomial into leaves of degree below the baby step
    and giant-step products is cached per (coefficients, baby step).  The
    circuit (``_circuit``) issues the powers first, the baby-step ones kept
    as the rows of one array, then walks the giant-step tree, taking each
    leaf in turn: its charged scalar ``mul_plain`` products and one n-ary
    ``add`` on zero-width probes of its rows, its value one row of a BLAS
    product over the rows.  A noisy engine runs that circuit on ``x``, so
    every noise draw falls where its op's value is read.  A noise-free
    engine runs it once on a zero-width probe of ``x``, which charges every
    op and raises ``DepthBudgetError`` where the full-width circuit would,
    and computes the value in one pass over tiles of the slots
    (``_tile_pass``), to the doubles of the full-width circuit: no power
    but the input is ever a full slot vector.  When the polynomial is odd
    about a nonzero c_0, as the comparison step is, and the mapped input
    fills the slots as an exactly antisymmetric square grid, as a one-block
    compare's differences x_c - x_r do, the pass covers the upper triangle
    only and mirrors it: each comparison is computed once per pair, with
    the same doubles and costs.  The result is read-only.
    """
    coeffs = _trim(np.asarray(poly.coeffs, dtype=np.float64))
    deg = len(coeffs) - 1
    if deg == 0:
        c0 = float(coeffs[0])
        return engine.ideal_map(lambda s: np.full_like(s, c0), x)
    m = max(1, math.ceil(math.log2(deg + 1)))
    plan = _plan(tuple(coeffs.tolist()), 1 << max(1, m // 2))
    t = _mapped(engine, x, poly)
    if engine.params.noise_sigma > 0:
        return engine.share(_circuit(engine, t, plan))[0]
    charged = _circuit(engine, Ciphertext(np.empty(0), t.level, t.rot_chain, engine.params), plan)
    return engine.share(engine.adopt(_tile_pass(t.slots, plan), charged))[0]


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

    Chebyshev mode evaluates the step fitted on [-1, 1] on x - y, values
    promised in [0, 1]; ties and sub-resolution gaps land on the smoothed
    part of the step.  An evaluation is counted once it completes.
    """
    if cfg.mode == "ideal":
        out = _ideal_kernel(engine, _three_way, x, y, levels=kernel_depth(cfg))
    else:
        out = ps_eval(engine, engine.sub(x, y), _step_poly(cfg.degree))
    engine.note_compare_eval()
    return out


def _compare_shifted(engine, x, y, cfg, predicate, margin):
    # Strict (margin < 0) or weak (margin > 0) comparison.  Chebyshev mode
    # compares x + margin with y, the difference scaled by 1/(1 + |margin|)
    # so that it stays in the step's fit interval [-1, 1].
    if cfg.mode == "ideal":
        out = _ideal_kernel(engine, lambda xs, ys: predicate(xs, ys).astype(np.float64), x, y, levels=kernel_depth(cfg))
    else:
        diff = engine.sub(engine.add_plain(x, margin), y)
        out = ps_eval(engine, engine.mul_plain(diff, 1.0 / (1.0 + abs(margin))), _step_poly(cfg.degree))
    engine.note_compare_eval()
    return out


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
    Chebyshev mode fits it on [-1, 1]: map x, a and b there (``fit_map``).
    """
    if not (a < b):
        raise ValueError(f"indicator interval must satisfy a < b, got [{a}, {b}]")
    if cfg.mode == "ideal":
        out = _ideal_kernel(
            engine, lambda s: ((s > a) & (s < b)).astype(np.float64), x, levels=kernel_depth(cfg, "indicator")
        )
    else:
        out = ps_eval(engine, x, _window_poly(float(a), float(b), -1.0, 1.0, cfg.ind_degree))
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
