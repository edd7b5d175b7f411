"""Instrumented cleartext stand-in for a leveled SIMD homomorphic scheme.

A ciphertext is a fixed-width float64 slot vector plus a remaining-level
counter.  Arithmetic is exact slotwise double-precision math (optionally
perturbed by additive Gaussian noise), rotation is cyclic over the whole
slot vector, and every operation updates the engine's cost counters so
pipelines can assert their rotation and depth budgets.  An engine is
single-threaded: use one engine per thread.

Nothing here is cryptographic: slot values are stored in the clear.  The
point is functional correctness plus faithful cost accounting.

Cost model:

* ciphertext-ciphertext and ciphertext-plaintext multiplications each
  consume one level (the latter models rescaling after a plaintext mask);
* a product by a scalar plaintext is charged at ``mul_plain`` but computed
  only when it is read.  Scales are never folded together, so every slot is
  the same double the eager product gives;
* ``add`` and ``sub`` of two distinct such pending operands charge their
  addition and return a pending sum, a lazy linear combination of slot
  vectors.  A lone read of its ``slots`` folds the terms left to right,
  which gives the same doubles as the eager chain of products and
  additions; ``realise`` computes a batch of pending sums at once, above
  one slot tile as one BLAS product per tile, which rounds each slot
  within a few ulps of sum_i |scale_i * base_i| of the fold;
* noise: every charged arithmetic op adds independent N(0, sigma^2) noise
  per slot.  A pending sum owes the noise of the ops it stands for and
  draws it once, when it is read or realised, as one N(0, owed * sigma^2)
  draw: the distribution of one draw per op, since no term of a sum is
  read on its own.  An operand whose owed noise moved into a sum is spent,
  and reading, summing or realising it raises ``EngineError``: its noise
  would have to be correlated with the sum's.  ``add(p, p)`` reads ``p``
  instead, so its noise is 2 e_p + e;
* additions, subtractions, negation, and rotations are level-free;
* ``levels_consumed`` tracks ``max_level - level`` over every produced
  ciphertext, i.e. the longest multiplication chain seen so far;
* ``critical_rotations`` tracks the longest rotation dependency chain by
  tagging each ciphertext with the chain length of its provenance and
  taking the max at joins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HEParams",
    "Ciphertext",
    "CostReport",
    "HESimulator",
    "EngineError",
    "CapacityError",
    "IncompatibleParamsError",
    "DepthBudgetError",
]


class EngineError(Exception):
    """Base class for simulator failures."""


class CapacityError(EngineError):
    """Data does not fit in the available slots."""


class IncompatibleParamsError(EngineError):
    """Operands belong to differently parametrised engines."""


class DepthBudgetError(EngineError):
    """An operation would drop the remaining level below zero."""

    def __init__(self, site: str, available: int, needed: int = 1):
        self.site = site
        self.available = available
        self.needed = needed
        super().__init__(
            f"depth budget exhausted at '{site}': "
            f"{needed} level(s) needed, {available} available"
        )


# Width of the slot tiles ``realise`` computes at a time: the stacked bases
# of one tile stay in cache while the BLAS product reads them.
_SLOT_TILE = 4096


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class HEParams:
    """Simulator parameters.

    slot_count: number of SIMD lanes, a power of two >= 2.
    max_level:  multiplicative depth budget of a fresh ciphertext.
    noise_sigma: std-dev of the additive per-slot Gaussian noise of every
        arithmetic operation (rotations stay exact); finite, 0 means exact.
        The noise a pending sum owes is drawn once, when it is read.
    seed: seed of the noise generator.
    """

    slot_count: int
    max_level: int
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not _is_pow2(self.slot_count) or self.slot_count < 2:
            raise ValueError(f"slot_count must be a power of two >= 2, got {self.slot_count}")
        if self.max_level < 1:
            raise ValueError(f"max_level must be >= 1, got {self.max_level}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and non-negative, got {self.noise_sigma}")


class Ciphertext:
    """Slot vector plus remaining-level counter.  Treat as immutable.

    rot_chain is the length of the longest rotation chain in this
    ciphertext's provenance; the engine uses it for the parallel-cost
    metric ``critical_rotations``.
    """

    __slots__ = ("slots", "level", "rot_chain", "params")
    pending = None  # the (base, scale) terms of a _PendingSum

    def __init__(self, slots: np.ndarray, level: int, rot_chain: int, params: HEParams):
        slots.setflags(write=False)
        self.slots = slots
        self.level = level
        self.rot_chain = rot_chain
        self.params = params

    def __repr__(self):
        head = np.array2string(self.slots[:4], precision=4, separator=", ")
        return f"Ciphertext(level={self.level}, slots[:4]={head}, n={self.slots.size})"


class _PendingSum(Ciphertext):
    """A ciphertext worth sum_i ``base_i * scale_i``, plus the noise of
    ``owed`` charged ops, that is not computed yet.

    ``pending`` holds the (base, scale) terms; one term is a deferred scalar
    product.  ``owed`` counts the charged ops whose noise is not drawn yet;
    it is 0 on a noise-free engine.  Reading ``slots`` folds the terms left
    to right, as the eager chain ``((b0*s0 + b1*s1) + b2*s2) + ...`` would,
    adds one draw of sigma * sqrt(owed) * Z and keeps the result, so every
    later reader sees the same noise; it drops ``pending`` so the bases are
    not kept alive.  A pending sum whose owed noise moved into another sum
    is spent, and has no value.
    """

    __slots__ = ("pending", "owed", "_value", "_engine")

    def __init__(self, terms: tuple, owed: int, level: int, rot_chain: int, engine: HESimulator):
        self.pending = terms
        self.owed = owed
        self._value = None
        self._engine = engine
        self.level = level
        self.rot_chain = rot_chain
        self.params = engine.params

    @property
    def slots(self) -> np.ndarray:
        if self.pending is not None:
            self._settle(_fold(self.pending))
        elif self._value is None:
            raise EngineError(
                f"{self!r}: its owed noise moved into a sum, so it has no value; "
                "read it before summing it to use it twice"
            )
        return self._value

    def _settle(self, fold: np.ndarray):
        """Keep ``fold``, the fold of the terms, plus one draw of the owed noise."""
        value = self._engine._noisy(fold, self.owed)
        value.setflags(write=False)
        self._value, self.pending, self.owed = value, None, 0

    def __repr__(self):
        if self._value is not None:
            return super().__repr__()
        if self.pending is None:
            return f"Ciphertext(level={self.level}, spent, n={self.params.slot_count})"
        return (
            f"Ciphertext(level={self.level}, pending: {len(self.pending)} terms, "
            f"owed={self.owed}, n={self.params.slot_count})"
        )


def _fold(terms: tuple) -> np.ndarray:
    """sum_i ``base_i * scale_i`` into a fresh array, left to right."""
    (base, scale), *rest = terms
    value = base * scale
    if rest:
        term = np.empty_like(value)
        for base, scale in rest:
            value += np.multiply(base, scale, out=term)
    return value


@dataclass(frozen=True)
class CostReport:
    """Snapshot of the engine counters."""

    rotations: int = 0
    ctct_mults: int = 0
    ctpt_mults: int = 0
    additions: int = 0
    cmp_evals: int = 0
    ind_evals: int = 0
    levels_consumed: int = 0
    critical_rotations: int = 0


class HESimulator:
    """Engine owning the parameters, noise generator, and cost counters.

    Not thread-safe: use one engine per thread.  Engines are cheap to build,
    and a single thread keeps noisy runs reproducible for a fixed seed.
    """

    def __init__(self, params: HEParams):
        self.params = params
        self._rng = np.random.default_rng(params.seed)
        # the noise draws a charged op owes: none on a noise-free engine
        self._op_noise = 1 if params.noise_sigma > 0 else 0
        self.trace: list[int] = []
        self._reset_counters()

    def _reset_counters(self):
        self._rotations = 0
        self._ctct = 0
        self._ctpt = 0
        self._adds = 0
        self._cmp_evals = 0
        self._ind_evals = 0
        self._levels = 0
        self._critical = 0

    # ------------------------------------------------------------------
    # data movement
    # ------------------------------------------------------------------

    def encrypt(self, values) -> Ciphertext:
        """Pack ``values`` into the slots (zero padded) at full level."""
        arr = np.asarray(values, dtype=np.float64).ravel()
        n = self.params.slot_count
        if arr.size > n:
            raise CapacityError(f"{arr.size} values do not fit in {n} slots")
        slots = np.zeros(n, dtype=np.float64)
        slots[: arr.size] = arr
        return Ciphertext(slots, self.params.max_level, 0, self.params)

    def decrypt(self, ct: Ciphertext) -> np.ndarray:
        self._check(ct)
        return ct.slots.copy()

    def plain(self, values) -> np.ndarray:
        """Coerce a scalar or full-width sequence to a plaintext vector."""
        if np.isscalar(values):
            return np.full(self.params.slot_count, float(values))
        arr = np.asarray(values, dtype=np.float64).ravel()
        if arr.size != self.params.slot_count:
            raise ValueError(
                f"plain vector must have exactly {self.params.slot_count} slots, got {arr.size}"
            )
        return arr

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def add(self, x: Ciphertext, y: Ciphertext) -> Ciphertext:
        self._check(x, y)
        self._adds += 1
        if x.pending is not None and y.pending is not None and x is not y:
            return self._pending_sum(x, y, 1.0)
        slots = self._noisy(x.slots + y.slots)
        return self._emit(slots, min(x.level, y.level), max(x.rot_chain, y.rot_chain))

    def sub(self, x: Ciphertext, y: Ciphertext) -> Ciphertext:
        self._check(x, y)
        self._adds += 1
        if x.pending is not None and y.pending is not None and x is not y:
            return self._pending_sum(x, y, -1.0)
        slots = self._noisy(x.slots - y.slots)
        return self._emit(slots, min(x.level, y.level), max(x.rot_chain, y.rot_chain))

    def negate(self, x: Ciphertext) -> Ciphertext:
        self._check(x)
        return self._emit(-x.slots, x.level, x.rot_chain)

    def add_plain(self, x: Ciphertext, p) -> Ciphertext:
        self._check(x)
        slots = self._noisy(x.slots + self._plain_operand(p))
        self._adds += 1
        return self._emit(slots, x.level, x.rot_chain)

    def mul(self, x: Ciphertext, y: Ciphertext, site: str = "mul") -> Ciphertext:
        self._check(x, y)
        level = min(x.level, y.level)
        if level < 1:
            raise DepthBudgetError(site, level)
        slots = self._noisy(x.slots * y.slots)
        self._ctct += 1
        return self._emit(slots, level - 1, max(x.rot_chain, y.rot_chain))

    def mul_plain(self, x: Ciphertext, p, site: str = "mul_plain") -> Ciphertext:
        self._check(x)
        if x.level < 1:
            raise DepthBudgetError(site, x.level)
        p = self._plain_operand(p)
        self._ctpt += 1
        if isinstance(p, float):
            return self._emit(None, x.level - 1, x.rot_chain, ((x.slots, p),), self._op_noise)
        return self._emit(self._noisy(x.slots * p), x.level - 1, x.rot_chain)

    def rotate(self, x: Ciphertext, k: int) -> Ciphertext:
        """Cyclic rotation of the full slot vector; k > 0 rotates left.

        Offsets are taken modulo slot_count; an effective offset of zero
        is free, returns ``x`` itself and does not touch the counters.  The
        output is a fresh array joined from two slices of the input, which
        costs a quarter of numpy's general-purpose roll at 4096 slots.
        """
        self._check(x)
        k_eff = int(k) % self.params.slot_count
        if k_eff == 0:
            return x
        s = x.slots
        slots = np.concatenate((s[k_eff:], s[:k_eff]))
        chain = x.rot_chain + 1
        self._rotations += 1
        if chain > self._critical:
            self._critical = chain
        self.trace.append(k_eff)
        return self._emit(slots, x.level, chain)

    def ideal_map(self, fn, *cts: Ciphertext, levels: int = 0, site: str = "ideal_map") -> Ciphertext:
        """Apply an exact slotwise function, burning ``levels`` levels.

        This is the simulator's ideal-functionality hook: kernels in
        ``ideal`` mode compute their exact mathematical value here while
        still consuming the depth their circuit would, so budget tests
        stay meaningful in both modes.  No noise is injected.
        """
        self._check(*cts)
        level = min(c.level for c in cts) - levels
        if level < 0:
            raise DepthBudgetError(site, min(c.level for c in cts), levels)
        slots = np.asarray(fn(*[c.slots for c in cts]), dtype=np.float64)
        if slots.shape != (self.params.slot_count,):
            raise ValueError("ideal_map function must preserve the slot shape")
        return self._emit(slots, level, max(c.rot_chain for c in cts))

    def realise(self, cts: list[Ciphertext]) -> list[Ciphertext]:
        """Compute every pending sum of ``cts`` and return ``cts``; charges nothing.

        Each pending sum ends as a read leaves it: it keeps its value, plus
        one draw of the noise it owes, and reads as a read-only ciphertext at
        its own level.  At or below one slot tile each sum is folded on its
        own, as stacking would copy every base and save no time.  Above it
        the sums of the batch are computed together: their distinct bases
        are stacked one slot tile at a time and multiplied by the matrix of
        their scales, so each base is read once for the batch instead of
        once per term.  BLAS rounds each slot within a few ulps of
        sum_i |scale_i * base_i| of the left-to-right fold.  A spent operand
        raises ``EngineError``.
        """
        self._check(*cts)
        pending = [c for c in cts if c.pending is not None]
        n = self.params.slot_count
        if pending and n > _SLOT_TILE:
            columns: dict[int, int] = {}
            bases = []
            for ct in pending:
                for base, _ in ct.pending:
                    if id(base) not in columns:
                        columns[id(base)] = len(bases)
                        bases.append(base)
            scales = np.zeros((len(pending), len(bases)))
            for row, ct in enumerate(pending):
                for base, scale in ct.pending:
                    scales[row, columns[id(base)]] += scale
            stacked = np.empty((len(bases), _SLOT_TILE))
            block = np.empty((len(pending), _SLOT_TILE))
            outs = [np.empty(n) for _ in pending]
            for lo in range(0, n, _SLOT_TILE):
                np.stack([base[lo : lo + _SLOT_TILE] for base in bases], out=stacked)
                np.matmul(scales, stacked, out=block)
                for out, row in zip(outs, block):
                    out[lo : lo + _SLOT_TILE] = row
            for ct, out in zip(pending, outs):
                ct._settle(out)
        for ct in cts:
            ct.slots  # folds what is still pending; a spent operand raises
        return list(cts)

    # ------------------------------------------------------------------
    # cost accounting
    # ------------------------------------------------------------------

    def note_compare_eval(self):
        self._cmp_evals += 1

    def note_indicator_eval(self):
        self._ind_evals += 1

    def cost_snapshot(self) -> CostReport:
        return CostReport(
            rotations=self._rotations,
            ctct_mults=self._ctct,
            ctpt_mults=self._ctpt,
            additions=self._adds,
            cmp_evals=self._cmp_evals,
            ind_evals=self._ind_evals,
            levels_consumed=self._levels,
            critical_rotations=self._critical,
        )

    def cost_reset(self):
        self._reset_counters()
        self.trace = []

    def rotation_offsets(self) -> list[int]:
        """Effective offsets of all counted rotations, in issue order."""
        return list(self.trace)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _check(self, *cts: Ciphertext):
        """Reject ciphertexts whose parameters differ from the engine's.

        The identity test settles the common case, a ciphertext of this
        engine, without the dataclass comparison; a ciphertext from another
        engine with equal parameters is still accepted.
        """
        params = self.params
        for c in cts:
            if c.params is not params and c.params != params:
                raise IncompatibleParamsError(
                    f"ciphertext parameters {c.params} do not match engine {self.params}"
                )

    def _plain_operand(self, p) -> float | np.ndarray:
        """A Python or numpy scalar as a float, which broadcasts to the same
        doubles as its slot vector; anything else through ``plain``.

        Cheaper than ``np.isscalar``, which ``plain`` calls anyway.
        """
        return float(p) if isinstance(p, (float, int, np.generic)) else self.plain(p)

    def _pending_sum(self, x: Ciphertext, y: Ciphertext, sign: float) -> Ciphertext:
        """``x + sign * y`` of two pending operands, as a pending sum.

        ``x``'s terms come first, then ``y`` as one term: its own if it has
        one, else its fold with scale 1.  The fold of the result is then
        ``fold(x) +/- fold(y)`` to the double, since ``b * -s`` is
        ``-(b * s)`` exactly.  The result owes the noise both operands owe
        plus that of its own addition; an operand whose owed noise it takes
        over is spent.
        """
        head, tail = x.pending, y.pending
        ((base, scale),) = tail if len(tail) == 1 else ((_fold(tail), 1.0),)
        terms = head + ((base, sign * scale),)
        owed = x.owed + y.owed + self._op_noise
        if owed:
            x.pending = y.pending = None  # spent
        return self._emit(None, min(x.level, y.level), max(x.rot_chain, y.rot_chain), terms, owed)

    def _noisy(self, slots: np.ndarray, owed: int = 1) -> np.ndarray:
        """``slots`` plus one draw of the noise of ``owed`` ops, N(0, owed * sigma^2)."""
        sigma = self.params.noise_sigma
        if sigma > 0:
            # for one op, the same doubles as ``slots + rng.normal(0, sigma,
            # shape)``, from the same stream, without the temporaries
            noise = self._rng.standard_normal(slots.shape)
            noise *= sigma * math.sqrt(owed)
            noise += slots
            return noise
        return slots

    def _emit(
        self, slots: np.ndarray | None, level: int, rot_chain: int, terms: tuple | None = None, owed: int = 0
    ) -> Ciphertext:
        consumed = self.params.max_level - level
        if consumed > self._levels:
            self._levels = consumed
        if terms is not None:
            return _PendingSum(terms, owed, level, rot_chain, self)
        # every op passes a float64 array of its own (ideal_map coerces the
        # function's result), so it is stored as is and made read-only
        return Ciphertext(slots, level, rot_chain, self.params)
