"""Instrumented cleartext stand-in for a leveled SIMD homomorphic scheme.

A ciphertext is a fixed-width float64 slot vector plus a remaining-level
counter.  Arithmetic is exact slotwise double-precision math (optionally
perturbed by additive Gaussian noise), rotation is cyclic over the whole
slot vector, and every operation updates shared cost counters so pipelines
can assert their rotation and depth budgets.

Nothing here is cryptographic: slot values are stored in the clear.  The
point is functional correctness plus faithful cost accounting.

Cost model:

* ciphertext-ciphertext and ciphertext-plaintext multiplications each
  consume one level (the latter models rescaling after a plaintext mask);
* a noise-free product by a scalar plaintext is charged at ``mul_plain``
  but computed by the op that consumes it: ``add`` and ``sub`` fuse it into
  their own output array, every other op materialises it first.  Scales
  are never folded together, so every slot is the same double the eager
  product gives;
* additions, subtractions, negation, and rotations are level-free;
* ``levels_consumed`` tracks ``max_level - level`` over every produced
  ciphertext, i.e. the longest multiplication chain seen so far;
* ``critical_rotations`` tracks the longest rotation dependency chain by
  tagging each ciphertext with the chain length of its provenance and
  taking the max at joins.
"""

from __future__ import annotations

import threading
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


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class HEParams:
    """Simulator parameters.

    slot_count: number of SIMD lanes, a power of two >= 2.
    max_level:  multiplicative depth budget of a fresh ciphertext.
    noise_sigma: std-dev of additive per-slot Gaussian noise applied on
        every arithmetic operation (rotations stay exact); 0 means exact.
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
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")


class Ciphertext:
    """Slot vector plus remaining-level counter.  Treat as immutable.

    rot_chain is the length of the longest rotation chain in this
    ciphertext's provenance; the engine uses it for the parallel-cost
    metric ``critical_rotations``.
    """

    __slots__ = ("slots", "level", "rot_chain", "params")
    pending = None  # (base, scale) on a _PendingProduct

    def __init__(self, slots: np.ndarray, level: int, rot_chain: int, params: HEParams):
        slots.setflags(write=False)
        self.slots = slots
        self.level = level
        self.rot_chain = rot_chain
        self.params = params

    def __repr__(self):
        head = np.array2string(self.slots[:4], precision=4, separator=", ")
        return f"Ciphertext(level={self.level}, slots[:4]={head}, n={self.slots.size})"


class _PendingProduct(Ciphertext):
    """A ciphertext worth ``base * scale`` whose product is not computed yet.

    Reading ``slots`` computes it once and drops ``pending``, so ``base`` is
    not kept alive; ``HESimulator.add`` and ``sub`` compute the product
    straight into their own output instead.
    """

    __slots__ = ("pending", "_value")

    def __init__(self, base: np.ndarray, scale: float, level: int, rot_chain: int, params: HEParams):
        self.pending = (base, scale)
        self._value = None
        self.level = level
        self.rot_chain = rot_chain
        self.params = params

    @property
    def slots(self) -> np.ndarray:
        pending = self.pending
        if pending is not None:
            base, scale = pending
            value = base * scale
            value.setflags(write=False)
            self._value, self.pending = value, None
        return self._value


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

    Counters are protected by a lock so independent pipelines may run
    concurrently; ``cost_snapshot`` is meant to be taken at quiescence.
    """

    def __init__(self, params: HEParams):
        self.params = params
        self._rng = np.random.default_rng(params.seed)
        self._lock = threading.Lock()
        self.trace: list[tuple[str, int]] = []
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
        slots = self._noisy(self._combine(np.add, x, y))
        with self._lock:
            self._adds += 1
        return self._emit(slots, min(x.level, y.level), max(x.rot_chain, y.rot_chain))

    def sub(self, x: Ciphertext, y: Ciphertext) -> Ciphertext:
        self._check(x, y)
        slots = self._noisy(self._combine(np.subtract, x, y))
        with self._lock:
            self._adds += 1
        return self._emit(slots, min(x.level, y.level), max(x.rot_chain, y.rot_chain))

    def negate(self, x: Ciphertext) -> Ciphertext:
        self._check(x)
        return self._emit(-x.slots, x.level, x.rot_chain)

    def add_plain(self, x: Ciphertext, p) -> Ciphertext:
        self._check(x)
        slots = self._noisy(x.slots + self._plain_operand(p))
        with self._lock:
            self._adds += 1
        return self._emit(slots, x.level, x.rot_chain)

    def mul(self, x: Ciphertext, y: Ciphertext, site: str = "mul") -> Ciphertext:
        self._check(x, y)
        level = min(x.level, y.level)
        if level < 1:
            raise DepthBudgetError(site, level)
        slots = self._noisy(x.slots * y.slots)
        with self._lock:
            self._ctct += 1
        return self._emit(slots, level - 1, max(x.rot_chain, y.rot_chain))

    def mul_plain(self, x: Ciphertext, p, site: str = "mul_plain") -> Ciphertext:
        self._check(x)
        if x.level < 1:
            raise DepthBudgetError(site, x.level)
        p = self._plain_operand(p)
        with self._lock:
            self._ctpt += 1
        if isinstance(p, float) and self.params.noise_sigma == 0:
            return self._emit(x.slots, x.level - 1, x.rot_chain, scale=p)
        return self._emit(self._noisy(x.slots * p), x.level - 1, x.rot_chain)

    def rotate(self, x: Ciphertext, k: int) -> Ciphertext:
        """Cyclic rotation of the full slot vector; k > 0 rotates left.

        Offsets are taken modulo slot_count; an effective offset of zero
        is free and does not touch the counters.
        """
        self._check(x)
        k_eff = int(k) % self.params.slot_count
        if k_eff == 0:
            return x
        slots = np.roll(x.slots, -k_eff)
        chain = x.rot_chain + 1
        with self._lock:
            self._rotations += 1
            if chain > self._critical:
                self._critical = chain
            self.trace.append(("rotate", k_eff))
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

    # ------------------------------------------------------------------
    # cost accounting
    # ------------------------------------------------------------------

    def note_compare_eval(self):
        with self._lock:
            self._cmp_evals += 1

    def note_indicator_eval(self):
        with self._lock:
            self._ind_evals += 1

    def cost_snapshot(self) -> CostReport:
        with self._lock:
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
        with self._lock:
            self._reset_counters()
            self.trace = []

    def rotation_offsets(self) -> list[int]:
        """Effective offsets of all counted rotations, in issue order."""
        with self._lock:
            return [k for op, k in self.trace if op == "rotate"]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _check(self, *cts: Ciphertext):
        for c in cts:
            if c.params != self.params:
                raise IncompatibleParamsError(
                    f"ciphertext parameters {c.params} do not match engine {self.params}"
                )

    def _plain_operand(self, p) -> float | np.ndarray:
        """A Python or numpy scalar as a float, which broadcasts to the same
        doubles as its slot vector; anything else through ``plain``.

        Cheaper than ``np.isscalar``, which ``plain`` calls anyway.
        """
        return float(p) if isinstance(p, (float, int, np.generic)) else self.plain(p)

    @staticmethod
    def _combine(op, x: Ciphertext, y: Ciphertext) -> np.ndarray:
        """``op(x, y)`` into one fresh array.

        A pending product of either operand is computed into that array
        and ``op`` then runs in place, so the product is never stored on
        its own.
        """
        pending = x.pending
        if pending is not None:
            base, scale = pending
            out = base * scale
            return op(out, y.slots, out=out)
        pending = y.pending
        if pending is not None:
            base, scale = pending
            out = base * scale
            return op(x.slots, out, out=out)
        return op(x.slots, y.slots)

    def _noisy(self, slots: np.ndarray) -> np.ndarray:
        if self.params.noise_sigma > 0:
            with self._lock:
                noise = self._rng.normal(0.0, self.params.noise_sigma, slots.shape)
            return slots + noise
        return slots

    def _emit(
        self, slots: np.ndarray, level: int, rot_chain: int, scale: float | None = None
    ) -> Ciphertext:
        consumed = self.params.max_level - level
        with self._lock:
            if consumed > self._levels:
                self._levels = consumed
        if scale is not None:
            return _PendingProduct(slots, scale, level, rot_chain, self.params)
        return Ciphertext(np.asarray(slots, dtype=np.float64), level, rot_chain, self.params)
