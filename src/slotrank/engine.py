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
* every op computes at once, to the doubles of the same numpy expression,
  signed zeros included.  A ciphertext is in one of three states: *read*,
  a value every op may use; *unshared*, a computed value that nothing else
  holds plus the variance weight ``owed`` of the noise its ops still owe
  (0 on a noise-free engine); and *spent*, once an op took it.  A scalar
  ``mul_plain``, ``add(x, x)`` and an ``add`` or ``sub`` that takes an
  unshared operand return an unshared value; on a noisy engine so does
  every op that owes noise.  ``add`` takes n operands and charges n - 1
  additions, as the left fold of binary adds would, so ``add(x)`` is
  ``x``, uncharged;
* one spending rule, on every engine: ``add``, ``sub``, ``add_plain``,
  ``negate``, a scalar ``mul_plain`` and ``adopt`` take an unshared operand,
  may write the result into its array, and leave it spent; reading or
  using it then raises ``EngineError``.  ``x - x`` is +0.0 and takes ``x``
  too.  ``share`` reads its arguments, so that several ops may use a value
  (``add(x, x)`` need not);
* ``adopt(value, ct)`` gives an array the caller computed the level,
  rotation chain and owed noise of ``ct``, the ciphertext whose ops
  charged it, and charges nothing.  So a caller may charge a circuit on a
  zero-width probe, ``Ciphertext(np.empty(0), level, rot_chain, params)``,
  whose every op charges, sets levels and rotation chains and raises
  ``DepthBudgetError`` as on a full slot vector, and compute its value in
  one numpy pass of its own;
* noise: every charged arithmetic op adds independent N(0, sigma^2) noise
  per slot, but on a noisy engine it owes that noise until something reads
  it.  ``owed`` is a variance weight: a read draws N(0, owed * sigma^2)
  once and keeps it, so every later reader sees the same noise.
  ``rotate``, ``mul``, a vector ``mul_plain``, ``ideal_map``, ``decrypt``,
  ``share`` and ``slots`` read.  A linear op owes its operands' owed
  weights plus 1 per addition (times s^2 for a scalar ``mul_plain`` by s;
  negation is free), so a linear chain draws one Gaussian of the summed
  variance, the distribution of one draw per op, since no link of the
  chain is read on its own;
* identities are free: ``mul_plain`` by the scalar 1 and ``add_plain`` of
  the scalar +-0 return the operand itself, as ``rotate(x, 0)`` and
  ``add(x)`` do, charging no op, level or noise and spending nothing (a
  -0.0 slot then stays -0.0 where adding +0.0 would give +0.0, which
  compares equal);
* additions, subtractions, negation, and rotations are level-free;
* ``levels_consumed`` tracks ``max_level - level`` over every produced
  ciphertext, i.e. the longest multiplication chain seen so far;
* ``critical_rotations`` tracks the longest rotation dependency chain by
  tagging each ciphertext with the chain length of its provenance and
  taking the max at joins.
"""

from __future__ import annotations

import ctypes
import math
import operator
import sys
from dataclasses import dataclass, fields

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
    """An operation would drop the remaining level below zero; ``site`` is its ``caller_path``."""

    def __init__(self, available: int, needed: int = 1):
        self.site = caller_path()
        self.available = available
        self.needed = needed
        super().__init__(f"depth budget exhausted at '{self.site}': {needed} level(s) needed, {available} available")


def caller_path() -> str:
    """Each slotrank function on the stack, down to the caller's caller, as
    ``module.function``, outermost first, joined by ``/``.  A recursion shows
    once; comprehension and lambda frames, which some interpreters inline,
    are left out."""
    names = []
    frame = sys._getframe(2)
    while frame is not None:
        module, name = frame.f_globals.get("__name__", ""), frame.f_code.co_name
        if module.startswith("slotrank.") and not name.startswith("<"):
            names.append(f"{module.removeprefix('slotrank.')}.{name}")
        frame = frame.f_back
    return "/".join(dict.fromkeys(reversed(names)))


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def require_integer(name: str, value):
    """Raise ``ValueError`` naming the field ``name`` unless ``value`` is a
    Python or numpy integer; a ``bool``, which compares as 0 or 1, is not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def require_real(name: str, value):
    """Raise ``ValueError`` naming the field ``name`` unless ``value`` is a
    Python or numpy real number; a ``bool`` or a string is not."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class HEParams:
    """Simulator parameters.

    slot_count: number of SIMD lanes, an integer power of two >= 2.
    max_level:  multiplicative depth budget of a fresh ciphertext, an
        integer >= 1.
    noise_sigma: std-dev of the additive per-slot Gaussian noise of every
        arithmetic operation (rotations stay exact); a finite real number,
        not a bool, 0 means exact.
        An op owes its noise until its value is read, and a linear op passes
        the noise of an owing operand on: a chain draws it once.
    seed: seed of the noise generator, an SFC64 bit generator, a
        non-negative integer, not a bool: one seed gives one noise stream.
    """

    slot_count: int
    max_level: int
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        require_integer("slot_count", self.slot_count)
        require_integer("max_level", self.max_level)
        if not _is_pow2(self.slot_count) or self.slot_count < 2:
            raise ValueError(f"slot_count must be a power of two >= 2, got {self.slot_count}")
        if self.max_level < 1:
            raise ValueError(f"max_level must be >= 1, got {self.max_level}")
        sigma = self.noise_sigma
        require_real("noise_sigma", sigma)
        if not (math.isfinite(sigma) and sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and non-negative, got {sigma}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")




class Ciphertext:
    """Slot vector plus remaining-level counter.  Treat as immutable.

    rot_chain is the length of the longest rotation chain in this
    ciphertext's provenance; the engine uses it for the parallel-cost
    metric ``critical_rotations``.
    """

    __slots__ = ("slots", "level", "rot_chain", "params")
    unshared = False  # whether the next linear op takes the value, as of an _Unshared one
    owed = 0.0  # the noise variance, in units of sigma^2, an unshared one owes

    def __init__(self, slots: np.ndarray, level: int, rot_chain: int, params: HEParams):
        slots.setflags(write=False)
        self.slots = slots
        self.level = level
        self.rot_chain = rot_chain
        self.params = params

    def __repr__(self):
        head = np.array2string(self.slots[:4], precision=4, separator=", ")
        return f"Ciphertext(level={self.level}, slots[:4]={head}, n={self.slots.size})"


class _Unshared(Ciphertext):
    """An unshared or spent ciphertext, or one read since.

    While ``unshared``, ``_value`` holds its computed, noise-free value, an
    array nothing else holds, and ``owed`` the noise it owes; a spent one
    holds neither.  Reading ``slots`` draws sigma * sqrt(owed) * Z into the
    value once and keeps it, read-only, so every later reader sees the same
    noise.
    """

    __slots__ = ("unshared", "owed", "_value", "_engine")

    def __init__(self, value: np.ndarray, owed: float, level: int, rot_chain: int, engine: HESimulator):
        self._value = value
        self.unshared = True
        self.owed = owed
        self._engine = engine
        self.level = level
        self.rot_chain = rot_chain
        self.params = engine.params

    @property
    def slots(self) -> np.ndarray:
        value = self._value
        if self.unshared:
            if self.owed:
                self._engine._draw(value, self.owed)
            value.setflags(write=False)
            self.unshared, self.owed = False, 0.0
        elif value is None:
            raise EngineError(
                f"{self!r}: its value and owed noise moved into another ciphertext; "
                "HESimulator.share it before its first use to use it twice"
            )
        return value

    def __repr__(self):
        if self.unshared:
            state = f"unshared, owing {self.owed:g}" if self.owed else "unshared"
        elif self._value is None:
            state = "spent"
        else:
            return super().__repr__()
        return f"Ciphertext(level={self.level}, {state}, n={self.params.slot_count})"


def _keep_freed_slot_vectors():
    """Pin glibc's malloc so that freed slot vectors stay in the heap.

    At 2^16 slots a slot vector is 512 KB, and a degree-1024 ``ps_eval`` on
    a noisy engine holds its baby-step powers in one 8 MB array (a
    noise-free one, a tile scratch of about 1.9 MB).  glibc's default policy
    returns the free top of the heap to the system once it exceeds twice the
    largest mmapped block freed so far; when no block larger than a slot
    vector was ever mmapped, every call re-faults about 12 MB of fresh pages:
    3,170 minor faults per chebyshev sort of 256 values at degree 1024, which
    made it about 15% slower on a 2-vCPU host.  Blocks up to 32 MB, the
    dynamic policy's own ceiling, therefore come from the heap, and up to
    64 MB of free heap is kept.  Elsewhere than glibc this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    m_trim_threshold, m_mmap_threshold = -1, -3
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 64 << 20)


_keep_freed_slot_vectors()


@dataclass(frozen=True)
class CostReport:
    """Snapshot of the engine counters: the engine keeps each field as
    ``_<field>``, so a new counter is one new field here."""

    rotations: int = 0
    critical_rotations: int = 0
    ctct_mults: int = 0
    ctpt_mults: int = 0
    additions: int = 0
    cmp_evals: int = 0
    ind_evals: int = 0
    levels_consumed: int = 0


_COUNTERS = tuple(f"_{f.name}" for f in fields(CostReport))
_read_counters = operator.attrgetter(*_COUNTERS)


class HESimulator:
    """Engine owning the parameters, an SFC64 noise generator, and cost counters.

    Not thread-safe: use one engine per thread.  Engines are cheap to build,
    and a single thread keeps noisy runs reproducible for a fixed seed.
    """

    def __init__(self, params: HEParams):
        self.params = params
        # SFC64 draws the same normal distribution as default_rng's PCG64, faster
        self._rng = np.random.Generator(np.random.SFC64(params.seed))
        # the noise variance, in units of sigma^2, a charged op owes: none
        # on a noise-free engine
        self._op_noise = 1.0 if params.noise_sigma > 0 else 0.0
        self.cost_reset()

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

    def add(self, x: Ciphertext, *more: Ciphertext) -> Ciphertext:
        """``x + ...``, charged one addition per ``+``; ``add(x)`` alone is
        ``x`` itself, uncharged, as a zero rotation is.

        The same doubles, level, rotation chain and owed noise as the left
        fold ``add(add(x, y), ...)`` of binary adds, with the same operands
        spent, without building its intermediate sums.
        """
        self._check(x, *more)
        if not more:
            return x
        self._additions += len(more)
        return self._sum(x, more, np.add)

    def sub(self, x: Ciphertext, y: Ciphertext) -> Ciphertext:
        self._check(x, y)
        self._additions += 1
        return self._sum(x, (y,), np.subtract)

    def negate(self, x: Ciphertext) -> Ciphertext:
        self._check(x)
        value, owed, own = self._take(x)
        return self._emit(np.negative(value, out=value if own else None), x.level, x.rot_chain, owed)

    def add_plain(self, x: Ciphertext, p) -> Ciphertext:
        """``x + p``, one addition; a scalar ``p`` of exactly +-0 returns
        ``x`` itself, uncharged."""
        self._check(x)
        p = self._plain_operand(p)
        if isinstance(p, float) and p == 0.0:
            return x
        self._additions += 1
        value, owed, own = self._take(x)
        return self._emit(np.add(value, p, out=value if own else None), x.level, x.rot_chain, owed + self._op_noise)

    def mul(self, x: Ciphertext, y: Ciphertext) -> Ciphertext:
        """``x * y``, one ct-ct product and one level; reads both."""
        self._check(x, y)
        level = min(x.level, y.level)
        if level < 1:
            raise DepthBudgetError(level)
        slots = x.slots * y.slots
        self._ctct_mults += 1
        return self._emit(slots, level - 1, max(x.rot_chain, y.rot_chain), self._op_noise)

    def mul_plain(self, x: Ciphertext, p) -> Ciphertext:
        """``x * p``, one ct-pt product and one level; a scalar ``p`` of
        exactly 1 returns ``x`` itself, uncharged, at any level.  A scalar
        ``p`` takes ``x`` and owes ``p^2`` times its noise; a vector reads it."""
        self._check(x)
        p = self._plain_operand(p)
        if isinstance(p, float) and p == 1.0:
            return x
        if x.level < 1:
            raise DepthBudgetError(x.level)
        self._ctpt_mults += 1
        if not isinstance(p, float):
            return self._emit(x.slots * p, x.level - 1, x.rot_chain, self._op_noise)
        value, owed, own = self._take(x)
        # an x that owes nothing owes nothing scaled: p * p * 0.0 is NaN for an infinite p
        owed = p * p * owed + self._op_noise if owed else self._op_noise
        return self._emit(np.multiply(value, p, out=value if own else None), x.level - 1, x.rot_chain, owed, True)

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
        if chain > self._critical_rotations:
            self._critical_rotations = chain
        self._trace.append(k_eff)
        return self._emit(slots, x.level, chain)

    def ideal_map(self, fn, *cts: Ciphertext, levels: int = 0) -> Ciphertext:
        """Apply an exact slotwise function, burning ``levels`` levels.

        This is the simulator's ideal-functionality hook: kernels in
        ``ideal`` mode compute their exact mathematical value here while
        still consuming the depth their circuit would, so budget tests
        stay meaningful in both modes.  No noise is injected.
        """
        self._check(*cts)
        if len(cts) == 1:  # the common case, without the generators
            (x,) = cts
            if x.level < levels:
                raise DepthBudgetError(x.level, levels)
            slots, level, chain = fn(x.slots), x.level - levels, x.rot_chain
        else:
            level = min(c.level for c in cts) - levels
            if level < 0:
                raise DepthBudgetError(min(c.level for c in cts), levels)
            slots, chain = fn(*[c.slots for c in cts]), max(c.rot_chain for c in cts)
        if type(slots) is not np.ndarray or slots.dtype != np.float64:
            slots = np.asarray(slots, dtype=np.float64)
        if slots.shape != (self.params.slot_count,):
            raise ValueError("ideal_map function must preserve the slot shape")
        return self._emit(slots, level, chain)

    def adopt(self, value: np.ndarray, ct: Ciphertext) -> Ciphertext:
        """``value``, a float64 array that nothing else holds, as an unshared
        ciphertext at the level, rotation chain and owed noise of ``ct``, the
        ciphertext whose ops charged it; charges nothing.  ``ct`` is taken,
        as by a linear op, so that its noise is owed once."""
        self._check(ct)
        _, owed, _ = self._take(ct)
        return _Unshared(value, owed, ct.level, ct.rot_chain, self)

    def share(self, *cts: Ciphertext) -> tuple[Ciphertext, ...]:
        """Read ``cts``, so that several ops may use each of them, and return
        ``cts``; charges nothing.

        Any owed noise is drawn once, so every later reader sees the same
        value.  An op that takes an unshared operand leaves it spent: a value
        two ops use is shared first.
        """
        self._check(*cts)
        for ct in cts:
            ct.slots  # a read draws; a spent operand raises
        return cts

    # ------------------------------------------------------------------
    # cost accounting
    # ------------------------------------------------------------------

    def note_compare_eval(self):
        self._cmp_evals += 1

    def note_indicator_eval(self):
        self._ind_evals += 1

    def cost_snapshot(self) -> CostReport:
        return CostReport(*_read_counters(self))

    def cost_reset(self):
        for counter in _COUNTERS:
            setattr(self, counter, 0)
        self._trace: list[int] = []

    def rotation_offsets(self) -> list[int]:
        """Effective offsets of all counted rotations, in issue order."""
        return list(self._trace)

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
        doubles as its slot vector; a float64 array of the slot shape as it
        is, as ``plain`` would return it; anything else through ``plain``.

        Cheaper than ``np.isscalar``, which ``plain`` calls anyway.
        """
        if isinstance(p, (float, int, np.generic)):
            return float(p)
        if type(p) is np.ndarray and p.dtype == np.float64 and p.shape == (self.params.slot_count,):
            return p
        return self.plain(p)

    def _sum(self, x: Ciphertext, ys: tuple[Ciphertext, ...], op) -> Ciphertext:
        """``op(x, y)`` for each y of ``ys`` in turn, ``op`` ``np.add`` or
        ``np.subtract``: the left fold of binary sums, charged by the caller,
        each written into an array the sum owns once it owns one.

        ``x + x`` is ``x`` doubled, owing 4 times its noise, and ``x - x`` is
        +0.0, owing none of it, both taking ``x``.  The result is unshared
        if it took an unshared operand, is ``x + x``, or owes noise.
        """
        level, chain = x.level, x.rot_chain
        total, owed, own = self._take(x)
        unshared = own
        if x is ys[0]:
            if op is np.subtract:
                total, owed, unshared = np.zeros_like(total), 0.0, False
            else:
                total, owed, unshared = np.add(total, total, out=total if own else None), 4.0 * owed, True
            own, owed, ys = True, owed + self._op_noise, ys[1:]
        for y in ys:
            if y.level < level:
                level = y.level
            if y.rot_chain > chain:
                chain = y.rot_chain
            value, y_owed, y_own = self._take(y)
            total = op(total, value, out=total if own else value if y_own else None)
            own, unshared = True, unshared or y_own
            owed += y_owed + self._op_noise
        return self._emit(total, level, chain, owed, unshared)

    @staticmethod
    def _take(x: Ciphertext) -> tuple[np.ndarray, float, bool]:
        """``x``'s noise-free value, the noise it owes, and whether the
        caller now owns the array: an unshared ``x`` is spent."""
        if not x.unshared:
            return x.slots, 0.0, False  # a spent x raises
        taken = x._value, x.owed, True
        x._value, x.owed, x.unshared = None, 0.0, False
        return taken

    def _draw(self, value: np.ndarray, owed: float):
        """Add one draw of N(0, owed * sigma^2) noise to ``value`` in place."""
        # for one op, the same doubles as ``value + rng.normal(0, sigma,
        # shape)``, from the same stream, without the temporaries
        noise = self._rng.standard_normal(value.shape)
        noise *= self.params.noise_sigma * math.sqrt(owed)
        np.add(noise, value, out=value)

    def _emit(self, slots: np.ndarray, level: int, rot_chain: int, owed: float = 0.0, unshared: bool = False):
        """A read ciphertext of ``slots``, a float64 array of its own, or an
        unshared one if ``unshared`` or ``owed``."""
        consumed = self.params.max_level - level
        if consumed > self._levels_consumed:
            self._levels_consumed = consumed
        if owed or unshared:
            return _Unshared(slots, owed, level, rot_chain, self)
        return Ciphertext(slots, level, rot_chain, self.params)
