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
* a ciphertext is in one of six states: *read*, a value every op may
  use; *owing*, on a noisy engine only, a computed noise-free value plus
  the variance weight ``owed`` of the noise its ops owe; *pending*, a lazy
  linear combination of (base, scale) terms; *private*, owing or not, a
  program not yet computed that nothing else holds (``realise`` returns
  its sums so, and a ``mul`` with a tiled operand its power); *tiled*, on
  a noise-free engine only, a power or row that several ops may read,
  computed wherever a program reads it; and *spent*, once an op took its
  value, terms or program and its noise;
* one pending rule: only a scalar ``mul_plain``, ``add(x, x)`` (scale 2)
  and an ``add`` or ``sub`` that takes a pending or tiled operand return
  a pending sum, charged at the op.  Its terms are the first operand's
  own, then one per later operand, so a computed operand stays its own
  term whatever the order; a tiled one's term is its program.  Every
  other op computes at once, folding a pending operand first.  Scales are
  never folded together, and a read of a pending sum's ``slots`` folds
  its terms left to right, so every slot is the double the eager chain of
  products and additions gives, signed zeros included.  ``add`` takes n
  operands and charges n - 1 additions, as the left fold of binary adds
  would, so ``add(x)`` is ``x``, uncharged;
* one spending rule, on every engine: ``add``, ``sub``, ``add_plain``,
  ``negate``, a scalar ``mul_plain`` and ``copy_into`` take a pending or
  owing operand and leave it spent; reading, summing or realising it then
  raises ``EngineError``.  ``x - x`` is +0.0 and takes ``x`` too.
  ``share`` reads its arguments, so that several ops may use a value
  (``add(x, x)`` need not);
* one private rule: ``realise`` records each pending sum it is told as a
  program, its row of scales over the rows it is told, and computes
  nothing.  ``add`` (``x + x`` a doubling), ``sub``, a scalar
  ``add_plain`` and ``mul`` with a private first operand append
  themselves to its program as steps, charged at issue, and return it
  private; the operand is spent, and a private later operand of ``add``
  or ``sub`` is nested inside, spent too, so a program is a tree; so is
  the private ``y`` of ``x + y`` with ``x`` a one-term pending sum, both
  owing nothing, since ``y + x`` gives the same doubles.  On a noise-free
  engine a ``mul`` with a tiled operand returns a private *power*, its
  factors the tiled programs and the other operand's value; ``share`` or
  ``copy_into`` into ``rows`` leaves a power that owes nothing tiled,
  uncomputed, and a tiled operand of any op is read, never taken.  A
  program is computed at its first read (``share`` of one that is no
  power, ``rotate``, ``decrypt``, ``slots``, or its use by any other op)
  or at a noise draw into it (``mul`` of an owing one): in column tiles
  of ``_TILE``, each tile first every power the tree reads and every row
  its batches read, into one scratch, then its batches' BLAS products
  over the rows, then every step in issue order, to the doubles the ops
  would have given at issue.  A batch of which it reads only some members
  is computed whole first, each member into an array of its own.  Once
  computed, a program runs each later step at once in its array, unless
  the step's operand is a program not yet computed.  The products round
  each slot within a few ulps of sum_i |scale_i * base_i| of the fold of
  the pending sum;
* ``copy_into`` folds a pending sum straight into the row of a 2D array it
  is told, the rows ``realise`` is then told.  ``rows(count)`` gives a
  noisy engine such an array, and a noise-free one rows that no array
  holds: ``copy_into`` makes each a tiled program, a power as it is, any
  other value read (a pending sum folded), so the powers a Chebyshev
  evaluation builds on its rows are computed a tile at a time, never at
  full width, unless something else reads them;
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
import weakref
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
        if isinstance(sigma, bool) or not isinstance(sigma, (int, float, np.integer, np.floating)):
            raise ValueError(f"noise_sigma must be a real number, got {sigma!r}")
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
    pending = None  # the (base, scale) terms of a pending _Deferred
    owed = 0.0  # the noise variance, in units of sigma^2, a _Deferred owes
    private = None  # the _Program of a private _Deferred
    tiled = None  # the _Program of a tiled _Deferred

    def __init__(self, slots: np.ndarray, level: int, rot_chain: int, params: HEParams):
        slots.setflags(write=False)
        self.slots = slots
        self.level = level
        self.rot_chain = rot_chain
        self.params = params

    def __repr__(self):
        head = np.array2string(self.slots[:4], precision=4, separator=", ")
        return f"Ciphertext(level={self.level}, slots[:4]={head}, n={self.slots.size})"


class _Deferred(Ciphertext):
    """An owing, pending, private, tiled or spent ciphertext, or one read since.

    ``_value`` holds an owing one's computed, noise-free value, ``pending`` a
    pending one's (base, scale) terms, ``private`` a private one's program,
    ``tiled`` a tiled one's and ``owed`` the noise any of them owes; a spent
    one has none of them.  Reading ``slots`` folds pending terms left to
    right, as the eager chain ``((b0*s0 + b1*s1) + b2*s2) + ...`` would, or
    computes the program, adds one draw of sigma * sqrt(owed) * Z and keeps
    the result, read-only, so every later reader sees the same noise.  A
    tiled one stays tiled: its program keeps the value it computed.
    """

    __slots__ = ("pending", "owed", "private", "tiled", "_value", "_engine")

    def __init__(
        self, value, terms: tuple | None, owed: float, level: int, rot_chain: int, engine: HESimulator,
        program: _Program | None = None,
    ):
        self._value = value
        self.pending = terms
        self.owed = owed
        self.private = program
        self.tiled = None
        self._engine = engine
        self.level = level
        self.rot_chain = rot_chain
        self.params = engine.params

    @property
    def slots(self) -> np.ndarray:
        if self.tiled is not None:
            return self.tiled.read(self.params.slot_count)
        if self.private is not None:
            value = self.private.compute(self.params.slot_count)
            value = self._engine._noisy(value, self.owed, out=value)
        elif self.pending is not None or self.owed:
            value = self._value if self.pending is None else _fold(self.pending, self.params.slot_count)
            value = self._engine._noisy(value, self.owed)
        elif self._value is None:
            raise EngineError(
                f"{self!r}: its value and owed noise moved into another ciphertext; "
                "HESimulator.share it before its first use to use it twice"
            )
        else:
            return self._value
        value.setflags(write=False)
        self._value, self.pending, self.owed, self.private = value, None, 0.0, None
        return value

    def _spend(self) -> tuple[np.ndarray | None, tuple | None, float]:
        """The value, a private one's computed, or terms and the owed noise,
        handed over read-only; leaves it spent."""
        value = self._value if self.private is None else self.private.compute(self.params.slot_count)
        taken = value, self.pending, self.owed
        if value is not None:
            value.setflags(write=False)
        self._value, self.pending, self.owed, self.private = None, None, 0.0, None
        return taken

    def _own(self) -> tuple[_Program, float]:
        """A private one's program and owed noise, handed over to the op that
        extends it; leaves it spent."""
        taken = self.private, self.owed
        self.owed, self.private = 0.0, None
        return taken

    def __repr__(self):
        if self.pending is not None:
            state = f"pending: {len(self.pending)} terms, owed={self.owed:g}"
        elif self.private is not None:
            state = f"private, owing {self.owed:g}" if self.owed else "private"
        elif self.tiled is not None:
            state = "tiled"
        elif self._value is None:
            state = "spent"
        elif self.owed:
            state = f"owing {self.owed:g}"
        else:
            return super().__repr__()
        return f"Ciphertext(level={self.level}, {state}, n={self.params.slot_count})"


class _Row(_Deferred):
    """A tiled row of ``table``, the ``_Rows`` of a noise-free engine that
    ``copy_into`` wrote it into, which it keeps alive as a row view keeps
    its array."""

    __slots__ = ("table",)

    def __init__(self, table: _Rows, level: int, rot_chain: int, engine: HESimulator, program: _Program):
        super().__init__(None, None, 0.0, level, rot_chain, engine)
        self.tiled, self.table = program, table


# Columns of a program's tile: every power it reads, the product of its
# batches over that many columns of their rows, then every step of the
# program, on buffers that stay in cache.  A noise-free degree-1024
# ``ps_eval`` at 2^16 slots, one BLAS thread, in 16 tiles of 4096 columns:
# 9.3 ms per step or centred window, with a scratch of 1.9 MB for its 25
# powers and 32 leaves; 8192 columns took 8.4-9.2 ms with twice the scratch,
# 2048 took 10.8-11.3 and 1024 took 14.8-15.2, each tile's steps paying
# numpy's call overhead once more.
_TILE = 4096


class _Rows:
    """The rows ``HESimulator.rows`` gives a noise-free engine: no array, only
    the program ``copy_into`` wrote into each row, which a tile pass computes
    into a scratch row next to the powers it reads."""

    __slots__ = ("programs",)

    def __init__(self, count: int):
        self.programs: list[_Program | None] = [None] * count

    def __len__(self) -> int:
        return len(self.programs)


class _Batch:
    """The pending sums one ``realise`` recorded: their ``scales`` over the
    rows of ``array``, a 2D array or a ``_Rows``, one row of scales per
    member ``_Program``, which it refers to weakly, so that no cycle keeps
    the rows alive."""

    __slots__ = ("scales", "array", "members")

    def __init__(self, scales: np.ndarray, array: np.ndarray | _Rows):
        self.scales = scales
        self.array = array
        self.members: list[weakref.ref] = []

    def program(self, row: int) -> _Program:
        """The program of the member whose scales are row ``row``."""
        program = _Program(batch=self, row=row)
        self.members.append(weakref.ref(program))
        return program

    def compute(self, n: int):
        """Each live member's row of the product into an array of its own:
        over a 2D array through a scratch tile no larger than one slot
        vector, over a ``_Rows`` in one tile pass."""
        members = [ref() for ref in self.members]
        if type(self.array) is _Rows:
            rows = {member: _Program(batch=self, row=k) for k, member in enumerate(members) if member is not None}
            _compute(list(rows.values()), n, split=False)
            for member, row in rows.items():
                member.value = row.value
        else:
            for member in members:
                if member is not None:
                    member.value = np.empty(n)
            # a power of two, so the tiles cover the slots exactly
            width = max(1, min(_TILE, n >> (len(self.scales) - 1).bit_length()))
            tile = np.empty((len(self.scales), width))
            for lo in range(0, n, width):
                np.matmul(self.scales, self.array[:, lo : lo + width], out=tile)
                for member, row in zip(members, tile):
                    if member is not None:
                        member.value[lo : lo + width] = row
        for member in members:
            if member is not None:
                member.batch = None


class _Program:
    """A value not yet computed: its source, then ``steps`` in issue order.

    The source is ``value``, an array of its own; or, while ``batch`` is
    set, row ``row`` of that batch's product; or, while ``factors`` is set,
    the product of its two factors, each an array or a program.  A program
    with factors is a *power*: it reads no batch, so a tile pass computes it
    into a scratch row before the batches' products, once however many
    programs read it.  A step is (``"add_plain"``, scalar, None),
    (``"mul"``, factor, None), its factor a scalar, an array or a program,
    or (``"add"``, operand, scale), which adds ``operand * scale`` as
    ``_accumulate`` does, its operand an array or a program.
    """

    __slots__ = ("value", "batch", "row", "factors", "steps", "__weakref__")

    def __init__(
        self, value: np.ndarray | None = None, batch: _Batch | None = None, row: int = 0, factors: tuple | None = None
    ):
        self.value = value
        self.batch = batch
        self.row = row
        self.factors = factors
        self.steps: list[tuple] = []

    def extend(self, op: str, operand, scale: float | None = None):
        """Append the step (``op``, ``operand``, ``scale``).  A computed
        program runs it at once in its own array, unless its operand is a
        program not yet computed, as after a noisy ``mul`` computed it."""
        self.steps.append((op, operand, scale))
        if self.batch is None and self.factors is None and len(self.steps) == 1:
            if type(operand) is not _Program or not (operand.batch or operand.factors or operand.steps):
                self._tile(slice(None), {})
                self.steps = []

    def compute(self, n: int) -> np.ndarray:
        """The value, noise-free, in an array of its own, which the program
        keeps as its source, with no steps left (``_compute``)."""
        if self.batch is not None or self.factors is not None or self.steps:
            _compute([self], n)
        return self.value

    def read(self, n: int) -> np.ndarray:
        """The value of a tiled program, a power or a copied row, computed
        if it is not, read-only."""
        value = self.value if self.factors is None else self.compute(n)
        value.setflags(write=False)
        return value

    def _tile(self, cols: slice, tiles: dict, value: np.ndarray | None = None) -> np.ndarray:
        """The value over the columns ``cols``: the steps run in place on
        ``value`` if given, else on its source's tile, each operand as
        ``_operand`` gives it."""
        if value is None:
            value = self.value[cols] if self.batch is None else tiles[self.batch][self.row]
        for op, operand, scale in self.steps:
            if op == "add_plain":
                value += operand
                continue
            if type(operand) is np.ndarray:
                operand = operand[cols]
            elif type(operand) is _Program:
                operand = tiles[operand] if operand in tiles else operand._tile(cols, tiles)
            if op == "mul":
                np.multiply(value, operand, out=value)
            else:
                _accumulate(value, operand, scale, None)
        return value

    def _power_tile(self, cols: slice, tiles: dict):
        """A power, or a copied row, over the columns ``cols``, into its scratch row."""
        row = tiles[self]
        if self.factors is None:
            np.copyto(row, self.value[cols])
        else:
            a, b = self.factors
            np.multiply(_operand(a, cols, tiles), _operand(b, cols, tiles), out=row)
        self._tile(cols, tiles, row)


def _operand(operand, cols: slice, tiles: dict) -> np.ndarray:
    """A factor or a step's array or program operand over the columns
    ``cols``: an array's tile, a power's scratch row or a program's tile."""
    if type(operand) is np.ndarray:
        return operand[cols]
    return tiles[operand] if operand in tiles else operand._tile(cols, tiles)


def _powers_of(program: _Program, placed: dict) -> list[_Program]:
    """The powers and rows of ``placed`` that ``program`` reads directly."""
    operands = (*(program.factors or ()), *(operand for _, operand, _ in program.steps))
    return [p for p in operands if type(p) is _Program and (p.factors is not None or p in placed)]


def _compute(targets: list[_Program], n: int, split: bool = True):
    """Compute each program of ``targets``, a tree, into an array of its own,
    or in place into its own computed value, to the doubles its ops would
    have given at issue.

    With ``split``, a batch of which the trees read only some members, as a
    noisy walk's first ``mul`` of a leaf does, is computed first, each live
    member's row into an array of its own, so that no batch is computed
    twice; with no batch and no power left to read, the steps then run in
    place, one pass each.  Otherwise the pass runs in column tiles of
    ``_TILE``.  Each tile first computes every power the trees read, and
    every row of each ``_Rows`` their batches read, with what those read in
    turn, into rows of one scratch array, in dependency order.  Then the
    batches that read the same rows stack their scales into one BLAS
    product over that tile of the rows, a 2D array's or the scratch's, and
    the trees run in place: a leaf's steps in its product row, a computed
    source's in its array, reading powers from the scratch.
    """
    leaves, powers, stack = {}, {}, list(targets)
    while stack:
        program = stack.pop()
        if program.factors is not None:
            powers[program] = None
            continue
        if program.batch is not None:
            leaves[program] = None
        stack.extend(operand for _, operand, _ in program.steps if type(operand) is _Program)
    if split:
        for batch in dict.fromkeys(program.batch for program in leaves):
            members = (ref() for ref in batch.members)
            if any(member is not None and member not in leaves for member in members):
                batch.compute(n)
    groups: dict[int, tuple[np.ndarray | _Rows, dict[_Batch, None]]] = {}
    for program in leaves:
        if program.batch is not None:
            groups.setdefault(id(program.batch.array), (program.batch.array, {}))[1][program.batch] = None
    if not groups and not powers:
        for target in targets:
            target._tile(slice(None), {})
            target.steps = []
        return
    # scratch rows: each _Rows's rows in order, then the other powers
    placed = {p: None for array, _ in groups.values() if type(array) is _Rows for p in array.programs}
    order: dict[_Program, None] = {}
    for root in [*placed, *powers]:
        path = [root]
        while path:
            wanted = [p for p in _powers_of(path[-1], placed) if p not in order]
            if wanted:
                path.extend(wanted)
            else:
                order[path.pop()] = None
    width = min(_TILE, n)
    position = {p: k for k, p in enumerate({**placed, **order})}
    scratch = np.empty((len(position), width))
    tiles: dict = {p: scratch[k] for p, k in position.items()}
    stacked = []
    for array, group in groups.values():
        scales = np.concatenate([batch.scales for batch in group])
        product = np.empty((len(scales), width))
        if type(array) is _Rows:
            first = position[array.programs[0]]
            stacked.append((scales, scratch[first : first + len(array)], False, product))
        else:
            stacked.append((scales, array, True, product))
        for batch in group:
            tiles[batch], product = product[: len(batch.scales)], product[len(batch.scales) :]
    outs = [np.empty(n) if target.batch is not None or target.factors is not None else target.value for target in targets]
    for lo in range(0, n, width):
        cols = slice(lo, lo + width)
        for power in order:
            power._power_tile(cols, tiles)
        for scales, rows, sliced, product in stacked:
            np.matmul(scales, rows[:, cols] if sliced else rows, out=product)
        for target, out in zip(targets, outs):
            tile = tiles[target] if target.factors is not None else target._tile(cols, tiles)
            if out is not target.value:
                out[cols] = tile
    for target, out in zip(targets, outs):
        target.value, target.batch, target.factors, target.steps = out, None, None, []


def _fold(terms: tuple, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """sum_i ``base_i * scale_i``, left to right, into ``out`` if given, else
    into a fresh array; a base that is a tiled program is read first."""
    (base, scale), *rest = terms
    if type(base) is _Program:
        base = base.read(n)
    value = base * scale if out is None else np.multiply(base, scale, out=out)
    term = None
    for base, scale in rest:
        term = _accumulate(value, base if type(base) is not _Program else base.read(n), scale, term)
    return value


def _accumulate(value: np.ndarray, base: np.ndarray, scale: float, term: np.ndarray | None) -> np.ndarray | None:
    """``value += base * scale`` in place, the product written into ``term``,
    made if ``None``; returns ``term``.  A scale of +-1 adds or subtracts its
    base, which gives the same doubles as multiplying by it."""
    if scale == 1.0:
        value += base
    elif scale == -1.0:
        value -= base
    else:
        if term is None:
            term = np.empty_like(value)
        value += np.multiply(base, scale, out=term)
    return term


def _keep_freed_slot_vectors():
    """Pin glibc's malloc so that freed slot vectors stay in the heap.

    At 2^16 slots a slot vector is 512 KB, and a degree-1024 ``ps_eval`` on
    a noisy engine holds its baby-step powers in one 8 MB array (a
    noise-free one, a scratch of about 1.9 MB).  glibc's default policy
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
        return self._sum(x, more, 1.0)

    def sub(self, x: Ciphertext, y: Ciphertext) -> Ciphertext:
        self._check(x, y)
        self._additions += 1
        return self._sum(x, (y,), -1.0)

    def negate(self, x: Ciphertext) -> Ciphertext:
        self._check(x)
        value, owed = self._take(x)
        return self._emit(-value, x.level, x.rot_chain, owed)

    def add_plain(self, x: Ciphertext, p) -> Ciphertext:
        """``x + p``, one addition; a scalar ``p`` of exactly +-0 returns
        ``x`` itself, uncharged.  A private ``x`` and a scalar ``p`` append
        the sum to its program."""
        self._check(x)
        p = self._plain_operand(p)
        if isinstance(p, float) and p == 0.0:
            return x
        self._additions += 1
        if x.private is not None and isinstance(p, float):
            program, owed = x._own()
            program.extend("add_plain", p)
            return self._emit(None, x.level, x.rot_chain, owed + self._op_noise, program=program)
        fresh = x.pending is not None  # a fold is a fresh array: add into it
        value, owed = self._take(x)
        if fresh:
            value += p
        else:
            value = value + p
        return self._emit(value, x.level, x.rot_chain, owed + self._op_noise)

    def mul(self, x: Ciphertext, y: Ciphertext) -> Ciphertext:
        """``x * y``, one ct-ct product and one level.  A private ``x`` other
        than ``y`` appends the product to its program; one that owes noise
        is computed first and the noise drawn into it, as a read would.
        Otherwise a tiled operand makes the product a private power, whose
        factors are each tiled operand's program and each other one's value.
        """
        self._check(x, y)
        level = min(x.level, y.level)
        if level < 1:
            raise DepthBudgetError(level)
        chain = max(x.rot_chain, y.rot_chain)
        if x.private is not None and x is not y:
            program, owed = x._own()
            if owed:
                value = program.compute(self.params.slot_count)
                self._noisy(value, owed, out=value)
            program.extend("mul", y.slots if y.tiled is None else y.tiled)
            self._ctct_mults += 1
            return self._emit(None, level - 1, chain, self._op_noise, program=program)
        if x.tiled is not None or y.tiled is not None:
            program = _Program(factors=tuple(c.slots if c.tiled is None else c.tiled for c in (x, y)))
            self._ctct_mults += 1
            return self._emit(None, level - 1, chain, self._op_noise, program=program)
        slots = x.slots * y.slots
        self._ctct_mults += 1
        return self._emit(slots, level - 1, chain, self._op_noise)

    def mul_plain(self, x: Ciphertext, p) -> Ciphertext:
        """``x * p``, one ct-pt product and one level; a scalar ``p`` of
        exactly 1 returns ``x`` itself, uncharged, at any level."""
        self._check(x)
        p = self._plain_operand(p)
        if isinstance(p, float) and p == 1.0:
            return x
        if x.level < 1:
            raise DepthBudgetError(x.level)
        self._ctpt_mults += 1
        if isinstance(p, float):
            terms, owed = self._scaled(x, p)
            return self._emit(None, x.level - 1, x.rot_chain, owed, terms)
        return self._emit(x.slots * p, x.level - 1, x.rot_chain, self._op_noise)

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

    def rows(self, count: int) -> np.ndarray | _Rows:
        """``count`` rows for ``copy_into`` to write and ``realise`` to be
        told: on a noisy engine a ``(count, slot_count)`` array; on a
        noise-free one, rows that no array holds (``copy_into``)."""
        if self._op_noise:
            return np.empty((count, self.params.slot_count))
        return _Rows(count)

    def copy_into(self, ct: Ciphertext, rows: np.ndarray | _Rows, i: int) -> Ciphertext:
        """``ct`` written into row ``i`` of ``rows``, at its level and
        rotation chain; charges nothing.  ``ct`` is taken, as by a linear op.

        Into a 2D array: a pending ``ct`` is folded straight into the row and
        a computed one copied there; then any noise it owes is drawn into
        the row, to the doubles a read gives; returns a read-only ciphertext
        of the row.  Into the ``rows`` of a noise-free engine: a private
        power that owes nothing is the row as it is, and anything else is
        read first (a pending sum folded); returns the row tiled.
        """
        self._check(ct)
        if type(rows) is _Rows:
            if ct.private is not None and ct.private.factors is not None and not ct.owed:
                program, _ = ct._own()
            else:
                value, owed = self._take(ct)
                value = self._noisy(value, owed)
                value.setflags(write=False)
                program = _Program(value=value)
            rows.programs[i] = program
            return _Row(rows, ct.level, ct.rot_chain, self, program)
        row = rows[i]
        value, owed = self._take(ct, out=row)
        if value is not row:
            np.copyto(row, value)
        self._noisy(row, owed, out=row)
        return Ciphertext(row, ct.level, ct.rot_chain, self.params)

    def realise(self, cts: list[Ciphertext], rows: list[Ciphertext]) -> list[Ciphertext]:
        """Record every pending sum of ``cts`` as a private program over
        ``rows`` and return ``cts``; charges and computes nothing.

        ``rows`` names the ciphertexts that ``copy_into`` wrote into rows 0,
        1, ... of one 2D array or of one ``HESimulator.rows`` of a noise-free
        engine, all of them in order, and every base of the pending sums
        must be one of them, else ``ValueError``.  The sums form one batch:
        the product of the matrix of their scales by those rows, which the
        first program to read any of them computes in one pass over column
        tiles, reading each base once per tile.  It rounds each slot within
        a few ulps of sum_i |scale_i * base_i| of the left-to-right fold.
        Each pending sum is then private, owing if it owes noise.  An owing,
        private, tiled or read ciphertext is left as it is; a spent one
        raises ``EngineError``.  The rows are read when a program is
        computed, so an array of them must not be written again before then.
        """
        self._check(*cts)
        table = rows[0].table if rows and type(rows[0]) is _Row else None
        if table is not None:
            array, told = table, len(rows) == len(table) and all(r.tiled is p for r, p in zip(rows, table.programs))
        else:
            array = rows[0].slots.base if rows else None
            told = (
                array is not None
                and len(rows) == len(array)
                and all(r.slots.base is array and np.may_share_memory(r.slots, a) for r, a in zip(rows, array))
            )
        if not told:
            raise ValueError(
                "realise: rows must be every row of one 2D array, or of one HESimulator.rows, in order, "
                "as copy_into wrote them"
            )
        # a spent operand raises
        self.share(*[c for c in cts if c.pending is None and c.private is None and not c.owed])
        pending = [c for c in cts if c.pending is not None]
        if not pending:
            return list(cts)
        index = {id(r.slots if table is None else r.tiled): k for k, r in enumerate(rows)}
        weights = [[0.0] * len(rows) for _ in pending]
        for row, ct in zip(weights, pending):
            for base, scale in ct.pending:
                k = index.get(id(base))
                if k is None:
                    raise ValueError("realise: every base of a pending sum must be one of the rows it is told")
                row[k] += scale
        batch = _Batch(np.array(weights), array)
        for k, ct in enumerate(pending):
            ct.pending, ct.private = None, batch.program(k)
        return list(cts)

    def share(self, *cts: Ciphertext) -> tuple[Ciphertext, ...]:
        """Read ``cts``, so that several ops may use each of them, and return
        ``cts``; charges nothing.

        A pending sum is computed once and any owed noise drawn once, so
        every later reader sees the same value.  An op that takes a pending
        or owing operand leaves it spent: a value two ops use is shared first.
        A private power that owes nothing is left uncomputed, tiled, and a
        tiled value as it is: ops read those without taking them.
        """
        self._check(*cts)
        for ct in cts:
            if ct.private is not None and ct.private.factors is not None and not ct.owed:
                ct.tiled, ct.private = ct.private, None
            elif ct.tiled is None:
                ct.slots  # a read computes and draws; a spent operand raises
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

    def _sum(self, x: Ciphertext, ys: tuple[Ciphertext, ...], sign: float) -> Ciphertext:
        """``x + sign * y`` for each y of ``ys`` in turn, the left fold of
        binary sums, charged by the caller, under the module's pending rule.

        ``x + x`` is ``x`` scaled by 2 and ``x - x`` is +0.0, both taking
        ``x``.  A later pending operand of several terms is folded into one,
        as the eager chain would, and ``b * -s`` is ``-(b * s)`` exactly.
        A private ``x`` that no later operand repeats appends the sum to its
        program, ``x + x`` as its doubling; so does a private ``y`` in
        ``x + y`` of a one-term pending ``x``, both owing nothing, as
        ``y + x``, which gives the same doubles.  A tiled operand is a term
        of its own, its program.
        """
        if x.private is not None and not (x is ys[0] and sign < 0) and all(y is not x for y in ys[1:]):
            return self._sum_into(x, ys, sign)
        level, chain = x.level, x.rot_chain
        if x.pending is None and not x.owed and x.tiled is None and x is not ys[0]:
            # the common case, every operand read, summed without building
            # terms; at any other operand nothing is taken yet, so the loop
            # below starts over
            total = x.slots
            for y in ys:
                if y.pending is not None or y.owed or y.tiled is not None:
                    break
                if y.level < level:
                    level = y.level
                if y.rot_chain > chain:
                    chain = y.rot_chain
                total = total + y.slots if sign > 0 else total - y.slots
            else:
                return self._emit(total, level, chain, len(ys) * self._op_noise)
            level, chain = x.level, x.rot_chain
        elif x.pending is not None and ys[0].private is not None and len(ys) == 1 and sign > 0:
            if len(x.pending) == 1 and not x.owed and not ys[0].owed:
                return self._sum_into(ys[0], (x,), sign)
        if x is ys[0]:
            if sign < 0:  # x - x: +0.0, taking x
                self._take(x)
                return self._emit(np.zeros(self.params.slot_count), level, chain, self._op_noise)
            terms, owed = self._scaled(x, 2.0)
            ys, total = ys[1:], None
        elif x.tiled is not None:
            terms, owed, total = ((x.tiled, 1.0),), 0.0, None
        elif x.pending is None:
            total, owed = self._take(x)
            terms = ((total, 1.0),)
        else:
            _, terms, owed = x._spend()
            total = None
        # ``total`` is the eager sum while every operand is computed,
        # dropped for ``terms`` at the first pending one
        for y in ys:
            if y.level < level:
                level = y.level
            if y.rot_chain > chain:
                chain = y.rot_chain
            if y.tiled is not None:
                terms += ((y.tiled, sign),)
                y_owed, total = 0.0, None
            elif y.pending is None:
                value, y_owed = self._take(y)
                terms += ((value, sign),)
                if total is not None:
                    total = total + value if sign > 0 else total - value
            else:
                _, y_terms, y_owed = y._spend()
                base, scale = y_terms[0] if len(y_terms) == 1 else (_fold(y_terms, self.params.slot_count), 1.0)
                terms += ((base, sign * scale),)
                total = None
            owed += y_owed + self._op_noise
        if total is None:
            return self._emit(None, level, chain, owed, terms)
        return self._emit(total, level, chain, owed)

    def _sum_into(self, x: _Deferred, ys: tuple[Ciphertext, ...], sign: float) -> Ciphertext:
        """``_sum`` of a private ``x``: each term appended to its program, in
        the order, and to the doubles, of the fold of the pending sum
        ``_sum`` would build; returned private.  ``x`` is taken, a private
        one of ``ys`` nested in the program and spent, a tiled one read where
        the program is computed, and each other one taken as ``_sum`` takes
        it.  A power nests only powers: any other private operand is
        computed first, so that a tile pass computes every power before
        every batch."""
        program, owed = x._own()
        level, chain = x.level, x.rot_chain
        for y in ys:
            if y is x:  # x + x
                program.extend("mul", 2.0)
                owed = 4.0 * owed + self._op_noise
                continue
            if y.level < level:
                level = y.level
            if y.rot_chain > chain:
                chain = y.rot_chain
            if y.tiled is not None:
                operand, y_owed, scale = y.tiled, 0.0, sign
            elif y.private is not None and (program.factors is None or y.private.factors is not None):
                operand, y_owed = y._own()
                scale = sign
            elif y.pending is None:
                operand, y_owed = self._take(y)
                scale = sign
            else:
                _, y_terms, y_owed = y._spend()
                operand, scale = y_terms[0] if len(y_terms) == 1 else (_fold(y_terms, self.params.slot_count), 1.0)
                scale *= sign
            program.extend("add", operand, scale)
            owed += y_owed + self._op_noise
        return self._emit(None, level, chain, owed, program=program)

    @staticmethod
    def _take(x: Ciphertext, out: np.ndarray | None = None) -> tuple[np.ndarray, float]:
        """``x``'s noise-free value, a pending one folded (into ``out`` if
        given), and the noise it owes; a pending or owing ``x`` is spent."""
        if x.pending is None and not x.owed:
            return x.slots, 0.0  # a spent x raises
        value, terms, owed = x._spend()
        return (value if terms is None else _fold(terms, x.params.slot_count, out)), owed

    def _scaled(self, x: Ciphertext, s: float) -> tuple[tuple, float]:
        """The terms and owed noise of ``x * s`` for a scalar ``s``, charged
        by the caller.

        The fold of a pending ``x`` is scaled as one term, so scales are
        never folded together; its owed noise is scaled too, to ``s^2`` times
        its weight, and ``x`` is taken; a tiled ``x`` is its program, read
        where the sum is folded or computed.
        """
        if x.pending is None and not x.owed:  # nothing to take
            return ((x.slots if x.tiled is None else x.tiled, s),), s * s * 0.0 + self._op_noise
        value, owed = self._take(x)
        return ((value, s),), s * s * owed + self._op_noise

    def _noisy(self, slots: np.ndarray, owed: float, out: np.ndarray | None = None) -> np.ndarray:
        """``slots`` plus one draw of N(0, owed * sigma^2) noise, into ``out``
        if given, else a fresh array; ``slots`` itself if nothing is owed."""
        if not owed:
            return slots
        # for one op, the same doubles as ``slots + rng.normal(0, sigma,
        # shape)``, from the same stream, without the temporaries
        noise = self._rng.standard_normal(slots.shape)
        noise *= self.params.noise_sigma * math.sqrt(owed)
        return np.add(noise, slots, out=noise if out is None else out)

    def _emit(
        self,
        slots: np.ndarray | None,
        level: int,
        rot_chain: int,
        owed: float = 0.0,
        terms: tuple | None = None,
        program: _Program | None = None,
    ) -> Ciphertext:
        """A read ciphertext of ``slots``, owing if ``owed``, or pending, or
        private: ``program`` its value."""
        consumed = self.params.max_level - level
        if consumed > self._levels_consumed:
            self._levels_consumed = consumed
        if terms is None and not owed and program is None:
            # every op passes a float64 array of its own (ideal_map coerces
            # the function's result), so it is stored as is and made read-only
            return Ciphertext(slots, level, rot_chain, self.params)
        return _Deferred(slots, terms, owed, level, rot_chain, self, program)
