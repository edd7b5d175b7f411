"""Row-major square-matrix encoding and its rotation/mask primitives.

An N x N matrix lives row by row in the first N^2 slots of a ciphertext
(cell (i, j) in slot i*N + j).  On top of cyclic rotations this gives the
eight building blocks used by the ranking pipelines: row/column masking,
row/column summation, row/column replication, and the log-cost vector
transposes.  All of them need exactly log2(N) rotations (transposes
ceil(log2 N)), each a rotate-and-add step of one loop.  Masks are cached
plaintext vectors from ``rect_plain``, a value on a rectangle of cells;
``grid_plain`` lays out every plaintext grid of the pipelines.

When the matrix fills the slot vector (N^2 slots), a rotation by a
multiple of N is cyclic over the rows, so ``sum_axis(x, "row")`` folds the
rows into every row at once, with no mask; and ``head_row_sums`` sums rows
0 and 1 into slot 0 with one shared fold, log2(N) + 2 rotations and no mask.

Slots beyond N^2 must be zero on entry; every primitive that rotates data
across that boundary ends with a mask, so pipelines built from these
blocks preserve the invariant.  ``replicate`` and ``transpose_vector``
read one row or column and refuse, on a noise-free engine, data outside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .engine import Ciphertext, HESimulator, caller_path

__all__ = ["MatrixLayout", "mask", "sum_axis", "head_row_sums", "replicate", "transpose_vector"]


@dataclass(frozen=True)
class MatrixLayout:
    """Square side length (a power of two) and the hosting slot count."""

    n_dim: int
    slot_count: int

    def __post_init__(self):
        n = self.n_dim
        if n < 1 or (n & (n - 1)) != 0:
            raise ValueError(f"matrix side must be a power of two, got {n}")
        if n * n > self.slot_count:
            raise ValueError(
                f"matrix of side {n} needs {n * n} slots, only {self.slot_count} available"
            )

    @property
    def steps(self) -> int:
        return self.n_dim.bit_length() - 1

    @property
    def full(self) -> bool:
        """Whether the matrix fills the slots, so a rotation by a multiple of
        N is cyclic over its rows."""
        return self.n_dim * self.n_dim == self.slot_count


def grid_plain(slot_count: int, grid: np.ndarray) -> np.ndarray:
    """The N x N ``grid`` laid out row by row in a read-only plaintext of
    ``slot_count`` slots, zero beyond N^2."""
    m = np.zeros(slot_count)
    m[: grid.size] = grid.ravel()
    m.setflags(write=False)
    return m


@lru_cache(maxsize=None)
def rect_plain(slot_count: int, n_dim: int, r0: int, r1: int, c0: int, c1: int, value: float = 1.0) -> np.ndarray:
    """``value`` on rows [r0, r1) x columns [c0, c1) of the N x N grid, zero
    elsewhere, laid out by ``grid_plain``; cached."""
    grid = np.zeros((n_dim, n_dim))
    grid[r0:r1, c0:c1] = value
    return grid_plain(slot_count, grid)


def _check_axis(axis: str):
    if axis not in ("row", "col"):
        raise ValueError(f"axis must be 'row' or 'col', got {axis!r}")


def _require_line(engine: HESimulator, x: Ciphertext, layout: MatrixLayout, axis: str):
    """Raise ``ValueError`` if a noise-free ``x`` is non-zero outside row 0
    (axis="row") or column 0, which replication and transposition would add
    in silently; -0.0 counts as zero.  A noisy engine's masked slots carry
    noise, so it is not checked."""
    if engine.params.noise_sigma > 0:
        return
    n, s = layout.n_dim, x.slots
    grid = s[: n * n].reshape(n, n)
    if (grid[1:] if axis == "row" else grid[:, 1:]).any() or s[n * n :].any():
        raise ValueError(f"{caller_path()}: data outside {axis} 0 of the {n}x{n} matrix")


def mask(
    engine: HESimulator, x: Ciphertext, layout: MatrixLayout, axis: str, k: int, value: float = 1.0
) -> Ciphertext:
    """Keep row/column ``k``, times ``value``, and zero every other cell
    (one plaintext mult)."""
    _check_axis(axis)
    if not 0 <= k < layout.n_dim:
        raise IndexError(f"{axis} index {k} out of range for side {layout.n_dim}")
    n = layout.n_dim
    line = (k, k + 1, 0, n) if axis == "row" else (0, n, k, k + 1)
    return engine.mul_plain(x, rect_plain(layout.slot_count, n, *line, value))


def _rotate_sum(engine: HESimulator, x: Ciphertext, offsets) -> Ciphertext:
    """``x`` plus its rotation by the first offset, that sum plus its rotation
    by the second, and so on."""
    for k in offsets:
        x = engine.add(x, engine.rotate(x, k))
    return x


def _refuse(why: str):
    """Raise ``ValueError`` with the call path down to the primitive that calls this."""
    raise ValueError(f"{caller_path()}: {why}")


def sum_axis(engine: HESimulator, x: Ciphertext, layout: MatrixLayout, axis: str, scale: float = 1.0) -> Ciphertext:
    """Fold the matrix along ``axis``.

    axis="row": add all rows together, result in row 0 (column sums).  On a
    matrix that fills the slots the rotations by N 2^k are cyclic over its
    rows: an all-reduce that leaves the sums in every row, with no mask.
    axis="col": add all columns together, result in column 0 (row sums).
    The fold's mask takes the value ``scale``, so the sums come scaled at no
    cost; the fold with no mask refuses a scale other than 1.
    """
    _check_axis(axis)
    unmasked = axis == "row" and layout.full
    if unmasked and scale != 1.0:
        _refuse("the row fold of a matrix that fills the slots has no mask to scale")
    step = layout.n_dim if axis == "row" else 1
    folded = _rotate_sum(engine, x, [step << i for i in range(layout.steps)])
    return folded if unmasked else mask(engine, folded, layout, axis, 0, scale)


def head_row_sums(engine: HESimulator, x: Ciphertext, layout: MatrixLayout) -> tuple[Ciphertext, Ciphertext]:
    """The sums of rows 0 and 1 of ``x``, each in slot 0, on a matrix that
    fills the slots; the other slots hold partial sums.

    log2(N) - 1 shared rotate-and-add steps by 1..N/4 leave in each slot the
    sum of the N/2 slots from it.  Row 0's sum is then slot 0 plus slot N/2,
    and row 1's slot N plus slot 3N/2: four rotations more, log2(N) + 2 in
    all, where two row folds take 2 log2(N), and each sum sits log2(N)
    rotations after ``x``, as after one row fold.
    """
    if not layout.full:
        _refuse("rows 0 and 1 fold with no mask only on a matrix that fills the slots")
    n = layout.n_dim
    halves = engine.share(_rotate_sum(engine, x, [1 << i for i in range(layout.steps - 1)]))[0]
    first = engine.add(halves, engine.rotate(halves, n // 2))
    return first, engine.add(engine.rotate(halves, n), engine.rotate(halves, 3 * n // 2))


def replicate(engine: HESimulator, x: Ciphertext, layout: MatrixLayout, axis: str) -> Ciphertext:
    """Copy row 0 to all rows (axis="row") or column 0 to all columns.

    On a noise-free engine, data outside that row/column raises
    ``ValueError``: it would be summed into the copies.
    """
    _check_axis(axis)
    _require_line(engine, x, layout, axis)
    step = layout.n_dim if axis == "row" else 1
    return _rotate_sum(engine, x, [-(step << i) for i in range(layout.steps)])


def transpose_vector(
    engine: HESimulator, x: Ciphertext, layout: MatrixLayout, direction: str
) -> Ciphertext:
    """Move a vector between row 0 and column 0 of the matrix.

    direction="row_to_col" takes row 0 to the same values down column 0;
    "col_to_row" is the inverse.  Uses ceil(log2 N) rotations by
    N(N-1)/2^i plus one final mask.  On a noise-free engine, data outside
    the source row/column raises ``ValueError``.
    """
    if direction not in ("row_to_col", "col_to_row"):
        raise ValueError(f"unknown transpose direction {direction!r}")
    _require_line(engine, x, layout, "row" if direction == "row_to_col" else "col")
    n, sign = layout.n_dim, -1 if direction == "row_to_col" else 1
    acc = _rotate_sum(engine, x, [sign * (n * (n - 1) >> i) for i in range(1, layout.steps + 1)])
    return mask(engine, acc, layout, "col" if direction == "row_to_col" else "row", 0)
