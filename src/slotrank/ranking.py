"""Fractional ranking of a packed vector with one comparison evaluation.

The input vector is replicated across matrix rows and, transposed, across
matrix columns; a single slotwise comparison of the two encodings yields
the full pairwise comparison matrix, whose column sums (plus one half) are
the fractional ranks.  A tie-correction offset derived from the same
comparison matrix redistributes tied ranks into a permutation of 1..N.

Vectors longer than the matrix capacity are split into blocks; comparisons
between blocks are computed only for ordered pairs and the missing half is
recovered through the complement identity, column-wise to avoid matrix
transposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chebyshev import (
    KernelConfig,
    compare_ge_kernel,
    compare_gt_kernel,
    compare_kernel,
    equality_from_compare,
)
from .engine import CapacityError, Ciphertext, HESimulator
from .matrix import MatrixLayout, mask, replicate, sum_axis, transpose_vector

__all__ = [
    "RankResult",
    "RankPipeline",
    "BlockVector",
    "rank",
    "rank_corrected",
    "rank_pipeline",
    "tie_offset",
    "block_size_for",
    "block_split",
    "block_merge",
    "block_pack",
    "multi_rank",
    "multi_rank_pipeline",
    "MultiRankPipeline",
    "read_row",
    "read_col",
]

_KERNELS = {
    "fractional": (compare_kernel, 0.5),
    "strict": (compare_gt_kernel, 1.0),
    "weak": (compare_ge_kernel, 0.0),
}


def next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length() if n > 1 else 1


@dataclass(frozen=True)
class RankResult:
    """Ranks in the leading row (or column) of the matrix encoding."""

    ranks: Ciphertext
    layout: MatrixLayout
    corrected: bool


@dataclass
class RankPipeline:
    """Ranking output plus the intermediates downstream pipelines reuse."""

    result: RankResult
    comparison: Ciphertext
    row_replicated: Ciphertext
    col_replicated: Ciphertext
    valid: int
    column_form: bool


@lru_cache(maxsize=None)
def _prefix_vector(slot_count: int, n_dim: int, count: int, value: float, axis: str) -> np.ndarray:
    v = np.zeros(slot_count)
    if axis == "row":
        v[:count] = value
    else:
        v[0 : count * n_dim : n_dim] = value
    v.setflags(write=False)
    return v


@lru_cache(maxsize=None)
def _square_mask(slot_count: int, n_dim: int, valid: int) -> np.ndarray:
    m = np.zeros(slot_count)
    grid = np.zeros((n_dim, n_dim))
    grid[:valid, :valid] = 1.0
    m[: n_dim * n_dim] = grid.ravel()
    m.setflags(write=False)
    return m


@lru_cache(maxsize=None)
def _triangle_mask(slot_count: int, n_dim: int, orient: str, scale: float) -> np.ndarray:
    rows, cols = np.indices((n_dim, n_dim))
    tri = (rows <= cols) if orient == "upper" else (cols <= rows)
    m = np.zeros(slot_count)
    m[: n_dim * n_dim] = tri.astype(np.float64).ravel() * scale
    m.setflags(write=False)
    return m


@lru_cache(maxsize=None)
def _row_band_mask(slot_count: int, n_dim: int, rows: int) -> np.ndarray:
    m = np.zeros(slot_count)
    m[: rows * n_dim] = 1.0
    m.setflags(write=False)
    return m


def read_row(engine: HESimulator, ct: Ciphertext, count: int) -> np.ndarray:
    """First ``count`` slots of row 0."""
    return engine.decrypt(ct)[:count]


def read_col(engine: HESimulator, ct: Ciphertext, layout: MatrixLayout, count: int) -> np.ndarray:
    """First ``count`` entries of column 0."""
    return engine.decrypt(ct)[0 : count * layout.n_dim : layout.n_dim]


def rank_pipeline(
    engine: HESimulator,
    ct: Ciphertext,
    n: int,
    cfg: KernelConfig,
    *,
    column_form: bool = False,
    comparison: str = "fractional",
    tie_correction: bool = False,
) -> RankPipeline:
    """Full ranking pipeline; the first ``n`` slots of ``ct`` hold the vector.

    ``comparison`` picks the kernel: "fractional" gives 0.5-valued ties and
    fractional ranks, "strict" sends all minimal elements to rank 1, "weak"
    sends all maximal elements to rank N.  ``column_form`` sums the
    comparison matrix the other way so the ranks come out in column 0,
    which lets the sorting pipeline skip the final transposition.
    """
    if n < 1:
        raise ValueError("vector length must be >= 1")
    side = next_pow2(n)
    if side * side > engine.params.slot_count:
        raise CapacityError(
            f"vector of length {n} needs a {side}x{side} matrix "
            f"({side * side} slots > {engine.params.slot_count}); split into blocks"
        )
    layout = MatrixLayout(side, engine.params.slot_count)
    kernel, bias = _KERNELS[comparison]

    row_rep = replicate(engine, ct, layout, "row")
    col_rep = replicate(engine, transpose_vector(engine, ct, layout, "row_to_col"), layout, "col")
    if column_form:
        cmp_matrix = kernel(engine, col_rep, row_rep, cfg)
    else:
        cmp_matrix = kernel(engine, row_rep, col_rep, cfg)
    if n < side:
        cmp_matrix = engine.mul_plain(
            cmp_matrix, _square_mask(layout.slot_count, side, n), site="pad-mask"
        )

    axis = "col" if column_form else "row"
    sums = sum_axis(engine, cmp_matrix, layout, axis)
    ranks = sums
    if bias != 0.0:
        ranks = engine.add_plain(ranks, _prefix_vector(layout.slot_count, side, n, bias, axis))
    if tie_correction:
        offset = tie_offset(engine, cmp_matrix, layout, valid=n, column_form=column_form)
        ranks = engine.add(ranks, offset)
    result = RankResult(ranks=ranks, layout=layout, corrected=tie_correction)
    return RankPipeline(
        result=result,
        comparison=cmp_matrix,
        row_replicated=row_rep,
        col_replicated=col_rep,
        valid=n,
        column_form=column_form,
    )


def rank(engine: HESimulator, ct: Ciphertext, n: int, cfg: KernelConfig) -> RankResult:
    """Fractional ranks of the first ``n`` slots, in row 0 of the result."""
    return rank_pipeline(engine, ct, n, cfg).result


def rank_corrected(engine: HESimulator, ct: Ciphertext, n: int, cfg: KernelConfig) -> RankResult:
    """Tie-corrected ranks: a permutation of 1..n, ties broken by position."""
    return rank_pipeline(engine, ct, n, cfg, tie_correction=True).result


def tie_offset(
    engine: HESimulator,
    cmp_matrix: Ciphertext,
    layout: MatrixLayout,
    *,
    valid: int | None = None,
    column_form: bool = False,
) -> Ciphertext:
    """Offset vector redistributing tied fractional ranks.

    Derives the pairwise equality matrix from the comparison matrix via
    c*(1-c), counts each element's predecessors inside its tie group with
    a triangle mask that includes the diagonal, and shifts by half the tie
    size.  Scale factors are folded into the triangle and counting masks so
    the whole offset costs three levels on top of the comparison matrix.
    """
    side = layout.n_dim
    valid = side if valid is None else valid
    complement = engine.add_plain(engine.negate(cmp_matrix), 1.0)
    quarter_eq = engine.mul(cmp_matrix, complement, site="tie-equality")
    orient = "lower" if column_form else "upper"
    counted = engine.mul_plain(
        quarter_eq, _triangle_mask(layout.slot_count, side, orient, 4.0), site="tie-triangle"
    )
    doubled = engine.mul_plain(quarter_eq, 2.0, site="tie-total")
    axis = "col" if column_form else "row"
    position_in_tie = sum_axis(engine, counted, layout, axis)
    half_tie_size = sum_axis(engine, doubled, layout, axis)
    offset = engine.sub(position_in_tie, half_tie_size)
    return engine.add_plain(offset, _prefix_vector(layout.slot_count, side, valid, -0.5, axis))


# ----------------------------------------------------------------------
# multi-ciphertext encoding
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BlockVector:
    """A long vector split into equally sized row-0 blocks.

    The last block is zero padded; ``total_len`` records how many entries
    are real.  Decrypted row-0 prefixes concatenate back to the vector.
    """

    blocks: tuple[Ciphertext, ...]
    block_size: int
    total_len: int

    def valid_in(self, i: int) -> int:
        if i < len(self.blocks) - 1:
            return self.block_size
        return self.total_len - (len(self.blocks) - 1) * self.block_size


@dataclass
class MultiRankPipeline:
    ranks: BlockVector
    comparisons: dict[tuple[int, int], Ciphertext]
    row_replicated: list[Ciphertext]
    col_replicated: list[Ciphertext]
    layout: MatrixLayout


def block_size_for(engine: HESimulator) -> int:
    """Largest power-of-two block side whose square matrix fits the slots."""
    log_slots = engine.params.slot_count.bit_length() - 1
    return 1 << (log_slots // 2)


def block_split(engine: HESimulator, values) -> BlockVector:
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size < 1:
        raise ValueError("cannot split an empty vector")
    b = block_size_for(engine)
    count = max(1, math.ceil(v.size / b))
    blocks = tuple(engine.encrypt(v[i * b : (i + 1) * b]) for i in range(count))
    return BlockVector(blocks=blocks, block_size=b, total_len=v.size)


def block_merge(engine: HESimulator, bv: BlockVector) -> np.ndarray:
    parts = [engine.decrypt(blk)[: bv.valid_in(i)] for i, blk in enumerate(bv.blocks)]
    return np.concatenate(parts)


def block_pack(engine: HESimulator, bv: BlockVector) -> Ciphertext:
    """Pack the per-block row-0 prefixes contiguously into one ciphertext.

    Requires the merged vector to fit the slot count.  Each block is
    assumed to carry data only in row 0, which holds for split inputs and
    for every block-pipeline output, so packing is a rotation per block
    and no multiplications.
    """
    if bv.total_len > engine.params.slot_count:
        raise CapacityError(
            f"merged vector of length {bv.total_len} does not fit "
            f"{engine.params.slot_count} slots"
        )
    packed = bv.blocks[0]
    for i, blk in enumerate(bv.blocks[1:], start=1):
        packed = engine.add(packed, engine.rotate(blk, -i * bv.block_size))
    return packed


def multi_rank_pipeline(
    engine: HESimulator,
    bv: BlockVector,
    cfg: KernelConfig,
    *,
    tie_correction: bool = False,
) -> MultiRankPipeline:
    """Blockwise ranking with complement reuse.

    Only the L(L+1)/2 ordered block pairs are compared; the remaining
    comparisons are recovered column-wise from 1 - C and transposed once
    per block after summation.
    """
    b, count = bv.block_size, len(bv.blocks)
    layout = MatrixLayout(b, engine.params.slot_count)
    valid_last = bv.valid_in(count - 1)
    padded = valid_last < b

    row_rep = [replicate(engine, blk, layout, "row") for blk in bv.blocks]
    col_rep = [
        replicate(engine, transpose_vector(engine, blk, layout, "row_to_col"), layout, "col")
        for blk in bv.blocks
    ]

    comparisons = {}
    for i in range(count):
        for j in range(i, count):
            c = compare_kernel(engine, row_rep[i], col_rep[j], cfg)
            if padded and j == count - 1:
                # rows belonging to padding entries of the last block carry
                # comparisons against zeros; drop them before any aggregation
                c = engine.mul_plain(
                    c, _row_band_mask(layout.slot_count, b, valid_last), site="block-pad-mask"
                )
            comparisons[(i, j)] = c

    equalities = {}
    if tie_correction:
        equalities = {p: equality_from_compare(engine, c) for p, c in comparisons.items()}

    rank_blocks = []
    for i in range(count):
        upper = comparisons[(i, i)]
        for j in range(i + 1, count):
            upper = engine.add(upper, comparisons[(i, j)])
        total = sum_axis(engine, upper, layout, "row")
        if i > 0:
            lower = None
            for j in range(i):
                flipped = engine.add_plain(engine.negate(comparisons[(j, i)]), 1.0)
                lower = flipped if lower is None else engine.add(lower, flipped)
            lower_row = transpose_vector(
                engine, sum_axis(engine, lower, layout, "col"), layout, "col_to_row"
            )
            total = engine.add(total, lower_row)
        valid_i = bv.valid_in(i)
        ranks_i = engine.add_plain(
            total, _prefix_vector(layout.slot_count, b, valid_i, 0.5, "row")
        )
        if tie_correction:
            ranks_i = engine.add(
                ranks_i, _block_tie_offset(engine, equalities, i, count, valid_i, layout)
            )
        if padded and i == count - 1:
            ranks_i = engine.mul_plain(
                ranks_i, _prefix_vector(layout.slot_count, b, valid_i, 1.0, "row"),
                site="block-valid-mask",
            )
        rank_blocks.append(ranks_i)

    ranks = BlockVector(blocks=tuple(rank_blocks), block_size=b, total_len=bv.total_len)
    return MultiRankPipeline(
        ranks=ranks,
        comparisons=comparisons,
        row_replicated=row_rep,
        col_replicated=col_rep,
        layout=layout,
    )


def _block_tie_offset(engine, equalities, i, count, valid_i, layout):
    # Blockwise extension of the tie-correction offset: equality blocks for
    # j < i are reused column-wise (the equality matrix is symmetric under
    # the complement), the own-block triangle includes the diagonal.
    b = layout.n_dim
    cross_row = None
    if i > 0:
        cross = equalities[(0, i)]
        for j in range(1, i):
            cross = engine.add(cross, equalities[(j, i)])
        cross_row = transpose_vector(
            engine, sum_axis(engine, cross, layout, "col"), layout, "col_to_row"
        )
    own = equalities[(i, i)]
    diag = sum_axis(
        engine,
        engine.mul_plain(own, _triangle_mask(layout.slot_count, b, "upper", 1.0), site="tie-triangle"),
        layout,
        "row",
    )
    tie_total = own
    for j in range(i + 1, count):
        tie_total = engine.add(tie_total, equalities[(i, j)])
    tie_total_row = sum_axis(engine, tie_total, layout, "row")

    position = diag if cross_row is None else engine.add(diag, cross_row)
    total = tie_total_row if cross_row is None else engine.add(tie_total_row, cross_row)
    offset = engine.sub(position, engine.mul_plain(total, 0.5, site="tie-total"))
    return engine.add_plain(offset, _prefix_vector(layout.slot_count, b, valid_i, -0.5, "row"))


def multi_rank(
    engine: HESimulator,
    bv: BlockVector,
    cfg: KernelConfig,
    *,
    tie_correction: bool = False,
) -> BlockVector:
    """Per-block fractional (or tie-corrected) ranks of a block vector."""
    return multi_rank_pipeline(engine, bv, cfg, tie_correction=tie_correction).ranks
