"""Fractional ranking of packed vectors with one comparison evaluation.

The input vector is replicated across matrix rows and, transposed, across
matrix columns; a single slotwise comparison of the two encodings yields
the full pairwise comparison matrix, whose column sums (plus one half) are
the fractional ranks.  A tie-correction offset derived from the same
comparison matrix redistributes tied ranks into a permutation of 1..N.

One block-generic pipeline serves every vector length.  A vector longer
than the matrix capacity is split into L blocks and only the L(L+1)/2
ordered block pairs are compared; a block's comparisons against earlier
blocks come from the complement identity cmp(x, y) = 1 - cmp(y, x), folded
along the other axis and transposed once per block.  A vector that fits
one matrix is the one-block case of the same pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .chebyshev import KernelConfig, compare_ge_kernel, compare_gt_kernel, compare_kernel
from .engine import CapacityError, Ciphertext, HESimulator
from .matrix import MatrixLayout, replicate, sum_axis, transpose_vector

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
def _pad_mask(slot_count: int, n_dim: int, rows: int, cols: int) -> np.ndarray:
    m = np.zeros(slot_count)
    grid = np.zeros((n_dim, n_dim))
    grid[:rows, :cols] = 1.0
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


def read_row(engine: HESimulator, ct: Ciphertext, count: int) -> np.ndarray:
    """First ``count`` slots of row 0."""
    return engine.decrypt(ct)[:count]


def read_col(engine: HESimulator, ct: Ciphertext, layout: MatrixLayout, count: int) -> np.ndarray:
    """First ``count`` entries of column 0."""
    return engine.decrypt(ct)[0 : count * layout.n_dim : layout.n_dim]


def _strict(engine: HESimulator, c: Ciphertext) -> Ciphertext:
    # c(2c - 1) maps a fractional comparison {0, 1/2, 1} to the strict {0, 0, 1}
    twice_less_one = engine.add_plain(engine.add(c, c), -1.0)
    return engine.mul(c, twice_less_one, site="tie-strict")


def multi_rank_pipeline(
    engine: HESimulator,
    bv: BlockVector,
    cfg: KernelConfig,
    *,
    comparison: str = "fractional",
    column_form: bool = False,
    tie_correction: bool = False,
) -> MultiRankPipeline:
    """Ranks of every block, in row 0 of each (column 0 in column form).

    Only the L(L+1)/2 ordered block pairs are compared: block i against
    blocks j >= i.  Its ranks are the own-axis fold of C_ii + sum_{j>i} C_ij
    plus, for the earlier blocks, i*B minus the other-axis fold of
    sum_{j<i} C_ji, transposed.  Tie correction orders equal values of
    different blocks by block, which makes every cross-block comparison
    strict, and adds ``tie_offset`` of each block against itself.  Zero
    padding of the last block is masked out of its comparisons, so padded
    entries rank 0.  The complement identity holds for the fractional
    kernel only, so the strict and weak kernels take one block and raise
    ``ValueError`` on more.
    """
    b, count = bv.block_size, len(bv.blocks)
    if comparison != "fractional" and count > 1:
        raise ValueError(
            f"multi_rank_pipeline: the {comparison} comparison has no complement "
            f"identity across blocks; it ranks one block, not {count}"
        )
    layout = MatrixLayout(b, engine.params.slot_count)
    kernel, bias = _KERNELS[comparison]
    axis, other, direction = ("col", "row", "row_to_col") if column_form else ("row", "col", "col_to_row")

    row_rep = [replicate(engine, blk, layout, "row") for blk in bv.blocks]
    col_rep = [
        replicate(engine, transpose_vector(engine, blk, layout, "row_to_col"), layout, "col")
        for blk in bv.blocks
    ]
    own_rep, other_rep = (col_rep, row_rep) if column_form else (row_rep, col_rep)

    comparisons = {}
    for i in range(count):
        for j in range(i, count):
            c = kernel(engine, own_rep[i], other_rep[j], cfg)
            valid_i, valid_j = bv.valid_in(i), bv.valid_in(j)
            if valid_j < b:
                # cells against zero padding would count as comparisons
                rows, cols = (valid_i, valid_j) if column_form else (valid_j, valid_i)
                c = engine.mul_plain(c, _pad_mask(layout.slot_count, b, rows, cols), site="pad-mask")
            comparisons[(i, j)] = c

    cross = {}
    rank_blocks = []
    for i in range(count):
        valid = bv.valid_in(i)
        for j in range(i + 1, count):
            c = comparisons[(i, j)]
            cross[(i, j)] = _strict(engine, c) if tie_correction else c
        own = reduce(engine.add, (cross[(i, j)] for j in range(i + 1, count)), comparisons[(i, i)])
        ranks = sum_axis(engine, own, layout, axis)
        if i > 0:
            earlier = reduce(engine.add, (cross.pop((j, i)) for j in range(i)))
            folded = sum_axis(engine, earlier, layout, other)
            ranks = engine.sub(ranks, transpose_vector(engine, folded, layout, direction))
        shift = bias + i * b
        if shift != 0.0:
            ranks = engine.add_plain(ranks, _prefix_vector(layout.slot_count, b, valid, shift, axis))
        if tie_correction:
            offset = tie_offset(engine, comparisons[(i, i)], layout, valid=valid, column_form=column_form)
            ranks = engine.add(ranks, offset)
        rank_blocks.append(ranks)

    return MultiRankPipeline(
        ranks=BlockVector(blocks=tuple(rank_blocks), block_size=b, total_len=bv.total_len),
        comparisons=comparisons,
        row_replicated=row_rep,
        col_replicated=col_rep,
        layout=layout,
    )


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
    which lets the sorting pipeline skip the final transposition.  This is
    the one-block case of the block pipeline.
    """
    if n < 1:
        raise ValueError("vector length must be >= 1")
    side = next_pow2(n)
    if side * side > engine.params.slot_count:
        raise CapacityError(
            f"vector of length {n} needs a {side}x{side} matrix "
            f"({side * side} slots > {engine.params.slot_count}); split into blocks"
        )
    pipe = multi_rank_pipeline(
        engine, BlockVector(blocks=(ct,), block_size=side, total_len=n), cfg,
        comparison=comparison, column_form=column_form, tie_correction=tie_correction,
    )
    result = RankResult(ranks=pipe.ranks.blocks[0], layout=pipe.layout, corrected=tie_correction)
    return RankPipeline(result, pipe.comparisons[(0, 0)], pipe.row_replicated[0], pipe.col_replicated[0])


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
    """Offset vector redistributing tied fractional ranks of one block.

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
    orient, axis = ("lower", "col") if column_form else ("upper", "row")
    counted = engine.mul_plain(
        quarter_eq, _triangle_mask(layout.slot_count, side, orient, 4.0), site="tie-triangle"
    )
    doubled = engine.mul_plain(quarter_eq, 2.0, site="tie-total")
    position_in_tie = sum_axis(engine, counted, layout, axis)
    half_tie_size = sum_axis(engine, doubled, layout, axis)
    offset = engine.sub(position_in_tie, half_tie_size)
    return engine.add_plain(offset, _prefix_vector(layout.slot_count, side, valid, -0.5, axis))


# ----------------------------------------------------------------------
# multi-ciphertext encoding
# ----------------------------------------------------------------------


def block_size_for(engine: HESimulator) -> int:
    """Largest power-of-two block side whose square matrix fits the slots."""
    log_slots = engine.params.slot_count.bit_length() - 1
    return 1 << (log_slots // 2)


def block_split(engine: HESimulator, values) -> BlockVector:
    """Encrypt ``values`` in blocks; a vector that fits one matrix is one block."""
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size < 1:
        raise ValueError("cannot split an empty vector")
    b = min(block_size_for(engine), next_pow2(v.size))
    count = math.ceil(v.size / b)
    blocks = tuple(engine.encrypt(v[i * b : (i + 1) * b]) for i in range(count))
    return BlockVector(blocks=blocks, block_size=b, total_len=v.size)


def block_merge(engine: HESimulator, bv: BlockVector) -> np.ndarray:
    parts = [engine.decrypt(blk)[: bv.valid_in(i)] for i, blk in enumerate(bv.blocks)]
    return np.concatenate(parts)


def multi_rank(
    engine: HESimulator,
    bv: BlockVector,
    cfg: KernelConfig,
    *,
    tie_correction: bool = False,
) -> BlockVector:
    """Per-block fractional (or tie-corrected) ranks of a block vector."""
    return multi_rank_pipeline(engine, bv, cfg, tie_correction=tie_correction).ranks
