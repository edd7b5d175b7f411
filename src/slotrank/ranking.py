"""Fractional ranking of packed vectors with one comparison evaluation.

The input vector is replicated across matrix rows and, transposed, across
matrix columns; a single slotwise comparison of the two encodings yields
the full pairwise comparison matrix, whose row sums (plus one half) are
the fractional ranks, in column 0.  Tie correction adds offset cells
derived from the same comparison matrix before that one fold, which
redistributes tied ranks into a permutation of 1..N.

One block-generic pipeline serves every vector length.  A vector longer
than the matrix capacity is split into L blocks and only the L(L+1)/2
ordered block pairs are compared; a block's comparisons against earlier
blocks come from the complement identity cmp(x, y) = 1 - cmp(y, x), folded
along the rows and transposed once per block.  A vector that fits
one matrix is the one-block case of the same pipeline.

Each block is handled in one pass, and each comparison matrix lives only
until its last reader: block i compares itself with blocks j >= i, folds
those matrices into its own ranks, and adds each cross-block one into a
running sum for block j.  The pipeline so holds O(L) slot vectors at a
time, not O(L^2): an ideal tie-corrected sort of 64 blocks of 64 peaks
at 14 MB (``tracemalloc``) where keeping every matrix took 110 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chebyshev import KernelConfig, compare_kernel, quarter_equality
from .engine import CapacityError, Ciphertext, HESimulator
from .matrix import MatrixLayout, grid_plain, rect_plain, replicate, sum_axis, transpose_vector

__all__ = [
    "RankResult",
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


def next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length() if n > 1 else 1


@dataclass(frozen=True)
class RankResult:
    """Ranks in column 0 of the matrix encoding."""

    ranks: Ciphertext
    layout: MatrixLayout
    corrected: bool


@dataclass(frozen=True)
class BlockVector:
    """A long vector split into equally sized blocks.

    The last block is zero padded; ``total_len`` records how many entries
    are real.  Entries sit ``stride`` slots apart: 1 for a vector in row 0
    (inputs, sorted values), the block side for one in column 0 (ranks).
    Decrypted prefixes concatenate back to the vector.
    """

    blocks: tuple[Ciphertext, ...]
    block_size: int
    total_len: int
    stride: int = 1

    def valid_in(self, i: int) -> int:
        if i < len(self.blocks) - 1:
            return self.block_size
        return self.total_len - (len(self.blocks) - 1) * self.block_size

    def cleartext(self) -> np.ndarray:
        """The entries, read in the clear, as the simulator can."""
        return np.concatenate(
            [blk.slots[: self.valid_in(i) * self.stride : self.stride] for i, blk in enumerate(self.blocks)]
        )


@dataclass
class MultiRankPipeline:
    """The ranks of a block vector and what the sort placement reuses.

    ``col_replicated`` holds each block's column replication, which the sort
    and the statistics multiply by their selection masks.  Nothing else the
    pipeline built is kept: the row replications go when it returns, and
    each comparison matrix as soon as the last block that reads it has
    folded it, so at most O(L) slot vectors live at once.
    """

    ranks: BlockVector
    col_replicated: list[Ciphertext]
    layout: MatrixLayout


@lru_cache(maxsize=None)
def _tie_cell_mask(slot_count: int, n_dim: int) -> np.ndarray:
    rows, cols = np.indices((n_dim, n_dim))
    return grid_plain(slot_count, np.where(cols <= rows, 2.0, -2.0))


def read_row(engine: HESimulator, ct: Ciphertext, count: int) -> np.ndarray:
    """First ``count`` slots of row 0."""
    return engine.decrypt(ct)[:count]


def read_col(engine: HESimulator, ct: Ciphertext, layout: MatrixLayout, count: int) -> np.ndarray:
    """First ``count`` entries of column 0."""
    return engine.decrypt(ct)[0 : count * layout.n_dim : layout.n_dim]


def _strict(engine: HESimulator, c: Ciphertext) -> Ciphertext:
    # c(2c - 1) maps a fractional comparison {0, 1/2, 1} to the strict {0, 0, 1}
    twice_less_one = engine.add_plain(engine.add(c, c), -1.0)
    return engine.mul(c, twice_less_one)


def multi_rank_pipeline(
    engine: HESimulator,
    bv: BlockVector,
    cfg: KernelConfig,
    *,
    tie_correction: bool = False,
) -> MultiRankPipeline:
    """Ranks of every block, in column 0 of each.

    Only the L(L+1)/2 ordered block pairs are compared: block i against
    blocks j >= i, as C_ij = cmp(column-replicated i, row-replicated j).
    Its ranks are the column fold (row sums) of C_ii + sum_{j>i} C_ij plus,
    for the earlier blocks, i*B minus the row fold of sum_{j<i} C_ji,
    transposed.  Tie correction orders equal values of
    different blocks by block, which makes every cross-block comparison
    strict, adds the ``tie_offset`` cells of each block against itself to
    its own comparisons before their fold, and lowers the shift by 1/2.  Zero
    padding of the last block is masked out of its comparisons, so padded
    entries rank 0.

    Block i is done in one pass: its C_ij are computed, folded into its
    ranks, and each cross-block one is added into block j's running sum of
    sum_{i<j} C_ij, the left fold of one n-ary ``add`` with the same doubles
    and charges; block j folds that sum and drops it.  Only the replications,
    block i's row of matrices and the L running sums are ever alive.
    """
    b, count = bv.block_size, len(bv.blocks)
    if bv.stride != 1:  # replicate reads row 0 only
        raise ValueError(f"multi_rank_pipeline: blocks must hold their entries in row 0, not every {bv.stride}th slot")
    layout = MatrixLayout(b, engine.params.slot_count)

    row_rep = [replicate(engine, blk, layout, "row") for blk in bv.blocks]
    col_rep = [
        replicate(engine, transpose_vector(engine, blk, layout, "row_to_col"), layout, "col")
        for blk in bv.blocks
    ]
    engine.share(*row_rep, *col_rep)  # each is compared with every block

    def compared(i: int, j: int) -> Ciphertext:
        c = compare_kernel(engine, col_rep[i], row_rep[j], cfg)
        if bv.valid_in(j) < b:
            # cells against zero padding would count as comparisons
            c = engine.mul_plain(c, rect_plain(layout.slot_count, b, 0, bv.valid_in(i), 0, bv.valid_in(j)))
        return c

    earlier: dict[int, Ciphertext] = {}  # block j's running sum of C_ij over i < j
    rank_blocks = []
    for i in range(count):
        # summed into two blocks' ranks, or into one and its tie offset cells
        mine, *cross = engine.share(*[compared(i, j) for j in range(i, count)])
        if tie_correction:
            cross = [_strict(engine, c) for c in cross]
        # summed into block i's ranks here and block j's running sum
        engine.share(*cross)
        own = engine.add(mine, *cross)
        for j, c in enumerate(cross, i + 1):
            # the left fold of the n-ary add, one addend at a time; realised,
            # so a sum holds one slot vector, not one per addend
            earlier[j] = engine.realise([engine.add(earlier[j], c)])[0] if j in earlier else c
        del cross  # every reader is done: free them before the folds
        if tie_correction:
            own = engine.add(own, tie_offset(engine, mine, layout))
        ranks = sum_axis(engine, own, layout, "col")
        if i > 0:
            folded = sum_axis(engine, earlier.pop(i), layout, "row")
            ranks = engine.sub(ranks, transpose_vector(engine, folded, layout, "row_to_col"))
        shift = 0.5 + i * b - (0.5 if tie_correction else 0.0)
        if shift != 0.0:
            ranks = engine.add_plain(ranks, rect_plain(layout.slot_count, b, 0, bv.valid_in(i), 0, 1, shift))
        rank_blocks.append(ranks)

    return MultiRankPipeline(
        ranks=BlockVector(blocks=tuple(rank_blocks), block_size=b, total_len=bv.total_len, stride=b),
        col_replicated=col_rep,
        layout=layout,
    )


def one_block(engine: HESimulator, ct: Ciphertext, n: int) -> BlockVector:
    """The first ``n`` slots of ``ct`` as a one-block vector; raises
    ``CapacityError`` if its matrix does not fit the slots."""
    if n < 1:
        raise ValueError("vector length must be >= 1")
    side = next_pow2(n)
    if side * side > engine.params.slot_count:
        raise CapacityError(
            f"vector of length {n} needs a {side}x{side} matrix "
            f"({side * side} slots > {engine.params.slot_count}); split into blocks"
        )
    return BlockVector(blocks=(ct,), block_size=side, total_len=n)


def rank_pipeline(
    engine: HESimulator,
    ct: Ciphertext,
    n: int,
    cfg: KernelConfig,
    *,
    tie_correction: bool = False,
) -> MultiRankPipeline:
    """Full ranking pipeline; the first ``n`` slots of ``ct`` hold the vector.

    Ties compare as 1/2, so tied values share their mean fractional rank;
    tie correction breaks them by position into a permutation of 1..n.  The
    ranks land in column 0.  This is the one-block case of the block
    pipeline.
    """
    return multi_rank_pipeline(engine, one_block(engine, ct, n), cfg, tie_correction=tie_correction)


def rank(engine: HESimulator, ct: Ciphertext, n: int, cfg: KernelConfig) -> RankResult:
    """Fractional ranks of the first ``n`` slots, in column 0 of the result."""
    pipe = rank_pipeline(engine, ct, n, cfg)
    return RankResult(pipe.ranks.blocks[0], pipe.layout, corrected=False)


def rank_corrected(engine: HESimulator, ct: Ciphertext, n: int, cfg: KernelConfig) -> RankResult:
    """Tie-corrected ranks: a permutation of 1..n, ties broken by position."""
    pipe = rank_pipeline(engine, ct, n, cfg, tie_correction=True)
    return RankResult(pipe.ranks.blocks[0], pipe.layout, corrected=True)


def tie_offset(engine: HESimulator, cmp_matrix: Ciphertext, layout: MatrixLayout) -> Ciphertext:
    """Tie-offset cells of one block against itself.

    Derives the quarter equality matrix c*(1-c) (1/4 on tied pairs, 0
    elsewhere) from the comparison matrix and scales it by 4 on and below
    the diagonal minus 2 everywhere, so a row of cells sums to the element's
    position inside its tie group less half the group's size.  Folded along
    the columns, less one half, the cells are the offset that redistributes
    tied fractional ranks into a permutation.  The pipeline adds them to the
    block's comparisons before its one rank fold and the half to its rank
    shift, so the offset costs no rotation.  The cells cost one ct-ct and
    one ct-pt product, two levels on top of the comparison matrix.
    """
    quarter_eq = quarter_equality(engine, cmp_matrix)
    return engine.mul_plain(quarter_eq, _tie_cell_mask(layout.slot_count, layout.n_dim))


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
    parts = [engine.decrypt(blk)[: bv.valid_in(i) * bv.stride : bv.stride] for i, blk in enumerate(bv.blocks)]
    return np.concatenate(parts)


def multi_rank(
    engine: HESimulator,
    bv: BlockVector,
    cfg: KernelConfig,
    *,
    tie_correction: bool = False,
) -> BlockVector:
    """Per-block fractional (or tie-corrected) ranks of a block vector, in column 0."""
    return multi_rank_pipeline(engine, bv, cfg, tie_correction=tie_correction).ranks
