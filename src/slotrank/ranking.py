"""Fractional ranking of packed vectors with one comparison evaluation.

The input vector is replicated across matrix rows and, transposed, across
matrix columns; a single slotwise comparison of the two encodings yields
the full pairwise comparison matrix D, cell (r, c) comparing entry c with
entry r.  Its column sums (plus one half) are the fractional ranks, in row
0.  When the matrix fills the slot vector the fold along the rows is an
all-reduce: the ranks land in every row with no mask.  The sort asks
``multi_rank_pipeline`` for ranks spread across the matrix along their
axis; the all-reduce gives that for free, and anywhere else, as for the
one-block sort, which ranks along the columns into column 0, each block's
ranks are replicated as its shift is added.  Tie correction adds offset
cells derived from the same comparison matrix before that one fold, which
redistributes tied ranks into a permutation of 1..N.

A consumer that evaluates a window on the ranks passes the window's fit
interval as a ``chebyshev.FitMap``, and gets the ranks already mapped onto
[-1, 1] in chebyshev mode, so the window pays no input map: no ct-pt
product and no level.  The scale s rides in products and plaintexts the
pipeline makes anyway: a block's tie-corrected cells against itself are
c(s(1 + M) - (sM)c), M the tie-cell grid, one addition fewer than adding
the offset cells; the cross sums' fold carries s in its mask; the shift
is a plaintext mapped in the clear, with the map's offset.  Only each
later block's sum over earlier blocks, off the critical path, and an
uncorrected block's comparisons take a ct-pt for it.

One block-generic pipeline serves every vector length.  A vector longer
than the matrix capacity is split into L blocks and only the L(L+1)/2
ordered block pairs are compared; a block's comparisons against later
blocks come from the complement identity cmp(x, y) = 1 - cmp(y, x), folded
along the columns and transposed once per block.  A vector that fits
one matrix is the one-block case of the same pipeline.

Each block is handled in one pass, and each slot vector lives only while
something still reads it: block i builds its column replication, compares
it with blocks j >= i one at a time, adds each cross-block matrix into its
own sum and into a running sum for block j as it is made, and drops the
replication before its folds.  The pipeline so holds the inputs, their
row replications, the L running sums and the ranks, O(L) slot vectors and
not O(L^2); the sort's placement then holds the inputs, the replications,
the ranks and the output blocks, and one product at a time: 4L + O(1) slot
vectors in all.  An ideal tie-corrected sort of 64 blocks of 64 peaks at
8.7 MB (``tracemalloc``, caches warm), where keeping every matrix took
110 MB and keeping a block's row of them 12.7 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chebyshev import FitMap, KernelConfig, compare_kernel, quarter_equality
from .engine import CapacityError, Ciphertext, HESimulator, caller_path
from .matrix import MatrixLayout, _check_axis, grid_plain, rect_plain, replicate, sum_axis, transpose_vector

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
]


def next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length() if n > 1 else 1


@dataclass(frozen=True)
class RankResult:
    """Ranks in row 0 of the matrix encoding, and in every row when the
    matrix fills the slots."""

    ranks: Ciphertext
    layout: MatrixLayout
    corrected: bool


@dataclass(frozen=True)
class BlockVector:
    """A long vector split into equally sized blocks.

    The last block is zero padded; ``total_len`` records how many entries
    are real.  Entries sit ``stride`` slots apart: 1 for a vector in row 0
    (inputs, ranks), the block side for one in column 0 (sorted values).
    Decrypted prefixes concatenate back to the vector.  ``computed`` is set
    by the pipeline that computed the blocks: ranks of a full matrix fill
    every row, so no computed block vector is ranked again.
    """

    blocks: tuple[Ciphertext, ...]
    block_size: int
    total_len: int
    stride: int = 1
    computed: bool = False

    def valid_in(self, i: int) -> int:
        if i < len(self.blocks) - 1:
            return self.block_size
        return self.total_len - (len(self.blocks) - 1) * self.block_size


@dataclass
class MultiRankPipeline:
    """The ranks of a block vector and what the sort placement reuses.

    The ranks lie along ``axis``: in row 0, or, for the one-block sort, in
    column 0; a sort's ranks are spread to every row or every column.
    ``replicated`` holds each block's input replicated along the same axis,
    which the sort and the statistics multiply by their selection masks.
    Nothing else the pipeline built is kept: a block's replication along
    the other axis goes after its comparisons, and each comparison matrix
    as soon as both sums that read it have taken it, so at most O(L) slot
    vectors live at once.
    """

    ranks: BlockVector
    replicated: list[Ciphertext]
    layout: MatrixLayout
    axis: str = "row"
    fit: FitMap | None = None


def _tie_cells(n_dim: int, axis: str) -> np.ndarray:
    # +2 where the cell's compared entry comes no later than the ranked one
    rows, cols = np.indices((n_dim, n_dim))
    return np.where(rows <= cols if axis == "row" else cols <= rows, 2.0, -2.0)


@lru_cache(maxsize=None)
def _tie_cell_mask(slot_count: int, n_dim: int, axis: str) -> np.ndarray:
    return grid_plain(slot_count, _tie_cells(n_dim, axis))


@lru_cache(maxsize=None)
def _own_cell_plains(slot_count: int, n_dim: int, axis: str, scale: float) -> tuple[np.ndarray, np.ndarray]:
    # s(1 + M) and -sM, M the tie-cell grid
    m = _tie_cells(n_dim, axis)
    return grid_plain(slot_count, scale * (1.0 + m)), grid_plain(slot_count, -scale * m)


@lru_cache(maxsize=None)
def _shift_plain(slot_count: int, n_dim: int, cells: tuple, value: float, offset: float) -> np.ndarray | None:
    # ``value`` on rows [r0, r1) x columns [c0, c1) of the grid, ``offset``
    # on every other slot; None if that is zero everywhere
    m = np.full(slot_count, offset)
    m[: n_dim * n_dim].reshape(n_dim, n_dim)[cells[0] : cells[1], cells[2] : cells[3]] = value
    if not m.any():
        return None
    m.setflags(write=False)
    return m


def read_row(engine: HESimulator, ct: Ciphertext, count: int) -> np.ndarray:
    """First ``count`` slots of row 0."""
    return engine.decrypt(ct)[:count]


def _weak(engine: HESimulator, c: Ciphertext) -> Ciphertext:
    # c(3 - 2c) maps a fractional comparison {0, 1/2, 1} to the weak {0, 1, 1}
    three_less_twice = engine.add_plain(engine.negate(engine.add(c, c)), 3.0)
    return engine.mul(c, three_less_twice)


def _own_cells(engine: HESimulator, c: Ciphertext, layout: MatrixLayout, axis: str, scale: float) -> Ciphertext:
    """A block's tie-corrected cells against itself, times ``scale``:
    s(c + M c(1 - c)) = c (s(1 + M) - (sM) c), M the +-2 tie-cell grid of
    ``tie_offset``; one ct-ct and one ct-pt product, two levels below ``c``
    and one addition fewer than adding the offset cells to ``c``."""
    plus, minus = _own_cell_plains(layout.slot_count, layout.n_dim, axis, scale)
    engine.share(c)  # read by both factors
    return engine.mul(c, engine.add_plain(engine.mul_plain(c, minus), plus))


def _col_rep(engine: HESimulator, blk: Ciphertext, layout: MatrixLayout) -> Ciphertext:
    """A row-0 block transposed to column 0 and copied to every column."""
    return replicate(engine, transpose_vector(engine, blk, layout, "row_to_col"), layout, "col")


def _require_input_blocks(bv: BlockVector, axis: str):
    """Raise ``ValueError`` for blocks the pipeline cannot rank along ``axis``."""
    _check_axis(axis)
    if bv.computed or bv.stride != 1:  # replicate reads row 0 only
        what = "computed blocks" if bv.computed else f"entries every {bv.stride}th slot"
        raise ValueError(f"{caller_path()}: blocks must hold input values in row 0, not {what}")
    if axis == "col" and len(bv.blocks) > 1:  # that branch reads no cross-block sums
        raise ValueError(f"{caller_path()}: only one block ranks along the columns, not {len(bv.blocks)}")


def _require_centred(fit: FitMap | None):
    """Raise ``ValueError`` for a map with an offset: spreading the ranks
    would sum the offset of every line."""
    if fit is not None and fit(0.0) != 0.0:
        interval = f"[{fit.lo:g}, {fit.hi:g}]"
        raise ValueError(f"{caller_path()}: spread ranks need a fit interval centred on 0, not {interval}")


def multi_rank_pipeline(
    engine: HESimulator,
    bv: BlockVector,
    cfg: KernelConfig,
    *,
    tie_correction: bool = False,
    axis: str = "row",
    spread: bool = False,
    fit: FitMap | None = None,
) -> MultiRankPipeline:
    """Ranks of every block, in row 0 of each (column 0 along the columns).

    Only the L(L+1)/2 ordered block pairs are compared: block i against
    blocks j >= i, as D_ij = cmp(row-replicated j, column-replicated i),
    whose cell (r, c) compares entry c of block j with entry r of block i.
    Block i's ranks are the column sums of D_ii plus, for the earlier
    blocks, those of sum_{i'<i} D_i'i; for the later blocks, the number of
    their entries less the row sums of sum_{j>i} D_ij, transposed to row 0.
    Tie correction orders equal values of different blocks by block, which
    makes every cross-block comparison weak (a later block's tied entry
    counts as the greater), adds the ``tie_offset`` cells of each block
    against itself to its own comparisons before their fold, as one product
    of both, and lowers the shift by 1/2.  Zero padding of the last block
    is masked out of its comparisons, so padded entries rank 0.

    Block i is done in one pass (see the module notes): each D_ij, j > i,
    is added into block i's sum_{j>i} D_ij and block j's running sum as it
    is made, both left folds with the charges of one n-ary ``add``.

    ``spread`` covers the matrix with the ranks along ``axis``, as the sort's
    placement reads them.  ``axis="col"`` ranks one block, and refuses more,
    into column 0: the row sums of D_00 with cell (r, c) comparing r with c.

    ``fit``, the map of the window the consumer evaluates on the ranks,
    returns each rank r as its map fit(r) = fit.scale * r + fit(0), and
    every slot off the ranks, padded entries too, as fit(0), the map of
    rank 0 (see the module notes); spread ranks need fit(0) = 0.  Without
    it the ranks are true ranks.
    """
    _require_input_blocks(bv, axis)
    if spread:
        _require_centred(fit)
    scale, mapped = (fit.scale, fit) if fit is not None else (1.0, float)
    b, count = bv.block_size, len(bv.blocks)
    layout = MatrixLayout(b, engine.params.slot_count)

    # each row replication is compared with every block; block i's column
    # replication is built when block i is ranked and dropped after its
    # comparisons, but block 0's is read here, so a one-block run keeps the
    # order of its ops and noise draws
    row_rep = [replicate(engine, blk, layout, "row") for blk in bv.blocks]
    col = _col_rep(engine, bv.blocks[0], layout)
    engine.share(*row_rep, col)
    replicated = row_rep if axis == "row" else [col]

    def compared(col: Ciphertext, i: int, j: int) -> Ciphertext:
        pair = (row_rep[j], col) if axis == "row" else (col, row_rep[j])
        c = compare_kernel(engine, *pair, cfg)
        if bv.valid_in(j) < b:
            # cells against zero padding would count as comparisons
            c = engine.mul_plain(c, rect_plain(layout.slot_count, b, 0, bv.valid_in(i), 0, bv.valid_in(j)))
        return c

    earlier: dict[int, Ciphertext] = {}  # block j's running sum of D_ij over i < j
    rank_blocks = []
    for i in range(count):
        if i > 0:
            col = engine.share(_col_rep(engine, bv.blocks[i], layout))[0]  # compared with blocks i..L-1
        mine = engine.share(compared(col, i, i))[0]  # the tie cells read it twice
        cross_sum = None
        for j in range(i + 1, count):
            # each D_ij is added into sum_{j>i} D_ij and block j's running
            # sum as it is made: both are left folds of binary adds, so one
            # D_ij is alive at a time, and the raw one only until it is mapped
            c = engine.share(compared(col, i, j))[0]  # the weak map reads it twice
            if tie_correction:
                c = engine.share(_weak(engine, c))[0]  # read by both sums
            cross_sum = c if cross_sum is None else engine.add(cross_sum, c)
            earlier[j] = engine.share(engine.add(earlier[j], c))[0] if j in earlier else c
        c = col = None  # every reader is done: free them before the folds
        if axis == "col":
            row_rep = None  # only the comparison reads them; the placement multiplies col
        if tie_correction:
            own = _own_cells(engine, mine, layout, axis, scale)
            if i > 0:  # off the critical path: the weak map put it a level below D
                own = engine.add(own, engine.mul_plain(earlier.pop(i), scale))
        else:
            own = engine.mul_plain(engine.add(mine, earlier.pop(i)) if i > 0 else mine, scale)
        if axis == "col":
            ranks = sum_axis(engine, own, layout, "col")
        else:
            less = None
            if cross_sum is not None:
                # the later blocks' entries below entry r are their count, in
                # the shift, less the row sums of sum_j D_ij, moved to row 0;
                # the fold's mask scales them
                less = transpose_vector(engine, sum_axis(engine, cross_sum, layout, "col", scale), layout, "col_to_row")
                if spread and layout.full:
                    # subtracted before the all-reduce, it reaches every row,
                    # at log2 B more rotations on its critical path
                    own, less = engine.sub(own, less), None
            ranks = sum_axis(engine, own, layout, "row")
            if less is not None:
                # after the fold: before a mask it would cost one more level
                ranks = engine.sub(ranks, less)
        valid = bv.valid_in(i)
        rows = b if layout.full else 1
        cells = (0, rows, 0, valid) if axis == "row" else (0, valid, 0, 1)
        # the mapped shift carries the map's offset, and every other slot,
        # padded entries too, reads the map of rank 0
        shift = mapped(0.5 + (bv.total_len - i * b - valid) - (0.5 if tie_correction else 0.0))
        plain = _shift_plain(layout.slot_count, b, cells, shift, mapped(0.0))
        if plain is not None:
            ranks = engine.add_plain(ranks, plain)
        if spread and not (axis == "row" and layout.full):
            # only a full matrix's row fold is an all-reduce: spread the
            # rest here, so that no unspread copy outlives its block
            ranks = replicate(engine, ranks, layout, axis)
        rank_blocks.append(ranks)

    return MultiRankPipeline(
        ranks=BlockVector(
            blocks=tuple(rank_blocks), block_size=b, total_len=bv.total_len,
            stride=1 if axis == "row" else b, computed=True,
        ),
        replicated=replicated,
        layout=layout,
        axis=axis,
        fit=fit,
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
    ranks land in row 0, and in every row when the matrix fills the slots.
    This is the one-block case of the block pipeline.
    """
    return multi_rank_pipeline(engine, one_block(engine, ct, n), cfg, tie_correction=tie_correction)


def rank(engine: HESimulator, ct: Ciphertext, n: int, cfg: KernelConfig) -> RankResult:
    """Fractional ranks of the first ``n`` slots, in row 0 of the result."""
    pipe = rank_pipeline(engine, ct, n, cfg)
    return RankResult(pipe.ranks.blocks[0], pipe.layout, corrected=False)


def rank_corrected(engine: HESimulator, ct: Ciphertext, n: int, cfg: KernelConfig) -> RankResult:
    """Tie-corrected ranks: a permutation of 1..n, ties broken by position."""
    pipe = rank_pipeline(engine, ct, n, cfg, tie_correction=True)
    return RankResult(pipe.ranks.blocks[0], pipe.layout, corrected=True)


def tie_offset(engine: HESimulator, cmp_matrix: Ciphertext, layout: MatrixLayout, axis: str = "row") -> Ciphertext:
    """Tie-offset cells of one block against itself, for ranks folded into
    row 0 (``axis="row"``) or column 0.

    Derives the quarter equality matrix c*(1-c) (1/4 on tied pairs, 0
    elsewhere) from the comparison matrix and scales it by 4 where the
    compared entry comes no later than the ranked one, minus 2 everywhere,
    so a column (row) of cells sums to the element's position inside its tie
    group less half the group's size.  Folded along the rows (columns), less
    one half, the cells are the offset that redistributes tied fractional
    ranks into a permutation.  The cells cost one ct-ct and one ct-pt
    product, two levels on top of the comparison matrix.

    No pipeline calls this: ``multi_rank_pipeline`` builds the comparisons
    plus these cells as one product, c(s(1 + M) - (sM)c), with the same
    products and levels, one addition fewer, and the scale of its fit map.
    It stays while the benchmark's tracer names it.
    """
    quarter_eq = quarter_equality(engine, cmp_matrix)
    return engine.mul_plain(quarter_eq, _tie_cell_mask(layout.slot_count, layout.n_dim, axis))


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
    """Per-block fractional (or tie-corrected) ranks of a block vector, in row 0."""
    return multi_rank_pipeline(engine, bv, cfg, tie_correction=tie_correction).ranks
