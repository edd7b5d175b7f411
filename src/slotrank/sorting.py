"""Sorting by extracting every order statistic at once.

The ranking is spread across the matrix, each line across it is shifted by
a different target rank, and a single indicator evaluation turns the
result into a permutation mask; multiplying by the replicated input and
summing recovers the sorted vector.  The sort reuses the ranking step's
replications of the input along the ranks' axis.  A block vector ranks
along the rows, and its values land in column 0; on a matrix that fills
the slots the rank fold is an all-reduce that leaves the ranks in every
row, so spreading them costs nothing.  ``sort`` ranks one block along the
columns on every geometry, so its values land in row 0 with no
transposition; they are folded there by ``matrix.sum_axis(x, "row")``,
which on a matrix that fills the slots is an all-reduce with no mask, so
they then fill every row.

One placement step serves every vector length: a block vector of L blocks
runs it once per (output block, rank block) pair, and ``sort`` is the
one-block case along the other axis.  The ranking builds the ranks already
mapped onto the placement window's fit interval, [-BL, BL] for L blocks of
side B, and the targets are mapped in the clear, so none of the L^2
windows maps its input: no ct-pt product and no level each.
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass
from functools import lru_cache

from .chebyshev import FitMap, KernelConfig, fit_map, indicator_kernel, with_input_range
from .engine import Ciphertext, HESimulator, caller_path
from .matrix import grid_plain, sum_axis
from .ranking import BlockVector, MultiRankPipeline, block_merge, multi_rank_pipeline, one_block

__all__ = ["SortConfig", "SortResult", "sort", "sort_full", "multi_sort"]


@dataclass(frozen=True)
class SortConfig:
    """tie_correction must stay on unless the caller asserts distinct values;
    without it, sorting tied input raises ``ValueError``."""

    kernel: KernelConfig
    tie_correction: bool = True


@dataclass
class SortResult:
    values: Ciphertext
    selection: Ciphertext


@lru_cache(maxsize=None)
def _neg_rank_targets(slot_count: int, n_dim: int, start: int, fold: str, scale: float) -> np.ndarray:
    # -s(start+k) along the line the values land on: row k of the plain
    # matrix for a fold into column 0, column k for one into row 0; -0.0
    # outside the matrix, as negating the targets gives
    targets = scale * np.tile(np.arange(start, start + n_dim, dtype=np.float64), (n_dim, 1))
    m = -grid_plain(slot_count, targets.T if fold == "col" else targets)
    m.setflags(write=False)
    return m


def _placement_fit(cfg: KernelConfig, bv: BlockVector) -> FitMap:
    # a rank less a target lies within the number of slots the blocks hold
    span = float(bv.block_size * len(bv.blocks))
    return fit_map(cfg, -span, span)


def _require_distinct(values: np.ndarray):
    """Without tie correction, tied values collapse onto one rank and the
    sorted output is wrong; the simulator sees the cleartext, so say so."""
    if np.unique(values).size < values.size:
        raise ValueError(
            f"{caller_path()}: input has tied values but tie_correction=False; "
            "enable tie_correction for inputs that may contain duplicates"
        )


def _place(engine: HESimulator, pipe: MultiRankPipeline, kernel_cfg: KernelConfig):
    # Output block i holds sorted positions i*B+1..(i+1)*B: the ranks of
    # block j cover the matrix along the pipeline's axis, the line k across
    # it is shifted by the target i*B+1+k, and the indicator turns that into
    # a selection mask; multiplied by input block j replicated along the same
    # axis and folded across it, it lands the values in column 0 (ranks in
    # every row) or row 0 (ranks in every column), in every row when that
    # fold is cyclic.  Returns the output blocks and the last selection mask.
    layout, fit = pipe.layout, pipe.fit
    ranks = engine.share(*pipe.ranks.blocks)  # each is shifted once per output block
    b, count = layout.n_dim, len(ranks)
    fold = "col" if pipe.axis == "row" else "row"
    window_cfg, edges = with_input_range(kernel_cfg, *fit.input_range), (fit(-0.5), fit(0.5))
    values = []
    for i in range(count):
        neg_targets = _neg_rank_targets(layout.slot_count, b, b * i + 1, fold, fit.scale)
        total = None
        for j in range(count):
            selection = indicator_kernel(engine, engine.add_plain(ranks[j], neg_targets), *edges, window_cfg)
            # a running left fold: one product is alive at a time, and the
            # sum has the doubles and charges of one n-ary add
            placed = engine.mul(selection, pipe.replicated[j])
            total = placed if total is None else engine.add(total, placed)
        values.append(sum_axis(engine, total, layout, fold))
    return values, selection


def sort_full(engine: HESimulator, ct: Ciphertext, n: int, cfg: SortConfig) -> SortResult:
    """Sort the first ``n`` slots ascending; result in row 0, and in every
    row when the matrix fills the slots.

    Exactly one comparison and one indicator evaluation regardless of n.
    Duplicate elements require tie_correction; without it they would
    collapse onto the same rank, so a ``ValueError`` is raised instead.
    The one block is ranked along the columns and its ranks spread to every
    column, so column k of the selection picks the element of rank k+1.
    The placed values are folded over the rows by ``sum_axis``: on a
    matrix that fills the slots its rotations are cyclic, and with no mask,
    one ct-pt product and one level fewer, the sorted values fill every
    row; otherwise the mask keeps them in row 0 and zeroes the other slots.
    """
    if not cfg.tie_correction:
        _require_distinct(ct.slots[:n])
    bv = one_block(engine, ct, n)
    pipe = multi_rank_pipeline(
        engine, bv, cfg.kernel, tie_correction=cfg.tie_correction, axis="col", spread=True,
        fit=_placement_fit(cfg.kernel, bv),
    )
    (values,), selection = _place(engine, pipe, cfg.kernel)
    return SortResult(values=values, selection=selection)


def sort(engine: HESimulator, ct: Ciphertext, n: int, cfg: SortConfig) -> Ciphertext:
    """Sorted vector in the first ``n`` slots of row 0; on a matrix that
    fills the slots, in every row (see ``sort_full``)."""
    return sort_full(engine, ct, n, cfg).values


def multi_sort(engine: HESimulator, bv: BlockVector, cfg: SortConfig) -> BlockVector:
    """Blockwise sorting: output block i holds sorted positions i*B+1..(i+1)*B,
    in column 0 (``stride`` B, which ``block_merge`` reads).

    Reuses the ranking's replicated input blocks; the indicator runs once
    per (output block, rank block) pair, L^2 evaluations in total, each
    shifted by the global ranks the output block is responsible for.
    Without tie_correction, tied input values raise ``ValueError``.
    """
    if not cfg.tie_correction:
        _require_distinct(block_merge(engine, bv))
    ranking = multi_rank_pipeline(
        engine, bv, cfg.kernel, tie_correction=cfg.tie_correction, spread=True, fit=_placement_fit(cfg.kernel, bv)
    )
    values, _ = _place(engine, ranking, cfg.kernel)
    b = bv.block_size
    return BlockVector(blocks=tuple(values), block_size=b, total_len=bv.total_len, stride=b, computed=True)
