"""Sorting by extracting every order statistic at once.

The ranking is replicated across the matrix, each column is shifted by a
different target rank, and a single indicator evaluation turns the result
into a permutation mask; multiplying by the replicated input and summing
recovers the sorted vector.  The ranks land in column 0, so the sort
reuses the ranking step's column replications of the input and its values
land in row 0 with no final transposition.

One placement step serves every vector length: a block vector of L blocks
runs it once per (output block, rank block) pair, and a vector that fits
one matrix is the one-block case.
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass
from functools import lru_cache

from .chebyshev import KernelConfig, indicator_kernel, with_input_range
from .engine import Ciphertext, HESimulator, caller_path
from .matrix import MatrixLayout, grid_plain, replicate, sum_axis
from .ranking import BlockVector, block_merge, multi_rank_pipeline, rank_pipeline

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
    ranks: Ciphertext
    layout: MatrixLayout


@lru_cache(maxsize=None)
def _neg_rank_targets(slot_count: int, n_dim: int, start: int) -> np.ndarray:
    # column c of the plain matrix holds -(start+c); -0.0 outside the
    # matrix, as negating the targets gives
    m = -grid_plain(slot_count, np.tile(np.arange(start, start + n_dim, dtype=np.float64), (n_dim, 1)))
    m.setflags(write=False)
    return m


def _require_distinct(values: np.ndarray):
    """Without tie correction, tied values collapse onto one rank and the
    sorted output is wrong; the simulator sees the cleartext, so say so."""
    if np.unique(values).size < values.size:
        raise ValueError(
            f"{caller_path()}: input has tied values but tie_correction=False; "
            "enable tie_correction for inputs that may contain duplicates"
        )


def _place(engine, ranks, replicated, layout, kernel_cfg):
    # Output block i holds sorted positions i*B+1..(i+1)*B: the ranks of
    # block j, in column 0, are spread across the columns, column c is
    # shifted by the target i*B+1+c, and the indicator turns that into a
    # selection mask; multiplied by the column-replicated input block j and
    # folded along the rows, it lands the values in row 0.
    # Returns the output blocks and the last selection mask.
    b, count = layout.n_dim, len(ranks)
    window_cfg = with_input_range(kernel_cfg, -float(b * count), float(b * count))
    # each spread ranking is shifted once per output block
    spread = engine.share(*[replicate(engine, r, layout, "col") for r in ranks])
    values = []
    for i in range(count):
        neg_targets = _neg_rank_targets(layout.slot_count, b, start=b * i + 1)
        placed = []
        for j in range(count):
            selection = indicator_kernel(engine, engine.add_plain(spread[j], neg_targets), -0.5, 0.5, window_cfg)
            placed.append(engine.mul(selection, replicated[j]))
        values.append(sum_axis(engine, engine.add(*placed), layout, "row"))
    return values, selection


def sort_full(engine: HESimulator, ct: Ciphertext, n: int, cfg: SortConfig) -> SortResult:
    """Sort the first ``n`` slots ascending; result in row 0.

    Exactly one comparison and one indicator evaluation regardless of n.
    Duplicate elements require tie_correction; without it they would
    collapse onto the same rank, so a ``ValueError`` is raised instead.
    This is the one-block case of ``multi_sort``.
    """
    if not cfg.tie_correction:
        _require_distinct(ct.slots[:n])
    pipe = rank_pipeline(engine, ct, n, cfg.kernel, tie_correction=cfg.tie_correction)
    (values,), selection = _place(engine, pipe.ranks.blocks, pipe.col_replicated, pipe.layout, cfg.kernel)
    return SortResult(values=values, selection=selection, ranks=pipe.ranks.blocks[0], layout=pipe.layout)


def sort(engine: HESimulator, ct: Ciphertext, n: int, cfg: SortConfig) -> Ciphertext:
    """Sorted vector in the first ``n`` slots of row 0."""
    return sort_full(engine, ct, n, cfg).values


def multi_sort(engine: HESimulator, bv: BlockVector, cfg: SortConfig) -> BlockVector:
    """Blockwise sorting: output block i holds sorted positions i*B+1..(i+1)*B.

    Reuses the ranking's replicated input blocks; the indicator runs once
    per (output block, rank block) pair, L^2 evaluations in total, each
    shifted by the global ranks the output block is responsible for.
    Without tie_correction, tied input values raise ``ValueError``.
    """
    if not cfg.tie_correction:
        _require_distinct(block_merge(engine, bv))
    ranking = multi_rank_pipeline(engine, bv, cfg.kernel, tie_correction=cfg.tie_correction)
    values, _ = _place(engine, ranking.ranks.blocks, ranking.col_replicated, ranking.layout, cfg.kernel)
    return BlockVector(blocks=tuple(values), block_size=bv.block_size, total_len=bv.total_len)
