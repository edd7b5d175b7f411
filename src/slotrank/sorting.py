"""Sorting by extracting every order statistic at once.

The ranking is replicated across the matrix, each column is shifted by a
different target rank, and a single indicator evaluation turns the result
into a permutation mask; multiplying by the replicated input and summing
recovers the sorted vector.  The ranking runs in column form, so the sort
reuses both replication products of the ranking step and its values land
in row 0 with no final transposition.

One placement step serves every vector length: a block vector of L blocks
runs it once per (output block, rank block) pair, and a vector that fits
one matrix is the one-block case.
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass
from functools import lru_cache

from .chebyshev import KernelConfig, indicator_kernel, with_input_range
from .engine import Ciphertext, HESimulator
from .matrix import MatrixLayout, replicate, sum_axis
from .ranking import BlockVector, multi_rank_pipeline, rank_pipeline

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
    block = np.tile(np.arange(start, start + n_dim, dtype=np.float64), (n_dim, 1))
    m = np.zeros(slot_count)
    m[: n_dim * n_dim] = block.ravel()
    m = -m
    m.setflags(write=False)
    return m


def _require_distinct(values: np.ndarray, pipeline: str):
    """Without tie correction, tied values collapse onto one rank and the
    sorted output is wrong; the simulator sees the cleartext, so say so."""
    if np.unique(values).size < values.size:
        raise ValueError(
            f"{pipeline}: input has tied values but tie_correction=False; "
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
    spread = [replicate(engine, r, layout, "col") for r in ranks]
    values = []
    for i in range(count):
        neg_targets = _neg_rank_targets(layout.slot_count, b, start=b * i + 1)
        acc = None
        for j in range(count):
            shifted = engine.add_plain(spread[j], neg_targets)
            selection = indicator_kernel(engine, shifted, -0.5, 0.5, window_cfg)
            placed = engine.mul(selection, replicated[j], site="sort-place")
            acc = placed if acc is None else engine.add(acc, placed)
        values.append(sum_axis(engine, acc, layout, "row"))
    return values, selection


def sort_full(engine: HESimulator, ct: Ciphertext, n: int, cfg: SortConfig) -> SortResult:
    """Sort the first ``n`` slots ascending; result in row 0.

    Exactly one comparison and one indicator evaluation regardless of n.
    Duplicate elements require tie_correction; without it they would
    collapse onto the same rank, so a ``ValueError`` is raised instead.
    This is the one-block case of ``multi_sort``.
    """
    if not cfg.tie_correction:
        _require_distinct(ct.slots[:n], "sort_full")
    pipe = rank_pipeline(engine, ct, n, cfg.kernel, column_form=True, tie_correction=cfg.tie_correction)
    ranks, layout = pipe.result.ranks, pipe.result.layout
    (values,), selection = _place(engine, [ranks], [pipe.col_replicated], layout, cfg.kernel)
    return SortResult(values=values, selection=selection, ranks=ranks, layout=layout)


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
        _require_distinct(
            np.concatenate([blk.slots[: bv.valid_in(i)] for i, blk in enumerate(bv.blocks)]),
            "multi_sort",
        )
    ranking = multi_rank_pipeline(
        engine, bv, cfg.kernel, column_form=True, tie_correction=cfg.tie_correction
    )
    values, _ = _place(engine, ranking.ranks.blocks, ranking.col_replicated, ranking.layout, cfg.kernel)
    return BlockVector(blocks=tuple(values), block_size=bv.block_size, total_len=bv.total_len)
