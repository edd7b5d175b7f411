"""Sorting by extracting every order statistic at once.

The ranking is replicated across the matrix, each row is shifted by a
different target rank, and a single indicator evaluation turns the result
into a permutation mask; multiplying by the replicated input and summing
recovers the sorted vector.  The default layout keeps the ranking in
column form, which reuses both replication products of the ranking step
and saves the final transposition.
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass
from functools import lru_cache

from .chebyshev import KernelConfig, indicator_kernel, with_input_range
from .engine import Ciphertext, HESimulator
from .matrix import MatrixLayout, replicate, sum_axis, transpose_vector
from .ranking import BlockVector, multi_rank_pipeline, rank_pipeline

__all__ = ["SortConfig", "SortResult", "sort", "sort_full", "multi_sort"]


@dataclass(frozen=True)
class SortConfig:
    """tie_correction must stay on unless the caller asserts distinct values;
    without it, sorting tied input raises ``ValueError``.

    optimized_layout runs the ranking in column form (fewer rotations); the
    row-form path is kept for budget comparisons and ends with an explicit
    transposition of the result vector.
    """

    kernel: KernelConfig
    tie_correction: bool = True
    optimized_layout: bool = True


@dataclass
class SortResult:
    values: Ciphertext
    selection: Ciphertext
    ranks: Ciphertext
    layout: MatrixLayout


@lru_cache(maxsize=None)
def _neg_rank_targets(slot_count: int, n_dim: int, axis: str, start: int = 1) -> np.ndarray:
    # row r of the plain matrix holds -(start+r) everywhere (axis="row"), or
    # column c holds -(start+c) (axis="col"); -0.0 outside the matrix, as
    # negating the targets gives
    grid = np.arange(start, start + n_dim, dtype=np.float64)
    block = np.tile(grid[:, None], (1, n_dim)) if axis == "row" else np.tile(grid, (n_dim, 1))
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


def sort_full(engine: HESimulator, ct: Ciphertext, n: int, cfg: SortConfig) -> SortResult:
    """Sort the first ``n`` slots ascending; result in row 0.

    Exactly one comparison and one indicator evaluation regardless of n.
    Duplicate elements require tie_correction; without it they would
    collapse onto the same rank, so a ``ValueError`` is raised instead.
    """
    if not cfg.tie_correction:
        _require_distinct(ct.slots[:n], "sort_full")
    kernel_cfg = cfg.kernel
    pipe = rank_pipeline(
        engine,
        ct,
        n,
        kernel_cfg,
        column_form=cfg.optimized_layout,
        tie_correction=cfg.tie_correction,
    )
    side = pipe.result.layout.n_dim
    layout = pipe.result.layout
    window_cfg = with_input_range(kernel_cfg, -float(side), float(side))

    if cfg.optimized_layout:
        spread = replicate(engine, pipe.result.ranks, layout, "col")
        shifted = engine.add_plain(spread, _neg_rank_targets(layout.slot_count, side, "col"))
        selection = indicator_kernel(engine, shifted, -0.5, 0.5, window_cfg, boundary="open")
        placed = engine.mul(selection, pipe.col_replicated, site="sort-place")
        values = sum_axis(engine, placed, layout, "row")
    else:
        spread = replicate(engine, pipe.result.ranks, layout, "row")
        shifted = engine.add_plain(spread, _neg_rank_targets(layout.slot_count, side, "row"))
        selection = indicator_kernel(engine, shifted, -0.5, 0.5, window_cfg, boundary="open")
        placed = engine.mul(selection, pipe.row_replicated, site="sort-place")
        values = transpose_vector(
            engine, sum_axis(engine, placed, layout, "col"), layout, "col_to_row"
        )
    return SortResult(values=values, selection=selection, ranks=pipe.result.ranks, layout=layout)


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
    ranking = multi_rank_pipeline(engine, bv, cfg.kernel, tie_correction=cfg.tie_correction)
    layout = ranking.layout
    b, count = bv.block_size, len(bv.blocks)
    window_cfg = with_input_range(cfg.kernel, -float(b * count), float(b * count))

    rank_spread = [
        replicate(engine, blk, layout, "row") for blk in ranking.ranks.blocks
    ]
    out_blocks = []
    for i in range(count):
        acc = None
        neg_targets = _neg_rank_targets(layout.slot_count, b, "row", start=b * i + 1)
        for j in range(count):
            shifted = engine.add_plain(rank_spread[j], neg_targets)
            selection = indicator_kernel(engine, shifted, -0.5, 0.5, window_cfg, boundary="open")
            placed = engine.mul(selection, ranking.row_replicated[j], site="sort-place")
            acc = placed if acc is None else engine.add(acc, placed)
        block = transpose_vector(
            engine, sum_axis(engine, acc, layout, "col"), layout, "col_to_row"
        )
        out_blocks.append(block)
    return BlockVector(blocks=tuple(out_blocks), block_size=b, total_len=bv.total_len)
