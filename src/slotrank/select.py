"""Order-statistic extraction from the encrypted ranking.

A rank-window indicator on each block's column-0 ranks yields a selection
mask in column 0 (the argmin/argmax answer); the statistic's value is the
inner product of the masks with the blocks' column-replicated inputs,
summed over blocks and divided by the masks' L1 norm through a Goldschmidt
reciprocal.  An even-length median is one window spanning both middle
ranks, whose mask norm is 2, so the division takes their average.  A
vector that fits one matrix is the one-block case, where minimum and
maximum use the strict and weak comparison kernels: duplicated extremes
all land on rank 1 and rank N, and the division normalises the multi-hot
mask away.  Across blocks those kernels have no complement
identity, so the extremes take rank 1 and rank N of the tie-corrected
fractional ranking.

A tie-corrected window of k target ranks holds k distinct ranks, so its
mask norm is k, known in the clear: its reciprocal is seeded at 1/k and
runs only the few steps an inexact chebyshev mask needs (exact in ideal
mode for k = 1, 2).  A norm in slot 0 outside (0, 2k), where that
iteration diverges, raises ``ValueError``.  The strict/weak extremes and
the uncorrected windows select a whole tie group, of a data-dependent
size, and keep the reciprocal over (0.5, n + 0.5).  A padded block's mask
is cut to its valid rows first: a padded entry ranks 0, which a chebyshev
window at k = 1 partly selects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chebyshev import KernelConfig, goldschmidt_inverse, indicator_kernel, with_input_range
from .engine import Ciphertext, HESimulator, caller_path
from .matrix import MatrixLayout, rect_plain, sum_axis
from .ranking import BlockVector, MultiRankPipeline, multi_rank_pipeline, one_block

__all__ = [
    "StatisticQuery",
    "StatisticMask",
    "multi_statistic",
    "order_statistic_mask",
    "order_statistic_value",
    "median",
    "percentile",
]


# Squaring steps of the reciprocal of a tie-corrected window's mask norm,
# seeded at 1/k: 4 leave (1 - norm/k)^64, below 1e-16 while the norm is
# within 55% of k.
_SEEDED_ITERS = 4


def _goldschmidt_iters(n: int) -> int:
    # Squaring steps of the reciprocal that normalises a mask norm of
    # data-dependent size (a strict/weak extreme's or an uncorrected window's
    # tie group), in (0.5, n + 0.5), away: k steps leave a relative error of
    # about exp(-2^(k+1) * 4/n), 1e-14 at k = log2(n) + 2.  Never fewer than 8.
    return max(8, math.ceil(math.log2(n)) + 2)


@dataclass(frozen=True)
class StatisticQuery:
    """What to extract: kind in {"kth", "min", "max", "median", "percentile"}."""

    kind: str
    k: int | None = None
    p: float | None = None

    def __post_init__(self):
        if self.kind not in ("kth", "min", "max", "median", "percentile"):
            raise ValueError(f"unknown statistic kind {self.kind!r}")
        if self.kind == "kth" and (self.k is None or self.k < 1):
            raise ValueError("kind='kth' needs k >= 1")
        if self.kind == "percentile" and (self.p is None or not 0.0 <= self.p <= 100.0):
            raise ValueError("kind='percentile' needs p in [0, 100]")


@dataclass(frozen=True)
class StatisticMask:
    """Selection mask in column 0 of the matrix encoding."""

    mask: Ciphertext
    layout: MatrixLayout


def _resolve(query: StatisticQuery, n: int, blocks: int, tie_correction: bool) -> tuple[str, bool, int, int]:
    """Map a query to (comparison kernel, tie correction, first and last target rank)."""
    kind = query.kind
    if kind == "percentile" and query.p in (0.0, 100.0):
        kind = "min" if query.p == 0.0 else "max"
    if kind in ("min", "max"):
        k = 1 if kind == "min" else n
        if blocks == 1:
            return ("strict" if kind == "min" else "weak"), False, k, k
        return "fractional", True, k, k  # correction makes rank 1 and rank n unique
    if kind == "median":  # the one middle rank, or the two of an even length
        return "fractional", tie_correction, (n + 1) // 2, n // 2 + 1
    k = min(max(int(query.p * n / 100.0 + 0.5), 1), n) if kind == "percentile" else query.k  # nearest rank
    if k > n:
        raise ValueError(f"k={k} out of range for vector length {n}")
    return "fractional", tie_correction, k, k


def _require_selectable(values, first: int, last: int):
    """Without tie correction a tie group at sorted positions a..b shares rank
    (a+b)/2, and the window selects the statistic exactly when every group
    holding a target position has that rank inside (first-1/2, last+1/2).
    The simulator sees the cleartext, so it raises ``ValueError`` if not."""
    ordered = np.sort(values)
    targets = ordered[first - 1 : last]
    shared = (np.searchsorted(ordered, targets, "left") + np.searchsorted(ordered, targets, "right") + 1) / 2
    for p, rank in enumerate(shared, start=first):
        if not first - 0.5 < rank < last + 0.5:
            raise ValueError(
                f"multi_statistic: sorted position {p} shares the tied rank {rank:g}, outside the window of "
                f"target ranks {first}..{last}, so tie_correction=False would miss its value; enable tie_correction"
            )


def _select(engine, bv, query, cfg, tie_correction) -> tuple[MultiRankPipeline, list[Ciphertext], int | None]:
    """The ranking of ``bv``, one window mask per block, and the number of
    target ranks if tie correction makes it the masks' norm (else None)."""
    n = bv.total_len
    comparison, correct, first, last = _resolve(query, n, len(bv.blocks), tie_correction)
    if comparison == "fractional" and not correct:
        _require_selectable(bv.cleartext(), first, last)
    pipe = multi_rank_pipeline(engine, bv, cfg, comparison=comparison, tie_correction=correct)
    # open window: a half-integer fractional rank sitting exactly on the
    # edge (an uncorrected tie) belongs to no target rank.  The fit range
    # must reach down to 0 because the empty slots and the padded entries of
    # the rank vector hold zeros and the fitted polynomial reads every slot.
    window_cfg = with_input_range(cfg, -0.5, n + 0.5)
    sels = [indicator_kernel(engine, ranks, first - 0.5, last + 0.5, window_cfg) for ranks in pipe.ranks.blocks]
    return pipe, sels, (last - first + 1 if correct else None)


def _value_from_masks(engine, pipe: MultiRankPipeline, sels, width: int | None) -> Ciphertext:
    """The masked sum of the inputs over the masks' norm, in slot 0; ``width``
    is the norm the masks promise, or None if it is data-dependent."""
    ranks = pipe.ranks
    valid = ranks.valid_in(len(sels) - 1)
    if valid < ranks.block_size:  # a padded entry ranks 0: keep it out of the norm
        rows = rect_plain(pipe.layout.slot_count, ranks.block_size, 0, valid, 0, 1)
        sels = [*sels[:-1], engine.mul_plain(sels[-1], rows)]
    # each mask and its block's replicated input share column 0; folding the
    # rows of the sums over blocks lands both sums in slot 0
    products = [engine.mul(sel, rep) for sel, rep in zip(sels, pipe.col_replicated)]
    numerator = sum_axis(engine, engine.add(*products), pipe.layout, "row")
    norm = sum_axis(engine, engine.add(*sels), pipe.layout, "row")
    if width is None:
        n = ranks.total_len
        inv = goldschmidt_inverse(engine, norm, (0.5, n + 0.5), _goldschmidt_iters(n))
    else:
        # the simulator sees the cleartext; the other slots hold fold garbage
        got = float(norm.slots[0])
        if not 0.0 < got < 2 * width:
            raise ValueError(
                f"{caller_path()}: mask norm {got:.6g} of a window of {width} target ranks lies outside "
                f"(0, {2 * width}), where its reciprocal seeded at 1/{width} diverges"
            )
        inv = goldschmidt_inverse(engine, norm, (width, width), _SEEDED_ITERS)
    return engine.mul(numerator, inv)


def multi_statistic(
    engine: HESimulator,
    bv: BlockVector,
    query: StatisticQuery,
    cfg: KernelConfig,
    *,
    tie_correction: bool = True,
) -> Ciphertext:
    """Value of the queried statistic of a block vector, in slot 0.

    Without tie correction a tie group shares its mean position as its rank,
    which can fall outside the window of target ranks; such an input raises
    ``ValueError`` rather than select a wrong value.  An even-length median
    selects both middle ranks with one window, and the normalisation by the
    mask norm, 2, averages them.
    """
    return _value_from_masks(engine, *_select(engine, bv, query, cfg, tie_correction))


def order_statistic_mask(
    engine: HESimulator,
    ct: Ciphertext,
    n: int,
    query: StatisticQuery,
    cfg: KernelConfig,
    *,
    tie_correction: bool = True,
) -> StatisticMask:
    """Column-0 selection mask: 1 in the positions whose rank is the queried one
    (both middle ranks, for an even-length median).

    With tie correction the mask has one 1 per target rank; without it, a
    target's whole tie group shares its rank and is selected, and an input
    whose tied rank falls outside the target window raises ``ValueError``.
    """
    pipe, (sel,), _ = _select(engine, one_block(engine, ct, n), query, cfg, tie_correction)
    return StatisticMask(sel, pipe.layout)


def order_statistic_value(
    engine: HESimulator,
    ct: Ciphertext,
    n: int,
    query: StatisticQuery,
    cfg: KernelConfig,
    *,
    tie_correction: bool = True,
) -> Ciphertext:
    """Value of the queried statistic of the first ``n`` slots, in slot 0."""
    return multi_statistic(engine, one_block(engine, ct, n), query, cfg, tie_correction=tie_correction)


def median(
    engine: HESimulator,
    ct: Ciphertext,
    n: int,
    cfg: KernelConfig,
    *,
    tie_correction: bool = True,
) -> Ciphertext:
    """Median in slot 0; the even case averages the two middle statistics
    through one window spanning both."""
    return order_statistic_value(engine, ct, n, StatisticQuery("median"), cfg, tie_correction=tie_correction)


def percentile(engine: HESimulator, ct: Ciphertext, n: int, p: float, cfg: KernelConfig) -> Ciphertext:
    """Nearest-rank percentile; p=0 and p=100 take the min/max paths."""
    return order_statistic_value(engine, ct, n, StatisticQuery("percentile", p=float(p)), cfg)
