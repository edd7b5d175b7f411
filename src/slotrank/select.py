"""Order-statistic extraction from the encrypted ranking.

Every query is one window of target ranks, first..last, of the
tie-corrected fractional ranking: rank 1 for the minimum (argmin), rank n
for the maximum (argmax), rank k for the k-th statistic and the nearest-rank
percentile, and the one or two middle ranks for the median.  Tie correction
breaks ties by position, so the ranks are a permutation of 1..n: the window
selects exactly one entry per target rank, and a tied extreme is selected
once, where the uncorrected ranking would give it a shared rank.

A rank-window indicator on each block's column-0 ranks yields a selection
mask in column 0 (the argmin/argmax answer); the statistic's value is the
inner product of the masks with the blocks' column-replicated inputs,
summed over blocks and divided by the masks' L1 norm.  That norm is the
number of target ranks k = last - first + 1, known in the clear, so the
Goldschmidt reciprocal is seeded at 1/k and runs only the few steps an
inexact chebyshev mask needs (exact in ideal mode for k = 1, 2); a norm in
slot 0 outside (0, 2k), where that iteration diverges, raises
``ValueError``.  An even-length median is one window over both middle
ranks, of norm 2, so the division takes their average.  A padded block's
mask is cut to its valid rows first: a padded entry ranks 0, which a
chebyshev window at k = 1 partly selects.
"""

from __future__ import annotations

from dataclasses import dataclass

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


# Squaring steps of the reciprocal of a window's mask norm, seeded at 1/k:
# 4 leave (1 - norm/k)^64, below 1e-16 while the norm is within 55% of k.
_SEEDED_ITERS = 4


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


def _target_ranks(query: StatisticQuery, n: int) -> tuple[int, int]:
    """The first and last target rank of a query on a vector of length ``n``."""
    if query.kind == "median":  # the one middle rank, or the two of an even length
        return (n + 1) // 2, n // 2 + 1
    if query.kind == "percentile":  # nearest rank: p = 0 is rank 1, p = 100 rank n
        k = min(max(int(query.p * n / 100.0 + 0.5), 1), n)
    else:
        k = {"min": 1, "max": n}.get(query.kind, query.k)
    if k > n:
        raise ValueError(f"k={k} out of range for vector length {n}")
    return k, k


def _select(engine, bv, query, cfg) -> tuple[MultiRankPipeline, list[Ciphertext], int]:
    """The tie-corrected ranking of ``bv``, one window mask per block, and
    the number of target ranks, which is the masks' norm."""
    n = bv.total_len
    first, last = _target_ranks(query, n)
    pipe = multi_rank_pipeline(engine, bv, cfg, tie_correction=True)
    # The fit range must reach down to 0 because the empty slots and the
    # padded entries of the rank vector hold zeros and the fitted polynomial
    # reads every slot.
    window_cfg = with_input_range(cfg, -0.5, n + 0.5)
    sels = [indicator_kernel(engine, ranks, first - 0.5, last + 0.5, window_cfg) for ranks in pipe.ranks.blocks]
    return pipe, sels, last - first + 1


def _value_from_masks(engine, pipe: MultiRankPipeline, sels, width: int) -> Ciphertext:
    """The masked sum of the inputs over the masks' norm, in slot 0; ``width``
    is the norm the masks promise."""
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
    # the simulator sees the cleartext; the other slots hold fold garbage
    got = float(norm.slots[0])
    if not 0.0 < got < 2 * width:
        raise ValueError(
            f"{caller_path()}: mask norm {got:.6g} of a window of {width} target ranks lies outside "
            f"(0, {2 * width}), where its reciprocal seeded at 1/{width} diverges"
        )
    return engine.mul(numerator, goldschmidt_inverse(engine, norm, (width, width), _SEEDED_ITERS))


def multi_statistic(engine: HESimulator, bv: BlockVector, query: StatisticQuery, cfg: KernelConfig) -> Ciphertext:
    """Value of the queried statistic of a block vector, in slot 0.

    An even-length median selects both middle ranks with one window, and
    the normalisation by the mask norm, 2, averages them.
    """
    return _value_from_masks(engine, *_select(engine, bv, query, cfg))


def order_statistic_mask(
    engine: HESimulator, ct: Ciphertext, n: int, query: StatisticQuery, cfg: KernelConfig
) -> StatisticMask:
    """Column-0 selection mask: 1 in the positions whose tie-corrected rank is
    the queried one (both middle ranks, for an even-length median).

    The mask has one 1 per target rank; of tied values the first by
    position takes the lowest rank, so a tied minimum is selected once.
    """
    pipe, (sel,), _ = _select(engine, one_block(engine, ct, n), query, cfg)
    return StatisticMask(sel, pipe.layout)


def order_statistic_value(
    engine: HESimulator, ct: Ciphertext, n: int, query: StatisticQuery, cfg: KernelConfig
) -> Ciphertext:
    """Value of the queried statistic of the first ``n`` slots, in slot 0."""
    return multi_statistic(engine, one_block(engine, ct, n), query, cfg)


def median(engine: HESimulator, ct: Ciphertext, n: int, cfg: KernelConfig) -> Ciphertext:
    """Median in slot 0; the even case averages the two middle statistics
    through one window spanning both."""
    return order_statistic_value(engine, ct, n, StatisticQuery("median"), cfg)


def percentile(engine: HESimulator, ct: Ciphertext, n: int, p: float, cfg: KernelConfig) -> Ciphertext:
    """Nearest-rank percentile in slot 0; p=0 and p=100 are the min and max."""
    return order_statistic_value(engine, ct, n, StatisticQuery("percentile", p=float(p)), cfg)
