"""Order-statistic extraction from the encrypted ranking.

Every query is one window of target ranks, first..last, of the
tie-corrected fractional ranking: rank 1 for the minimum (argmin), rank n
for the maximum (argmax), rank k for the k-th statistic and the nearest-rank
percentile, and the one or two middle ranks for the median.  Tie correction
breaks ties by position, so the ranks are a permutation of 1..n: the window
selects exactly one entry per target rank, and a tied extreme is selected
once, where the uncorrected ranking would give it a shared rank.

A rank-window indicator on each block's row-0 ranks yields a selection
mask in row 0 (the argmin/argmax answer; in every row on a matrix that
fills the slots), built just before its product is made.  The ranking
builds the ranks already mapped onto the window's fit interval, with the
window's edges mapped in the clear, so the window maps nothing: no ct-pt
product and no level.  The statistic's value is the inner product of the
masks with the blocks' row-replicated inputs, summed over blocks and
folded into column 0, divided by the masks' L1 norm.  That norm is the number of target ranks k = last - first + 1,
known in the clear, so ``goldschmidt_inverse`` of the norm, with the
masked sum as numerator, is seeded at 1/k and runs only the few steps an
inexact chebyshev mask needs (exact in ideal mode for k = 1, 2); at k = 1
its seed 2 - x takes a free negation.  It multiplies the masked sum by
every factor it multiplies the norm by, so the value arrives 6 levels
below the later of the sum and the seed, where a reciprocal of the norm
and a product by it took 7.  A norm in slot 0 outside (0, 2k), where that
iteration diverges, raises ``ValueError``.  An even-length median is one
window over both middle ranks, of norm 2, so the division takes their
average.  A padded block's mask is cut to its valid columns first: a
padded entry ranks 0, which a chebyshev window at k = 1 partly selects.

One block on a matrix of side B >= 4 that fills the slots, the paper's
setting, has its mask in every row, so one product with weights of v/k in
row 0 and 1/k in row 1, on the valid columns only, puts the value's terms
in row 0 and the norm's in row 1, and ``matrix.head_row_sums`` folds both
into slot 0 in log2 B + 2 rotations with no mask, where two row folds take
2 log2 B.  The weights carry the cut, and the norm promises 1, which the
division seeds with the free 2 - x; the sum and the norm leave the fold
at one level, so the value arrives 6 levels below it.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .chebyshev import KernelConfig, fit_map, goldschmidt_inverse, indicator_kernel, with_input_range
from .engine import Ciphertext, HESimulator, caller_path
from .matrix import MatrixLayout, head_row_sums, rect_plain, sum_axis
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
    """Selection mask in row 0 of the matrix encoding, and in every row when
    the matrix fills the slots."""

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


def _select(engine, bv, query, cfg) -> tuple[MultiRankPipeline, Iterator[Ciphertext], int]:
    """The tie-corrected ranking of ``bv``, the blocks' window masks, each
    built when it is read, and the number of target ranks, which is the
    masks' norm."""
    n = bv.total_len
    first, last = _target_ranks(query, n)
    # The fit range must reach down to 0 because the padded entries, and
    # every slot off the ranks, read rank 0 and the fitted polynomial reads
    # every slot.
    fit = fit_map(cfg, -0.5, n + 0.5)
    pipe = multi_rank_pipeline(engine, bv, cfg, tie_correction=True, fit=fit)
    window_cfg = with_input_range(cfg, *fit.input_range)
    edges = fit(first - 0.5), fit(last + 0.5)
    sels = (indicator_kernel(engine, ranks, *edges, window_cfg) for ranks in pipe.ranks.blocks)
    return pipe, sels, last - first + 1


def _value_from_masks(engine, pipe: MultiRankPipeline, sels: Iterator[Ciphertext], width: int) -> Ciphertext:
    """The masked sum of the inputs over the masks' norm, in slot 0; ``width``
    is the norm the masks promise."""
    ranks, layout = pipe.ranks, pipe.layout
    b, count = ranks.block_size, len(ranks.blocks)
    valid = ranks.valid_in(count - 1)
    if count == 1 and layout.full and b >= 4:
        # one block's mask fills every row, so one product with weights of
        # v/k in row 0 and 1/k in row 1, on the valid columns only, holds
        # the value's terms in row 0 and the norm's in row 1, of norm 1; the
        # weights sit many levels above the mask and cost it none
        (sel,), (rep,) = sels, pipe.replicated
        weights = engine.add_plain(
            engine.mul_plain(rep, rect_plain(layout.slot_count, b, 0, 1, 0, valid, 1.0 / width)),
            rect_plain(layout.slot_count, b, 1, 2, 0, valid, 1.0 / width),
        )
        numerator, norm = head_row_sums(engine, engine.mul(sel, weights), layout)
        promise = 1
    else:
        # each mask and its block's replicated input share row 0; folding
        # the columns of the sums over blocks lands both sums in slot 0.
        # Each mask is built as its product is made, and both sums are
        # running left folds, so no list of masks or products is held; each
        # sum has the doubles and charges of one n-ary add
        numerator = norm = None
        for i, (sel, rep) in enumerate(zip(sels, pipe.replicated)):
            if i == count - 1 and valid < b:  # a padded entry ranks 0: keep it out of the norm
                sel = engine.mul_plain(sel, rect_plain(layout.slot_count, b, 0, b, 0, valid))
            product = engine.mul(sel, rep)
            numerator = product if numerator is None else engine.add(numerator, product)
            norm = sel if norm is None else engine.add(norm, sel)

        def fold(x: Ciphertext) -> Ciphertext:
            if layout.full and count == 1:
                # a 2x2 matrix, where one fold of both rows would take 3
                # rotations and the weights an addition: one block's rows
                # are alike, so one step sums row 0 into slot 0, no mask
                return engine.add(x, engine.rotate(x, 1))
            return sum_axis(engine, x, layout, "col")

        numerator, norm = fold(numerator), fold(norm)
        promise = width
    # the simulator sees the cleartext; the other slots hold fold garbage
    got = float(norm.slots[0])
    if not 0.0 < got < 2 * promise:
        raise ValueError(
            f"{caller_path()}: mask norm {got * width / promise:.6g} of a window of {width} target ranks lies "
            f"outside (0, {2 * width}), where its division seeded at 1/{width} diverges"
        )
    return goldschmidt_inverse(engine, norm, promise, numerator)


def multi_statistic(engine: HESimulator, bv: BlockVector, query: StatisticQuery, cfg: KernelConfig) -> Ciphertext:
    """Value of the queried statistic of a block vector, in slot 0.

    An even-length median selects both middle ranks with one window, and
    the normalisation by the mask norm, 2, averages them.
    """
    return _value_from_masks(engine, *_select(engine, bv, query, cfg))


def order_statistic_mask(
    engine: HESimulator, ct: Ciphertext, n: int, query: StatisticQuery, cfg: KernelConfig
) -> StatisticMask:
    """Row-0 selection mask: 1 in the positions whose tie-corrected rank is
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
