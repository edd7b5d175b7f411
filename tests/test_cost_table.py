"""The cost of every pipeline shape, pinned to the parent circuit's counters.

Blocks of side 8 sit in 64 slots, a matrix that fills them, and in 128
slots, one that does not.  Each case runs one to four blocks, the last one
padded or not, in ideal and chebyshev mode, through ``rank`` (or
``rank_corrected``), ``sort``, ``multi_sort`` and ``multi_statistic``.

``BEFORE`` holds the counters of the circuit that folded the ranks into
column 0; ``saved`` writes out, case by case, what ranking along the rows,
the one-fold statistic, Goldschmidt's division and the sort's unmasked
fold take off them.  No counter of any shape may rise.
"""

from dataclasses import astuple, fields

import numpy as np
import pytest

from slotrank import (
    CostReport,
    HEParams,
    HESimulator,
    KernelConfig,
    SortConfig,
    StatisticQuery,
    block_merge,
    block_split,
    multi_sort,
    multi_statistic,
    rank,
    rank_corrected,
    read_row,
    reference,
    sort,
)

SLOTS = {"full": 64, "not-full": 128}
SIDE, LOG_B = 8, 3
KERNELS = {"ideal": KernelConfig(mode="ideal", degree=256), "chebyshev": KernelConfig(mode="chebyshev", degree=64)}

# (kind, geometry, blocks, padded, mode, tie correction): rotations,
# critical rotations, ct-ct, ct-pt, additions, comparisons, indicators, levels
BEFORE = {
    ("rank", "full", 1, False, "ideal", False): (12, 9, 0, 2, 13, 1, 0, 11),
    ("rank", "full", 1, False, "ideal", True): (12, 9, 1, 3, 14, 1, 0, 13),
    ("rank", "full", 1, False, "chebyshev", False): (12, 9, 15, 34, 62, 1, 0, 9),
    ("rank", "full", 1, False, "chebyshev", True): (12, 9, 16, 35, 63, 1, 0, 11),
    ("rank", "full", 1, True, "ideal", False): (12, 9, 0, 3, 13, 1, 0, 12),
    ("rank", "full", 1, True, "ideal", True): (12, 9, 1, 4, 14, 1, 0, 14),
    ("rank", "full", 1, True, "chebyshev", False): (12, 9, 15, 35, 62, 1, 0, 10),
    ("rank", "full", 1, True, "chebyshev", True): (12, 9, 16, 36, 63, 1, 0, 12),
    ("rank", "not-full", 1, False, "ideal", False): (12, 9, 0, 2, 13, 1, 0, 11),
    ("rank", "not-full", 1, False, "ideal", True): (12, 9, 1, 3, 14, 1, 0, 13),
    ("rank", "not-full", 1, False, "chebyshev", False): (12, 9, 15, 34, 62, 1, 0, 9),
    ("rank", "not-full", 1, False, "chebyshev", True): (12, 9, 16, 35, 63, 1, 0, 11),
    ("rank", "not-full", 1, True, "ideal", False): (12, 9, 0, 3, 13, 1, 0, 12),
    ("rank", "not-full", 1, True, "ideal", True): (12, 9, 1, 4, 14, 1, 0, 14),
    ("rank", "not-full", 1, True, "chebyshev", False): (12, 9, 15, 35, 62, 1, 0, 10),
    ("rank", "not-full", 1, True, "chebyshev", True): (12, 9, 16, 36, 63, 1, 0, 12),
    ("sort", "full", 1, False, "ideal", False): (18, 15, 1, 3, 20, 1, 1, 22),
    ("sort", "full", 1, False, "ideal", True): (18, 15, 2, 4, 21, 1, 1, 24),
    ("sort", "full", 1, False, "chebyshev", False): (18, 15, 30, 61, 115, 1, 1, 19),
    ("sort", "full", 1, False, "chebyshev", True): (18, 15, 31, 62, 116, 1, 1, 21),
    ("sort", "full", 1, True, "ideal", False): (18, 15, 1, 4, 20, 1, 1, 23),
    ("sort", "full", 1, True, "ideal", True): (18, 15, 2, 5, 21, 1, 1, 25),
    ("sort", "full", 1, True, "chebyshev", False): (18, 15, 30, 62, 115, 1, 1, 20),
    ("sort", "full", 1, True, "chebyshev", True): (18, 15, 31, 63, 116, 1, 1, 22),
    ("sort", "not-full", 1, False, "ideal", False): (18, 15, 1, 3, 20, 1, 1, 22),
    ("sort", "not-full", 1, False, "ideal", True): (18, 15, 2, 4, 21, 1, 1, 24),
    ("sort", "not-full", 1, False, "chebyshev", False): (18, 15, 30, 61, 115, 1, 1, 19),
    ("sort", "not-full", 1, False, "chebyshev", True): (18, 15, 31, 62, 116, 1, 1, 21),
    ("sort", "not-full", 1, True, "ideal", False): (18, 15, 1, 4, 20, 1, 1, 23),
    ("sort", "not-full", 1, True, "ideal", True): (18, 15, 2, 5, 21, 1, 1, 25),
    ("sort", "not-full", 1, True, "chebyshev", False): (18, 15, 30, 62, 115, 1, 1, 20),
    ("sort", "not-full", 1, True, "chebyshev", True): (18, 15, 31, 63, 116, 1, 1, 22),
    ("multi_sort", "full", 1, False, "ideal", False): (18, 15, 1, 3, 20, 1, 1, 22),
    ("multi_sort", "full", 1, False, "ideal", True): (18, 15, 2, 4, 21, 1, 1, 24),
    ("multi_sort", "full", 1, False, "chebyshev", False): (18, 15, 30, 61, 115, 1, 1, 19),
    ("multi_sort", "full", 1, False, "chebyshev", True): (18, 15, 31, 62, 116, 1, 1, 21),
    ("multi_sort", "full", 1, True, "ideal", False): (18, 15, 1, 4, 20, 1, 1, 23),
    ("multi_sort", "full", 1, True, "ideal", True): (18, 15, 2, 5, 21, 1, 1, 25),
    ("multi_sort", "full", 1, True, "chebyshev", False): (18, 15, 30, 62, 115, 1, 1, 20),
    ("multi_sort", "full", 1, True, "chebyshev", True): (18, 15, 31, 63, 116, 1, 1, 22),
    ("multi_sort", "full", 2, False, "ideal", False): (42, 18, 4, 8, 52, 3, 4, 23),
    ("multi_sort", "full", 2, False, "ideal", True): (42, 18, 7, 10, 57, 3, 4, 24),
    ("multi_sort", "full", 2, False, "chebyshev", False): (42, 18, 105, 208, 383, 3, 4, 20),
    ("multi_sort", "full", 2, False, "chebyshev", True): (42, 18, 108, 210, 388, 3, 4, 21),
    ("multi_sort", "full", 2, True, "ideal", False): (42, 18, 4, 10, 52, 3, 4, 24),
    ("multi_sort", "full", 2, True, "ideal", True): (42, 18, 7, 12, 57, 3, 4, 25),
    ("multi_sort", "full", 2, True, "chebyshev", False): (42, 18, 105, 210, 383, 3, 4, 21),
    ("multi_sort", "full", 2, True, "chebyshev", True): (42, 18, 108, 212, 388, 3, 4, 22),
    ("multi_sort", "full", 3, False, "ideal", False): (66, 18, 9, 13, 90, 6, 9, 23),
    ("multi_sort", "full", 3, False, "ideal", True): (66, 18, 15, 16, 101, 6, 9, 24),
    ("multi_sort", "full", 3, False, "chebyshev", False): (66, 18, 225, 439, 798, 6, 9, 20),
    ("multi_sort", "full", 3, False, "chebyshev", True): (66, 18, 231, 442, 809, 6, 9, 21),
    ("multi_sort", "full", 3, True, "ideal", False): (66, 18, 9, 16, 90, 6, 9, 24),
    ("multi_sort", "full", 3, True, "ideal", True): (66, 18, 15, 19, 101, 6, 9, 25),
    ("multi_sort", "full", 3, True, "chebyshev", False): (66, 18, 225, 442, 798, 6, 9, 21),
    ("multi_sort", "full", 3, True, "chebyshev", True): (66, 18, 231, 445, 809, 6, 9, 22),
    ("multi_sort", "full", 4, False, "ideal", False): (90, 18, 16, 18, 134, 10, 16, 23),
    ("multi_sort", "full", 4, False, "ideal", True): (90, 18, 26, 22, 153, 10, 16, 24),
    ("multi_sort", "full", 4, False, "chebyshev", False): (90, 18, 390, 754, 1360, 10, 16, 20),
    ("multi_sort", "full", 4, False, "chebyshev", True): (90, 18, 400, 758, 1379, 10, 16, 21),
    ("multi_sort", "full", 4, True, "ideal", False): (90, 18, 16, 22, 134, 10, 16, 24),
    ("multi_sort", "full", 4, True, "ideal", True): (90, 18, 26, 26, 153, 10, 16, 25),
    ("multi_sort", "full", 4, True, "chebyshev", False): (90, 18, 390, 758, 1360, 10, 16, 21),
    ("multi_sort", "full", 4, True, "chebyshev", True): (90, 18, 400, 762, 1379, 10, 16, 22),
    ("multi_sort", "not-full", 1, False, "ideal", False): (18, 15, 1, 3, 20, 1, 1, 22),
    ("multi_sort", "not-full", 1, False, "ideal", True): (18, 15, 2, 4, 21, 1, 1, 24),
    ("multi_sort", "not-full", 1, False, "chebyshev", False): (18, 15, 30, 61, 115, 1, 1, 19),
    ("multi_sort", "not-full", 1, False, "chebyshev", True): (18, 15, 31, 62, 116, 1, 1, 21),
    ("multi_sort", "not-full", 1, True, "ideal", False): (18, 15, 1, 4, 20, 1, 1, 23),
    ("multi_sort", "not-full", 1, True, "ideal", True): (18, 15, 2, 5, 21, 1, 1, 25),
    ("multi_sort", "not-full", 1, True, "chebyshev", False): (18, 15, 30, 62, 115, 1, 1, 20),
    ("multi_sort", "not-full", 1, True, "chebyshev", True): (18, 15, 31, 63, 116, 1, 1, 22),
    ("multi_sort", "not-full", 2, False, "ideal", False): (42, 18, 4, 8, 52, 3, 4, 23),
    ("multi_sort", "not-full", 2, False, "ideal", True): (42, 18, 7, 10, 57, 3, 4, 24),
    ("multi_sort", "not-full", 2, False, "chebyshev", False): (42, 18, 105, 208, 383, 3, 4, 20),
    ("multi_sort", "not-full", 2, False, "chebyshev", True): (42, 18, 108, 210, 388, 3, 4, 21),
    ("multi_sort", "not-full", 2, True, "ideal", False): (42, 18, 4, 10, 52, 3, 4, 24),
    ("multi_sort", "not-full", 2, True, "ideal", True): (42, 18, 7, 12, 57, 3, 4, 25),
    ("multi_sort", "not-full", 2, True, "chebyshev", False): (42, 18, 105, 210, 383, 3, 4, 21),
    ("multi_sort", "not-full", 2, True, "chebyshev", True): (42, 18, 108, 212, 388, 3, 4, 22),
    ("multi_sort", "not-full", 3, False, "ideal", False): (66, 18, 9, 13, 90, 6, 9, 23),
    ("multi_sort", "not-full", 3, False, "ideal", True): (66, 18, 15, 16, 101, 6, 9, 24),
    ("multi_sort", "not-full", 3, False, "chebyshev", False): (66, 18, 225, 439, 798, 6, 9, 20),
    ("multi_sort", "not-full", 3, False, "chebyshev", True): (66, 18, 231, 442, 809, 6, 9, 21),
    ("multi_sort", "not-full", 3, True, "ideal", False): (66, 18, 9, 16, 90, 6, 9, 24),
    ("multi_sort", "not-full", 3, True, "ideal", True): (66, 18, 15, 19, 101, 6, 9, 25),
    ("multi_sort", "not-full", 3, True, "chebyshev", False): (66, 18, 225, 442, 798, 6, 9, 21),
    ("multi_sort", "not-full", 3, True, "chebyshev", True): (66, 18, 231, 445, 809, 6, 9, 22),
    ("multi_sort", "not-full", 4, False, "ideal", False): (90, 18, 16, 18, 134, 10, 16, 23),
    ("multi_sort", "not-full", 4, False, "ideal", True): (90, 18, 26, 22, 153, 10, 16, 24),
    ("multi_sort", "not-full", 4, False, "chebyshev", False): (90, 18, 390, 754, 1360, 10, 16, 20),
    ("multi_sort", "not-full", 4, False, "chebyshev", True): (90, 18, 400, 758, 1379, 10, 16, 21),
    ("multi_sort", "not-full", 4, True, "ideal", False): (90, 18, 16, 22, 134, 10, 16, 24),
    ("multi_sort", "not-full", 4, True, "ideal", True): (90, 18, 26, 26, 153, 10, 16, 25),
    ("multi_sort", "not-full", 4, True, "chebyshev", False): (90, 18, 390, 758, 1360, 10, 16, 21),
    ("multi_sort", "not-full", 4, True, "chebyshev", True): (90, 18, 400, 762, 1379, 10, 16, 22),
    ("multi_statistic", "full", 1, False, "ideal", True): (18, 12, 13, 6, 27, 1, 1, 31),
    ("multi_statistic", "full", 1, False, "chebyshev", True): (18, 12, 45, 96, 161, 1, 1, 28),
    ("multi_statistic", "full", 1, True, "ideal", True): (18, 12, 13, 8, 27, 1, 1, 33),
    ("multi_statistic", "full", 1, True, "chebyshev", True): (18, 12, 45, 98, 161, 1, 1, 30),
    ("multi_statistic", "full", 2, False, "ideal", True): (36, 15, 16, 11, 54, 3, 2, 31),
    ("multi_statistic", "full", 2, False, "chebyshev", True): (36, 15, 95, 223, 371, 3, 2, 28),
    ("multi_statistic", "full", 2, True, "ideal", True): (36, 15, 16, 14, 54, 3, 2, 33),
    ("multi_statistic", "full", 2, True, "chebyshev", True): (36, 15, 95, 226, 371, 3, 2, 30),
    ("multi_statistic", "full", 3, False, "ideal", True): (54, 15, 20, 16, 85, 6, 3, 31),
    ("multi_statistic", "full", 3, False, "chebyshev", True): (54, 15, 161, 382, 634, 6, 3, 28),
    ("multi_statistic", "full", 3, True, "ideal", True): (54, 15, 20, 20, 85, 6, 3, 33),
    ("multi_statistic", "full", 3, True, "chebyshev", True): (54, 15, 161, 386, 634, 6, 3, 30),
    ("multi_statistic", "full", 4, False, "ideal", True): (72, 15, 25, 21, 120, 10, 4, 31),
    ("multi_statistic", "full", 4, False, "chebyshev", True): (72, 15, 243, 573, 950, 10, 4, 28),
    ("multi_statistic", "full", 4, True, "ideal", True): (72, 15, 25, 26, 120, 10, 4, 33),
    ("multi_statistic", "full", 4, True, "chebyshev", True): (72, 15, 243, 578, 950, 10, 4, 30),
    ("multi_statistic", "not-full", 1, False, "ideal", True): (18, 12, 13, 6, 27, 1, 1, 31),
    ("multi_statistic", "not-full", 1, False, "chebyshev", True): (18, 12, 45, 96, 161, 1, 1, 28),
    ("multi_statistic", "not-full", 1, True, "ideal", True): (18, 12, 13, 8, 27, 1, 1, 33),
    ("multi_statistic", "not-full", 1, True, "chebyshev", True): (18, 12, 45, 98, 161, 1, 1, 30),
    ("multi_statistic", "not-full", 2, False, "ideal", True): (36, 15, 16, 11, 54, 3, 2, 31),
    ("multi_statistic", "not-full", 2, False, "chebyshev", True): (36, 15, 95, 223, 371, 3, 2, 28),
    ("multi_statistic", "not-full", 2, True, "ideal", True): (36, 15, 16, 14, 54, 3, 2, 33),
    ("multi_statistic", "not-full", 2, True, "chebyshev", True): (36, 15, 95, 226, 371, 3, 2, 30),
    ("multi_statistic", "not-full", 3, False, "ideal", True): (54, 15, 20, 16, 85, 6, 3, 31),
    ("multi_statistic", "not-full", 3, False, "chebyshev", True): (54, 15, 161, 382, 634, 6, 3, 28),
    ("multi_statistic", "not-full", 3, True, "ideal", True): (54, 15, 20, 20, 85, 6, 3, 33),
    ("multi_statistic", "not-full", 3, True, "chebyshev", True): (54, 15, 161, 386, 634, 6, 3, 30),
    ("multi_statistic", "not-full", 4, False, "ideal", True): (72, 15, 25, 21, 120, 10, 4, 31),
    ("multi_statistic", "not-full", 4, False, "chebyshev", True): (72, 15, 243, 573, 950, 10, 4, 28),
    ("multi_statistic", "not-full", 4, True, "ideal", True): (72, 15, 25, 26, 120, 10, 4, 33),
    ("multi_statistic", "not-full", 4, True, "chebyshev", True): (72, 15, 243, 578, 950, 10, 4, 30),
}


def saved(kind, geometry, blocks, padded):
    """What ranking along the rows, the one-fold statistic, Goldschmidt's
    division and the sort's unmasked fold take off the parent circuit's
    counters.

    Only a matrix that fills the slots gains from the rows: its rank fold
    is a cyclic all-reduce with no mask, one ct-pt per block.  The sort's
    ranks then fill every row, so ``multi_sort`` spreads nothing, log2 B
    rotations and additions per block; ``sort`` ranks along the columns on
    every geometry and spreads its ranks, and its placement's fold over the
    rows, cyclic there too, drops its mask: one ct-pt and one level.  One
    ``multi_sort`` block also sheds the fold's level, and with the spread
    its rotations from the critical path; a padded multi-block statistic
    sheds the level the mask put under the cut of its last mask.
    A one-block statistic's mask then fills every row too, so its value and
    norm need no fold mask: two ct-pt and one more level.  They then share
    one fold, log2 B + 2 rotate-and-add steps where two folds took 2 log2 B,
    and the ct-pt of their weights, with its level on the norm, stands in
    for the cut of a padded mask, or else for the division seed's product.
    A padded statistic, on either geometry, has an odd length, so its median
    is a window of one rank, whose division seeds 2 - x with a free
    negation: one ct-pt and one level.  The division carries the value in
    the norm's chain, with one addition fewer than a reciprocal and a
    product by it, and one level fewer wherever the value sits no deeper
    than the seed: every window of two ranks, whose seed takes a ct-pt,
    and every one-block statistic on a matrix that fills the slots, whose
    value and norm leave one fold together.
    """
    full, one = geometry == "full", blocks == 1
    if kind in ("rank", "sort"):
        return CostReport(ctpt_mults=int(full), levels_consumed=int(full))
    if kind == "multi_sort":
        if not full:
            return CostReport()
        return CostReport(
            rotations=blocks * LOG_B, critical_rotations=LOG_B if one else 0, ctpt_mults=blocks,
            additions=blocks * LOG_B, levels_consumed=int(one),
        )
    folds = (LOG_B - 2) * one * full
    return CostReport(
        rotations=folds, ctpt_mults=int(padded) + full * (blocks + 2 * one), additions=folds + 1,
        levels_consumed=int(padded) + full * (int(one or padded) + int(one)) + int(not padded or (full and one)),
    )


def run(kind, geometry, blocks, padded, mode, tie):
    n = SIDE * blocks - (3 if padded else 0)
    v = (np.random.default_rng(n).permutation(n) + 1.0) / (n + 1)
    if tie:
        v[-1] = v[0]
    eng = HESimulator(HEParams(slot_count=SLOTS[geometry], max_level=64))
    cfg = KERNELS[mode]
    if kind == "rank":
        res = (rank_corrected if tie else rank)(eng, eng.encrypt(v), n, cfg)
        got, want = read_row(eng, res.ranks, n), (reference.corrected_ranks if tie else reference.fractional_ranks)(v)
    elif kind == "sort":
        got = read_row(eng, sort(eng, eng.encrypt(v), n, SortConfig(kernel=cfg, tie_correction=tie)), n)
        want = reference.sorted_values(v)
    elif kind == "multi_sort":
        got = block_merge(eng, multi_sort(eng, block_split(eng, v), SortConfig(kernel=cfg, tie_correction=tie)))
        want = reference.sorted_values(v)
    else:
        got = eng.decrypt(multi_statistic(eng, block_split(eng, v), StatisticQuery("median"), cfg))[:1]
        want = [reference.median_value(v)]
    return eng.cost_snapshot(), got, want


@pytest.mark.parametrize("case", list(BEFORE), ids=["-".join(map(str, c)) for c in BEFORE])
def test_shape_costs_the_parent_circuit_less_what_row_ranking_saves(case):
    kind, geometry, blocks, padded, mode, tie = case
    report, got, want = run(*case)
    before = CostReport(*BEFORE[case])
    less = saved(kind, geometry, blocks, padded)
    assert report == CostReport(*(a - b for a, b in zip(astuple(before), astuple(less))))
    assert all(getattr(report, f.name) <= getattr(before, f.name) for f in fields(CostReport))
    if mode == "ideal":
        assert np.array_equal(got, want)
