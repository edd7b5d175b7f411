"""The cost of every pipeline shape, pinned to the parent circuit's counters.

Blocks of side 8 sit in 64 slots, a matrix that fills them, and in 128
slots, one that does not.  Each case runs one to four blocks, the last one
padded or not, in ideal and chebyshev mode, through ``rank`` (or
``rank_corrected``), ``sort``, ``multi_sort`` and ``multi_statistic``.

``BEFORE`` holds the counters of the circuit that folded the ranks into
column 0; ``saved`` writes out, case by case, what ranking along the rows,
the one-fold statistic, Goldschmidt's division, the sort's unmasked fold
and the ranks built already mapped onto the window's fit interval
(``mapped_ranks``) take off them.  No counter of any shape may rise.
"""

import hashlib
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


def mapped_ranks(kind, geometry, blocks, padded, mode, tie):
    """What building the ranks already mapped onto the window's fit interval
    takes off.

    Each block's tie-corrected cells against itself, c(s(1 + M) - (sM)c),
    take one addition fewer than adding the tie offset to c; that is all
    ideal mode, whose map is the identity, and the true ranks of ``rank``
    save.  In chebyshev mode every window loses its input map, one ct-pt
    and one level: L^2 of them in an L-block sort, whose map has no offset.
    The scale rides in the tie cells, the cross sums' fold mask and the
    plaintext shift, but each later block's sum over earlier blocks takes a
    ct-pt, as do each uncorrected block's comparisons before a rank fold
    with no mask.  That product takes back the level the map saved, unless
    the sums over later blocks, two masks below the comparisons, set the
    ranks' level.  Where the rank fold has a mask (``fold_mask``), the scale
    rides in it: on a matrix that does not fill the slots, the row fold's
    mask carries it for every block, so no block's comparisons or sum over
    earlier blocks takes a ct-pt for it, the statistic's blocks too; along
    the columns of ``sort`` it carries the uncorrected scale, one ct-pt and
    the level of a one-block sort.
    The statistic's L windows also lose the map's offset, L additions, but
    its last block, whose shift was 0, now adds the offset; a block whose
    shift maps to the centre of the fit interval, 0, on a matrix that fills
    the slots, adds nothing.
    """
    cells = blocks * int(tie)
    if mode == "ideal" or kind == "rank":
        return CostReport(additions=cells)
    if kind == "multi_statistic":
        centre = blocks % 2 == 0 and not padded and geometry == "full"
        earlier = (blocks - 1) * (geometry == "not-full")
        return CostReport(ctpt_mults=1 + earlier, additions=cells + blocks - 1 + int(centre), levels_consumed=1)
    fold_mask = geometry == "not-full" or (kind == "sort" and not tie)
    scalings = 0 if fold_mask else blocks - 1 if tie else blocks
    return CostReport(
        ctpt_mults=blocks * blocks - scalings, additions=cells, levels_consumed=int(tie or blocks > 1 or fold_mask)
    )


def saved(kind, geometry, blocks, padded, mode, tie):
    """What ranking along the rows, the one-fold statistic, Goldschmidt's
    division, the sort's unmasked fold and ``mapped_ranks`` take off the
    parent circuit's counters.

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
        rows = CostReport(ctpt_mults=int(full), levels_consumed=int(full))
    elif kind == "multi_sort":
        rows = CostReport(
            rotations=blocks * LOG_B, critical_rotations=LOG_B if one else 0, ctpt_mults=blocks,
            additions=blocks * LOG_B, levels_consumed=int(one),
        ) if full else CostReport()
    else:
        folds = (LOG_B - 2) * one * full
        rows = CostReport(
            rotations=folds, ctpt_mults=int(padded) + full * (blocks + 2 * one), additions=folds + 1,
            levels_consumed=int(padded) + full * (int(one or padded) + int(one)) + int(not padded or (full and one)),
        )
    mapped = mapped_ranks(kind, geometry, blocks, padded, mode, tie)
    return CostReport(*(a + b for a, b in zip(astuple(rows), astuple(mapped))))


def run(kind, geometry, blocks, padded, mode, tie):
    """The engine, the output's values and the reference's, and every slot
    of the output ciphertexts."""
    n = SIDE * blocks - (3 if padded else 0)
    v = (np.random.default_rng(n).permutation(n) + 1.0) / (n + 1)
    if tie:
        v[-1] = v[0]
    eng = HESimulator(HEParams(slot_count=SLOTS[geometry], max_level=64))
    cfg = KERNELS[mode]
    if kind == "rank":
        outs = [(rank_corrected if tie else rank)(eng, eng.encrypt(v), n, cfg).ranks]
        got, want = read_row(eng, outs[0], n), (reference.corrected_ranks if tie else reference.fractional_ranks)(v)
    elif kind == "sort":
        outs = [sort(eng, eng.encrypt(v), n, SortConfig(kernel=cfg, tie_correction=tie))]
        got, want = read_row(eng, outs[0], n), reference.sorted_values(v)
    elif kind == "multi_sort":
        bv = multi_sort(eng, block_split(eng, v), SortConfig(kernel=cfg, tie_correction=tie))
        outs, got, want = bv.blocks, block_merge(eng, bv), reference.sorted_values(v)
    else:
        outs = [multi_statistic(eng, block_split(eng, v), StatisticQuery("median"), cfg)]
        got, want = eng.decrypt(outs[0])[:1], [reference.median_value(v)]
    return eng, got, want, np.concatenate([eng.decrypt(c) for c in outs])


@pytest.mark.parametrize("case", list(BEFORE), ids=["-".join(map(str, c)) for c in BEFORE])
def test_shape_costs_the_parent_circuit_less_what_row_ranking_saves(case):
    kind, geometry, blocks, padded, mode, tie = case
    eng, got, want, _ = run(*case)
    report = eng.cost_snapshot()
    before = CostReport(*BEFORE[case])
    less = saved(*case)
    assert report == CostReport(*(a - b for a, b in zip(astuple(before), astuple(less))))
    assert all(getattr(report, f.name) <= getattr(before, f.name) for f in fields(CostReport))
    if mode == "ideal":
        assert np.array_equal(got, want)


def digest(eng, slots):
    """The output slots and the rotation offsets, as one sha256 prefix."""
    offsets = np.asarray(eng.rotation_offsets(), dtype=np.int64)
    return hashlib.sha256(slots.tobytes() + offsets.tobytes()).hexdigest()[:16]


# Ideal tie-corrected shapes, one block for rank and sort and three for the
# block pipelines: the additions of the circuit that added the tie offset to
# each block's comparisons, before the ranks were built mapped, and the
# ``digest`` of its outputs and rotation offsets.  Each block's tie cells
# are the one addition the mapped ranks save in ideal mode, whose map is the
# identity; nothing else may move.
UNMAPPED_IDEAL = {
    ("rank", "full", 1, False): (14, "94652ca9f058b110"),
    ("rank", "full", 1, True): (14, "46368ed552fe9c5b"),
    ("rank", "not-full", 1, False): (14, "46838bd365d883fa"),
    ("rank", "not-full", 1, True): (14, "88b7fe3a59d2034a"),
    ("sort", "full", 1, False): (21, "6e17350344e9e24a"),
    ("sort", "full", 1, True): (21, "9599b5f84444a312"),
    ("sort", "not-full", 1, False): (21, "cf0e4610a68b1cb7"),
    ("sort", "not-full", 1, True): (21, "3e5445a7778a0404"),
    ("multi_sort", "full", 3, False): (92, "892d227a3e422a7d"),
    ("multi_sort", "full", 3, True): (92, "be580334320a6a74"),
    ("multi_sort", "not-full", 3, False): (101, "3603c16311195a5b"),
    ("multi_sort", "not-full", 3, True): (101, "0f6b886a9abf4845"),
    ("multi_statistic", "full", 3, False): (84, "83680fcd0d97aaf7"),
    ("multi_statistic", "full", 3, True): (84, "4737630befc9d4f3"),
    ("multi_statistic", "not-full", 3, False): (84, "2f5cd1b63afaf890"),
    ("multi_statistic", "not-full", 3, True): (84, "56d9a1fed159e41d"),
}


@pytest.mark.parametrize("case", list(UNMAPPED_IDEAL), ids=["-".join(map(str, c)) for c in UNMAPPED_IDEAL])
def test_ideal_tie_corrected_shape_is_the_unmapped_circuit_less_one_addition_per_block(case):
    kind, geometry, blocks, padded = case
    eng, _, _, slots = run(kind, geometry, blocks, padded, "ideal", True)
    additions, want = UNMAPPED_IDEAL[case]
    assert digest(eng, slots) == want
    assert eng.cost_snapshot().additions == additions - blocks
