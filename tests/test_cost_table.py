"""Every pinned circuit, checked against its row of ``tests/circuits.json``.

``tests/circuits.py`` lists the shapes and rebuilds the table; each row holds
a shape's exact ``CostReport``, the digest of its rotation offsets and, in
ideal mode, of its output slots.  A change to a circuit regenerates the
table, and the table's diff is the change's cost.

``BEFORE`` holds the counters of the circuit that folded the ranks into
column 0, on blocks of side 8 in 64 slots (a matrix that fills them) and in
128 (one that does not): one to four blocks, the last one padded or not, in
ideal and chebyshev mode, through ``rank`` (or ``rank_corrected``),
``sort``, ``multi_sort`` and ``multi_statistic``.  No counter of those
shapes may rise above it.
"""

from dataclasses import fields

import pytest

from circuits import SHAPES, Shape, grid, load, main, measure, stale
from slotrank import CostReport

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


BEFORE_BY_ID = {grid(*case).id: CostReport(*counts) for case, counts in BEFORE.items()}
TABLE = load()
COUNTERS = [f.name for f in fields(CostReport)]


@pytest.mark.parametrize("shape", SHAPES, ids=[s.id for s in SHAPES])
def test_shape_runs_the_circuit_of_its_row(shape):
    m = measure(shape)
    assert m.row == TABLE[shape.id]
    assert len(m.offsets) == m.row["rotations"]
    if m.level is not None:  # the output sits at the circuit's depth
        assert m.level == shape.max_level - m.row["levels_consumed"]
    if shape.mode == "ideal":
        assert m.err == 0
    elif shape.bound is not None:
        assert m.err < shape.bound
    if shape.id in BEFORE_BY_ID:
        assert all(m.row[c] <= getattr(BEFORE_BY_ID[shape.id], c) for c in COUNTERS)


def test_table_is_not_stale():
    assert main(["--check"]) == 0
    assert set(BEFORE_BY_ID) <= set(TABLE)


def test_stale_names_a_changed_a_missing_and_an_orphan_row():
    rows = list(TABLE.values())
    doctored = {r["id"]: r for r in rows[1:]} | {"orphan": {}}
    doctored[rows[1]["id"]] = {**rows[1], "rotations": rows[1]["rotations"] + 1}
    assert stale(doctored, rows) == [f"changed: {rows[1]['id']}", f"missing: {rows[0]['id']}", "orphan: orphan"]


def test_one_block_sort_costs_one_ct_pt_and_one_level_less_on_a_full_matrix():
    # 64 tied values in a 64x64 matrix that fills 4096 slots and in one that
    # fills half of 8192: sort() ranks along the columns and spreads its
    # ranks on both, and both end in the row fold, rotations by 64 2^k, that
    # lands the values in row 0.  On the full matrix that fold is cyclic and
    # needs no mask
    full, half = (measure(Shape("sort", slots, 64, "sixteenths", seed=7)) for slots in (4096, 8192))
    extra = {c: half.row[c] - full.row[c] for c in COUNTERS}
    assert extra == {c: int(c in ("ctpt_mults", "levels_consumed")) for c in COUNTERS}
    for m in (full, half):
        assert m.err == 0
        assert m.offsets[-6:] == tuple(64 << k for k in range(6))
