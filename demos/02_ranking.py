#!/usr/bin/env python3
"""Ranking a packed vector with a single comparison evaluation.

The vector is replicated across matrix rows and, transposed, across matrix
columns; one slotwise comparison of the two encodings yields every pairwise
comparison at once, and summing each column gives the ranks, in row 0.  A
matrix that fills the slot vector folds its rows cyclically, so the ranks
land in every row.
"""

import numpy as np

from slotrank import (
    HEParams,
    HESimulator,
    KernelConfig,
    compare_kernel,
    rank,
    rank_corrected,
    read_row,
    replicate,
    transpose_vector,
)
from slotrank import reference
from slotrank.ranking import rank_pipeline

eng = HESimulator(HEParams(slot_count=16, max_level=32))
cfg = KernelConfig(mode="ideal", degree=256)

v = [20.0, 30.0, 10.0, 40.0]
print("input:", v)

ct = eng.encrypt(v)
pipe = rank_pipeline(eng, ct, 4, cfg)
# the pipeline keeps only the ranks and the row replication, so the
# demo builds the three matrices again with the calls the pipeline makes
report = eng.cost_snapshot()
rows = replicate(eng, ct, pipe.layout, "row")
cols = replicate(eng, transpose_vector(eng, ct, pipe.layout, "row_to_col"), pipe.layout, "col")
print("\nrow-replicated encoding (each row is the vector):")
print(eng.decrypt(rows).reshape(4, 4))
print("column-replicated encoding (each column is the vector):")
print(eng.decrypt(cols).reshape(4, 4))
same = np.array_equal(eng.decrypt(rows), eng.decrypt(pipe.replicated[0]))
print("   the pipeline's row replication is the same:", same)
print("comparison matrix (column value vs row value: 1 greater, 0.5 tie, 0 smaller):")
print(eng.decrypt(compare_kernel(eng, rows, cols, cfg)).reshape(4, 4))
ranks = read_row(eng, pipe.ranks.blocks[0], 4)
print("ranks (column sums + 0.5, in row 0):", ranks)
print("   and in every row of the full 4x4 matrix:")
print(eng.decrypt(pipe.ranks.blocks[0]).reshape(4, 4))
print("ranks match the oracle:", np.array_equal(ranks, reference.fractional_ranks(v)))

print(f"\ncost of the ranking: {report.cmp_evals} comparison, {report.rotations} rotations "
      f"(4*log2(4) = 8), {report.levels_consumed} levels")

print("\nTied elements share their fractional rank:")
tied = [50.0, 10.0, 20.0, 20.0, 40.0]
eng5 = HESimulator(HEParams(slot_count=64, max_level=32))
res = rank(eng5, eng5.encrypt(tied), 5, cfg)
ranks = read_row(eng5, res.ranks, 5)
print("  ", tied, "->", ranks)
print("   fractional ranks match the oracle:", np.array_equal(ranks, reference.fractional_ranks(tied)))

print("\nThe tie-correction offset redistributes ties into a permutation;")
print("its cells join the comparisons before the one rank fold:")
eng5.cost_reset()
res = rank_corrected(eng5, eng5.encrypt(tied), 5, cfg)
ranks = read_row(eng5, res.ranks, 5)
print("  ", tied, "->", ranks)
print("   corrected ranks match the oracle:", np.array_equal(ranks, reference.corrected_ranks(tied)))
report = eng5.cost_snapshot()
log_n = (5 - 1).bit_length()
print(f"\ncost of the corrected ranking: {report.cmp_evals} comparison, "
      f"{report.rotations} rotations (4*log2(8) = {4 * log_n})")
print("   within the uncorrected rank budget:", report.rotations <= 4 * log_n)
