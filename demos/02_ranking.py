#!/usr/bin/env python3
"""Ranking a packed vector with a single comparison evaluation.

The vector is replicated across matrix rows and, transposed, across matrix
columns; one slotwise comparison of the two encodings yields every pairwise
comparison at once, and summing each row gives the ranks, in column 0.
"""

import numpy as np

from slotrank import HEParams, HESimulator, KernelConfig, rank, rank_corrected, read_col
from slotrank import reference
from slotrank.ranking import rank_pipeline

eng = HESimulator(HEParams(slot_count=16, max_level=32))
cfg = KernelConfig(mode="ideal", degree=256)

v = [20.0, 30.0, 10.0, 40.0]
print("input:", v)

pipe = rank_pipeline(eng, eng.encrypt(v), 4, cfg)
print("\nrow-replicated encoding (each row is the vector):")
print(eng.decrypt(pipe.row_replicated[0]).reshape(4, 4))
print("column-replicated encoding (each column is the vector):")
print(eng.decrypt(pipe.col_replicated[0]).reshape(4, 4))
print("comparison matrix (row value vs column value: 1 greater, 0.5 tie, 0 smaller):")
print(eng.decrypt(pipe.comparisons[(0, 0)]).reshape(4, 4))
ranks = read_col(eng, pipe.ranks.blocks[0], pipe.layout, 4)
print("ranks (row sums + 0.5, in column 0):", ranks)
print("ranks match the oracle:", np.array_equal(ranks, reference.fractional_ranks(v)))

report = eng.cost_snapshot()
print(f"\ncost: {report.cmp_evals} comparison, {report.rotations} rotations "
      f"(4*log2(4) = 8), {report.levels_consumed} levels")

print("\nTied elements share their fractional rank:")
tied = [50.0, 10.0, 20.0, 20.0, 40.0]
eng5 = HESimulator(HEParams(slot_count=64, max_level=32))
res = rank(eng5, eng5.encrypt(tied), 5, cfg)
ranks = read_col(eng5, res.ranks, res.layout, 5)
print("  ", tied, "->", ranks)
print("   fractional ranks match the oracle:", np.array_equal(ranks, reference.fractional_ranks(tied)))

print("\nThe tie-correction offset redistributes ties into a permutation;")
print("its cells join the comparisons before the one rank fold:")
eng5.cost_reset()
res = rank_corrected(eng5, eng5.encrypt(tied), 5, cfg)
ranks = read_col(eng5, res.ranks, res.layout, 5)
print("  ", tied, "->", ranks)
print("   corrected ranks match the oracle:", np.array_equal(ranks, reference.corrected_ranks(tied)))
report = eng5.cost_snapshot()
log_n = (5 - 1).bit_length()
print(f"\ncost of the corrected ranking: {report.cmp_evals} comparison, "
      f"{report.rotations} rotations (4*log2(8) = {4 * log_n})")
print("   within the uncorrected rank budget:", report.rotations <= 4 * log_n)
