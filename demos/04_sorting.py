#!/usr/bin/env python3
"""Sorting by extracting every order statistic simultaneously."""

import numpy as np

from slotrank import HEParams, HESimulator, KernelConfig, SortConfig, read_row, sort
from slotrank.sorting import sort_full

cfg_plain = KernelConfig(mode="ideal", degree=256)

print("One comparison + one indicator evaluation sort the whole vector:")
eng = HESimulator(HEParams(slot_count=16, max_level=48))
res = sort_full(
    eng, eng.encrypt([20.0, 30.0, 10.0, 40.0]), 4, SortConfig(kernel=cfg_plain, tie_correction=False)
)
print("  input   [20, 30, 10, 40]")
print("  the shifted rank matrix becomes a permutation mask; column k picks")
print("  the element of rank k+1:")
print(eng.decrypt(res.selection).reshape(4, 4))
print("  sorted ->", read_row(eng, res.values, 4))
rep = eng.cost_snapshot()
print(f"  cost: {rep.cmp_evals} comparison, {rep.ind_evals} indicator, {rep.rotations} rotations")

print("\nThe ranks land in column 0, so the sort reuses both replications of")
print("the ranking step and the values land in row 0 with no transposition:")
n = 16
eng = HESimulator(HEParams(slot_count=n * n, max_level=48))
v = np.random.default_rng(1).permutation(n) / n
out = sort(eng, eng.encrypt(v), n, SortConfig(kernel=cfg_plain, tie_correction=False))
rep = eng.cost_snapshot()
log_n = (n - 1).bit_length()
print(f"  n={n}: {rep.rotations} rotations (budget 6 log2 n = {6 * log_n}),")
print(f"  critical path {rep.critical_rotations} (budget 5 log2 n = {5 * log_n})")
print("  sorted correctly:", np.array_equal(read_row(eng, out, n), np.sort(v)))

print("\nDuplicates sort correctly once tie correction is on:")
eng = HESimulator(HEParams(slot_count=16, max_level=48))
v = [10.0, 20.0, 20.0, 40.0]
out = sort(eng, eng.encrypt(v), 4, SortConfig(kernel=cfg_plain, tie_correction=True))
print("  ", v, "->", read_row(eng, out, 4))

print("\nWith polynomial kernels the output is approximate but faithful for")
print("well-separated values (comparison and indicator at degree 512):")
eng = HESimulator(HEParams(slot_count=64, max_level=64))
cfg_poly = KernelConfig(mode="chebyshev", degree=512)
v = np.array([0.15, 0.55, 0.35, 0.95, 0.05, 0.75, 0.25, 0.85])
out = read_row(eng, sort(eng, eng.encrypt(v), 8, SortConfig(kernel=cfg_poly, tie_correction=False)), 8)
print("  sorted  ->", np.round(out, 6))
print("  exact   ->", np.sort(v))
print("  max err ->", f"{np.abs(out - np.sort(v)).max():.2e}")
