#!/usr/bin/env python3
"""Extracting order statistics: masks, values, min/max, median, percentiles.

Selection masks land in column 0 of the matrix encoding, as the ranks do;
a statistic's value lands in slot 0.  A vector longer than one matrix is
split into blocks, as for ranking and sorting.
"""

import numpy as np

from slotrank import (
    HEParams,
    HESimulator,
    KernelConfig,
    StatisticQuery,
    block_split,
    median,
    multi_statistic,
    order_statistic_mask,
    order_statistic_value,
    percentile,
    read_col,
)
from slotrank import reference

eng = HESimulator(HEParams(slot_count=64, max_level=64))
cfg = KernelConfig(mode="ideal", degree=256)

v = [0.20, 0.30, 0.10, 0.40]
print("input:", v)

print("\nA rank-window indicator turns the ranking into a selection mask:")
for k in (1, 4):
    m = order_statistic_mask(eng, eng.encrypt(v), 4, StatisticQuery("kth", k=k), cfg)
    mask = read_col(eng, m.mask, m.layout, 4)  # four values in a 4x4 matrix
    print(f"  rank {k} mask ->", mask)
    print(f"  rank {k} mask matches the oracle:", np.array_equal(mask, reference.corrected_ranks(v) == k))

print("\nThe value is the inner product with the mask, divided by its norm")
print("(the number of target ranks, known in the clear; the division runs as")
print("a Goldschmidt reciprocal iteration seeded at its inverse):")
for query, label in [
    (StatisticQuery("min"), "min   "),
    (StatisticQuery("kth", k=2), "2nd   "),
    (StatisticQuery("max"), "max   "),
]:
    val = eng.decrypt(order_statistic_value(eng, eng.encrypt(v), 4, query, cfg))[0]
    k = {"min": 1, "max": 4}.get(query.kind, query.k)
    print(f"  {label} -> {val:.6f}  matches the oracle exactly:", val == reference.kth_smallest(v, k))

print("\nDuplicated extremes: min and max are rank 1 and rank N of the")
print("tie-corrected ranking, which breaks ties by position, so one copy of a")
print("tied extreme is selected, the mask norm is 1, and the value is exact:")
dup = [0.1, 0.1, 0.5, 0.9, 0.9, 0.3]
lo = eng.decrypt(order_statistic_value(eng, eng.encrypt(dup), 6, StatisticQuery("min"), cfg))[0]
hi = eng.decrypt(order_statistic_value(eng, eng.encrypt(dup), 6, StatisticQuery("max"), cfg))[0]
m = order_statistic_mask(eng, eng.encrypt([0.7, 0.7, 0.7]), 3, StatisticQuery("min"), cfg)
print(f"  min {dup} -> {lo:.6f}  matches the oracle exactly:", lo == min(dup))
print(f"  max {dup} -> {hi:.6f}  matches the oracle exactly:", hi == max(dup))
first_min = read_col(eng, m.mask, m.layout, 3)
print("  min mask of an all-equal vector ->", first_min)
print("  the first copy alone holds rank 1:", np.array_equal(first_min, [1, 0, 0]))

print("\nMedian and percentiles ride on the same machinery:")
odd = [0.10, 0.20, 0.30]
even = [0.20, 0.30, 0.10, 0.40]
for vec in (odd, even):
    med = eng.decrypt(median(eng, eng.encrypt(vec), len(vec), cfg))[0]
    print(f"  median {vec} -> {med:.6f}  matches the oracle:", abs(med - reference.median_value(vec)) < 1e-6)
quarters = [0.1, 0.2, 0.3, 0.4]
p75 = eng.decrypt(percentile(eng, eng.encrypt(quarters), 4, 75.0, cfg))[0]
print(f"  75th percentile of {quarters} -> {p75:.6f}  matches the oracle:",
      abs(p75 - reference.percentile_value(quarters, 75.0)) < 1e-6)

rng = np.random.default_rng(0)
v16 = rng.uniform(0, 1, 16)
eng16 = HESimulator(HEParams(slot_count=256, max_level=64))
vals = [
    eng16.decrypt(order_statistic_value(eng16, eng16.encrypt(v16), 16, StatisticQuery("kth", k=k), cfg))[0]
    for k in range(1, 17)
]
print("\nAll 16 statistics of a random vector, vs the sorted truth:")
print("  extracted:", np.round(vals, 4))
print("  sorted:   ", np.round(np.sort(v16), 4))
print("  all within 1e-6 of the oracle:", np.allclose(vals, reference.sorted_values(v16), rtol=0, atol=1e-6))

print("\nA vector longer than one matrix is split into blocks; each block's")
print("ranks get the rank window, and the masked sums add across blocks:")
long_v = rng.uniform(0, 1, 40)
long_v[[7, 31]] = long_v[20]  # a tie that spans blocks
for query in (StatisticQuery("median"), StatisticQuery("min"), StatisticQuery("percentile", p=90.0)):
    eng_long = HESimulator(HEParams(slot_count=256, max_level=64))  # blocks of 16: three, the last padded
    bv = block_split(eng_long, long_v)
    val = eng_long.decrypt(multi_statistic(eng_long, bv, query, cfg))[0]
    truth = {
        "median": reference.median_value(long_v),
        "min": reference.kth_smallest(long_v, 1),
        "percentile": reference.percentile_value(long_v, 90.0),
    }[query.kind]
    print(f"  {query.kind:<10} of 40 values in {len(bv.blocks)} blocks -> {val:.6f}  matches the oracle:",
          abs(val - truth) < 1e-6)
