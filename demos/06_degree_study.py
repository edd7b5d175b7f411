#!/usr/bin/env python3
"""How the comparison degree trades accuracy for depth.

Ranks a 128-element vector with polynomial comparison kernels of doubling
degree and reports how far each element lands from its true rank.  Errors
concentrate on close pairs: the fitted step cannot separate values closer
than roughly its transition width, so displacement shrinks as the degree
grows (and, for a fixed degree, as the data spreads out).
"""

import numpy as np

from slotrank import HEParams, HESimulator, KernelConfig, rank, read_row
from slotrank import reference

N, SEEDS = 128, 5

print(f"ranking {N} uniform values, {SEEDS} seeds per degree\n")
print("degree   depth   avg displacement   max displacement")
averages = []
for degree in (64, 128, 256, 512, 1024):
    cfg = KernelConfig(mode="chebyshev", degree=degree)
    disp = []
    for seed in range(SEEDS):
        v = np.random.default_rng(seed).uniform(0, 1, N)
        eng = HESimulator(HEParams(slot_count=N * N, max_level=40))
        res = rank(eng, eng.encrypt(v), N, cfg)
        disp.append(reference.rank_displacement(read_row(eng, res.ranks, N), v))
        levels = eng.cost_snapshot().levels_consumed
    disp = np.concatenate(disp)
    averages.append(disp.mean())
    print(f"{degree:6d}   {levels:5d}   {disp.mean():16.4f}   {disp.max():16.4f}")

print("avg displacement falls with every doubling:", all(np.diff(averages) < 0))

print("\nWider gaps help at any degree (degree 256, equally spaced values):")
for gap in (0.0005, 0.002, 0.0078):
    cfg = KernelConfig(mode="chebyshev", degree=256)
    v = np.random.default_rng(7).permutation(N) * gap
    eng = HESimulator(HEParams(slot_count=N * N, max_level=40))
    res = rank(eng, eng.encrypt(v), N, cfg)
    ranks = read_row(eng, res.ranks, N)
    d = reference.rank_displacement(ranks, v)
    print(f"  gap = {gap:<7} -> avg {d.mean():.4f}, max {d.max():.4f}")
print("every rank at gap 0.0078 rounds to the oracle:",
      np.array_equal(np.round(ranks), reference.fractional_ranks(v)))

print("\nThe same sweep is scriptable as:")
print("  slotrank bench --task rank --count 128 --degrees 64,128,256,512,1024")
