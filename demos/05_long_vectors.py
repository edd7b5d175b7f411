#!/usr/bin/env python3
"""Vectors too long for one matrix: block encoding and complement reuse.

A length-N vector needs N^2 slots for the all-pairs comparison; once that
exceeds the ciphertext, the vector is split into blocks of side B and the
comparison runs block against block.  Because cmp(x, y) = 1 - cmp(y, x),
only the ordered block pairs are evaluated: L(L+1)/2 comparisons instead
of L^2.  Each block folds its comparisons against earlier blocks along the
other axis and transposes that one sum.  A vector that fits one matrix is
the one-block case of the same pipeline.
"""

import numpy as np

from slotrank import (
    HEParams,
    HESimulator,
    KernelConfig,
    SortConfig,
    block_merge,
    block_size_for,
    block_split,
    multi_rank,
    multi_sort,
)
from slotrank import reference

cfg = KernelConfig(mode="ideal", degree=256)

eng = HESimulator(HEParams(slot_count=256, max_level=64))
print(f"slot_count=256 -> block side B = {block_size_for(eng)}")

rng = np.random.default_rng(42)
v = rng.uniform(0, 1, 64)
blocks = block_split(eng, v)
count = len(blocks.blocks)
print(f"N={v.size} splits into L={count} blocks")

eng.cost_reset()
ranks = block_merge(eng, multi_rank(eng, blocks, cfg))
rep = eng.cost_snapshot()
print(f"\nmulti-block ranking: {rep.cmp_evals} comparisons "
      f"(L(L+1)/2 = {count * (count + 1) // 2}, down from L^2 = {count * count})")
print("matches the plaintext oracle:",
      bool(np.array_equal(ranks, reference.fractional_ranks(v))))

eng.cost_reset()
out = block_merge(eng, multi_sort(eng, blocks, SortConfig(kernel=cfg, tie_correction=False)))
rep = eng.cost_snapshot()
print(f"\nmulti-block sorting: {rep.cmp_evals} comparisons, {rep.ind_evals} indicators (L^2)")
print("matches numpy sort:", bool(np.array_equal(out, np.sort(v))))

print("\nTie correction extends across block boundaries:")
v = rng.uniform(0, 1, 40)
v[rng.integers(0, 40, size=12)] = v[rng.integers(0, 40, size=12)]
corrected = block_merge(eng, multi_rank(eng, block_split(eng, v), cfg, tie_correction=True))
print("  permutation of 1..40:", bool(np.array_equal(np.sort(corrected), np.arange(1.0, 41.0))))
print("  equals the plaintext oracle:",
      bool(np.array_equal(corrected, reference.corrected_ranks(v))))
