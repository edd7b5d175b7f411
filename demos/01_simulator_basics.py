#!/usr/bin/env python3
"""Tour of the instrumented simulator: slots, levels, rotations, counters."""

import numpy as np

from slotrank import DepthBudgetError, HEParams, HESimulator

params = HEParams(slot_count=8, max_level=6)
eng = HESimulator(params)

print("A ciphertext is a fixed-width slot vector with a level budget.")
ct = eng.encrypt([1.0, 2.0, 3.0])
print("  encrypt([1,2,3])      ->", eng.decrypt(ct), f"level={ct.level}")

print("\nArithmetic is slotwise; multiplications consume one level each.")
doubled = eng.add(ct, ct)
squared = eng.mul(ct, ct)
print("  x + x                 ->", eng.decrypt(doubled)[:3], f"level={doubled.level}")
print("  x * x                 ->", eng.decrypt(squared)[:3], f"level={squared.level}")
masked = eng.mul_plain(ct, [1, 0, 1, 0, 0, 0, 0, 0])
print("  x * plaintext mask    ->", eng.decrypt(masked)[:3], f"level={masked.level}")

print("\nRotation is cyclic over the whole slot vector (left for k > 0).")
print("  rotate(x, 1)          ->", eng.decrypt(eng.rotate(ct, 1)))
print("  rotate(x, -2)         ->", eng.decrypt(eng.rotate(ct, -2)))

print("\nEvery operation shows up in the cost report:")
report = eng.cost_snapshot()
print(" ", report)

print("\nExhausting the level budget raises a depth-budget error:")
deep = ct
try:
    while True:
        deep = eng.mul(deep, deep)
except DepthBudgetError as err:
    print(f"   {err.site}: {err.needed} level(s) needed, {err.available} available")

print("\nWith noise_sigma > 0 every arithmetic op perturbs the slots:")
noisy = HESimulator(HEParams(slot_count=8, max_level=6, noise_sigma=1e-4, seed=1))
x = noisy.encrypt(np.ones(8))
print("  1 + 1 =", noisy.decrypt(noisy.add(x, x))[:4])
