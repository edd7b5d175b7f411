"""Plaintext reference implementations used as oracles.

Everything here works on ordinary numpy arrays in the clear, straight from
the definitions: fractional ranks average the positions a tie group spans,
corrected ranks break ties by original position, order statistics come
from a sorted copy.  The encrypted pipelines are validated against these
functions and the bench command uses them to score approximation error.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "fractional_ranks",
    "corrected_ranks",
    "tie_offsets",
    "sorted_values",
    "kth_smallest",
    "median_value",
    "nearest_rank",
    "percentile_value",
    "statistic_value",
    "rank_displacement",
]


def fractional_ranks(values) -> np.ndarray:
    """Rank of each element; tie groups get the mean of the spanned positions."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size, dtype=np.float64)
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and v[order[j + 1]] == v[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def corrected_ranks(values) -> np.ndarray:
    """Tie-corrected ranks: a permutation of 1..N, ties broken by position."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size, dtype=np.float64)
    ranks[order] = np.arange(1, v.size + 1, dtype=np.float64)
    return ranks


def tie_offsets(values) -> np.ndarray:
    """Per-element offset turning fractional ranks into corrected ranks."""
    return corrected_ranks(values) - fractional_ranks(values)


def sorted_values(values) -> np.ndarray:
    return np.sort(np.asarray(values, dtype=np.float64))


def kth_smallest(values, k: int) -> float:
    v = sorted_values(values)
    if not 1 <= k <= v.size:
        raise ValueError(f"k must lie in [1, {v.size}], got {k}")
    return float(v[k - 1])


def median_value(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def nearest_rank(n: int, p: float) -> int:
    """Nearest-rank index for percentile p in [0, 100], clamped to [1, n]."""
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {p}")
    k = int(np.floor(p * n / 100.0 + 0.5))
    return min(max(k, 1), n)


def percentile_value(values, p: float) -> float:
    v = np.asarray(values, dtype=np.float64)
    return kth_smallest(v, nearest_rank(v.size, p))


def statistic_value(values, kind: str, k: int | None = None, p: float | None = None) -> float:
    """The order statistic ``kind`` of ``values``: "min", "max", "median",
    "kth" (the ``k``-th smallest) or "percentile" (the nearest rank of
    ``p``; 0 and 100 give the min and the max)."""
    v = np.asarray(values, dtype=np.float64)
    if kind == "median":
        return median_value(v)
    if kind == "percentile":
        return percentile_value(v, p)
    ranks = {"min": 1, "max": v.size, "kth": k}
    if kind not in ranks:
        raise ValueError(f"unknown statistic {kind!r}")
    return kth_smallest(v, ranks[kind])


def rank_displacement(estimated_ranks, values) -> np.ndarray:
    """How many positions each element is ranked away from its true rank."""
    est = np.asarray(estimated_ranks, dtype=np.float64)
    return np.abs(est - fractional_ranks(values))
