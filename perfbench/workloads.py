"""Seeded workloads of the slotrank benchmark.

Each workload turns a seed into a fixed list of ``CYCLE`` queries.  The
library only ever sees the generated arrays; the seed, the gap and tie
statistics and the oracle stay on the benchmark's side.  Values are
uniform on [0, 1) with 10% exact duplicates, so tie correction is always
exercised; the data are never reshaped to avoid the known chebyshev
precision loss on close values.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

import slotrank
from slotrank import reference

TIE_FRACTION = 0.1
CYCLE = 20
MAX_LEVEL = 64
# Inputs lie in [0, 1); a chebyshev output further than that from the
# oracle is wrong whatever the approximation degree.
CHEB_ERR_LIMIT = 1.0


def make_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform [0, 1) values of which exactly 10% repeat another entry."""
    values = rng.uniform(0.0, 1.0, n)
    count = round(TIE_FRACTION * n)
    targets = rng.choice(n, size=count, replace=False)
    donors = rng.choice(np.setdiff1d(np.arange(n), targets), size=count)
    values[targets] = values[donors]
    return values


def min_gap(values: np.ndarray) -> float:
    """Smallest non-zero distance between two input values."""
    distinct = np.unique(values)
    return float(np.diff(distinct).min()) if distinct.size > 1 else math.inf


def tie_count(values: np.ndarray) -> int:
    """Entries that repeat an earlier value."""
    return int(values.size - np.unique(values).size)


@dataclass(frozen=True)
class Query:
    """One benchmark call: the input, what is asked, and the noise seed."""

    index: int
    values: np.ndarray
    kind: str
    noise_seed: int
    k: int | None = None
    p: float | None = None

    @property
    def label(self) -> str:
        if self.k is not None:
            return f"{self.kind}(k={self.k})"
        if self.p is not None:
            return f"{self.kind}(p={self.p:g})"
        return self.kind


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kinds: tuple[str, ...]
    n: int
    slot_count: int
    kernel: slotrank.KernelConfig
    # Length of the calibration stream, and its median duration on the host
    # of the first baseline (perfbench/baseline.json).
    calib_reps: int
    calib_ref_s: float
    noise_sigma: float = 0.0
    ranks: tuple[int, ...] = ()
    percentiles: tuple[float, ...] = ()

    @property
    def ideal(self) -> bool:
        return self.kernel.mode == "ideal"

    def queries(self, seed: int) -> list[Query]:
        """The fixed query cycle on seeded inputs; same seed, same queries.

        The seed picks the values and the noise; what is asked stays fixed,
        so that the circuit, and every HE counter, is the same for any seed.
        """
        rng = np.random.default_rng(seed)
        ranks, percentiles = iter(self.ranks * CYCLE), iter(self.percentiles * CYCLE)
        out = []
        for i in range(CYCLE):
            kind = self.kinds[i % len(self.kinds)]
            values = make_values(rng, self.n)
            noise_seed = int(rng.integers(2**31))
            k = next(ranks) if kind == "kth" else None
            p = next(percentiles) if kind == "percentile" else None
            out.append(Query(i, values, kind, noise_seed, k, p))
        return out

    def call(self, q: Query) -> tuple[np.ndarray, slotrank.HESimulator]:
        """One timed call: engine construction through decryption of the result."""
        engine = slotrank.HESimulator(
            slotrank.HEParams(
                slot_count=self.slot_count,
                max_level=MAX_LEVEL,
                noise_sigma=self.noise_sigma,
                seed=q.noise_seed,
            )
        )
        n, cfg = self.n, self.kernel
        if q.kind == "multi_sort":
            bv = slotrank.block_split(engine, q.values)
            out = slotrank.multi_sort(engine, bv, slotrank.SortConfig(kernel=cfg))
            return slotrank.block_merge(engine, out), engine
        ct = engine.encrypt(q.values)
        if q.kind == "sort":
            res = slotrank.sort(engine, ct, n, slotrank.SortConfig(kernel=cfg))
            return engine.decrypt(res)[:n], engine
        if q.kind == "median":
            res = slotrank.median(engine, ct, n, cfg)
        elif q.kind == "percentile":
            res = slotrank.percentile(engine, ct, n, q.p, cfg)
        else:
            query = slotrank.StatisticQuery(q.kind, k=q.k)
            res = slotrank.order_statistic_value(engine, ct, n, query, cfg)
        return engine.decrypt(res)[:1], engine

    def expected(self, q: Query) -> np.ndarray:
        v = q.values
        if q.kind in ("sort", "multi_sort"):
            return reference.sorted_values(v)
        if q.kind == "min":
            value = reference.kth_smallest(v, 1)
        elif q.kind == "max":
            value = reference.kth_smallest(v, v.size)
        elif q.kind == "median":
            value = reference.median_value(v)
        elif q.kind == "kth":
            value = reference.kth_smallest(v, q.k)
        else:
            value = reference.percentile_value(v, q.p)
        return np.array([value])

    def check(self, q: Query, out: np.ndarray) -> tuple[float, str | None]:
        """Largest absolute error against the oracle and the reason the call failed, if it did."""
        if not np.all(np.isfinite(out)):
            return math.inf, "non-finite output"
        err = float(np.max(np.abs(out - self.expected(q))))
        if self.ideal and err != 0.0:
            return err, f"ideal-mode output differs from the oracle by {err:.3g}"
        if err > CHEB_ERR_LIMIT:
            return err, f"output off by {err:.3g}, more than the input range"
        return err, None


class Calibration:
    """A fixed numpy op stream shaped like the engine's, at the workload's slot count.

    The host's speed drifts by tens of percent from minute to minute (other
    tenants share its cores and memory bandwidth), so raw host times of two
    runs are not comparable.  Timing this stream just before each call and
    scaling the call by ``calib_ref_s / calibration`` gives host time at the
    reference speed: the speed at which the stream took ``calib_ref_s``.
    Each step scales one of a pool of 32 slot vectors by a constant, adds it
    to the accumulator and rotates, drawing Gaussian noise too when the
    workload does.
    """

    POOL = 32

    def __init__(self, wl: Workload):
        rng = np.random.default_rng(0)
        self.pool = [rng.uniform(0.0, 1.0, wl.slot_count) for _ in range(self.POOL)]
        self.noise = rng if wl.noise_sigma > 0 else None
        self.reps = wl.calib_reps

    def seconds(self) -> float:
        start = time.perf_counter()
        acc = self.pool[0]
        for i in range(self.reps):
            term = self.pool[i % self.POOL] * 0.5
            if self.noise is not None:
                term = term + self.noise.normal(0.0, 1e-6, term.size)
            acc = np.roll(term + acc, 7)
        return time.perf_counter() - start


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sort_cheb",
            why=(
                "chebyshev sort, n=256 in 2^16 slots, degree 1024: the ps_eval leaf loop "
                "(mul_plain + add on 512 KB vectors) dominates; matrix does only 64 rotations"
            ),
            kinds=("sort",),
            n=256,
            slot_count=1 << 16,
            kernel=slotrank.KernelConfig(mode="chebyshev", degree=1024),
            calib_reps=32,
            calib_ref_s=0.0060,
        ),
        Workload(
            name="multisort_ideal",
            why=(
                "ideal multi_sort, n=1024 in 2^12 slots (16 blocks of 64): thousands of cheap "
                "ops on 32 KB vectors, rotations and ideal_map dominate, ps_eval never runs"
            ),
            kinds=("multi_sort",),
            n=1024,
            slot_count=1 << 12,
            kernel=slotrank.KernelConfig(mode="ideal", degree=256),
            calib_reps=256,
            calib_ref_s=0.0045,
        ),
        Workload(
            name="stats_cheb_noisy",
            why=(
                "fixed min/max/median/kth/percentile cycle on seeded inputs, chebyshev n=64 in 2^12 slots, "
                "degree 256, noise 1e-6: noisy ops, Goldschmidt chain, rank-window fits keyed by k"
            ),
            kinds=("min", "max", "median", "kth", "percentile"),
            n=64,
            slot_count=1 << 12,
            kernel=slotrank.KernelConfig(mode="chebyshev", degree=256, tie_margin=1.0 / 512),
            calib_reps=128,
            calib_ref_s=0.0132,
            noise_sigma=1e-6,
            ranks=(2, 21, 44, 63),
            percentiles=(5.0, 25.0, 75.0, 95.0),
        ),
    )
}
