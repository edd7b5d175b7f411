"""Order-statistic extraction from the encrypted ranking.

A rank-window indicator applied to the column-0 ranking yields a selection
mask in column 0 (the argmin/argmax answer); the statistic's value is the
inner product of that mask with the ranking's column-replicated input,
divided by the mask's L1 norm through a Goldschmidt reciprocal.  Minimum
and maximum use the strict and weak comparison kernels so duplicated
extremes all land on rank 1 and rank N, and the multi-hot mask is
normalised away by the division.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chebyshev import KernelConfig, goldschmidt_inverse, indicator_kernel, with_input_range
from .engine import Ciphertext, HESimulator
from .matrix import MatrixLayout, sum_axis
from .ranking import RankPipeline, rank_pipeline

__all__ = [
    "StatisticQuery",
    "StatisticMask",
    "order_statistic_mask",
    "order_statistic_value",
    "median",
    "percentile",
]

# Squaring steps of the Goldschmidt reciprocal that normalises a selection
# mask's L1 norm (at most n) away.
_GOLDSCHMIDT_ITERS = 8


@dataclass(frozen=True)
class StatisticQuery:
    """What to extract: kind in {"kth", "min", "max", "median", "percentile"}."""

    kind: str
    k: int | None = None
    p: float | None = None

    def __post_init__(self):
        if self.kind not in ("kth", "min", "max", "median", "percentile"):
            raise ValueError(f"unknown statistic kind {self.kind!r}")
        if self.kind == "kth" and (self.k is None or self.k < 1):
            raise ValueError("kind='kth' needs k >= 1")
        if self.kind == "percentile" and (self.p is None or not 0.0 <= self.p <= 100.0):
            raise ValueError("kind='percentile' needs p in [0, 100]")


@dataclass(frozen=True)
class StatisticMask:
    """Selection mask in column 0 of the matrix encoding."""

    mask: Ciphertext
    layout: MatrixLayout


def _nearest_rank(n: int, p: float) -> int:
    k = int(p * n / 100.0 + 0.5)
    return min(max(k, 1), n)


def _resolve(query: StatisticQuery, n: int) -> tuple[str, int]:
    """Map a query to (comparison kernel, target rank)."""
    kind = query.kind
    if kind == "percentile":
        if query.p == 0.0:
            kind = "min"
        elif query.p == 100.0:
            kind = "max"
        else:
            return "fractional", _nearest_rank(n, query.p)
    if kind == "min":
        return "strict", 1
    if kind == "max":
        return "weak", n
    if kind == "median":
        if n % 2 == 0:
            raise ValueError("even-length median needs two statistics; use median()")
        return "fractional", (n + 1) // 2
    if query.k > n:
        raise ValueError(f"k={query.k} out of range for vector length {n}")
    return "fractional", query.k


def _rank_for_query(engine, ct, n, comparison, cfg, tie_correction) -> RankPipeline:
    correct = tie_correction and comparison == "fractional"
    return rank_pipeline(engine, ct, n, cfg, comparison=comparison, tie_correction=correct)


def _window_mask(engine, pipe: RankPipeline, k: int, n: int, cfg: KernelConfig) -> Ciphertext:
    # open window: a half-integer fractional rank sitting exactly on the
    # edge (an uncorrected tie) belongs to no integer rank.  The fit range
    # must reach down to 0 because the empty slots of the rank vector hold
    # zeros and the fitted polynomial is evaluated on every slot.
    window_cfg = with_input_range(cfg, -0.5, n + 0.5)
    return indicator_kernel(engine, pipe.result.ranks, k - 0.5, k + 0.5, window_cfg)


def order_statistic_mask(
    engine: HESimulator,
    ct: Ciphertext,
    n: int,
    query: StatisticQuery,
    cfg: KernelConfig,
    *,
    tie_correction: bool = True,
) -> StatisticMask:
    """Column-0 selection mask: 1 in the positions whose rank is the queried one.

    With tie correction the mask is one-hot; without it, elements of an
    unoccupied fractional rank are simply missed (the mask is all zero).
    """
    comparison, k = _resolve(query, n)
    pipe = _rank_for_query(engine, ct, n, comparison, cfg, tie_correction)
    return StatisticMask(_window_mask(engine, pipe, k, n, cfg), pipe.result.layout)


def _value_from_mask(engine, sel, pipe: RankPipeline, n) -> Ciphertext:
    # the mask and the replicated input share column 0; folding the rows
    # lands both sums in slot 0
    product = engine.mul(sel, pipe.col_replicated, site="statistic-inner-product")
    numerator = sum_axis(engine, product, pipe.result.layout, "row")
    norm = sum_axis(engine, sel, pipe.result.layout, "row")
    inv = goldschmidt_inverse(engine, norm, (0.5, n + 0.5), _GOLDSCHMIDT_ITERS)
    return engine.mul(numerator, inv, site="statistic-normalise")


def order_statistic_value(
    engine: HESimulator,
    ct: Ciphertext,
    n: int,
    query: StatisticQuery,
    cfg: KernelConfig,
    *,
    tie_correction: bool = True,
) -> Ciphertext:
    """Value of the queried statistic, in slot 0; zero if no rank matches."""
    comparison, k = _resolve(query, n)
    pipe = _rank_for_query(engine, ct, n, comparison, cfg, tie_correction)
    sel = _window_mask(engine, pipe, k, n, cfg)
    return _value_from_mask(engine, sel, pipe, n)


def median(
    engine: HESimulator,
    ct: Ciphertext,
    n: int,
    cfg: KernelConfig,
    *,
    tie_correction: bool = True,
) -> Ciphertext:
    """Median in slot 0; the even case averages the two middle statistics.

    Both middle statistics reuse one ranking, so the even case costs one
    extra indicator, inner product, and a plaintext 0.5.  Without tie
    correction a tied middle rank can be unoccupied, as in
    ``order_statistic_value``.
    """
    if n % 2 == 1:
        query = StatisticQuery("kth", k=(n + 1) // 2)
        return order_statistic_value(engine, ct, n, query, cfg, tie_correction=tie_correction)
    pipe = _rank_for_query(engine, ct, n, "fractional", cfg, tie_correction)
    engine.share(pipe.result.ranks)  # read by both windows
    lo_sel = _window_mask(engine, pipe, n // 2, n, cfg)
    hi_sel = _window_mask(engine, pipe, n // 2 + 1, n, cfg)
    lo_val = _value_from_mask(engine, lo_sel, pipe, n)
    hi_val = _value_from_mask(engine, hi_sel, pipe, n)
    return engine.mul_plain(engine.add(lo_val, hi_val), 0.5, site="median-average")


def percentile(engine: HESimulator, ct: Ciphertext, n: int, p: float, cfg: KernelConfig) -> Ciphertext:
    """Nearest-rank percentile; p=0 and p=100 take the min/max paths."""
    return order_statistic_value(engine, ct, n, StatisticQuery("percentile", p=float(p)), cfg)
