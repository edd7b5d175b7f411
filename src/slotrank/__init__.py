"""Ranking, order statistics, and sorting on SIMD-packed vectors.

All elements of a packed vector are compared against each other in a
single comparison-kernel evaluation by replicating the vector across the
rows and columns of a slot-encoded square matrix; aggregating the
comparison matrix yields fractional ranks, from which order statistics
and a full sort follow with one more indicator evaluation.  The backend
is an instrumented cleartext simulator of a leveled SIMD HE scheme that
counts rotations, multiplications, and consumed depth.
"""

from .chebyshev import (
    ChebyshevPolynomial,
    KernelConfig,
    cheb_eval,
    cheb_fit,
    compare_ge_kernel,
    compare_gt_kernel,
    compare_kernel,
    equality_from_compare,
    goldschmidt_inverse,
    indicator_kernel,
    kernel_depth,
    ps_eval,
)
from .engine import (
    CapacityError,
    Ciphertext,
    CostReport,
    DepthBudgetError,
    EngineError,
    HEParams,
    HESimulator,
    IncompatibleParamsError,
)
from .matrix import MatrixLayout, mask, replicate, sum_axis, transpose_vector
from .ranking import (
    BlockVector,
    RankResult,
    block_merge,
    block_size_for,
    block_split,
    multi_rank,
    rank,
    rank_corrected,
    read_col,
    read_row,
    tie_offset,
)
from .select import StatisticQuery, median, order_statistic_mask, order_statistic_value, percentile
from .sorting import SortConfig, multi_sort, sort

__version__ = "0.1.0"

__all__ = [
    "HEParams",
    "HESimulator",
    "Ciphertext",
    "CostReport",
    "EngineError",
    "CapacityError",
    "IncompatibleParamsError",
    "DepthBudgetError",
    "ChebyshevPolynomial",
    "KernelConfig",
    "cheb_fit",
    "cheb_eval",
    "ps_eval",
    "kernel_depth",
    "compare_kernel",
    "compare_gt_kernel",
    "compare_ge_kernel",
    "indicator_kernel",
    "equality_from_compare",
    "goldschmidt_inverse",
    "MatrixLayout",
    "mask",
    "sum_axis",
    "replicate",
    "transpose_vector",
    "RankResult",
    "BlockVector",
    "rank",
    "rank_corrected",
    "tie_offset",
    "block_size_for",
    "block_split",
    "block_merge",
    "multi_rank",
    "read_row",
    "read_col",
    "StatisticQuery",
    "order_statistic_mask",
    "order_statistic_value",
    "median",
    "percentile",
    "SortConfig",
    "sort",
    "multi_sort",
]
