"""Ranking, order statistics, and sorting on SIMD-packed vectors.

All elements of a packed vector are compared against each other in a
single comparison-kernel evaluation by replicating the vector across the
rows and columns of a slot-encoded square matrix; aggregating the
comparison matrix yields fractional ranks, from which order statistics
and a full sort follow with one more indicator evaluation.  The backend
is an instrumented cleartext simulator of a leveled SIMD HE scheme that
counts rotations, multiplications, and consumed depth.
"""

from . import chebyshev, engine, matrix, ranking, select, sorting
from .chebyshev import *
from .engine import *
from .matrix import *
from .ranking import *
from .select import *
from .sorting import *

__version__ = "0.1.0"

__all__ = [*engine.__all__, *chebyshev.__all__, *matrix.__all__, *ranking.__all__, *select.__all__, *sorting.__all__]
