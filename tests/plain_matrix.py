"""Brute-force plaintext counterparts of the slot-matrix primitives.

Everything operates on explicit N x N numpy arrays; used as the
independent oracle for the rotation-based implementations.  The one
exception, ``comparison_matrix``, rebuilds on an engine a block comparison
matrix, which the rank pipeline computes but does not keep.
"""

import numpy as np

from slotrank import compare_kernel, replicate, transpose_vector


def to_slots(matrix: np.ndarray, slot_count: int) -> np.ndarray:
    out = np.zeros(slot_count)
    out[: matrix.size] = matrix.ravel()
    return out


def from_slots(slots: np.ndarray, n: int) -> np.ndarray:
    return slots[: n * n].reshape(n, n).copy()


def mask_line(m: np.ndarray, axis: str, k: int) -> np.ndarray:
    out = np.zeros_like(m)
    if axis == "row":
        out[k, :] = m[k, :]
    else:
        out[:, k] = m[:, k]
    return out


def fold(m: np.ndarray, axis: str, full: bool = False) -> np.ndarray:
    """Column sums in row 0 (axis="row"), and in every row when the matrix
    fills the slots (``full``), or row sums in column 0."""
    out = np.zeros_like(m)
    if axis == "row":
        out[slice(None) if full else 0, :] = m.sum(axis=0)
    else:
        out[:, 0] = m.sum(axis=1)
    return out


def spread(m: np.ndarray, axis: str) -> np.ndarray:
    n = m.shape[0]
    if axis == "row":
        return np.tile(m[0, :], (n, 1))
    return np.tile(m[:, 0][:, None], (1, n))


def move_vector(m: np.ndarray, direction: str) -> np.ndarray:
    out = np.zeros_like(m)
    if direction == "row_to_col":
        out[:, 0] = m[0, :]
    else:
        out[0, :] = m[:, 0]
    return out


def comparison_matrix(engine, col_block, row_block, layout, cfg):
    """The ciphertext whose cell (r, c) is cmp(y_c, x_r), entry c of
    ``row_block`` against entry r of ``col_block`` (both vectors in row 0),
    built from the public calls the rank pipeline makes: row replication,
    transposition, column replication and one ``compare_kernel``."""
    rows = replicate(engine, row_block, layout, "row")
    cols = replicate(engine, transpose_vector(engine, col_block, layout, "row_to_col"), layout, "col")
    return compare_kernel(engine, rows, cols, cfg)
