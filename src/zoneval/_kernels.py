"""The factorization step of the least-squares core.

One implementation in two passes, numpy only.  LAPACK Householder QR
(``dgeqrf``, through :func:`numpy.linalg.qr`) yields the triangle of the
n x (p+1) matrix [X | y]: its leading p x p block is R and its last
column Q^T y, without forming Q.  A tall matrix is factored as a
tall-skinny QR (Demmel, Grigori, Hoemmen & Langou 2012): each block of
``BLOCK_ROWS`` rows on its own, then the stacked block triangles once
more.  That gives the same triangle up to the signs of its rows, which
neither R b = Q^T y, R^-1 R^-T nor the pivots below depend on; a matrix
of ``BLOCK_ROWS`` rows or fewer is factored in one call.  A
column-pivoted Householder pass (Businger-Golub) then runs on the p x p
triangle only, its columns scaled to unit norm.  X^T X = R^T R, so its
pivots, and the rank decided on them in :mod:`zoneval.lstsq`, are those
of pivoting X's unit-norm columns.
"""

from __future__ import annotations

import math

import numpy as np

# The largest sum of squares a column of X may have.  The triangle keeps
# each column's norm, and the pivoted pass below forms no value above
# twice the largest sum of squares S: with norm = |column k| and ||v||
# <= 2 norm, norm * (norm + |head|) <= 2 S, and every partial sum of
# v @ rest is at most ||v|| |rest column| <= 2 S (Cauchy-Schwarz).  A
# further factor of 2 covers rounding, so the pass cannot overflow.
MAX_COLUMN_SQUARES = np.finfo(np.float64).max / 4

# rows per block: with one BLAS thread, 2,048-row blocks of [X | y] at
# p = 14 (240 KiB each) factored faster than 512-, 1,024- or 4,096-row
# ones, and than one call on the whole matrix; with two OpenBLAS threads
# on two vCPUs, 512-row blocks were faster
BLOCK_ROWS = 2048


def _triangle(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The R factor of [X | y], up to the signs of its rows."""
    n, p = X.shape
    triangles = []
    for i in range(0, n, BLOCK_ROWS):
        block = np.empty((min(BLOCK_ROWS, n - i), p + 1), order="F")
        block[:, :p] = X[i : i + BLOCK_ROWS]
        block[:, p] = y[i : i + BLOCK_ROWS]
        # at most p+1 rows each; a short tail block has fewer
        triangles.append(np.linalg.qr(block, mode="r"))
    if len(triangles) == 1:
        return triangles[0]
    return np.linalg.qr(np.concatenate(triangles), mode="r")


def qr_pivot_decompose(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(qty, r_upper, jpvt)`` with X[:, jpvt] = Q r_upper and
    qty = Q^T y; jpvt[k] is the original index of the k-th pivot.
    Needs n >= p."""
    p = X.shape[1]
    # row p of the factor holds only |residual|; the p x p pass needs the rest
    ry = _triangle(X, y)[:p].copy()
    # pivot on unit-norm columns (the triangle keeps X's column norms; a
    # reflector is the same for a column and for any multiple of it)
    scales = np.linalg.norm(ry[:, :p], axis=0)
    ry[:, :p] /= np.where(scales, scales, 1.0)
    jpvt = list(range(p))
    # the last column needs no reflector (LAPACK's dlarfg leaves it as is)
    for k in range(p - 1):
        below = ry[k:]
        # pivot: the remaining column of largest norm below row k
        sq = np.einsum("ij,ij->j", below[:, k:p], below[:, k:p])
        j = int(sq.argmax())
        norm = math.sqrt(sq[j])
        j += k
        if j != k:
            col = ry[:, k].copy()
            ry[:, k] = ry[:, j]
            ry[:, j] = col
            jpvt[k], jpvt[j] = jpvt[j], jpvt[k]
        if norm == 0.0:
            continue
        # reflect column k onto -sign(head) * norm * e_k, and every later
        # column, Q^T y included, with it
        v = below[:, k].copy()
        head = v[0]
        alpha = -norm if head >= 0.0 else norm
        v[0] = head - alpha
        rest = below[:, k + 1 :]
        rest -= np.multiply.outer(v, (v @ rest) / (norm * (norm + abs(head))))
        below[:, k] = 0.0
        below[0, k] = alpha
    return ry[:, p], ry[:, :p] * scales[jpvt], np.array(jpvt)
