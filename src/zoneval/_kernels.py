"""The factorization step of the least-squares core.

One implementation in two passes, numpy only.  LAPACK Householder QR
(``dgeqrf``, through :func:`numpy.linalg.qr`) yields the triangle of the
n x (p+1) matrix [X_s | y_s], each column of [X | y] times the power of
two the caller gives (:mod:`zoneval.lstsq` gives the ones that bring
each column's largest |value| into [1/2, 1)): its leading p x p block is
R and its last column Q^T y_s, without forming Q.  A power of two scales
every rounding with it, so these are the factors of [X | y], each column
scaled, to the bit; the scaling is done as each block is copied, with no
n x p temporary.  A tall matrix is factored as a tall-skinny QR (Demmel,
Grigori, Hoemmen & Langou 2012): each block of ``BLOCK_ROWS`` rows on
its own, then the stacked block triangles once more.  That gives the
same triangle up to the signs of its rows, which neither R b = Q^T y,
R^-1 R^-T nor the pivots below depend on; a matrix of ``BLOCK_ROWS``
rows or fewer is factored in one call.  A column-pivoted Householder
pass (Businger-Golub) then runs on the p x p triangle only, its columns
scaled to unit norm.  X_s^T X_s = R^T R, so its pivots, and the rank
decided on them in :mod:`zoneval.lstsq`, are those of pivoting X's
unit-norm columns.  The pass leaves the triangle's last diagonal entry
alone: it is the residual norm, as LAPACK's ``dgels`` reads it.
"""

from __future__ import annotations

import math

import numpy as np

# rows per block: with one BLAS thread, 2,048-row blocks of [X | y] at
# p = 14 (240 KiB each) factored faster than 512-, 1,024- or 4,096-row
# ones, and than one call on the whole matrix; with two OpenBLAS threads
# on two vCPUs, 512-row blocks were faster
BLOCK_ROWS = 2048


def _triangle(X: np.ndarray, y: np.ndarray, x_scales: np.ndarray, y_scale: float) -> np.ndarray:
    """The R factor of [X * x_scales | y * y_scale], up to the signs of its rows."""
    n, p = X.shape
    # one scalar multiply per column: numpy's broadcast multiply by the row of
    # scales took about 240 us per 12,475 x 14 design, these about 195
    columns = list(zip((*X.T, y), (*np.broadcast_to(x_scales, p).tolist(), float(y_scale))))
    triangles = []
    for i in range(0, n, BLOCK_ROWS):
        block = np.empty((min(BLOCK_ROWS, n - i), p + 1), order="F")
        for j, (column, scale) in enumerate(columns):
            np.multiply(column[i : i + BLOCK_ROWS], scale, out=block[:, j])
        # at most p+1 rows each; a short tail block has fewer
        triangles.append(np.linalg.qr(block, mode="r"))
    if len(triangles) == 1:
        return triangles[0]
    return np.linalg.qr(np.concatenate(triangles), mode="r")


def qr_pivot_decompose(
    X: np.ndarray, y: np.ndarray, x_scales: np.ndarray, y_scale: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Return ``(qty, r_upper, jpvt, rnorm)`` with X_s[:, jpvt] = Q r_upper,
    qty = Q^T y_s and, when X has full rank, rnorm = ||y_s - X_s b|| at the
    least-squares b, for X_s = X * x_scales and y_s = y * y_scale (powers
    of two); jpvt[k] is the original index of the k-th pivot.  Needs n >= p."""
    p = X.shape[1]
    triangle = _triangle(X, y, x_scales, y_scale)
    # row p of the factor holds only |residual|, absent when n == p; the
    # p x p pass needs the rest
    rnorm = abs(float(triangle[p, p])) if triangle.shape[0] > p else 0.0
    ry = triangle[:p].copy()
    # pivot on unit-norm columns (the triangle keeps X_s's column norms; a
    # reflector is the same for a column and for any multiple of it)
    norms = np.linalg.norm(ry[:, :p], axis=0)
    ry[:, :p] /= np.where(norms, norms, 1.0)
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
    return ry[:, p], ry[:, :p] * norms[jpvt], np.array(jpvt), rnorm
