"""The factorization step of the least-squares core.

One implementation in two passes, numpy only.  LAPACK Householder QR
(``dgeqrf``, through :func:`numpy.linalg.qr`) factors the n x (p+1)
matrix [X | y] once: its leading p x p triangle is R and its last
column Q^T y, without forming Q.  A column-pivoted Householder pass
(Businger-Golub) then runs on that p x p triangle only.  X^T X = R^T R,
so its pivots, and the rank decided on them in :mod:`zoneval.lstsq`,
are those of pivoting X itself.
"""

from __future__ import annotations

import math

import numpy as np


def qr_pivot_decompose(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(qty, r_upper, jpvt)`` with X[:, jpvt] = Q r_upper and
    qty = Q^T y; jpvt[k] is the original index of the k-th pivot.
    Needs n >= p."""
    n, p = X.shape
    Xy = np.empty((n, p + 1), order="F")
    Xy[:, :p] = X
    Xy[:, p] = y
    # row p of the factor holds only |residual|; the p x p pass needs the rest
    ry = np.linalg.qr(Xy, mode="r")[:p].copy()
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
    return ry[:, p], ry[:, :p], np.array(jpvt)
