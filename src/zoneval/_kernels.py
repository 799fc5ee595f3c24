"""The factorization step of the least-squares core.

One implementation: LAPACK column-pivoted Householder QR (``dgeqp3``)
through :func:`scipy.linalg.qr_multiply`, which yields Q^T y, R and the
pivots without forming Q.  Rank detection and the solve stay in
:mod:`zoneval.lstsq`.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


def qr_pivot_decompose(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(qty, r_upper, jpvt)`` with X[:, jpvt] = Q r_upper and
    qty = Q^T y; jpvt[k] is the original index of the k-th pivot."""
    return scipy.linalg.qr_multiply(X, y, mode="right", pivoting=True)
