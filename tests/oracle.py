"""Independent references for cross-checking the package's fast paths.

``solve_normal_equations_oracle`` solves the normal equations by Cholesky.
It is numerically inferior to the package's pivoted QR on collinear
designs, which is why it lives here and not in ``zoneval``.

``write_parcels_oracle`` writes every row of a parcel table through
``csv.writer``; ``write_parcels`` must give the same bytes.
"""

import csv

import numpy as np

from zoneval.lstsq import LeastSquaresError, LsFit, _check_inputs
from zoneval.parcels import CANONICAL_SCHEMA


def solve_normal_equations_oracle(X: np.ndarray, y: np.ndarray) -> LsFit:
    """Brute-force reference: b = (X^T X)^-1 X^T y via Cholesky."""
    X, y = _check_inputs(X, y)
    n, p = X.shape
    try:
        chol = np.linalg.cholesky(X.T @ X)
    except np.linalg.LinAlgError as exc:
        raise LeastSquaresError(f"singular normal equations: {exc}") from exc
    chol_inv = np.linalg.inv(chol)
    xtx_inverse = chol_inv.T @ chol_inv
    beta = xtx_inverse @ (X.T @ y)
    fitted = X @ beta
    residuals = y - fitted
    return LsFit(
        coefficients=beta,
        residuals=residuals,
        fitted=fitted,
        rank=p,
        rss=float(residuals @ residuals),
        xtx_inverse=xtx_inverse,
        dof=n - p,
    )


def write_parcels_oracle(table, path) -> None:
    """Reference writer: the header and every row through ``csv.writer``,
    which writes a float as its ``repr``, a missing cell (None) as an
    empty one and quotes any cell that needs it."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CANONICAL_SCHEMA.values())
        writer.writerows([getattr(parcel, name) for name in CANONICAL_SCHEMA] for parcel in table)
