"""An independent least-squares solver for cross-checking the package's one.

``solve_normal_equations_oracle`` solves the normal equations by Cholesky.
It is numerically inferior to the package's pivoted QR on collinear
designs, which is why it lives here and not in ``zoneval``.
"""

import numpy as np

from zoneval.lstsq import LeastSquaresError, LsFit, _check_inputs


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
