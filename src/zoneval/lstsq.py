"""Dense least-squares core.

One factorization: column-pivoted Householder QR (see ``_kernels``:
LAPACK ``dgeqrf`` on [X | y], a tall one as a tall-skinny QR of
2,048-row blocks, then a pivoted pass on the p x p triangle), which
yields R, the pivots and Q^T y without forming Q.
Rank is detected on the pivots.  Rank deficiency is an error
carrying the rejected column labels, never silently zeroed
coefficients; the rejects are named by a left-to-right scan, so of two
dependent columns the later one is always rejected.  This is the
package's only solver; the test suite cross-checks it against an
independent normal-equations oracle of its own.  Everything here runs
on numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels


class LeastSquaresError(ValueError):
    """Base error for solver failures."""


class UnderdeterminedError(LeastSquaresError):
    """Fewer rows than columns."""


class RankDeficiencyError(LeastSquaresError):
    """Columns are linearly dependent.

    ``dependent_columns`` holds the rejected original column indices,
    each dependent on the columns kept before it; ``dependent_labels``
    the matching labels when the caller supplied any.  Callers may drop
    those columns and re-fit.
    """

    def __init__(self, rank: int, dependent_columns, dependent_labels):
        self.rank = rank
        self.dependent_columns = tuple(int(j) for j in dependent_columns)
        self.dependent_labels = tuple(dependent_labels)
        named = ", ".join(self.dependent_labels) or ", ".join(
            str(j) for j in self.dependent_columns
        )
        super().__init__(f"rank-deficient design (rank {rank}): dependent columns: {named}")


@dataclass(frozen=True)
class LsFit:
    """Solver output: coefficients aligned to the input column order,
    residual machinery, and (X^T X)^-1 for downstream inference."""

    coefficients: np.ndarray
    residuals: np.ndarray
    fitted: np.ndarray
    rank: int
    rss: float
    xtx_inverse: np.ndarray
    dof: int


def _check_inputs(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise LeastSquaresError(f"shape mismatch: X {X.shape}, y {y.shape}")
    n, p = X.shape
    if p < 1:
        raise LeastSquaresError("X needs at least one column")
    if n < p:
        raise UnderdeterminedError(f"underdetermined system: n={n} < p={p}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise LeastSquaresError("non-finite entries in X or y")
    return X, y


def _rejected_left_to_right(r_columns: np.ndarray, tol: float) -> list[int]:
    """Columns that, scanned left to right, add no pivot above ``tol`` to
    the columns kept before them: of two dependent columns the later one
    is rejected, whatever the pivoted factorization's tie-breaking.

    ``r_columns`` is R with its columns back in design order.  It has the
    design's inner products (X = Q R P^T), so each step factors a p x k
    matrix instead of an n x k one.
    """
    kept: list[int] = []
    rejected: list[int] = []
    for j in range(r_columns.shape[1]):
        r = np.linalg.qr(r_columns[:, kept + [j]], mode="r")
        (kept if abs(r[len(kept), len(kept)]) > tol else rejected).append(j)
    return rejected


def solve_least_squares(
    X: np.ndarray, y: np.ndarray, column_labels: tuple[str, ...] | None = None
) -> LsFit:
    """Minimize ||y - X b||^2 via column-pivoted Householder QR.

    Rank is decided against the pivot threshold
    ``max(n, p) * machine_eps * |largest pivot|``; a deficient design
    raises :class:`RankDeficiencyError` naming the rejected columns.
    """
    X, y = _check_inputs(X, y)
    n, p = X.shape
    if column_labels is not None and len(column_labels) != p:
        raise LeastSquaresError("column_labels length does not match X")

    qty, r_upper, jpvt = _kernels.qr_pivot_decompose(X, y)
    diag = np.abs(np.diag(r_upper))
    tol = max(n, p) * np.finfo(np.float64).eps * diag[0]
    # pivoting orders the diagonal by magnitude: the rank is the prefix of
    # pivots above the threshold
    below = np.flatnonzero(diag <= tol)
    if below.size:
        # a scan that finds no reject (a pivot right at the threshold)
        # falls back to the pivoted factorization's rejects
        rejected = _rejected_left_to_right(r_upper[:, np.argsort(jpvt)], tol) or list(
            jpvt[below[0] :]
        )
        labels = (
            tuple(column_labels[j] for j in rejected) if column_labels is not None else ()
        )
        raise RankDeficiencyError(p - len(rejected), rejected, labels)

    # solve R b = Q^T y, then undo the column pivoting; on a triangle the
    # LU solve's pivots are the diagonal, so it is back-substitution
    beta = np.empty(p)
    beta[jpvt] = np.linalg.solve(r_upper, qty)

    r_inv = np.linalg.inv(r_upper)
    xtx_inverse = np.empty((p, p))
    xtx_inverse[np.ix_(jpvt, jpvt)] = r_inv @ r_inv.T

    fitted = X @ beta
    residuals = y - fitted
    rss = float(residuals @ residuals)
    return LsFit(
        coefficients=beta,
        residuals=residuals,
        fitted=fitted,
        rank=p,
        rss=rss,
        xtx_inverse=xtx_inverse,
        dof=n - p,
    )
