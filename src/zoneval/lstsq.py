"""Dense least-squares core.

One factorization: column-pivoted Householder QR (see ``_kernels``:
LAPACK ``dgeqrf`` on [X | y], a tall one as a tall-skinny QR of
2,048-row blocks, then a pivoted pass on the p x p triangle), which
yields R, the pivots and Q^T y without forming Q.  The residual sum of
squares is the square of the triangle's last diagonal entry, as LAPACK's
``dgels`` reads it, so a solve forms no fitted or residual vector; a
caller that needs either computes ``X @ coefficients``.  When X's column 0
is all ones (an intercept), the factored matrix is [X | y - mean(y)]
instead, the same fit with the mean added back to the intercept, so the
rss rounds in proportion to the total sum of squares rather than to y @ y
(Chan, Golub & LeVeque 1983); a design without that column is factored
with y as given.  Rank is detected
on the pivots of X's unit-norm columns.  Rank deficiency is an error
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
    """Solver output, of a full-rank design only: coefficients aligned to
    the input column order, the residual sum of squares and degrees of
    freedom, and (X^T X)^-1 for downstream inference.  The rss of an
    intercept fit is read off the triangle of [X | y - mean(y)]."""

    coefficients: np.ndarray
    rss: float
    xtx_inverse: np.ndarray
    dof: int


def _check_inputs(X: np.ndarray, y: np.ndarray, column_labels=None) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise LeastSquaresError(f"shape mismatch: X {X.shape}, y {y.shape}")
    n, p = X.shape
    if p < 1:
        raise LeastSquaresError("X needs at least one column")
    if n < p:
        raise UnderdeterminedError(f"underdetermined system: n={n} < p={p}")
    if column_labels is not None and len(column_labels) != p:
        raise LeastSquaresError("column_labels length does not match X")
    # the sums of squares of X's columns and of y, a BLAS dot each (on a
    # column-major X faster than one einsum); a nan or inf fails the upper bound too
    with np.errstate(over="ignore"):
        squares = np.array([v @ v for v in (*X.T, y)])
    fits = squares <= _kernels.MAX_COLUMN_SQUARES
    names = column_labels or range(p)
    if not fits.all():
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise LeastSquaresError("non-finite entries in X or y")
        j = int(np.argmin(fits))
        name = "y" if j == p else f"column {names[j]!r}"
        raise LeastSquaresError(
            f"{name} is too large to factor: its sum of squares exceeds {_kernels.MAX_COLUMN_SQUARES:.6g}"
        )
    for j in np.flatnonzero(squares[:p] < _kernels.MIN_COLUMN_SQUARES):
        if X[:, j].min() != X[:, j].max():  # an all-equal column is the rank test's
            raise LeastSquaresError(
                f"column {names[j]!r} is too small to factor: its sum of squares is below {_kernels.MIN_COLUMN_SQUARES:.6g}"
            )
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

    X and y must be finite, with each column's and y's sum of squares
    within ``_kernels.MAX_COLUMN_SQUARES``, and a column's at least
    ``_kernels.MIN_COLUMN_SQUARES`` unless its values are all equal; a
    column outside them is named, and so is a column whose entry of
    (X^T X)^-1 overflows (a tiny column close to the others).
    Rank is decided on X's unit-norm columns, against the pivot
    threshold ``max(n, p) * machine_eps * |largest pivot|``; a deficient
    design raises :class:`RankDeficiencyError` naming the rejected columns.
    """
    X, y = _check_inputs(X, y, column_labels)
    n, p = X.shape

    # column 0 all ones is an intercept: factor the centred response
    y_mean = float(y.mean()) if (X[:, 0] == 1.0).all() else 0.0
    qty, r_upper, jpvt, rnorm = _kernels.qr_pivot_decompose(X, y - y_mean)
    # R's column norms are X's; the kernel pivots on unit-norm columns, so
    # on those the rank is the prefix of pivots above the threshold
    norms = np.linalg.norm(r_upper, axis=0)
    unit = r_upper / np.where(norms, norms, 1.0)
    diag = np.abs(np.diag(unit))
    tol = max(n, p) * np.finfo(np.float64).eps * diag[0]
    below = np.flatnonzero(diag <= tol)
    if below.size:
        # a scan that finds no reject (a pivot right at the threshold)
        # falls back to the pivoted factorization's rejects
        rejected = _rejected_left_to_right(unit[:, np.argsort(jpvt)], tol) or list(
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
    beta[0] += y_mean

    r_inv = np.linalg.inv(r_upper)
    xtx_inverse = np.empty((p, p))
    with np.errstate(over="ignore"):  # an entry past the largest float is named below
        xtx_inverse[np.ix_(jpvt, jpvt)] = r_inv @ r_inv.T
    overflowed = np.flatnonzero(~np.isfinite(np.diag(xtx_inverse)))
    if overflowed.size:
        names = ", ".join(repr(column_labels[j]) if column_labels is not None else str(j) for j in overflowed)
        raise LeastSquaresError(f"column {names} is too small to factor beside the others: (X^T X)^-1 overflows")
    return LsFit(coefficients=beta, rss=rnorm * rnorm, xtx_inverse=xtx_inverse, dof=n - p)
