"""Dense least-squares core.

One factorization: column-pivoted Householder QR (see ``_kernels``:
LAPACK ``dgeqrf`` on [X | y], a tall one as a tall-skinny QR of
2,048-row blocks, then a pivoted pass on the p x p triangle), which
yields R, the pivots and Q^T y without forming Q.  One scale rule holds
throughout: each column of X, and y, is factored times the power of two
that brings its largest |value| into [1/2, 1), which is exact, so a
column of any finite scale factors as one of unit scale would, and the
fit keeps (X_s^T X_s)^-1 of the scaled columns X_s with the scales (see
:class:`LsFit`).  Only a coefficient or an rss past the largest float is
an error, naming its column or y.  The residual sum of
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
    those columns and re-fit.  The message marks each rejected column of
    ``all_zero_columns`` "(all zeros)": an empty zone cell, or a
    threshold no row reaches, rather than a column that copies others.
    """

    def __init__(self, rank: int, dependent_columns, dependent_labels, all_zero_columns=()):
        self.rank = rank
        self.dependent_columns = tuple(int(j) for j in dependent_columns)
        self.dependent_labels = tuple(dependent_labels)
        names = self.dependent_labels or tuple(map(str, self.dependent_columns))
        named = ", ".join(
            f"{name} (all zeros)" if j in all_zero_columns else name for j, name in zip(self.dependent_columns, names)
        )
        super().__init__(f"rank-deficient design (rank {rank}): dependent columns: {named}")


@dataclass(frozen=True)
class LsFit:
    """Solver output, of a full-rank design only: coefficients aligned to
    the input column order, the residual sum of squares and degrees of
    freedom, and, for downstream inference, (X_s^T X_s)^-1 with the scales
    s that give X_s = X * s, each a power of two that brings a column's
    largest |value| into [1/2, 1).  The rss of an intercept fit is read off
    the triangle of [X | y - mean(y)]."""

    coefficients: np.ndarray
    rss: float
    scaled_inverse: np.ndarray
    scales: np.ndarray
    dof: int

    @property
    def xtx_inverse(self) -> np.ndarray:
        """(X^T X)^-1, s (X_s^T X_s)^-1 s: an entry past the largest float is inf."""
        with np.errstate(over="ignore"):
            return self.scales[:, None] * self.scaled_inverse * self.scales


def _check_inputs(X: np.ndarray, y: np.ndarray, column_labels=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """X and y as float64 arrays, and the power of two that scales each
    column of X, then y, to a largest |value| in [1/2, 1) (1 for a zero
    one, and at most 2^1022, so that a subnormal column scales to normal
    values)."""
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
    # each column's largest |value| from two reductions, no n x p temporary;
    # a nan or inf makes it nan or inf
    largest = np.append(np.maximum(X.max(axis=0), -X.min(axis=0)), max(y.max(), -y.min()))
    if not np.isfinite(largest).all():
        raise LeastSquaresError("non-finite entries in X or y")
    return X, y, np.ldexp(1.0, -np.maximum(np.frexp(largest)[1], -1022))


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

    X and y must be finite.  Each column, y too, is factored scaled by a
    power of two (see :class:`LsFit`), which is exact, so a column of any
    finite scale factors as one of unit scale would; a coefficient or an
    rss past the largest float is an error naming its column, or y.
    Rank is decided on X's unit-norm columns, against the pivot
    threshold ``max(n, p) * machine_eps * |largest pivot|``; a deficient
    design raises :class:`RankDeficiencyError` naming the rejected columns.
    """
    X, y, scales = _check_inputs(X, y, column_labels)
    n, p = X.shape
    x_scales, y_scale = scales[:p], scales[p]

    # column 0 all ones is an intercept: factor the centred response
    y_mean = float(y.mean()) if (X[:, 0] == 1.0).all() else 0.0
    qty, r_upper, jpvt, rnorm = _kernels.qr_pivot_decompose(X, y - y_mean, x_scales, y_scale)
    # R's column norms are X_s's; the kernel pivots on unit-norm columns, so
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
        all_zero = [j for j in rejected if not X[:, j].any()]
        raise RankDeficiencyError(p - len(rejected), rejected, labels, all_zero)

    # solve R b = Q^T y_s, then undo the column pivoting and the scales; on
    # a triangle the LU solve's pivots are the diagonal, so it is
    # back-substitution
    beta = np.empty(p)
    beta[jpvt] = np.linalg.solve(r_upper, qty)
    with np.errstate(over="ignore"):  # a coefficient past the largest float is named below
        beta *= x_scales
        beta /= y_scale
    beta[0] += y_mean
    rnorm /= float(y_scale)
    for j in np.flatnonzero(np.isinf(beta)):
        name = (column_labels or range(p))[j]
        raise LeastSquaresError(f"column {name!r} is out of range: its coefficient exceeds the largest float")
    if rnorm * rnorm == np.inf:
        raise LeastSquaresError("y is out of range: its residual sum of squares exceeds the largest float")

    r_inv = np.linalg.inv(r_upper)
    scaled_inverse = np.empty((p, p))
    scaled_inverse[np.ix_(jpvt, jpvt)] = r_inv @ r_inv.T
    return LsFit(coefficients=beta, rss=rnorm * rnorm, scaled_inverse=scaled_inverse, scales=x_scales, dof=n - p)
