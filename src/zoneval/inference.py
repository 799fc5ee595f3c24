"""Coefficient inference: standard errors, t-values, p-values,
significance flags, and model fit statistics (R-square, adjusted
R-square, F) for an intercept model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from .design import INTERCEPT_LABEL, DesignMatrix, ModelSpec, build_design_matrix
from .lstsq import LsFit, solve_least_squares
from .parcels import ParcelTable

DEFAULT_ALPHA = 0.10
# rss below this fraction of tss means the model interpolated the data;
# standard errors are then meaningless and the table is marked degenerate.
EXACT_FIT_RSS_RATIO = 1e-20


class InferenceError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class CoefficientRow:
    label: str
    estimate: float
    std_error: float
    t_value: float
    p_value: float
    significant: bool


@dataclass(frozen=True)
class InferenceTable:
    """Full coefficient table plus model statistics.

    ``exact_fit`` marks a degenerate zero-residual-variance fit: rows
    then carry NaN t/p values instead of infinities and ``f_value`` is
    +inf.
    """

    rows: tuple[CoefficientRow, ...]
    r_squared: float
    adj_r_squared: float
    f_value: float
    n: int
    k: int
    sigma2_hat: float
    alpha: float = DEFAULT_ALPHA
    exact_fit: bool = False

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(r.label for r in self.rows)

    def row(self, label: str) -> CoefficientRow:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(label)


def student_t_sf(t: float, dof: int) -> float:
    """Two-sided tail probability P(|T_dof| >= |t|) of Student's t,
    computed through the regularized incomplete beta function."""
    if not math.isfinite(t):
        raise InferenceError(f"non-finite t statistic: {t!r}")
    if dof < 1:
        raise InferenceError(f"dof must be >= 1, got {dof}")
    if t == 0.0:
        return 1.0
    return float(betainc(dof / 2.0, 0.5, dof / (dof + t * t)))


@dataclass(frozen=True, slots=True)
class FitQuality:
    r_squared: float
    adj_r_squared: float
    f_value: float
    exact_fit: bool


def adjusted_r_squared_and_f(r2: float, n: int, k: int) -> tuple[float, float]:
    """Adjusted R-square and F of an intercept model with k non-intercept
    regressors fitted on n rows."""
    adj = 1.0 - (1.0 - r2) * (n - 1) / (n - k - 1)
    f = (r2 / k) / ((1.0 - r2) / (n - k - 1))
    return adj, f


def goodness_of_fit(fit: LsFit, y: np.ndarray, k: int) -> FitQuality:
    """R-square, adjusted R-square, and F for an intercept model with k
    non-intercept regressors.  A zero-residual fit returns the exact-fit
    marker (R-square 1, F +inf) instead of dividing by zero."""
    y = np.asarray(y, dtype=np.float64)
    n = y.shape[0]
    tss = float(np.sum((y - y.mean()) ** 2))
    if tss <= 0.0:
        raise InferenceError("constant response: R-square undefined (tss = 0)")
    if k < 1:
        raise InferenceError(f"need at least one regressor, got k={k}")
    if n - k - 1 <= 0:
        raise InferenceError(f"no residual degrees of freedom: n={n}, k={k}")
    if fit.rss <= tss * EXACT_FIT_RSS_RATIO:
        return FitQuality(1.0, 1.0, math.inf, True)
    r2 = 1.0 - fit.rss / tss
    return FitQuality(r2, *adjusted_r_squared_and_f(r2, n, k), False)


def compute_inference(
    fit: LsFit, design: DesignMatrix, alpha: float = DEFAULT_ALPHA
) -> InferenceTable:
    """Build the full statistics block for a full-rank intercept fit.

    SE_j = sqrt(sigma2 * (X^T X)^-1_jj) with sigma2 = rss / (n - p);
    two-sided p from Student's t on n - p degrees of freedom, starred
    below ``alpha``.
    """
    n, p = design.X.shape
    if design.column_labels[0] != INTERCEPT_LABEL:
        raise InferenceError("inference requires an intercept model")
    if fit.rank < p:
        raise InferenceError("inference requires a full-rank fit")
    if fit.dof <= 0:
        raise InferenceError(f"no degrees of freedom: n={n}, p={p}")
    if not 0.0 < alpha < 1.0:
        raise InferenceError(f"alpha must be in (0, 1), got {alpha}")

    k = p - 1
    quality = goodness_of_fit(fit, design.y, k)
    sigma2 = fit.rss / fit.dof

    rows = []
    for j, label in enumerate(design.column_labels):
        estimate = float(fit.coefficients[j])
        if quality.exact_fit:
            rows.append(CoefficientRow(label, estimate, 0.0, math.nan, math.nan, False))
            continue
        se = math.sqrt(sigma2 * fit.xtx_inverse[j, j])
        t = estimate / se
        pval = student_t_sf(t, fit.dof)
        rows.append(CoefficientRow(label, estimate, se, t, pval, pval < alpha))

    return InferenceTable(
        rows=tuple(rows),
        r_squared=quality.r_squared,
        adj_r_squared=quality.adj_r_squared,
        f_value=quality.f_value,
        n=n,
        k=k,
        sigma2_hat=sigma2,
        alpha=alpha,
        exact_fit=quality.exact_fit,
    )


def fit_table(
    table: ParcelTable, spec: ModelSpec, alpha: float = DEFAULT_ALPHA
) -> tuple[DesignMatrix, LsFit, InferenceTable]:
    """Convenience pipeline: compile the spec, solve, run inference."""
    design = build_design_matrix(table, spec)
    fit = solve_least_squares(design.X, design.y, design.column_labels)
    return design, fit, compute_inference(fit, design, alpha)
