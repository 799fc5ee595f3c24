"""Coefficient inference: standard errors, t-values, p-values,
significance flags, and model fit statistics (R-square, adjusted
R-square, F) for an intercept model.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import DEFAULT_ALPHA, adjusted_r_squared_and_f
from .design import INTERCEPT_LABEL, RESPONSE_SOURCE, DesignMatrix, ModelSpec, build_design_matrix
# solve_least_squares is no longer called here (a fit is DesignMatrix.fit) but
# stays bound: perfbench's tracer test reads it from this module
from .lstsq import LsFit, solve_least_squares  # noqa: F401
from .parcels import ParcelTable

# rss below this fraction of tss means the model interpolated the data;
# standard errors are then meaningless and the table is marked degenerate.
EXACT_FIT_RSS_RATIO = 1e-20
# The rounding floor of the rss, per regressor and per unit of y @ y.  An
# intercept fit factors [X | y - mean(y)] (see lstsq), so its rss rounds with
# the tss, not with y @ y.  But y - mean(y) is formed in floating point too:
# an entry far from the mean rounds by up to about eps |y_i|.  A tss at or
# below (p + 1) eps^2 (y @ y) means y varies by no more than the rounding of
# its own entries, and 1 - rss / tss can read any value; it is refused.
RSS_ROUNDING_FLOOR = np.finfo(np.float64).eps ** 2


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


# Veltkamp's splitter for doubles: 2**27 + 1
_SPLIT = 134217729.0
_LOG_SQRT_PI = 0.5 * math.log(math.pi)
# log Gamma(a + 1/2) - log Gamma(a) = 1/2 log a + sum_k c_k a^(1 - 2k) for
# large a, c_k = (2^(1 - 2k) - 2) B_2k / (2k (2k - 1)) from Stirling's
# series; the difference of two lgamma calls cancels there (3.9e-10
# relative at a = 24,929)
_HALF_GAMMA_RATIO_SERIES = (-1.0 / 8, 1.0 / 192, -1.0 / 640, 17.0 / 14336, -31.0 / 18432)
_HALF_GAMMA_SERIES_FROM = 20.0
# the continued fraction stops once a pair of its steps moves it by at most
# one unit in the last place
_CF_TOL = 2.0**-52
_CF_MAX_PAIRS = 10_000


def _two_product(x: float, y: float) -> tuple[float, float]:
    """x * y exactly, as hi + lo (Dekker)."""
    hi = x * y
    c = _SPLIT * x
    xh = c - (c - x)
    c = _SPLIT * y
    yh = c - (c - y)
    xl, yl = x - xh, y - yh
    return hi, ((xh * yh - hi) + xh * yl + xl * yh) + xl * yl


def _quotient(num: float, num_lo: float, den: float, den_lo: float) -> tuple[float, float]:
    """(num + num_lo) / (den + den_lo) as hi + lo."""
    q = num / den
    prod, prod_lo = _two_product(q, den)
    return q, ((num - prod) - prod_lo + num_lo - q * den_lo) / den


def _log1p(r: float, r_lo: float) -> tuple[float, float]:
    """log(1 + r) for 0 <= r <= 1, as hi + lo: 2 atanh(s) with
    s = r / (2 + r) <= 1/3, the leading 2s carried to twice the precision."""
    d = 2.0 + r
    s, s_lo = _quotient(r, r_lo, d, (2.0 - d) + r)
    q = s * s
    term, tail, k = q, 0.0, 3.0
    while term > 1e-17:
        tail += term / k
        term *= q
        k += 2.0
    return 2.0 * s, 2.0 * (s_lo + s * tail)


def _log_half_gamma_ratio(a: float) -> float:
    """log Gamma(a + 1/2) - log Gamma(a): below the series' range, step up
    with Gamma(a + 1/2) / Gamma(a) = a / (a + 1/2) * Gamma(a + 3/2) / Gamma(a + 1)."""
    steps = 1.0
    while a < _HALF_GAMMA_SERIES_FROM:
        steps *= a / (a + 0.5)
        a += 1.0
    inv2 = 1.0 / (a * a)
    s = 0.0
    for c in reversed(_HALF_GAMMA_RATIO_SERIES):
        s = s * inv2 + c
    return 0.5 * math.log(a) + s / a + math.log(steps)


def _beta_cf(a: float, b: float, x: float, y: float, e0: float) -> float:
    """f = 1 + d1/(1 + d2/(1 + ...)), so that I_x(a, b) =
    x^a y^b / (a B(a, b) f), y = 1 - x, by Lentz's method on the terms
    d_2m = m (b - m) x / ((a + 2m - 1)(a + 2m)) and
    d_2m+1 = -(a + m)(a + b + m) x / ((a + 2m)(a + 2m + 1)).

    Near the switch point the odd terms lie close to -1, so each
    1 + d_2m+1 is formed without cancellation (``e0`` for d1, from the
    caller) and Lentz's C and D enter those sums only as C - 1, D - 1.
    """
    c = f = e0
    d, d_dev = 1.0, 0.0
    for m in range(1, _CF_MAX_PAIRS):
        term = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        c_dev = term / c
        c = 1.0 + c_dev
        d_new = 1.0 / (1.0 + term * d)
        d_dev, d = -term * d * d_new, d_new
        delta = c * d
        den = (a + 2 * m) * (a + 2 * m + 1)
        term = -(a + m) * (a + b + m) * x / den
        # 1 + term = y + (den - (a + m)(a + b + m)) x / den, expanded
        e = y + (a * (2 * m + 1 - b) + m * (3 * m + 2 - b)) * x / den
        c, c_dev = (e + c_dev) / c, term / c
        d_new = 1.0 / (e + term * d_dev)
        d_dev, d = -term * d * d_new, d_new
        delta *= c * d
        f *= delta
        if abs(delta - 1.0) <= _CF_TOL:
            return f
    raise InferenceError(f"incomplete beta continued fraction did not converge (a={a}, b={b})")


def student_t_sf(t: float, dof: int) -> float:
    """Two-sided tail probability P(|T_dof| >= |t|) of Student's t: the
    regularized incomplete beta I_x(dof/2, 1/2) at x = dof / (dof + t^2).

    Works from u = t^2 / dof (or 1/u when t^2 >= dof), carried to twice
    the precision, never from the rounded x: x rounds to 1 for small t
    at large dof.  I_x comes from its continued fraction, or as
    1 - I_(1-x)(1/2, dof/2) on the far side of x = (a + 1)/(a + b + 2).
    Relative error about 1e-14; tails below the smallest double are 0.0.
    """
    if not math.isfinite(t):
        raise InferenceError(f"non-finite t statistic: {t!r}")
    if dof < 1:
        raise InferenceError(f"dof must be >= 1, got {dof}")
    if t == 0.0:
        return 1.0
    a, b = 0.5 * dof, 0.5
    t = abs(float(t))
    near = t * t < dof
    # r = min(u, 1/u), u = t^2 / dof, as r + r_lo; t^2 would overflow past 1e154
    if t < 1e150:
        t2, t2_lo = _two_product(t, t)
        r, r_lo = _quotient(t2, t2_lo, dof, 0.0) if near else _quotient(dof, 0.0, t2, t2_lo)
    else:
        r, r_lo = (dof / t) / t, 0.0
    x, y = (1.0 / (1.0 + r), r / (1.0 + r)) if near else (r / (1.0 + r), 1.0 / (1.0 + r))
    # front = x^a y^b / B(a, b) = r^power (1 + r)^-(a + b) / B(a, b), times
    # 2^scale when r is below the normal range
    log_beta = _LOG_SQRT_PI - _log_half_gamma_ratio(a)
    scale = 0
    if r >= sys.float_info.min:
        power = b if near else a
        lp, lp_lo = _log1p(r, r_lo)
        big, big_lo = _two_product(a + b, lp)
        front = r**power * math.exp(-big) * math.exp(
            power * r_lo / r - log_beta - big_lo - (a + b) * lp_lo
        )
    elif a > 64.0:
        # r^a < (2.2e-308)^64: far below the smallest double
        return 0.0
    else:
        # r^a = (dof / m^2)^a 2^(-e dof) for t = m 2^e
        m, e = math.frexp(t)
        front = (dof / (m * m)) ** a * math.exp(-log_beta)
        scale = -e * dof
    if near and (a + 1.0) * r <= b + 1.0:
        # 1 + d1 of I_y(1/2, a) is (1.5 - a u + u) / (1.5 (1 + u))
        au, au_lo = _two_product(a, r)
        e0 = ((1.5 - au) - (au_lo + a * r_lo) + r) / (1.5 * (1.0 + r))
        return 1.0 - front / (b * _beta_cf(b, a, y, x, e0))
    e0 = y + (1.0 - b) * x / (a + 1.0)
    return math.ldexp(front / (a * _beta_cf(a, b, x, y, e0)), scale)


@dataclass(frozen=True, slots=True)
class FitQuality:
    r_squared: float
    adj_r_squared: float
    f_value: float
    exact_fit: bool


def goodness_of_fit(fit: LsFit, y: np.ndarray, k: int) -> FitQuality:
    """R-square, adjusted R-square, and F for an intercept model with k
    non-intercept regressors.  A zero-residual fit returns the exact-fit
    marker (R-square 1, F +inf) instead of dividing by zero.  A response
    whose tss is at or below the rss's rounding floor (see
    ``RSS_ROUNDING_FLOOR``; a constant one too) is an error."""
    y = np.asarray(y, dtype=np.float64)
    n = y.shape[0]
    tss = float(np.sum((y - y.mean()) ** 2))
    floor = (k + 2) * RSS_ROUNDING_FLOOR * float(y @ y)
    if tss <= floor:
        raise InferenceError(
            f"response log({RESPONSE_SOURCE}) varies less than the rounding of the residual sum of squares: "
            f"R-square undefined (tss = {tss:.6g}, floor {floor:.6g})"
        )
    if k < 1:
        raise InferenceError(f"need at least one regressor, got k={k}")
    if n - k - 1 <= 0:
        raise InferenceError(f"no residual degrees of freedom: n={n}, k={k}")
    if fit.rss <= tss * EXACT_FIT_RSS_RATIO:
        return FitQuality(1.0, 1.0, math.inf, True)
    r2 = 1.0 - fit.rss / tss
    return FitQuality(r2, *adjusted_r_squared_and_f(r2, n, k), False)


def check_alpha(alpha: float) -> None:
    """Reject a significance level outside (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise InferenceError(f"alpha must be in (0, 1), got {alpha}")


def compute_inference(
    fit: LsFit, design: DesignMatrix, alpha: float = DEFAULT_ALPHA
) -> InferenceTable:
    """Build the full statistics block for a full-rank intercept fit.

    SE_j = sqrt(sigma2) * sqrt((X_s^T X_s)^-1_jj) * s_j with sigma2 =
    rss / (n - p), a product of roots, as the product under one root can
    underflow to 0, and s_j the fit's scale of column j (see
    :class:`~zoneval.lstsq.LsFit`); an SE past the largest float is an
    error naming its column.  Two-sided p from Student's t on n - p
    degrees of freedom, starred below ``alpha``.
    """
    n, p = design.X.shape
    if design.column_labels[0] != INTERCEPT_LABEL:
        raise InferenceError("inference requires an intercept model")
    check_alpha(alpha)

    k = p - 1
    quality = goodness_of_fit(fit, design.y, k)
    sigma2 = fit.rss / fit.dof

    rows = []
    for j, (label, scale) in enumerate(zip(design.column_labels, fit.scales.tolist())):
        estimate = float(fit.coefficients[j])
        if quality.exact_fit:
            rows.append(CoefficientRow(label, estimate, 0.0, math.nan, math.nan, False))
            continue
        se = math.sqrt(sigma2) * math.sqrt(fit.scaled_inverse[j, j]) * scale
        if se == math.inf:
            raise InferenceError(f"column {label!r} is out of range: its standard error exceeds the largest float")
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
    """Convenience pipeline: compile the spec, solve, run inference.  The
    design and its fit are the table's live ones when a caller holds the
    design (see :func:`~zoneval.design.build_design_matrix` and
    :attr:`DesignMatrix.fit`), so a repeat call neither builds nor solves."""
    design = build_design_matrix(table, spec)
    return design, design.fit, compute_inference(design.fit, design, alpha)
