"""Output checks.  Each checker returns a list of problems; empty means correct.

Every comparison is written as ``not (err <= tol)`` so that a NaN error
fails the check instead of slipping past it.
"""

from __future__ import annotations

import json
import math

import numpy as np
import scipy.linalg

from zoneval.diagnostics import VIF_FLAG_THRESHOLD
from zoneval.parcels import RESIDENTIAL_ZONES

SOLVER_TOL = 1e-8  # coefficients vs numpy.linalg.lstsq, relative
VIF_TOL = 1e-8  # VIF vs the closed form, relative per entry
R2_TOL = 1e-8  # R-square vs a column-subset lstsq fit, absolute
PREDICT_TOL = 1e-9  # predicted value vs exp(X beta), relative
EXACT_TOL = 1e-12  # quantities computed by the same formula, relative


def rel_err(value, reference) -> float:
    """max |value - reference| / max |reference|; absolute when the
    reference is all zeros.  NaN anywhere gives NaN."""
    value = np.asarray(value, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if value.shape != reference.shape:
        return float("nan")
    if value.size == 0:
        return 0.0
    diff = float(np.max(np.abs(value - reference)))
    scale = float(np.max(np.abs(reference)))
    return diff / scale if scale > 0 else diff


def within(what: str, err: float, tol: float) -> list[str]:
    if not err <= tol:
        return [f"{what}: error {err!r} exceeds {tol:g}"]
    return []


def worst(errors) -> float:
    """The largest error; NaN when any error is NaN (``max`` alone would
    keep whichever came first)."""
    errors = list(errors)
    if any(math.isnan(e) for e in errors):
        return math.nan
    return max(errors, default=0.0)


def solver_rel_err(X, y, coefficients) -> float:
    """Relative distance of the coefficients from numpy.linalg.lstsq on the same design."""
    reference = np.linalg.lstsq(np.asarray(X), np.asarray(y), rcond=None)[0]
    return rel_err(coefficients, reference)


def check_solver(X, y, coefficients, what="coefficients") -> list[str]:
    return within(f"{what} vs numpy.linalg.lstsq", solver_rel_err(X, y, coefficients), SOLVER_TOL)


def check_clean(report, expected: dict) -> list[str]:
    """A CleanReport against the injected defects."""
    got = {
        "rows_in": report.rows_in,
        "rows_kept": report.rows_kept,
        "rows_dropped": report.rows_dropped,
        "dropped_by_field": dict(report.dropped_by_field),
        "dropped_pins": list(report.dropped_pins),
    }
    return [
        f"clean report {key}: got {got[key]!r}, injected {expected[key]!r}"
        for key in expected
        if got[key] != expected[key]
    ]


def r_squared(X, y) -> float:
    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    resid = y - X @ beta
    centred = y - y.mean()
    return 1.0 - float(resid @ resid) / float(centred @ centred)


def check_vif(X, labels, entries) -> list[str]:
    """VIF_j = (X'X)^-1_jj * ||x_j - mean(x_j)||^2, with (X'X)^-1 from
    numpy's unpivoted QR of X (independent of zoneval's solver)."""
    r = np.linalg.qr(X, mode="r")
    r_inv = scipy.linalg.solve_triangular(r, np.eye(r.shape[0]), lower=False)
    inv_diag = np.einsum("ij,ij->i", r_inv, r_inv)
    centred = X - X.mean(axis=0)
    closed = inv_diag * np.einsum("ij,ij->j", centred, centred)
    problems = []
    if [e.label for e in entries] != list(labels[1:]):
        return [f"VIF labels {[e.label for e in entries]} != design labels {list(labels[1:])}"]
    for j, entry in enumerate(entries, start=1):
        problems += within(f"VIF {entry.label}", rel_err(entry.vif, closed[j]), VIF_TOL)
        if entry.flagged != (entry.vif > VIF_FLAG_THRESHOLD):
            problems.append(f"VIF {entry.label}: flag {entry.flagged} disagrees with {entry.vif}")
    return problems


def check_share(X, labels, y, share) -> list[str]:
    """The variance-share R-square values against column-subset fits of the full design."""
    zones = [labels.index(z) for z in RESIDENTIAL_ZONES]
    others = [j for j in range(1, len(labels)) if j not in zones]
    r2_full = r_squared(X, y)
    r2_zoning = r_squared(X[:, [0] + zones], y)
    r2_without = r_squared(X[:, [0] + others], y)
    problems = within("share r2_full", abs(share.r2_full - r2_full), R2_TOL)
    problems += within("share r2_zoning", abs(share.r2_zoning - r2_zoning), R2_TOL)
    problems += within("share r2_without_zoning", abs(share.r2_without_zoning - r2_without), R2_TOL)
    problems += within("share zoning_share", rel_err(share.zoning_share, r2_zoning / r2_full), 1e-7)
    problems += within("share delta_r2", abs(share.delta_r2 - (r2_full - r2_without)), 2 * R2_TOL)
    if share.hypothesis_met != (share.zoning_share > 0.5):
        problems.append(f"share verdict {share.hypothesis_met} disagrees with share {share.zoning_share}")
    return problems


def design_zones(X, labels) -> list[str]:
    """Each row's zone read back from its dummy columns (OTHER when none is set)."""
    zone_cols = X[:, [labels.index(z) for z in RESIDENTIAL_ZONES]]
    names = np.array(RESIDENTIAL_ZONES + ("OTHER",))
    which = np.where(zone_cols.any(axis=1), zone_cols.argmax(axis=1), len(RESIDENTIAL_ZONES))
    return names[which].tolist()


def expected_rezones(beta, labels, zones, to_zone):
    """delta_log, naive_pct and exact_pct of rezoning each row to ``to_zone``."""
    zone_beta = {z: float(beta[labels.index(z)]) for z in RESIDENTIAL_ZONES}
    zone_beta["OTHER"] = 0.0
    delta = np.array([zone_beta[to_zone] - zone_beta[z] for z in zones])
    return delta, 100.0 * delta, 100.0 * np.expm1(delta)


def check_rezones(reports, pins, X, labels, beta, to_zone) -> list[str]:
    """Rezoning reports against the design: zones, deltas, percent readings
    and predicted values exp(X beta)."""
    if len(reports) != len(pins):
        return [f"{len(reports)} rezone reports for {len(pins)} parcels"]
    zones = design_zones(X, labels)
    if [r.pin for r in reports] != list(pins):
        return ["rezone report pins differ from the cleaned table's pins"]
    if [r.from_zone for r in reports] != zones:
        return ["rezone from_zone differs from the design's zone dummies"]
    if any(r.to_zone != to_zone for r in reports):
        return [f"rezone to_zone is not {to_zone}"]
    delta, naive, exact = expected_rezones(beta, labels, zones, to_zone)
    predicted = np.exp(X @ beta)
    got = {
        name: np.array([getattr(r, name) for r in reports])
        for name in ("delta_log", "naive_pct", "exact_pct", "predicted_value_from", "predicted_value_to")
    }
    problems = within("rezone delta_log", rel_err(got["delta_log"], delta), EXACT_TOL)
    problems += within("rezone naive_pct", rel_err(got["naive_pct"], naive), EXACT_TOL)
    problems += within("rezone exact_pct", rel_err(got["exact_pct"], exact), EXACT_TOL)
    problems += within(
        "predicted value vs exp(X beta)", float(np.max(np.abs(got["predicted_value_from"] / predicted - 1.0))), PREDICT_TOL
    )
    problems += within(
        "rezoned value vs exp(X beta + delta)",
        float(np.max(np.abs(got["predicted_value_to"] / (predicted * np.exp(delta)) - 1.0))),
        PREDICT_TOL,
    )
    return problems


WHATIF_HEADER = "pin,from_zone,to_zone,delta_log,naive_pct,exact_pct"


def check_whatif_csv(text: str, reports) -> list[str]:
    """A whatif CSV must be byte for byte the header and one line per report,
    in order, with every float at full (repr) precision."""
    lines = text.split("\r\n")
    expected = [WHATIF_HEADER] + [
        f"{r.pin},{r.from_zone},{r.to_zone},{r.delta_log!r},{r.naive_pct!r},{r.exact_pct!r}" for r in reports
    ] + [""]
    if lines == expected:
        return []
    if len(lines) != len(expected):
        return [f"whatif CSV has {len(lines) - 2} rows for {len(reports)} parcels"]
    k = next(i for i, (a, b) in enumerate(zip(lines, expected)) if a != b)
    return [f"whatif CSV line {k + 1} is {lines[k]!r}, expected {expected[k]!r}"]


def check_fit_json(text: str, inference) -> list[str]:
    """``fit --format json`` against an in-process inference table."""
    try:
        payload = json.loads(text)
        rows = payload["coefficients"]
        labels = [r["label"] for r in rows]
        estimates = [float(r["estimate"]) for r in rows]
        std_errors = [float(r["std_error"]) for r in rows]
        r2 = float(payload["r_squared"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"fit json does not parse: {exc}"]
    if labels != list(inference.labels) or payload.get("n") != inference.n:
        return [f"fit json labels/n {labels}/{payload.get('n')} differ from the in-process fit"]
    problems = within("fit json estimates", rel_err(estimates, [r.estimate for r in inference.rows]), EXACT_TOL)
    problems += within("fit json std errors", rel_err(std_errors, [r.std_error for r in inference.rows]), EXACT_TOL)
    problems += within("fit json r_squared", rel_err(r2, inference.r_squared), EXACT_TOL)
    return problems
