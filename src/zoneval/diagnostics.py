"""Diagnostics: descriptive statistics, correlation blocks,
variance-inflation screening, and the zoning variance-share
decomposition.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .design import (
    INTERCEPT_LABEL,
    DesignMatrix,
    ModelSpec,
    default_model_spec,
    zoning_only_spec,
)
from .inference import fit_table
from .lstsq import solve_least_squares
from .parcels import CANONICAL_SCHEMA, ParcelTable, RESIDENTIAL_ZONES

VIF_FLAG_THRESHOLD = 10.0
HIGH_CORRELATION_THRESHOLD = 0.8
ZONING_SHARE_CUTOFF = 0.5

# Correlation pairs worth echoing in every report: the classic
# collinearity suspects in this market (zone overlap, condition vs age,
# lot area vs frontage).
WATCHLIST_PAIRS = (
    ("R1A", "R1B"),
    ("condition", "age"),
    ("log(lotsqfeet)", "log(lotdima)"),
)


class DiagnosticsError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class VariableStats:
    label: str
    mean: float
    highest: float
    lowest: float


@dataclass(frozen=True)
class StatsTable:
    """Per-variable mean/extremes plus zone membership counts."""

    variables: tuple[VariableStats, ...]
    zone_counts: dict[str, int]
    n: int


@dataclass(frozen=True)
class CorrMatrix:
    labels: tuple[str, ...]
    values: np.ndarray

    def value(self, a: str, b: str) -> float:
        return float(self.values[self.labels.index(a), self.labels.index(b)])


@dataclass(frozen=True, slots=True)
class VifEntry:
    label: str
    vif: float
    flagged: bool


@dataclass(frozen=True, slots=True)
class VarianceShare:
    """How much of the explained log-value variation the zone dummies
    carry on their own, under two readings: the restricted-model
    R-square ratio and the delta-R-square attribution."""

    r2_full: float
    r2_zoning: float
    zoning_share: float
    hypothesis_met: bool
    r2_without_zoning: float
    delta_r2: float


def descriptive_stats(table: ParcelTable, spec: ModelSpec | None = None) -> StatsTable:
    """Mean/highest/lowest per model variable on the raw (pre-log)
    scale; squared terms report the squared values.  Zone dummies
    report membership counts instead.  Log terms are labeled by their
    raw variable name, since the statistics are untransformed."""
    if len(table) == 0:
        raise DiagnosticsError("empty table")
    spec = default_model_spec() if spec is None else spec

    variables: list[VariableStats] = []
    counts = Counter(table.zones)
    zone_counts = {z: counts[z] for z in RESIDENTIAL_ZONES}

    for term in spec.terms:
        if term.transform.kind == "dummy":
            continue
        if table.missing(term.source).any():
            raise DiagnosticsError(f"missing {term.source}; clean the table first")
        raw = np.asarray(table.column(term.source), dtype=np.float64)
        values = raw * raw if term.transform.kind == "square" else raw
        label = (
            CANONICAL_SCHEMA.get(term.source, term.source)
            if term.transform.kind == "log"
            else term.label
        )
        variables.append(
            VariableStats(label, float(values.mean()), float(values.max()), float(values.min()))
        )
    return StatsTable(tuple(variables), zone_counts, len(table))


def default_correlation_groups(design: DesignMatrix) -> list[list[str]]:
    """The three standard report blocks: response with zone dummies,
    with the non-physical covariates, and with the log covariates."""
    r = design.response_label
    return [
        [r, "R1A", "R1B", "R2", "S2"],
        [r, "taxrate", "condition", "age", "age^2"],
        [r, "log(lotdima)", "log(lotdimb)", "log(lotsqfeet)", "log(totbldgft)"],
    ]


def correlation_matrix(
    design: DesignMatrix, groups: list[list[str]] | None = None
) -> list[CorrMatrix]:
    """Pearson correlation matrix per label group (the response label
    addresses y).  A zero-variance column is an error naming it."""
    if groups is None:
        groups = default_correlation_groups(design)
    out: list[CorrMatrix] = []
    for group in groups:
        if not group:
            raise DiagnosticsError("empty correlation group")
        columns = np.column_stack([design.column(label) for label in group])
        stds = columns.std(axis=0)
        for label, sd in zip(group, stds):
            if sd == 0.0:
                raise DiagnosticsError(f"zero-variance column {label!r}")
        if len(group) == 1:
            corr = np.ones((1, 1))
        else:
            corr = np.corrcoef(columns, rowvar=False)
            corr = np.clip((corr + corr.T) / 2.0, -1.0, 1.0)
            np.fill_diagonal(corr, 1.0)
        out.append(CorrMatrix(tuple(group), corr))
    return out


def high_correlation_pairs(
    matrix: CorrMatrix, threshold: float = HIGH_CORRELATION_THRESHOLD
) -> list[tuple[str, str, float]]:
    """Off-diagonal pairs with |r| at or above the flag threshold."""
    pairs = []
    m = len(matrix.labels)
    for i in range(m):
        for j in range(i + 1, m):
            r = float(matrix.values[i, j])
            if abs(r) >= threshold:
                pairs.append((matrix.labels[i], matrix.labels[j], r))
    return pairs


def vif(design: DesignMatrix) -> list[VifEntry]:
    """Variance inflation factor per non-intercept regressor,
    1 / (1 - R2_j) of regressing column j on all the others.

    One solve of the design gives them all: VIF_j = (X^T X)^-1_jj *
    ||x_j - mean(x_j)||^2 (Belsley, Kuh & Welsch 1980).  A deficient
    design is rejected by that solve, naming the dependent column.
    """
    labels = design.column_labels
    if labels[0] != INTERCEPT_LABEL:
        raise DiagnosticsError("VIF requires an intercept design")
    fit = solve_least_squares(design.X, design.y, labels)
    centred = design.X - design.X.mean(axis=0)
    tss = np.einsum("ij,ij->j", centred, centred)
    entries: list[VifEntry] = []
    for j in range(1, design.p):
        if tss[j] == 0.0:
            raise DiagnosticsError(f"zero-variance column {labels[j]!r}")
        factor = float(fit.xtx_inverse[j, j] * tss[j])
        entries.append(VifEntry(labels[j], factor, factor > VIF_FLAG_THRESHOLD))
    return entries


def zoning_variance_share(table: ParcelTable) -> VarianceShare:
    """Fit the full and zoning-only models and compare explained
    variation; the hypothesis is met when the zoning-only model carries
    more than half of the full model's R-square."""
    full_spec = default_model_spec()
    r2_full = fit_table(table, full_spec)[2].r_squared
    r2_zoning = fit_table(table, zoning_only_spec())[2].r_squared
    r2_without = fit_table(table, full_spec.drop_terms(RESIDENTIAL_ZONES))[2].r_squared

    share = r2_zoning / r2_full if r2_full > 0 else math.nan
    return VarianceShare(
        r2_full=r2_full,
        r2_zoning=r2_zoning,
        zoning_share=share,
        hypothesis_met=bool(share > ZONING_SHARE_CUTOFF),
        r2_without_zoning=r2_without,
        delta_r2=r2_full - r2_without,
    )
