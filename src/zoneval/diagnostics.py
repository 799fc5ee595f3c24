"""Diagnostics: descriptive statistics, correlation blocks,
variance-inflation screening, and the zoning variance-share
decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import HIGH_CORRELATION_THRESHOLD
from .design import (
    INTERCEPT_LABEL,
    RESPONSE_LABEL,
    DesignMatrix,
    ModelSpec,
    _gather_source,
    build_design_matrix,
    default_model_spec,
    zoning_only_spec,
)
from .inference import fit_table
from .parcels import CANONICAL_SCHEMA, ParcelTable, RESIDENTIAL_ZONES

VIF_FLAG_THRESHOLD = 10.0
ZONING_SHARE_CUTOFF = 0.5

# Correlation pairs worth echoing in every report: the classic
# collinearity suspects in this market (zone overlap, condition vs age,
# lot area vs frontage).
WATCHLIST_PAIRS = (
    ("R1A", "R1B"),
    ("condition", "age"),
    ("log(lotsqfeet)", "log(lotdima)"),
)

# The three standard report blocks: the response with the zone dummies,
# with the non-physical covariates, and with the log covariates.
DEFAULT_CORRELATION_GROUPS = (
    (RESPONSE_LABEL, "R1A", "R1B", "R2", "S2"),
    (RESPONSE_LABEL, "taxrate", "condition", "age", "age^2"),
    (RESPONSE_LABEL, "log(lotdima)", "log(lotdimb)", "log(lotsqfeet)", "log(totbldgft)"),
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
class CorrPair:
    a: str
    b: str
    r: float


@dataclass(frozen=True)
class DescribeReport:
    """The ``describe`` command's report, built by :func:`describe`."""

    n: int
    variables: tuple[VariableStats, ...]
    zone_counts: dict[str, int]
    correlation_blocks: tuple[CorrMatrix, ...]
    flagged_pairs: tuple[CorrPair, ...]
    watchlist_pairs: tuple[CorrPair, ...]


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
    r2_without_zoning: float
    delta_r2: float
    hypothesis_met: bool


def descriptive_stats(table: ParcelTable, spec: ModelSpec | None = None) -> StatsTable:
    """Mean/highest/lowest per model variable on the raw (pre-log)
    scale; squared terms report the squared values.  Zone dummies
    report membership counts instead, by level in spec order.  Log
    terms are labeled by their raw variable name, since the statistics
    are untransformed.  Sources, the zone too, are read as the design
    reads them (a missing or non-finite cell is an error); an unknown
    zone is no dummy's level, so it is counted under none."""
    if len(table) == 0:
        raise DiagnosticsError("empty table")
    spec = default_model_spec() if spec is None else spec

    variables: list[VariableStats] = []
    levels = [t.transform.level for t in spec.terms if t.source == "zone"]
    zone_counts = {}
    if levels:
        counts = np.bincount(_gather_source(table, "zone"), minlength=len(table.levels))
        count_of = dict(zip(table.levels, counts.tolist()))
        zone_counts = {level: count_of.get(level, 0) for level in levels}

    for term in spec.terms:
        if term.transform.kind == "dummy":
            continue
        raw = _gather_source(table, term.source)
        values = term.transform.scalar(raw) if term.transform.kind == "square" else raw
        label = (
            CANONICAL_SCHEMA.get(term.source, term.source)
            if term.transform.kind == "log"
            else term.label
        )
        variables.append(VariableStats(label, _mean(values), float(values.max()), float(values.min())))
    return StatsTable(tuple(variables), zone_counts, len(table))


def _mean(values: np.ndarray) -> float:
    """The mean of finite ``values``.  Where their sum overflows (a log term's
    source, which no bound covers, can hold values near the largest float),
    it is taken on them scaled by the power of two that brings the largest
    |value| into [1/2, 1), then scaled back; any other mean has numpy's bits."""
    with np.errstate(over="ignore"):
        mean = values.mean()
    if np.isinf(mean):
        exponent = math.frexp(float(np.abs(values).max()))[1]
        mean = np.ldexp(np.ldexp(values, -exponent).mean(), exponent)
    return float(mean)


def spec_correlation_groups(
    spec: ModelSpec,
) -> tuple[list[tuple[str, ...]], list[tuple[str, str]]]:
    """The standard blocks and watchlist pairs under ``spec``'s labels.
    Each default-spec label stands for the spec's term with the same
    source and transform; a label the spec has no such term for is left
    out, and so is a block left with the response alone.  Each pair kept
    lies in a block kept."""
    label_of = {(t.source, t.transform): t.label for t in spec.terms}
    rename = {RESPONSE_LABEL: RESPONSE_LABEL}
    for t in default_model_spec().terms:
        if (t.source, t.transform) in label_of:
            rename[t.label] = label_of[t.source, t.transform]
    groups = [tuple(rename[a] for a in group if a in rename) for group in DEFAULT_CORRELATION_GROUPS]
    pairs = [(rename[a], rename[b]) for a, b in WATCHLIST_PAIRS if a in rename and b in rename]
    return [g for g in groups if len(g) > 1], pairs


def correlation_matrix(
    design: DesignMatrix, groups: Sequence[Sequence[str]] = DEFAULT_CORRELATION_GROUPS
) -> list[CorrMatrix]:
    """Pearson correlation matrix per label group (RESPONSE_LABEL
    addresses y).  Each label is looked up, checked and centred once, the
    first time a group names it, then divided by its largest absolute
    entry, so no sum of squares over- or underflows; every block is sliced
    from the one Gram matrix of those columns.  An empty group, or a
    zero-variance column (all of its values equal), is an error naming it
    (marked "(all zeros)" when they are, as the solve marks such a column),
    and the first bad label in order raises before a later one is looked at."""
    centred: dict[str, np.ndarray] = {}  # by label, in the order first named
    for group in groups:
        if not group:
            raise DiagnosticsError("empty correlation group")
        for label in group:
            if label not in centred:
                column = design.column(label)
                # exact: a constant column's mean need not round back to its value
                if column.min() == column.max():
                    named = f"{label} (all zeros)" if column[0] == 0.0 else repr(label)  # an empty zone cell, say
                    raise DiagnosticsError(f"zero-variance column {named}")
                column = column - column.mean()
                centred[label] = column / np.abs(column).max()
    if not centred:
        return []
    at = dict(zip(centred, range(len(centred))))
    stacked = np.stack(list(centred.values()))  # one row per label
    gram = stacked @ stacked.T
    scale = np.sqrt(np.diag(gram))
    corr = gram / np.multiply.outer(scale, scale)
    corr = np.clip((corr + corr.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    out: list[CorrMatrix] = []
    for group in groups:
        rows = [at[label] for label in group]
        out.append(CorrMatrix(tuple(group), corr[np.ix_(rows, rows)]))
    return out


def check_correlation_threshold(threshold: float) -> None:
    """Reject a correlation flag threshold outside [0, 1]."""
    if not 0.0 <= threshold <= 1.0:
        raise DiagnosticsError(f"correlation threshold must be in [0, 1], got {threshold}")


def high_correlation_pairs(
    matrix: CorrMatrix, threshold: float = HIGH_CORRELATION_THRESHOLD
) -> list[tuple[str, str, float]]:
    """Off-diagonal pairs with |r| at or above the flag threshold, which
    must lie in [0, 1]."""
    check_correlation_threshold(threshold)
    pairs = []
    m = len(matrix.labels)
    for i in range(m):
        for j in range(i + 1, m):
            r = float(matrix.values[i, j])
            if abs(r) >= threshold:
                pairs.append((matrix.labels[i], matrix.labels[j], r))
    return pairs


def describe(
    table: ParcelTable, spec: ModelSpec | None = None, threshold: float = HIGH_CORRELATION_THRESHOLD
) -> DescribeReport:
    """Statistics and standard correlation blocks of ``spec``'s variables, with
    the flagged pairs, and each watchlist pair read from its first block."""
    check_correlation_threshold(threshold)
    spec = default_model_spec() if spec is None else spec
    design = build_design_matrix(table, spec)
    stats = descriptive_stats(table, spec)
    groups, watch = spec_correlation_groups(spec)
    blocks = correlation_matrix(design, groups)
    flagged = [CorrPair(*pair) for block in blocks for pair in high_correlation_pairs(block, threshold)]
    watched = [
        CorrPair(a, b, next(block for block in blocks if a in block.labels and b in block.labels).value(a, b))
        for a, b in watch
    ]
    return DescribeReport(stats.n, stats.variables, stats.zone_counts, tuple(blocks), tuple(flagged), tuple(watched))


def vif(design: DesignMatrix) -> list[VifEntry]:
    """Variance inflation factor per non-intercept regressor,
    1 / (1 - R2_j) of regressing column j on all the others.

    The design's fit gives them all: VIF_j = (X^T X)^-1_jj *
    ||x_j - mean(x_j)||^2 (Belsley, Kuh & Welsch 1980), read on the fit's
    scaled columns X_s (see :class:`~zoneval.lstsq.LsFit`), on which
    neither factor over- or underflows.  That fit is
    :attr:`DesignMatrix.fit`, solved once per design, so inference on the
    same design reuses it.  Its solve rejects a deficient design, a
    constant column included, naming the dependent one.
    """
    labels = design.column_labels
    if labels[0] != INTERCEPT_LABEL:
        raise DiagnosticsError("VIF requires an intercept design")
    fit = design.fit
    centred = design.X * fit.scales
    centred -= centred.mean(axis=0)
    tss = np.einsum("ij,ij->j", centred, centred)
    entries: list[VifEntry] = []
    for j in range(1, design.p):
        factor = float(fit.scaled_inverse[j, j] * tss[j])
        entries.append(VifEntry(labels[j], factor, factor > VIF_FLAG_THRESHOLD))
    return entries


def zoning_variance_share(table: ParcelTable) -> VarianceShare:
    """Fit the full and zoning-only models and compare explained
    variation; the hypothesis is met when the zoning-only model carries
    more than half of the full model's R-square.  Each fit reads the
    table's live design of its spec and that design's fit when a caller
    holds one (the full model's, after :func:`vif` on it, solves nothing),
    and while a caller holds the full design the nested ones are sliced
    from it, not compiled (see :func:`~zoneval.design.build_design_matrix`)."""
    full_spec = default_model_spec()
    r2_full = fit_table(table, full_spec)[2].r_squared
    r2_zoning = fit_table(table, zoning_only_spec())[2].r_squared
    r2_without = fit_table(table, full_spec.drop_terms(RESIDENTIAL_ZONES))[2].r_squared

    share = r2_zoning / r2_full if r2_full > 0 else math.nan
    return VarianceShare(
        r2_full=r2_full,
        r2_zoning=r2_zoning,
        zoning_share=share,
        r2_without_zoning=r2_without,
        delta_r2=r2_full - r2_without,
        hypothesis_met=bool(share > ZONING_SHARE_CUTOFF),
    )
