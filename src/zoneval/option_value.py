"""Prediction and rezoning counterfactuals.

The option value of rezoning a parcel is the zone-coefficient
difference in log value.  Reports carry both the naive percent reading
(100 * delta) and the exact one (100 * (exp(delta) - 1)); the two agree
only for small effects.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

from .design import ModelSpec, Transform, default_model_spec
from .inference import DEFAULT_ALPHA, InferenceTable, fit_table
from .parcels import RESIDENTIAL_ZONES, ZONES, Parcel, ParcelTable, parcel_defects

# |delta_log| beyond this is flagged: the implied percent effect is too
# large to read as a marginal price.
EXTREME_LOG_EFFECT = 2.0

OPTION_VALUE_CSV_COLUMNS = ("pin", "from_zone", "to_zone", "delta_log", "naive_pct", "exact_pct")


class OptionValueError(ValueError):
    pass


@dataclass(frozen=True)
class FittedModel:
    """An estimated spec: coefficient lookup by label plus the full
    inference table it came from."""

    spec: ModelSpec
    inference: InferenceTable
    # compiled once from the two above, for the per-parcel paths
    _estimates: dict[str, float] = field(init=False, repr=False, compare=False)
    _intercept: float = field(init=False, repr=False, compare=False)
    _terms: tuple[tuple[str, Transform, float], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        expected = ("intercept",) + self.spec.labels if self.spec.include_intercept else self.spec.labels
        if tuple(self.inference.labels) != tuple(expected):
            raise OptionValueError("inference rows do not match the spec labels")
        estimates = {row.label: row.estimate for row in self.inference.rows}
        object.__setattr__(self, "_estimates", estimates)
        object.__setattr__(self, "_intercept", estimates["intercept"] if self.spec.include_intercept else 0.0)
        object.__setattr__(
            self, "_terms", tuple((t.source, t.transform, estimates[t.label]) for t in self.spec.terms)
        )

    @classmethod
    def fit(
        cls, table: ParcelTable, spec: ModelSpec | None = None, alpha: float = DEFAULT_ALPHA
    ) -> "FittedModel":
        spec = default_model_spec() if spec is None else spec
        _, _, inference = fit_table(table, spec, alpha)
        return cls(spec, inference)

    def coefficient(self, label: str) -> float:
        return self._estimates[label]

    def zone_coefficient(self, zone: str) -> float:
        """Zone effect relative to the unzoned (OTHER) baseline."""
        if zone not in ZONES:
            raise OptionValueError(f"unknown zone {zone!r}")
        if zone == "OTHER":
            return 0.0
        return self.coefficient(zone)


@dataclass(frozen=True, slots=True)
class OptionValueReport:
    pin: str
    from_zone: str
    to_zone: str
    delta_log: float
    naive_pct: float
    exact_pct: float
    predicted_value_from: float
    predicted_value_to: float


@dataclass(frozen=True, slots=True)
class ZoneEffect:
    zone: str
    coefficient: float
    naive_pct: float
    exact_pct: float
    significant: bool
    extreme: bool


def predict_log_value(model: FittedModel, parcel: Parcel) -> float:
    """Predicted log value: intercept plus the coefficient-weighted
    transformed regressors.  The parcel must pass the cleaning rules."""
    defects = parcel_defects(parcel)
    if defects:
        name, reason = defects[0]
        raise OptionValueError(f"invalid parcel {parcel.pin}: {name} {reason}")
    # intercept first, then the terms in spec order, as the design has them
    total = model._intercept
    for source, transform, beta in model._terms:
        total += beta * transform.apply(getattr(parcel, source), pin=parcel.pin, source=source)
    return total


def predict_value(model: FittedModel, parcel: Parcel) -> float:
    """Predicted assessed value in dollars."""
    log_value = predict_log_value(model, parcel)
    try:
        return math.exp(log_value)
    except OverflowError:
        raise OptionValueError(
            f"predicted log value {log_value:.3g} overflows for pin {parcel.pin}; "
            "check the model coefficients"
        ) from None


def rezone_counterfactual(model: FittedModel, parcel: Parcel, to_zone: str) -> OptionValueReport:
    """Option value of rezoning: only the zone dummies move, every
    physical attribute is held fixed."""
    if to_zone not in ZONES:
        raise OptionValueError(f"unknown target zone {to_zone!r}")
    if parcel.zone not in ZONES:
        raise OptionValueError(f"parcel {parcel.pin} has unknown zone {parcel.zone!r}")
    delta = model.zone_coefficient(to_zone) - model.zone_coefficient(parcel.zone)
    value_from = predict_value(model, parcel)
    value_to = value_from * math.exp(delta)
    return OptionValueReport(
        pin=parcel.pin,
        from_zone=parcel.zone,
        to_zone=to_zone,
        delta_log=delta,
        naive_pct=100.0 * delta,
        exact_pct=100.0 * math.expm1(delta),
        predicted_value_from=value_from,
        predicted_value_to=value_to,
    )


def zone_effect_report(model: FittedModel) -> tuple[ZoneEffect, ...]:
    """Per-zone effect versus the unzoned baseline, largest coefficient
    first.  Effects with |coefficient| above EXTREME_LOG_EFFECT are
    flagged rather than trusted as marginal prices."""
    effects = []
    for zone in RESIDENTIAL_ZONES:
        beta = model.zone_coefficient(zone)
        row = model.inference.row(zone)
        effects.append(
            ZoneEffect(
                zone=zone,
                coefficient=beta,
                naive_pct=100.0 * beta,
                exact_pct=100.0 * math.expm1(beta),
                significant=row.significant,
                extreme=abs(beta) > EXTREME_LOG_EFFECT,
            )
        )
    effects.sort(key=lambda e: e.coefficient, reverse=True)
    return tuple(effects)


def option_value_csv_rows(reports):
    """The batch what-if table: the header, then one row per
    counterfactual with every float at full (repr) precision."""
    yield OPTION_VALUE_CSV_COLUMNS
    for r in reports:
        yield (r.pin, r.from_zone, r.to_zone, repr(float(r.delta_log)), repr(float(r.naive_pct)),
               repr(float(r.exact_pct)))


def write_option_value_csv(reports, path: str | Path) -> None:
    """Batch what-if export: one row per counterfactual."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(option_value_csv_rows(reports))
