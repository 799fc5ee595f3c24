"""Prediction and rezoning counterfactuals.

The option value of rezoning a parcel is the zone-coefficient
difference in log value.  Reports carry both the naive percent reading
(100 * delta) and the exact one (100 * (exp(delta) - 1)); the two agree
only for small effects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .design import INTERCEPT_LABEL, ModelSpec, Transform, default_model_spec
from .inference import InferenceTable, fit_table
from .parcels import ZONES, Parcel, ParcelTable, parcel_defects

# |delta_log| beyond this is flagged: the implied percent effect is too
# large to read as a marginal price.
EXTREME_LOG_EFFECT = 2.0


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
    # every zone -> the coefficient of the dummy term whose level it is, or 0.0
    _zone_betas: dict[str, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if tuple(self.inference.labels) != (INTERCEPT_LABEL, *self.spec.labels):
            raise OptionValueError("inference rows do not match the spec labels")
        estimates = {row.label: row.estimate for row in self.inference.rows}
        object.__setattr__(self, "_estimates", estimates)
        object.__setattr__(self, "_intercept", estimates[INTERCEPT_LABEL])
        object.__setattr__(
            self, "_terms", tuple((t.source, t.transform, estimates[t.label]) for t in self.spec.terms)
        )
        betas = {t.transform.level: estimates[t.label] for t in self.spec.terms if t.transform.kind == "dummy"}
        object.__setattr__(self, "_zone_betas", {zone: betas.get(zone, 0.0) for zone in ZONES})

    @classmethod
    def fit(cls, table: ParcelTable, spec: ModelSpec | None = None) -> "FittedModel":
        spec = default_model_spec() if spec is None else spec
        _, _, inference = fit_table(table, spec)
        return cls(spec, inference)

    def coefficient(self, label: str) -> float:
        return self._estimates[label]

    def zone_coefficient(self, zone: str) -> float:
        """Zone effect relative to the baseline: the coefficient of the
        dummy term whose level is ``zone``, or 0.0 for a zone no dummy
        term covers (in the default spec, OTHER), as the design has it."""
        try:
            return self._zone_betas[zone]
        except KeyError:
            raise OptionValueError(f"unknown zone {zone!r}") from None


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
        raise OptionValueError(f"invalid parcel {parcel.pin}: {name} {getattr(parcel, name)!r} {reason}")
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
    physical attribute is held fixed.  Pricing the parcel first
    validates it, its zone included."""
    value_from = predict_value(model, parcel)
    delta = model.zone_coefficient(to_zone) - model.zone_coefficient(parcel.zone)
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
    """Effect of each zone that has a dummy term, versus the baseline
    of the zones without one, largest coefficient first.  Effects with
    |coefficient| above EXTREME_LOG_EFFECT are flagged rather than
    trusted as marginal prices."""
    effects = []
    for term in model.spec.terms:
        if term.transform.kind != "dummy":
            continue
        row = model.inference.row(term.label)
        beta = row.estimate
        effects.append(
            ZoneEffect(
                zone=term.transform.level,
                coefficient=beta,
                naive_pct=100.0 * beta,
                exact_pct=100.0 * math.expm1(beta),
                significant=row.significant,
                extreme=abs(beta) > EXTREME_LOG_EFFECT,
            )
        )
    effects.sort(key=lambda e: e.coefficient, reverse=True)
    return tuple(effects)
