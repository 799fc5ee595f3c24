"""Prediction and rezoning counterfactuals.

The option value of rezoning a parcel is the zone-coefficient
difference in log value.  Reports carry both the naive percent reading
(100 * delta) and the exact one (100 * (exp(delta) - 1)); the two agree
only for small effects.

A :class:`FittedModel` compiles its coefficients once for the per-parcel
paths.  The delta and both percents depend only on the (from, to) zone
pair, so they come from a pair table of all zone pairs, which also holds
exp(delta) for the rezoned value.  Each zone has a start value: the
intercept plus the spec's leading dummy terms evaluated for that zone,
summed in spec order.  Every later term is bound once to its field
getter, its transform kind's function and its coefficient, so a
prediction is the parcel's zone start plus one pass over the bound
terms, the same sum in the same order as the design's, bit for bit.  A
failing log names the pin and field of the term being summed.  Every
parcel is still checked against the cleaning rules before it is priced:
the single-parcel API takes any :class:`~zoneval.parcels.Parcel`, not
only a row of a cleaned table.  A report is built through its slots'
setters (:func:`~zoneval.parcels.field_setters`), past the frozen
``__init__``.  A zone coefficient whose exact percent overflows is an
error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable

from .design import INTERCEPT_LABEL, ModelSpec, default_model_spec, log_domain_error
from .inference import InferenceTable, fit_table
from .parcels import ZONES, Parcel, ParcelTable, field_setters, parcel_defects

# |delta_log| beyond this is flagged: the implied percent effect is too
# large to read as a marginal price.
EXTREME_LOG_EFFECT = 2.0


class OptionValueError(ValueError):
    pass


def _pair_entry(delta: float) -> tuple[float, float, float, float] | None:
    """delta_log, naive_pct, exact_pct and exp(delta_log) of one zone
    pair, or None when exp(delta_log) overflows: only rezoning a parcel
    across that pair is an error."""
    try:
        return delta, 100.0 * delta, 100.0 * math.expm1(delta), math.exp(delta)
    except OverflowError:
        return None


@dataclass(frozen=True)
class FittedModel:
    """An estimated spec: coefficient lookup by label plus the full
    inference table it came from."""

    spec: ModelSpec
    inference: InferenceTable
    # compiled once from the two above, for the per-parcel paths
    _estimates: dict[str, float] = field(init=False, repr=False, compare=False)
    # every zone -> (start value, the terms after the leading dummies, each
    # as (source, field getter, transform scalar, coefficient) in spec order)
    _by_zone: dict[str, tuple[float, tuple[tuple[str, Callable, Callable, float], ...]]] = field(
        init=False, repr=False, compare=False
    )
    # every zone -> the coefficient of the dummy term whose level it is, or 0.0
    _zone_betas: dict[str, float] = field(init=False, repr=False, compare=False)
    # every (from zone, to zone) -> its _pair_entry
    _pairs: dict[tuple[str, str], tuple[float, float, float, float] | None] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if tuple(self.inference.labels) != (INTERCEPT_LABEL, *self.spec.labels):
            raise OptionValueError("inference rows do not match the spec labels")
        estimates = {row.label: row.estimate for row in self.inference.rows}
        object.__setattr__(self, "_estimates", estimates)
        terms = self.spec.terms
        lead = next((j for j, t in enumerate(terms) if t.transform.kind != "dummy"), len(terms))
        rest = tuple(
            (t.source, attrgetter(t.source), t.transform.scalar, estimates[t.label]) for t in terms[lead:]
        )
        by_zone = {}
        for zone in ZONES:
            # the intercept, then the leading dummies, as the design sums them
            start = estimates[INTERCEPT_LABEL]
            for t in terms[:lead]:
                start += estimates[t.label] * t.transform.scalar(zone)
            by_zone[zone] = (start, rest)
        object.__setattr__(self, "_by_zone", by_zone)
        betas = {t.transform.level: estimates[t.label] for t in terms if t.transform.kind == "dummy"}
        zone_betas = {zone: betas.get(zone, 0.0) for zone in ZONES}
        object.__setattr__(self, "_zone_betas", zone_betas)
        object.__setattr__(
            self,
            "_pairs",
            {(a, b): _pair_entry(zone_betas[b] - zone_betas[a]) for a in ZONES for b in ZONES},
        )

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


(
    _set_pin,
    _set_from_zone,
    _set_to_zone,
    _set_delta_log,
    _set_naive_pct,
    _set_exact_pct,
    _set_value_from,
    _set_value_to,
) = field_setters(OptionValueReport)


def _new_report(pin, from_zone, to_zone, delta, naive, exact, value_from, value_to) -> OptionValueReport:
    """``OptionValueReport(...)`` at slot speed: the same frozen report,
    its fields set one by one through their slot setters."""
    report = object.__new__(OptionValueReport)
    _set_pin(report, pin)
    _set_from_zone(report, from_zone)
    _set_to_zone(report, to_zone)
    _set_delta_log(report, delta)
    _set_naive_pct(report, naive)
    _set_exact_pct(report, exact)
    _set_value_from(report, value_from)
    _set_value_to(report, value_to)
    return report


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
    # the zone's start (intercept, then the leading dummies), then the
    # remaining terms in spec order, as the design has them
    total, terms = model._by_zone[parcel.zone]
    try:
        for source, value_of, scalar, beta in terms:
            total += beta * scalar(value_of(parcel))
    except ValueError:
        # only a log of a zero or negative value fails: the term being summed
        raise log_domain_error(source, value_of(parcel), parcel.pin) from None
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
    validates it, its zone included.  A rezoned value beyond the largest
    float is an error naming the pin and the zone pair."""
    value_from = predict_value(model, parcel)
    pair = model._pairs.get((parcel.zone, to_zone))
    if pair is not None:
        delta, naive, exact, growth = pair
        value_to = value_from * growth
        if not math.isinf(value_to):
            return _new_report(parcel.pin, parcel.zone, to_zone, delta, naive, exact, value_from, value_to)
    # an unknown target zone, or a pair whose rezoned value overflows
    delta = model.zone_coefficient(to_zone) - model.zone_coefficient(parcel.zone)
    raise OptionValueError(
        f"rezoning pin {parcel.pin} from {parcel.zone} to {to_zone} overflows: "
        f"delta_log {delta:.6g} prices it beyond the largest float"
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
        entry = _pair_entry(beta)
        if entry is None:
            raise OptionValueError(
                f"zone {term.transform.level} effect overflows: coefficient {beta:.6g} "
                "puts its exact percent beyond the largest float"
            )
        _, naive, exact, _ = entry
        effects.append(
            ZoneEffect(
                zone=term.transform.level,
                coefficient=beta,
                naive_pct=naive,
                exact_pct=exact,
                significant=row.significant,
                extreme=abs(beta) > EXTREME_LOG_EFFECT,
            )
        )
    effects.sort(key=lambda e: e.coefficient, reverse=True)
    return tuple(effects)
