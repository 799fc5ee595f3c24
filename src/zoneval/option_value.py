"""Prediction and rezoning counterfactuals.

The option value of rezoning a parcel is the zone-coefficient
difference in log value.  Reports carry both the naive percent reading
(100 * delta) and the exact one (100 * (exp(delta) - 1)); the two agree
only for small effects.

A :class:`FittedModel` compiles its coefficients once for the per-parcel
paths.  The delta and both percents depend only on the (from, to) zone
pair, so they come from a pair table of all zone pairs, which also holds
exp(delta) for the rezoned value.  Each zone has a start value: the
intercept plus the spec's leading dummy terms (its terms on ``zone``)
evaluated for that zone, summed in spec order.  The model's pricer is
one Python function, generated from fixed text: the cleaning rules'
conditions and each term's domain in
:data:`~zoneval.design.KIND_TABLE`, then the parcel's zone start plus
each later term, its kind's term in ``KIND_TABLE`` over the term's
field, with its coefficient and its cut or level as named constants.
That sum, the design's in the same order bit for bit, is the only code
that returns a price.  Any other parcel only gets its error: the first
defect the cleaning rules itemise, else the design's own error for the
parcel as a one-row table.  A model pickles as its spec and inference
table.  A report is built through its slots' setters
(:func:`~zoneval.parcels.field_setters`), past the frozen ``__init__``.
A zone coefficient whose exact percent overflows is an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .design import INTERCEPT_LABEL, KIND_TABLE, DesignError, ModelSpec, build_design_matrix, default_model_spec
from .inference import InferenceTable, fit_table
from .parcels import ROW_CONDITIONS, ROW_TEST_NAMES, ZONES, Parcel, ParcelTable, parcel_defects
from .parcels import field_setters

# |delta_log| beyond this is flagged: the implied percent effect is too
# large to read as a marginal price.
EXTREME_LOG_EFFECT = 2.0


class OptionValueError(ValueError):
    pass


# The pricer of a fitted model: a row that passes the test (see _compile_pricer)
# is summed, and any other row, or one whose test raises, gets ``rejection``'s error.
_PRICER = """\
def price(p):
    try:
        if {test}:
            return {sum}
    except (TypeError, OverflowError):
        pass
    raise rejection(p)
"""


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
    # the compiled pricer (see _PRICER): a parcel -> its predicted log value
    _price: Callable[[Parcel], float] = field(init=False, repr=False, compare=False)
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
        self._compile_pricer(estimates)
        betas = {t.transform.level: estimates[t.label] for t in self.spec.terms if t.source == "zone"}
        zone_betas = {zone: betas.get(zone, 0.0) for zone in ZONES}
        object.__setattr__(self, "_zone_betas", zone_betas)
        object.__setattr__(
            self,
            "_pairs",
            {(a, b): _pair_entry(zone_betas[b] - zone_betas[a]) for a in ZONES for b in ZONES},
        )

    def _compile_pricer(self, estimates: dict[str, float]) -> None:
        """Generate ``_price`` from _PRICER and KIND_TABLE's terms; its test is
        the rules' conditions, then each term's domain, each once.  The
        source holds only template text, field names and constant names."""
        terms = self.spec.terms
        lead = next((j for j, t in enumerate(terms) if t.source != "zone"), len(terms))
        starts = {}
        for zone in ZONES:
            # the intercept, then the leading dummies, as the design sums them
            start = estimates[INTERCEPT_LABEL]
            for t in terms[:lead]:
                start += estimates[t.label] * t.transform.scalar(zone)
            starts[zone] = start
        names = dict(ROW_TEST_NAMES, log=math.log, starts=starts, rejection=self._rejection)
        addends = ["starts[p.zone]"]
        for j, t in enumerate(terms[lead:], lead):
            names[f"b{j}"] = estimates[t.label]
            names[f"k{j}"] = t.transform.arg
            addends.append(f"b{j} * " + KIND_TABLE[t.transform.kind][1].format(f=t.source, k=f"k{j}"))
        domains = (KIND_TABLE[t.transform.kind][2] for t in terms)
        conditions = (*ROW_CONDITIONS, *(d.format(f=t.source) for t, d in zip(terms, domains) if d))
        source = _PRICER.format(test=" and ".join(dict.fromkeys(conditions)), sum=" + ".join(addends))
        exec(compile(source, "<FittedModel pricer>", "exec"), names)
        object.__setattr__(self, "_price", names["price"])

    def _rejection(self, parcel: Parcel) -> Exception:
        """The error for a parcel the pricer does not sum: its first defect by
        the rules, else the design's error for it as a one-row table, else a
        TypeError (a field is neither a float nor an int)."""
        defects = parcel_defects(parcel)
        if defects:
            name, reason = defects[0]
            return OptionValueError(f"invalid parcel {parcel.pin}: {name} {getattr(parcel, name)!r} {reason}")
        try:
            build_design_matrix(ParcelTable((parcel,)), self.spec)
        except DesignError as exc:
            return exc
        return TypeError(f"invalid parcel {parcel.pin}: a field is neither a float nor an int")

    def __reduce__(self):  # pickled as its spec and inference table; loading compiles it again
        return FittedModel, (self.spec, self.inference)

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
    transformed regressors, summed in spec order.  The parcel must pass
    the cleaning rules."""
    return model._price(parcel)


def predict_value(model: FittedModel, parcel: Parcel) -> float:
    """Predicted assessed value in dollars.  A log value that is not finite,
    or whose exp is past the largest float, is an error naming the pin."""
    log_value = model._price(parcel)
    if math.isfinite(log_value):
        try:
            return math.exp(log_value)
        except OverflowError:
            pass
    raise OptionValueError(
        f"predicted log value {log_value:.3g} overflows for pin {parcel.pin}; check the model coefficients"
    )


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
        if term.source != "zone":
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
