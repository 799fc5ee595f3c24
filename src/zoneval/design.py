"""Model specifications and design-matrix construction.

A :class:`ModelSpec` is a declarative list of (label, source field,
transform) terms plus a response definition.  :func:`design_from_columns`
compiles it against a table's columns into a labeled numeric matrix and
response vector; :func:`build_design_matrix` does so for a cleaned
:class:`~zoneval.parcels.ParcelTable`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .parcels import Parcel, ParcelTable, RESIDENTIAL_ZONES

TRANSFORM_KINDS = ("identity", "log", "square", "dummy", "threshold")
INTERCEPT_LABEL = "intercept"
RESPONSE_LABEL = "log(u1tfcash)"
CONDITION_GOOD_CUT = 40.0  # percent rating at or above which condition counts as good


class DesignError(ValueError):
    """Raised when a spec cannot be compiled against a table."""


@dataclass(frozen=True, slots=True)
class Transform:
    """One column transform.

    kind      one of identity | log | square | dummy | threshold
    level     dummy only: the zone level that maps to 1
    cut       threshold only: values >= cut map to 1
    """

    kind: str
    level: str | None = None
    cut: float | None = None

    def __post_init__(self):
        if self.kind not in TRANSFORM_KINDS:
            raise DesignError(f"unknown transform kind {self.kind!r}")
        if self.kind == "dummy" and not self.level:
            raise DesignError("dummy transform requires a level")
        if self.kind == "threshold" and self.cut is None:
            raise DesignError("threshold transform requires a cut")

    def apply(self, value, *, pin: str = "?", source: str = "?") -> float:
        if self.kind == "dummy":
            return 1.0 if value == self.level else 0.0
        if self.kind == "threshold":
            return 1.0 if value >= self.cut else 0.0
        if self.kind == "log":
            if value <= 0:
                raise DesignError(
                    f"log transform needs a positive {source}, got {value!r} (pin {pin})"
                )
            return math.log(value)
        if self.kind == "square":
            return float(value) * float(value)
        return float(value)

    def token(self) -> str:
        if self.kind == "dummy":
            return f"dummy:{self.level}"
        if self.kind == "threshold":
            return f"threshold:{self.cut:g}"
        return self.kind

    @classmethod
    def from_token(cls, token: str) -> "Transform":
        kind, _, arg = token.partition(":")
        if kind == "dummy":
            return cls("dummy", level=arg)
        if kind == "threshold":
            try:
                return cls("threshold", cut=float(arg))
            except ValueError as exc:
                raise DesignError(f"bad threshold cut {arg!r}") from exc
        if arg:
            raise DesignError(f"transform {kind!r} takes no argument")
        return cls(kind)


@dataclass(frozen=True, slots=True)
class Term:
    """One column: ``label`` names it, ``source`` is the parcel field it
    reads.  The categorical ``zone`` field pairs only with dummy
    transforms, and a dummy only with ``zone``."""

    label: str
    source: str
    transform: Transform

    def __post_init__(self):
        if (self.source == "zone") != (self.transform.kind == "dummy"):
            raise DesignError(
                f"term {self.label!r}: a zone term needs a dummy transform and a dummy "
                f"needs the zone source; got {self.source} {self.transform.token()}"
            )


@dataclass(frozen=True, slots=True)
class ModelSpec:
    response: Term
    terms: tuple[Term, ...]
    include_intercept: bool = True

    def __post_init__(self):
        labels = [t.label for t in self.terms]
        if len(set(labels)) != len(labels):
            raise DesignError("term labels must be unique")
        if self.include_intercept and INTERCEPT_LABEL in labels:
            raise DesignError(f"{INTERCEPT_LABEL!r} is reserved")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(t.label for t in self.terms)

    def drop_terms(self, labels) -> "ModelSpec":
        drop = set(labels)
        unknown = drop - set(self.labels)
        if unknown:
            raise DesignError(f"cannot drop unknown terms: {sorted(unknown)}")
        kept = tuple(t for t in self.terms if t.label not in drop)
        return ModelSpec(self.response, kept, self.include_intercept)


def _zone_dummies() -> tuple[Term, ...]:
    return tuple(
        Term(zone, "zone", Transform("dummy", level=zone)) for zone in RESIDENTIAL_ZONES
    )


def default_model_spec() -> ModelSpec:
    """The standard residential log-value model: four zone dummies, five
    log covariates, age and its square, a good-condition indicator, and
    the tax rate, plus an intercept (the omitted category is unzoned)."""
    terms = _zone_dummies() + (
        Term("log(lotsqfeet)", "lot_sqft", Transform("log")),
        Term("log(lotdimb)", "lot_depth_ft", Transform("log")),
        Term("log(lotdima)", "lot_width_ft", Transform("log")),
        Term("log(totbldgft)", "total_bldg_sqft", Transform("log")),
        Term("log(bathrooms)", "bathrooms", Transform("log")),
        Term("age", "age_years", Transform("identity")),
        Term("age^2", "age_years", Transform("square")),
        Term("condition", "condition_pct", Transform("threshold", cut=CONDITION_GOOD_CUT)),
        Term("taxrate", "tax_rate_pct", Transform("identity")),
    )
    return ModelSpec(_response_term(), terms, include_intercept=True)


def zoning_only_spec() -> ModelSpec:
    """Restricted model: zone dummies only (used by the variance-share
    decomposition)."""
    return ModelSpec(_response_term(), _zone_dummies(), include_intercept=True)


def _response_term() -> Term:
    return Term(RESPONSE_LABEL, "assessed_value", Transform("log"))


@dataclass(frozen=True)
class DesignMatrix:
    """Compiled numeric design: X is n x p with labeled columns
    (intercept first when present), y is the transformed response."""

    X: np.ndarray
    y: np.ndarray
    column_labels: tuple[str, ...]
    row_pins: tuple[str, ...]
    response_label: str = RESPONSE_LABEL

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def column(self, label: str) -> np.ndarray:
        """Column by label; the response label resolves to y."""
        if label == self.response_label:
            return self.y
        try:
            j = self.column_labels.index(label)
        except ValueError:
            raise DesignError(f"no column labeled {label!r}") from None
        return self.X[:, j]


def _gather_source(values, missing, source: str, pins: tuple[str, ...]):
    if missing is not None:
        mask = missing(source)
        if mask.any():
            pin = pins[int(np.argmax(mask))]
            raise DesignError(f"missing {source} (pin {pin}); clean the table first")
    if source == "zone":
        return np.asarray(values, dtype=object)
    return np.asarray(values, dtype=np.float64)


def _compile_column(
    transform: Transform, values, pins: tuple[str, ...], source: str
) -> np.ndarray:
    if transform.kind == "dummy":
        return (values == transform.level).astype(np.float64)
    if transform.kind == "log":
        bad = values <= 0
        if bad.any():
            i = int(np.argmax(bad))
            raise DesignError(
                f"log transform needs a positive {source}, got {values[i]!r} (pin {pins[i]})"
            )
        return np.log(values)
    if transform.kind == "square":
        return values * values
    if transform.kind == "threshold":
        return (values >= transform.cut).astype(np.float64)
    return np.array(values, dtype=np.float64)


def design_from_columns(
    column: Callable[[str], Sequence],
    pins: tuple[str, ...],
    spec: ModelSpec,
    missing: Callable[[str], np.ndarray] | None = None,
) -> DesignMatrix:
    """Compile spec against a table held as columns.

    ``column(source)`` returns the values of the parcel field ``source``
    in the order of ``pins``; it is called once per source the spec uses.
    ``missing(source)``, when given, returns the boolean mask of the rows
    whose ``source`` is missing; without it no cell is.
    Fails atomically: any missing field, unknown source, or nonpositive
    log source raises (citing pin and field) before a matrix is built.
    """
    parcel_fields = {f for f in Parcel.__dataclass_fields__}
    for term in (spec.response, *spec.terms):
        if term.source not in parcel_fields:
            raise DesignError(f"unknown source field {term.source!r} for term {term.label!r}")

    n = len(pins)
    if n == 0:
        raise DesignError("empty table")
    raw = {
        source: _gather_source(column(source), missing, source, pins)
        for source in {t.source for t in (spec.response, *spec.terms)}
    }

    p = len(spec.terms) + (1 if spec.include_intercept else 0)
    X = np.empty((n, p), dtype=np.float64)
    offset = 0
    labels: list[str] = []
    if spec.include_intercept:
        X[:, 0] = 1.0
        labels.append(INTERCEPT_LABEL)
        offset = 1
    labels.extend(spec.labels)

    y = _compile_column(spec.response.transform, raw[spec.response.source], pins, spec.response.source)
    for j, term in enumerate(spec.terms):
        X[:, offset + j] = _compile_column(term.transform, raw[term.source], pins, term.source)

    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise DesignError("design matrix has non-finite entries")
    return DesignMatrix(X, y, tuple(labels), pins)


def build_design_matrix(table: ParcelTable, spec: ModelSpec) -> DesignMatrix:
    """Compile spec against a cleaned table (see :func:`design_from_columns`)."""
    return design_from_columns(table.column, table.pins, spec, table.missing)


# --- plain-text spec files (CLI interface) -------------------------------

def write_model_spec(spec: ModelSpec, path: str | Path) -> None:
    lines = [
        "# zoneval model spec",
        f"intercept {'true' if spec.include_intercept else 'false'}",
        f"response {spec.response.label} {spec.response.source} {spec.response.transform.token()}",
    ]
    lines += [f"term {t.label} {t.source} {t.transform.token()}" for t in spec.terms]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_model_spec(path: str | Path) -> ModelSpec:
    """Parse a spec file: one `term <label> <source> <transform>` line
    per regressor, plus `response` and `intercept` lines.  The source
    `zone` takes only `dummy:<level>` transforms.  Every error names the
    file, and the line when one line is at fault."""
    response: Term | None = None
    terms: list[Term] = []
    include_intercept = True
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        keyword = parts[0]
        if keyword == "intercept" and len(parts) == 2:
            include_intercept = parts[1].lower() in ("true", "1", "yes")
        elif keyword in ("response", "term") and len(parts) == 4:
            try:
                term = Term(parts[1], parts[2], Transform.from_token(parts[3]))
            except DesignError as exc:
                raise DesignError(f"{path}: line {lineno}: {exc}") from exc
            if keyword == "response":
                response = term
            else:
                terms.append(term)
        else:
            raise DesignError(f"{path}: line {lineno}: cannot parse {raw!r}")
    if response is None:
        raise DesignError(f"{path}: missing response line")
    if not terms:
        raise DesignError(f"{path}: no terms")
    try:
        return ModelSpec(response, tuple(terms), include_intercept)
    except DesignError as exc:
        raise DesignError(f"{path}: {exc}") from exc
