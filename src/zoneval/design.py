"""Model specifications and design-matrix construction.

Every model has one shape: log assessed value regressed on an
intercept and the regressors a :class:`ModelSpec` lists, each a (label,
source field, transform) term.  :func:`design_from_columns` compiles a
spec against a table's columns into a labeled numeric matrix, intercept
first, and the log-value response vector; :func:`build_design_matrix`
does so for a cleaned :class:`~zoneval.parcels.ParcelTable`.  Each
transform kind is one function of a column or of one value; a log
column takes ``np.log`` after its positivity check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .parcels import NUMERIC_FIELDS, ParcelTable, RESIDENTIAL_ZONES

TRANSFORM_KINDS = ("identity", "log", "square", "dummy", "threshold")
INTERCEPT_LABEL = "intercept"
RESPONSE_LABEL = "log(u1tfcash)"
RESPONSE_SOURCE = "assessed_value"
_SOURCE_FIELDS = frozenset((*NUMERIC_FIELDS, "zone"))  # the fields a term may read
CONDITION_GOOD_CUT = 40.0  # percent rating at or above which condition counts as good


class DesignError(ValueError):
    """Raised when a spec cannot be compiled against a table."""


def _kind_function(kind: str, level: str | None, cut: float | None) -> Callable:
    """One transform kind's function of a column or of one value; ``log``
    is ``math.log``, of one value only (see :func:`_compile_column`)."""
    return {
        "identity": lambda value: value,
        "log": math.log,
        "square": lambda value: value * value,
        "dummy": lambda value: value == level,
        "threshold": lambda value: value >= cut,
    }[kind]


def log_domain_error(source: str, value, pin: str) -> DesignError:
    """The error for a log of a zero or negative ``source`` value."""
    return DesignError(f"log transform needs a positive {source}, got {value!r} (pin {pin})")


@dataclass(frozen=True, slots=True)
class Transform:
    """One column transform.

    kind      one of identity | log | square | dummy | threshold
    level     dummy only: the zone level that maps to 1
    cut       threshold only: values >= cut map to 1
    scalar    the kind's function (see _kind_function) built from the
              above; the per-parcel predictor binds it once per term
    """

    kind: str
    level: str | None = None
    cut: float | None = None
    scalar: Callable[[object], float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in TRANSFORM_KINDS:
            raise DesignError(f"unknown transform kind {self.kind!r}")
        if self.kind == "dummy" and not self.level:
            raise DesignError("dummy transform requires a level")
        if self.kind == "threshold" and self.cut is None:
            raise DesignError("threshold transform requires a cut")
        object.__setattr__(self, "scalar", _kind_function(self.kind, self.level, self.cut))

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
    """The regressors of the log-value model, in design order.  The
    response is always log(assessed_value) and the intercept always
    comes first, so neither is a term."""

    terms: tuple[Term, ...]

    def __post_init__(self):
        labels = [t.label for t in self.terms]
        if len(set(labels)) != len(labels):
            raise DesignError("term labels must be unique")
        if INTERCEPT_LABEL in labels:
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
        return ModelSpec(kept)


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
    return ModelSpec(terms)


def zoning_only_spec() -> ModelSpec:
    """Restricted model: zone dummies only (used by the variance-share
    decomposition)."""
    return ModelSpec(_zone_dummies())


@dataclass(frozen=True)
class DesignMatrix:
    """Compiled numeric design: X is n x p with labeled columns,
    intercept first; y is the log-value response."""

    X: np.ndarray
    y: np.ndarray
    column_labels: tuple[str, ...]
    row_pins: tuple[str, ...]

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def column(self, label: str) -> np.ndarray:
        """Column by label; RESPONSE_LABEL resolves to y."""
        if label == RESPONSE_LABEL:
            return self.y
        try:
            j = self.column_labels.index(label)
        except ValueError:
            raise DesignError(f"no column labeled {label!r}") from None
        return self.X[:, j]


def _gather_source(values, missing, source: str, pins: tuple[str, ...]):
    """The column of ``source``; a missing cell, or a non-finite one of a
    numeric field, is an error naming the field and the pin.  Every
    transform sees only finite values: a threshold or a dummy would
    otherwise encode nan as 0.0 and inf as 1.0."""
    if missing is not None:
        mask = missing(source)
        if mask.any():
            pin = pins[int(np.argmax(mask))]
            raise DesignError(f"missing {source} (pin {pin}); clean the table first")
    if source == "zone":
        return np.asarray(values, dtype=object)
    values = np.asarray(values, dtype=np.float64)
    bad = ~np.isfinite(values)
    if bad.any():
        i = int(np.argmax(bad))
        raise DesignError(f"non-finite {source} {float(values[i])!r} (pin {pins[i]}); clean the table first")
    return values


def _compile_column(transform: Transform, values, pins: tuple[str, ...], source: str) -> np.ndarray:
    if transform.kind == "log":
        bad = values <= 0
        if bad.any():
            i = int(np.argmax(bad))
            raise log_domain_error(source, values[i], pins[i])
        return np.log(values)
    return transform.scalar(values)


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
    A term's source is a numeric field or ``zone``.  Fails atomically: any
    missing or non-finite field, other source, or nonpositive log source
    raises (citing pin and field) before a matrix is built.
    """
    for term in spec.terms:
        if term.source not in _SOURCE_FIELDS:
            raise DesignError(f"unknown source field {term.source!r} for term {term.label!r}")

    n = len(pins)
    if n == 0:
        raise DesignError("empty table")
    raw = {
        source: _gather_source(column(source), missing, source, pins)
        for source in {RESPONSE_SOURCE, *(t.source for t in spec.terms)}
    }

    X = np.empty((n, 1 + len(spec.terms)), dtype=np.float64)
    X[:, 0] = 1.0
    y = _compile_column(Transform("log"), raw[RESPONSE_SOURCE], pins, RESPONSE_SOURCE)
    for j, term in enumerate(spec.terms, 1):
        X[:, j] = _compile_column(term.transform, raw[term.source], pins, term.source)

    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise DesignError("design matrix has non-finite entries")
    return DesignMatrix(X, y, (INTERCEPT_LABEL, *spec.labels), pins)


def build_design_matrix(table: ParcelTable, spec: ModelSpec) -> DesignMatrix:
    """Compile spec against a cleaned table (see :func:`design_from_columns`)."""
    return design_from_columns(table.column, table.pins, spec, table.missing)


# --- plain-text spec files (CLI interface) -------------------------------

def write_model_spec(spec: ModelSpec, path: str | Path) -> None:
    """Write one `term <label> <source> <transform>` line per regressor;
    the log-value response and the intercept are implied."""
    lines = ["# zoneval model spec"]
    lines += [f"term {t.label} {t.source} {t.transform.token()}" for t in spec.terms]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_model_spec(path: str | Path) -> ModelSpec:
    """Parse a spec file: one `term <label> <source> <transform>` line
    per regressor, over the fixed log-value response with an intercept.
    The source `zone` takes only `dummy:<level>` transforms.  The lines
    older files carry, `intercept true` and `response <label>
    assessed_value log`, state that fixed shape and are skipped; any
    other `intercept` or `response` line is an error.  Every error names
    the file, and the line when one line is at fault."""
    terms: list[Term] = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        keyword = parts[0]
        if keyword == "term" and len(parts) == 4:
            try:
                terms.append(Term(parts[1], parts[2], Transform.from_token(parts[3])))
            except DesignError as exc:
                raise DesignError(f"{path}: line {lineno}: {exc}") from exc
        elif keyword == "intercept":
            if parts[1:] != ["true"]:
                raise DesignError(f"{path}: line {lineno}: the model always has an intercept; got {raw!r}")
        elif keyword == "response":
            # older files name the response; the label is not used
            if parts[2:] != [RESPONSE_SOURCE, "log"]:
                raise DesignError(
                    f"{path}: line {lineno}: the response is always log({RESPONSE_SOURCE}); got {raw!r}"
                )
        else:
            raise DesignError(f"{path}: line {lineno}: cannot parse {raw!r}")
    if not terms:
        raise DesignError(f"{path}: no terms")
    try:
        return ModelSpec(tuple(terms))
    except DesignError as exc:
        raise DesignError(f"{path}: {exc}") from exc
