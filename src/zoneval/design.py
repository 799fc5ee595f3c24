"""Model specifications and design-matrix construction.

Every model has one shape: log assessed value regressed on an
intercept and the regressors a :class:`ModelSpec` lists, each a (label,
source field, transform) term.  :func:`build_design_matrix`, the one
compiler, reads a cleaned :class:`~zoneval.parcels.ParcelTable`'s
columns into a labeled numeric matrix, intercept first, and the
log-value response vector; the synthetic markets of
:mod:`zoneval.synth` are priced through it too.  This module alone says
what a term accepts: a :class:`Term` reads a parcel field, checked also
when it is unpickled, and ``KIND_TABLE`` states each transform kind
once, as a function, a pricer term and its domain in the pricer.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._kernels import MAX_COLUMN_SQUARES
from .parcels import NUMERIC_FIELDS, ParcelTable, RESIDENTIAL_ZONES

# Each transform kind: its function of one value (or of a column, but for log)
# and its dummy's level or threshold's cut ``arg``; its term in a fitted model's
# pricer, of a parcel ``p``, a field ``f`` and the name ``k`` of ``arg``; and its
# domain there, the test that the design accepts ``p.{f}`` (None: any value the
# cleaning rules keep)
KIND_TABLE = {
    "identity": (lambda value, arg: value, "p.{f}", None),
    "log": (lambda value, arg: math.log(value), "log(p.{f})", "p.{f} > 0"),
    "square": (lambda value, arg: value * value, "(p.{f} * p.{f})", "isfinite(p.{f} * p.{f})"),
    "dummy": (operator.eq, "(p.{f} == {k})", None),
    "threshold": (operator.ge, "(p.{f} >= {k})", None),
}
TRANSFORM_KINDS = tuple(KIND_TABLE)
INTERCEPT_LABEL = "intercept"
RESPONSE_LABEL = "log(u1tfcash)"
RESPONSE_SOURCE = "assessed_value"
SOURCE_FIELDS = frozenset((*NUMERIC_FIELDS, "zone"))  # the fields a term may read
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

    @property
    def arg(self):
        """The kind's argument: the threshold's cut, else the dummy's level."""
        return self.cut if self.kind == "threshold" else self.level

    def scalar(self, value):
        """The kind's function (see KIND_TABLE) of ``value``."""
        return KIND_TABLE[self.kind][0](value, self.arg)

    def __reduce__(self):  # unpickled through the constructor, so its checks run
        return Transform, (self.kind, self.level, self.cut)

    def token(self) -> str:
        if self.kind == "dummy":
            return f"dummy:{self.level}"
        if self.kind == "threshold":
            short = f"{self.cut:g}"  # "40", not "40.0", where it reads back as the same cut
            return f"threshold:{short if float(short) == self.cut else repr(float(self.cut))}"
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
    reads, a numeric field or ``zone``.  The categorical ``zone`` field
    pairs only with dummy transforms, and a dummy only with ``zone``."""

    label: str
    source: str
    transform: Transform

    def __post_init__(self):
        if self.source not in SOURCE_FIELDS:
            raise DesignError(f"unknown source field {self.source!r} for term {self.label!r}")
        if (self.source == "zone") != (self.transform.kind == "dummy"):
            raise DesignError(
                f"term {self.label!r}: a zone term needs a dummy transform and a dummy "
                f"needs the zone source; got {self.source} {self.transform.token()}"
            )

    def __reduce__(self):  # unpickled through the constructor, so its checks run
        return Term, (self.label, self.source, self.transform)


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
    intercept first; y is the log-value response.  X is column-major
    (Fortran order), the order it is built, read and factored in: the
    builder writes it a column at a time, :meth:`column` returns a view
    of one column, and the factorization copies column-major blocks of
    it for LAPACK."""

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


def _gather_source(table: ParcelTable, source: str):
    """The column of ``source``, the codes for the zone (see
    ``ParcelTable.codes``); a missing cell, or a non-finite one of a
    numeric field, is an error naming the field and the pin.  Every
    transform sees only finite values: a threshold or a dummy would
    otherwise encode nan as 0.0 and inf as 1.0."""
    mask = table.missing(source)
    if mask.any():
        pin = table.pins[int(np.argmax(mask))]
        raise DesignError(f"missing {source} (pin {pin}); clean the table first")
    if source == "zone":
        return table.codes
    values = table.column(source)
    bad = ~np.isfinite(values)
    if bad.any():
        i = int(np.argmax(bad))
        raise DesignError(
            f"non-finite {source} {float(values[i])!r} (pin {table.pins[i]}); clean the table first"
        )
    return values


def _overflow_error(term: Term, values, column: np.ndarray, pins: tuple[str, ...]) -> DesignError:
    """The error for a column of ``term`` too large to factor, naming its
    field and the pin of its largest value."""
    i = int(np.argmax(np.abs(column)))
    return DesignError(
        f"term {term.label!r} overflows: {term.transform.kind} of {term.source} "
        f"{float(values[i])!r} (pin {pins[i]})"
    )


def _compile_column(term: Term, values, table: ParcelTable) -> tuple[np.ndarray, bool]:
    """The column of ``term`` from its finite source ``values`` in ``table``,
    and whether its sum of squares is within the factorization's bound
    (``_kernels.MAX_COLUMN_SQUARES``).  A value that overflows, which only
    a square can give, is an error naming term, field and pin."""
    pins = table.pins
    if term.transform.kind == "dummy":  # values are zone codes; a level the table lacks is no row's zone
        level, levels = term.transform.level, table.levels
        return values == (levels.index(level) if level in levels else -1), True
    if term.transform.kind == "log":
        bad = values <= 0
        if bad.any():
            i = int(np.argmax(bad))
            raise DesignError(
                f"log transform needs a positive {term.source}, got {float(values[i])!r} (pin {pins[i]})"
            )
        return np.log(values), True
    with np.errstate(over="ignore"):
        column = term.transform.scalar(values)
        squares = np.dot(column, column)  # not finite if any value is not
    fits = bool(squares <= MAX_COLUMN_SQUARES)
    if not fits and not np.isfinite(column).all():
        raise _overflow_error(term, values, column, pins)
    return column, fits


def build_design_matrix(table: ParcelTable, spec: ModelSpec) -> DesignMatrix:
    """Compile spec against a cleaned table.

    Each source the spec uses is read once.  Fails atomically: any
    missing or non-finite field, nonpositive log source, overflowing
    term or column too large to factor raises (citing pin and field)
    before a matrix is built.  A column too large to factor is named
    last, so that a term whose values overflow is named before it.
    """
    pins, n = table.pins, len(table)
    if n == 0:
        raise DesignError("empty table")
    raw = {
        source: _gather_source(table, source)
        for source in {RESPONSE_SOURCE, *(t.source for t in spec.terms)}
    }

    X = np.empty((n, 1 + len(spec.terms)), dtype=np.float64, order="F")
    X[:, 0] = 1.0
    y, _fits = _compile_column(Term(RESPONSE_LABEL, RESPONSE_SOURCE, Transform("log")), raw[RESPONSE_SOURCE], table)
    too_large = []
    for j, term in enumerate(spec.terms, 1):
        X[:, j], fits = _compile_column(term, raw[term.source], table)
        if not fits:
            too_large.append(j)
    if too_large:
        term = spec.terms[too_large[0] - 1]
        raise _overflow_error(term, raw[term.source], X[:, too_large[0]], pins)
    return DesignMatrix(X, y, (INTERCEPT_LABEL, *spec.labels), pins)


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
