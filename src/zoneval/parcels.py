"""Assessor parcel records: data model, CSV ingestion, listwise cleaning.

A :class:`ParcelTable` is an immutable, ordered collection of
:class:`Parcel` rows keyed by the assessor's property identification
number (pin).  Raw CSV exports may carry missing or invalid cells;
:func:`clean` drops every defective row (listwise deletion) and reports
exactly what was dropped and why.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields, replace
from operator import attrgetter, itemgetter
from pathlib import Path

ZONES = ("R1A", "R1B", "R2", "S2", "OTHER")
RESIDENTIAL_ZONES = ("R1A", "R1B", "R2", "S2")

# Fields that enter the regression through a natural log; they must be
# strictly positive in a clean table.
LOG_SOURCE_FIELDS = (
    "assessed_value",
    "lot_width_ft",
    "lot_depth_ft",
    "lot_sqft",
    "total_bldg_sqft",
    "bathrooms",
)

NUMERIC_FIELDS = (
    "assessed_value",
    "lot_width_ft",
    "lot_depth_ft",
    "lot_sqft",
    "total_bldg_sqft",
    "bathrooms",
    "age_years",
    "condition_pct",
    "tax_rate_pct",
)

# Canonical CSV schema: parcel field -> column name, in write order.
# Column names follow the assessor-office export conventions.
CANONICAL_SCHEMA = {
    "pin": "pin",
    "assessed_value": "u1tfcash",
    "zone": "zone",
    "lot_width_ft": "lotdima",
    "lot_depth_ft": "lotdimb",
    "lot_sqft": "lotsqfeet",
    "total_bldg_sqft": "totbldgft",
    "bathrooms": "bathrooms",
    "age_years": "age",
    "condition_pct": "condition_pct",
    "tax_rate_pct": "taxrate",
}

SCHEMA_VERSION = "1"


class ParcelError(ValueError):
    """Base error for parcel ingestion and validation."""


class DuplicatePinError(ParcelError):
    def __init__(self, pin: str):
        super().__init__(f"duplicate pin {pin!r}")
        self.pin = pin


class SchemaError(ParcelError):
    """The CSV header does not provide a mapped column."""


@dataclass(frozen=True, slots=True)
class Parcel:
    """One assessor record.  Any field except ``pin`` may be None
    (missing) before cleaning."""

    pin: str
    assessed_value: float | None = None
    zone: str | None = None
    lot_width_ft: float | None = None
    lot_depth_ft: float | None = None
    lot_sqft: float | None = None
    total_bldg_sqft: float | None = None
    bathrooms: float | None = None
    age_years: float | None = None
    condition_pct: float | None = None
    tax_rate_pct: float | None = None

    def __post_init__(self):
        if not self.pin:
            raise ParcelError("pin must be nonempty")


@dataclass(frozen=True, slots=True)
class ParcelTable:
    """Immutable, ordered parcel collection with unique pins."""

    rows: tuple[Parcel, ...]
    schema_version: str = SCHEMA_VERSION

    def __post_init__(self):
        seen: set[str] = set()
        for p in self.rows:
            if p.pin in seen:
                raise DuplicatePinError(p.pin)
            seen.add(p.pin)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    @property
    def pins(self) -> tuple[str, ...]:
        return tuple(p.pin for p in self.rows)


@dataclass(frozen=True, slots=True)
class CleanReport:
    """Audit of a listwise-deletion pass: every dropped row is itemized
    by pin, and every defective field is counted."""

    rows_in: int
    rows_kept: int
    rows_dropped: int
    dropped_by_field: dict[str, int]
    dropped_pins: tuple[str, ...]


_VALUE_FIELDS = tuple(f.name for f in fields(Parcel) if f.name != "pin")
_numbers = attrgetter(*NUMERIC_FIELDS)
_log_sources = attrgetter(*LOG_SOURCE_FIELDS)


def parcel_defects(parcel: Parcel) -> list[tuple[str, str]]:
    """Return (field, reason) pairs that would get this row dropped.

    A valid row has no missing or non-finite (nan, inf) field, strictly
    positive log-source fields, condition in [0, 100], nonnegative age,
    and a known zone.  Each defective field is reported once.
    """
    # Fast path for a valid row: a finite sum means every addend is
    # finite, and a missing (None) field raises TypeError.  Any other row
    # is itemised.
    try:
        if (
            parcel.zone in ZONES
            and math.isfinite(sum(_numbers(parcel)))
            and min(_log_sources(parcel)) > 0
            and 0 <= parcel.condition_pct <= 100
            and parcel.age_years >= 0
        ):
            return []
    except TypeError:
        pass
    return _itemised_defects(parcel)


def _itemised_defects(parcel: Parcel) -> list[tuple[str, str]]:
    """Every defect of the row, field by field (see :func:`parcel_defects`)."""
    defects: list[tuple[str, str]] = []
    for name in _VALUE_FIELDS:
        value = getattr(parcel, name)
        if value is None:
            defects.append((name, "missing"))
        elif name != "zone" and not math.isfinite(value):
            defects.append((name, "non-finite"))
    # a missing or non-finite field gets no range check
    defective = {name for name, _reason in defects}
    for name in LOG_SOURCE_FIELDS:
        if name not in defective and getattr(parcel, name) <= 0:
            defects.append((name, "nonpositive"))
    if "condition_pct" not in defective and not 0 <= parcel.condition_pct <= 100:
        defects.append(("condition_pct", "out of range"))
    if "age_years" not in defective and parcel.age_years < 0:
        defects.append(("age_years", "negative"))
    if "zone" not in defective and parcel.zone not in ZONES:
        defects.append(("zone", "unknown zone"))
    return defects


def clean(table: ParcelTable) -> tuple[ParcelTable, CleanReport]:
    """Listwise deletion: drop every row with any defect.

    Never fails; an all-dropped table is legal.  Survivor order matches
    the input.  Idempotent: cleaning a clean table is the identity.
    """
    kept: list[Parcel] = []
    dropped_pins: list[str] = []
    by_field: dict[str, int] = {}
    for parcel in table.rows:
        defects = parcel_defects(parcel)
        if defects:
            dropped_pins.append(parcel.pin)
            for field_name, _reason in defects:
                by_field[field_name] = by_field.get(field_name, 0) + 1
        else:
            kept.append(parcel)
    report = CleanReport(
        rows_in=len(table.rows),
        rows_kept=len(kept),
        rows_dropped=len(dropped_pins),
        dropped_by_field=by_field,
        dropped_pins=tuple(dropped_pins),
    )
    return ParcelTable(tuple(kept), table.schema_version), report


def _parse_number(cell: str) -> float | None:
    cell = cell.strip()
    if not cell:
        return None
    try:
        return float(cell)
    except ValueError:
        return None


def _parse_zone(cell: str) -> str | None:
    cell = cell.strip().upper()
    if not cell:
        return None
    # Anything outside the four residential districts is unzoned/other.
    return cell if cell in RESIDENTIAL_ZONES else "OTHER"


def load_parcels(path: str | Path, schema: dict[str, str] | None = None) -> ParcelTable:
    """Read a parcel CSV (UTF-8, header row) into a ParcelTable.

    ``schema`` maps parcel field names to CSV column names; defaults to
    the canonical assessor layout.  Empty or unparseable cells, and the
    cells a short row lacks, become missing values, never errors; extra
    cells are ignored and blank lines skipped.  A column name repeated in
    the header resolves to its last occurrence.  Missing file, missing
    mapped column, empty pin (cited by its physical line, header = 1) and
    duplicate pins are errors.
    """
    path = Path(path)
    schema = dict(CANONICAL_SCHEMA if schema is None else schema)
    missing_fields = set(CANONICAL_SCHEMA) - set(schema)
    if missing_fields:
        raise SchemaError(f"schema does not map fields: {sorted(missing_fields)}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{path}: no header row")
        index = {name: i for i, name in enumerate(header)}
        for column in schema.values():
            if column not in index:
                raise SchemaError(f"{path}: missing mapped column {column!r}")
        pin_at, value_at, zone_at = (index[schema[name]] for name in ("pin", "assessed_value", "zone"))
        # the other numeric fields follow zone in Parcel's field order
        other_cells = itemgetter(*(index[schema[name]] for name in NUMERIC_FIELDS[1:]))
        width = 1 + max(index[column] for column in schema.values())
        rows: list[Parcel] = []
        for record in filter(None, reader):
            if len(record) < width:
                record += [""] * (width - len(record))
            pin = record[pin_at].strip()
            if not pin:
                raise ParcelError(f"{path}: line {reader.line_num}: empty pin")
            cells = other_cells(record)
            try:
                numbers = list(map(float, cells))
            except ValueError:
                numbers = [_parse_number(cell) for cell in cells]
            rows.append(
                Parcel(pin, _parse_number(record[value_at]), _parse_zone(record[zone_at]), *numbers)
            )
    return ParcelTable(tuple(rows))


def write_parcels(table: ParcelTable, path: str | Path) -> None:
    """Write the canonical parcel CSV.  ``csv.writer`` writes a float in
    its shortest round-trip form (numpy floats included) and None as an
    empty cell, so load(write(t)) reproduces t field-for-field."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CANONICAL_SCHEMA.values())
        writer.writerows(map(attrgetter(*CANONICAL_SCHEMA), table.rows))


def with_field(parcel: Parcel, **changes) -> Parcel:
    """Copy a parcel with replaced fields (parcels are frozen)."""
    return replace(parcel, **changes)
