"""Assessor parcel records: data model, CSV ingestion, listwise cleaning.

A :class:`ParcelTable` is an immutable, ordered collection of parcels
keyed by the assessor's property identification number (pin).  It is
stored by column: the pins and the zones as tuples (a zone is any
string, or None when missing), one float64 array per numeric field, and
a mask of the missing cells.  A missing numeric cell holds NaN in its
array, and the mask is what tells it from a literal ``nan`` cell, which
cleans as non-finite rather than missing.  :class:`Parcel` is the row
view: iterating a table builds its rows a chunk at a time through
:func:`field_setters` (one C-level ``map`` per field, without the frozen
``__init__``), and :meth:`ParcelTable.row` builds one from its column of
the arrays.  The loader, :func:`clean` and the design never build rows;
the per-parcel whatif path and the single-parcel API do.

The loader reads one CSV layout, ``CANONICAL_SCHEMA``; a malformed file
ends in a :class:`ParcelError` naming it.  Each direction has a fast path
for quote-free records and keeps the csv module for the records that
need quoting.  The loader reads the file a chunk of lines at a time and
splits each chunk's lines on commas until the first line with a quote,
and ``csv.reader`` reads the file from there; each chunk of records goes
into the columns through C-level maps, with no Python step per record.
The writer joins a chunk of rows with commas unless a pin or zone in it
needs quoting, when ``csv.writer`` writes that chunk.  Both give what
the csv module would.

Raw CSV exports may carry missing or invalid cells.  One table of
cleaning rules, each a (field, reason, column predicate), drives both
:func:`clean`, which drops every row a rule fires on (listwise deletion)
and reports exactly what was dropped and why, and :func:`parcel_defects`.
"""

from __future__ import annotations

import csv
import math
from array import array
from collections import deque
from dataclasses import dataclass, fields
from itertools import chain, compress, islice, repeat
from operator import attrgetter, is_, itemgetter
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import ZONES

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

# Canonical CSV schema: parcel field -> column name, in write order; the
# one layout load_parcels reads and write_parcels writes.
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

_NUMBER_ROW = {name: i for i, name in enumerate(NUMERIC_FIELDS)}
# the missing-cell mask has a row per numeric field, then one for the zone
_MASK_ROW = {**_NUMBER_ROW, "zone": len(NUMERIC_FIELDS)}
_ZONE_SET = frozenset(ZONES)
_ROW_CHUNK = 4096  # rows built or written per step, and records csv.reader reads
_READ_CHUNK = 1 << 16  # characters of quote-free lines the loader reads per step
# the characters that make csv.writer quote a cell; NUL is one because
# Python 3.10's csv module quotes it on write and rejects it on read
_NEEDS_QUOTING = (",", '"', "\r", "\n", "\0")
# canonical zone strings, so a loaded zone column shares five objects
_RESIDENTIAL_ZONE = {zone: zone for zone in RESIDENTIAL_ZONES}


class ParcelError(ValueError):
    """Base error for parcel ingestion and validation."""


class DuplicatePinError(ParcelError):
    def __init__(self, pin: str):
        super().__init__(f"duplicate pin {pin!r}")
        self.pin = pin


class SchemaError(ParcelError):
    """The CSV header lacks a column of the canonical layout."""


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


def field_setters(cls) -> tuple:
    """The setters of a slots dataclass's fields, in field order.  Each is
    a slot's member-descriptor ``__set__``, which stores a value without
    the frozen class's ``__setattr__`` or its generated ``__init__``; an
    instance built with ``object.__new__`` and these skips
    ``__post_init__``, so the caller answers for its checks."""
    return tuple(getattr(cls, f.name).__set__ for f in fields(cls))


_SET_PARCEL_FIELDS = field_setters(Parcel)


def _build_rows(columns) -> list[Parcel]:
    """Parcels from field columns in Parcel field order (see
    ParcelTable._field_columns), one C-level ``map`` per field.

    Skipping ``Parcel.__post_init__`` is sound because its one check, a
    nonempty pin, holds for every table's pins: load_parcels rejects an
    empty pin, ParcelTable(rows) takes its pins from checked Parcels, and
    generate_parcels numbers its own."""
    rows = list(map(object.__new__, repeat(Parcel, len(columns[0]))))
    for set_field, column in zip(_SET_PARCEL_FIELDS, columns):
        deque(map(set_field, rows, column), maxlen=0)
    return rows


class ParcelTable:
    """Immutable, ordered parcel collection with unique pins, stored by
    column (see the module docstring).

    ``ParcelTable(rows)`` builds a table from :class:`Parcel` rows and
    checks their pins; iterating a table, :attr:`rows` and :meth:`row`
    build rows back from the columns.
    """

    __slots__ = ("pins", "zones", "_numbers", "_missing")
    pins: tuple[str, ...]
    zones: tuple[str | None, ...]

    def __init__(self, rows: Iterable[Parcel] = ()):
        rows = tuple(rows)
        pins = tuple(p.pin for p in rows)
        _check_unique(pins)
        zones = tuple(p.zone for p in rows)
        cells = [[getattr(p, name) for p in rows] for name in NUMERIC_FIELDS]
        numbers = np.array(
            [[math.nan if v is None else v for v in column] for column in cells], dtype=np.float64
        )
        missing = np.array([[v is None for v in column] for column in (*cells, zones)], dtype=bool)
        self._set(
            pins,
            zones,
            numbers.reshape(len(NUMERIC_FIELDS), len(rows)),
            missing.reshape(len(_MASK_ROW), len(rows)),
        )

    @classmethod
    def _from_columns(cls, pins, zones, numbers, missing=None) -> "ParcelTable":
        """A table over columns whose pins are already known to be unique.
        ``numbers`` holds a row per NUMERIC_FIELDS entry and ``missing`` a
        row per ``_MASK_ROW`` entry; None means no cell is missing."""
        if missing is None:
            missing = np.zeros((len(_MASK_ROW), len(pins)), dtype=bool)
        table = cls.__new__(cls)
        table._set(pins, zones, numbers, missing)
        return table

    def _set(self, pins, zones, numbers, missing) -> None:
        numbers.flags.writeable = False
        missing.flags.writeable = False
        for name, value in zip(self.__slots__, (pins, zones, numbers, missing)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"ParcelTable is immutable; cannot set {name!r}")

    def __len__(self) -> int:
        return len(self.pins)

    def __iter__(self):
        # a chunk at a time, so only a chunk's cells are ever held as lists
        for start in range(0, len(self), _ROW_CHUNK):
            yield from _build_rows(self._field_columns(slice(start, start + _ROW_CHUNK)))

    @property
    def rows(self) -> tuple[Parcel, ...]:
        """Every parcel, built from the columns on each call."""
        return tuple(self)

    def row(self, i: int) -> Parcel:
        """The i-th parcel, built from column i of the arrays."""
        i = range(len(self))[i]
        numbers = self._numbers[:, i].tolist()
        # compress stops at the numeric fields; the mask's last row is the zone's
        for j in compress(range(len(NUMERIC_FIELDS)), self._missing[:, i].tolist()):
            numbers[j] = None
        return Parcel(self.pins[i], numbers[0], self.zones[i], *numbers[1:])

    def column(self, name: str):
        """The field ``name`` in row order: the pin or zone tuple, or a
        read-only float64 array for a numeric field, NaN wherever its cell
        is missing or non-finite (:meth:`missing` tells them apart)."""
        if name == "pin":
            return self.pins
        if name == "zone":
            return self.zones
        return self._numbers[_NUMBER_ROW[name]]

    def missing(self, name: str) -> np.ndarray:
        """Boolean mask of the rows whose ``name`` field is missing."""
        if name == "pin":
            return np.zeros(len(self), dtype=bool)
        return self._missing[_MASK_ROW[name]]

    def _field_columns(self, rows: slice, text: bool = False) -> list:
        """Every field of ``rows`` as a sequence, in Parcel field order,
        with None in a missing cell; with ``text``, every cell as the CSV
        holds it instead: a number's ``repr`` and "" for a missing cell."""
        numbers = self._numbers[:, rows].tolist()
        zones, blank = self.zones[rows], None
        if text:
            numbers = [list(map(repr, column)) for column in numbers]
            zones, blank = ["" if zone is None else zone for zone in zones], ""
        # the numeric fields' mask rows; a missing zone is None already
        fields_at, rows_at = np.nonzero(self._missing[: len(NUMERIC_FIELDS), rows])
        for j, i in zip(fields_at.tolist(), rows_at.tolist()):
            numbers[j][i] = blank
        return [self.pins[rows], numbers[0], zones, *numbers[1:]]

    def _take(self, keep: np.ndarray) -> "ParcelTable":
        """The rows where the boolean mask ``keep`` is set, in order."""
        flags = keep.tolist()
        return ParcelTable._from_columns(
            tuple(compress(self.pins, flags)),
            tuple(compress(self.zones, flags)),
            self._numbers[:, keep],
            self._missing[:, keep],
        )


def _check_unique(pins: tuple[str, ...]) -> None:
    if len(set(pins)) < len(pins):
        seen: set[str] = set()
        for pin in pins:
            if pin in seen:
                raise DuplicatePinError(pin)
            seen.add(pin)


@dataclass(frozen=True, slots=True)
class CleanReport:
    """Audit of a listwise-deletion pass: every dropped row is itemized
    by pin, and every defective field is counted."""

    rows_in: int
    rows_kept: int
    rows_dropped: int
    dropped_by_field: dict[str, int]
    dropped_pins: tuple[str, ...]


_numbers = attrgetter(*NUMERIC_FIELDS)
_log_sources = attrgetter(*LOG_SOURCE_FIELDS)


def _rules():
    """The cleaning rules in the order a row's defects are itemised, each
    as (field, reason, predicate); a predicate maps the field's column and
    its missing-cell mask to the mask of the rows the rule drops."""
    for name in list(CANONICAL_SCHEMA)[1:]:  # every field but the pin, in Parcel order
        yield name, "missing", lambda values, missing: missing
        if name != "zone":
            yield name, "non-finite", lambda values, missing: ~np.isfinite(values)
    for name in LOG_SOURCE_FIELDS:
        yield name, "nonpositive", lambda values, missing: values <= 0
    yield "condition_pct", "out of range", lambda values, missing: (values < 0) | (values > 100)
    yield "age_years", "negative", lambda values, missing: values < 0
    yield "zone", "unknown zone", lambda zones, missing: _unknown_zones(zones)


def _unknown_zones(zones: tuple) -> np.ndarray:
    """Mask of the rows whose zone is neither one of ZONES nor missing
    (None, which the missing rule flags).  A loaded zone column holds only
    those, so the rows are mapped one by one only when another zone
    occurs."""
    unknown = set(zones) - _ZONE_SET - {None}
    if not unknown:
        return np.zeros(len(zones), dtype=bool)
    return np.fromiter(map(unknown.__contains__, zones), dtype=bool, count=len(zones))


_RULES = tuple(_rules())


def _defect_masks(table: ParcelTable) -> list[tuple[str, str, np.ndarray]]:
    """Each rule with the mask of the rows it drops.  A rule fires only where
    no earlier rule of its field did, so a missing or non-finite cell gets
    no range check and a row reports each defective field once."""
    flagged: dict[str, np.ndarray] = {}
    masks = []
    for name, reason, fires in _RULES:
        mask = fires(table.column(name), table.missing(name))
        if name in flagged:
            mask = mask & ~flagged[name]
            flagged[name] = flagged[name] | mask
        else:
            flagged[name] = mask
        masks.append((name, reason, mask))
    return masks


def parcel_defects(parcel: Parcel) -> list[tuple[str, str]]:
    """Return (field, reason) pairs that would get this row dropped.

    A valid row has no missing or non-finite (nan, inf) field, strictly
    positive log-source fields, condition in [0, 100], nonnegative age,
    and a known zone.  Each defective field is reported once.
    """
    # Fast path for a valid row: a finite sum means every addend is
    # finite, and a missing (None) field raises TypeError.  Any other row
    # is itemised by the cleaning rules over a one-row table.
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
    return [(name, reason) for name, reason, mask in _defect_masks(ParcelTable((parcel,))) if mask[0]]


def clean(table: ParcelTable) -> tuple[ParcelTable, CleanReport]:
    """Listwise deletion: drop every row any cleaning rule fires on.

    Never fails; an all-dropped table is legal.  Survivor order matches
    the input.  Idempotent: cleaning a clean table is the identity.  Each
    rule is evaluated once on whole columns; the report counts each
    field's dropped rows from the same masks, its fields in the order a
    row-by-row pass would first meet them (see :func:`parcel_defects`).
    """
    masks = _defect_masks(table)
    dropped = np.any([mask for *_, mask in masks], axis=0)
    # (first row, rule position, field, rows) of each rule that fires
    fired = [
        (int(np.argmax(mask)), position, name, int(np.count_nonzero(mask)))
        for position, (name, _reason, mask) in enumerate(masks)
        if mask.any()
    ]
    by_field: dict[str, int] = {}
    for *_, name, rows in sorted(fired):
        by_field[name] = by_field.get(name, 0) + rows
    rows_dropped = int(np.count_nonzero(dropped))
    report = CleanReport(
        rows_in=len(table),
        rows_kept=len(table) - rows_dropped,
        rows_dropped=rows_dropped,
        dropped_by_field=by_field,
        dropped_pins=tuple(compress(table.pins, dropped.tolist())),
    )
    return (table._take(~dropped) if rows_dropped else table), report


def _record_line(path: Path, records: int) -> int:
    """The physical line (header = 1) on which the data record after the
    first ``records`` non-empty ones starts, or on which the record the
    csv reader fails on starts.  A quoted cell can span lines, so the
    reader's ``line_num`` after a record is its last line, not its first;
    this reads the file again, and only error paths call it."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        end = 0  # the line the last record read ends on
        try:
            next(reader, None)
            end = reader.line_num
            for record in reader:
                if record:
                    if not records:
                        break
                    records -= 1
                end = reader.line_num
        except csv.Error:
            pass
    return end + 1


def _split(lines: list[str]) -> list[list[str]]:
    """The records of quote-free lines: each non-empty line, less its line
    break, split on commas."""
    return list(map(str.split, filter(None, map(str.rstrip, lines, repeat("\r\n"))), repeat(",")))


def _records(fh) -> Iterator[list[list[str]]]:
    """The non-empty records of the rest of the open CSV file ``fh``, as
    ``csv.reader`` would give them, in nonempty chunks (lists of records).

    Lines are read about ``_READ_CHUNK`` characters at a time.  A chunk
    of lines with no quote or NUL (which Python 3.10's reader rejects)
    and none longer than the csv field limit is split on commas.  From
    the first other line on, ``csv.reader`` reads the rest of the file,
    quoted cells and errors included (see :func:`_reader_chunks`)."""
    limit = csv.field_size_limit()
    for lines in iter(lambda: fh.readlines(_READ_CHUNK), []):
        text = "".join(lines)
        if '"' in text or "\0" in text or max(map(len, lines)) > limit:
            first = next(k for k, line in enumerate(lines) if '"' in line or "\0" in line or len(line) > limit)
            if records := _split(lines[:first]):
                yield records
            yield from _reader_chunks(csv.reader(chain(lines[first:], fh)))
            return
        if records := _split(lines):
            yield records


def _reader_chunks(reader) -> Iterator[list[list[str]]]:
    """The non-empty records of a csv reader, ``_ROW_CHUNK`` at a time.  The
    records read before a csv error are yielded before it is raised, so
    an error in them is reported first."""
    records = filter(None, reader)
    while True:
        chunk: list[list[str]] = []
        try:
            chunk.extend(islice(records, _ROW_CHUNK))  # keeps what it read before an error
        except csv.Error:
            if chunk:
                yield chunk
            raise
        if not chunk:
            return
        yield chunk


def load_parcels(path: str | Path) -> ParcelTable:
    """Read a parcel CSV (UTF-8, header row, an optional byte-order mark)
    in the canonical assessor layout (``CANONICAL_SCHEMA``) into a
    ParcelTable.

    Empty or unparseable cells, and the cells a short row lacks, become
    missing values, never errors; extra cells and columns are ignored and
    blank lines skipped.  A column name repeated in the header resolves
    to its last occurrence.  Missing file, missing canonical column,
    malformed CSV (a cell over the csv module's field limit), empty pin
    and duplicate pins are errors; a record's error cites the physical
    line it starts on (header = 1).

    The header goes through ``csv.reader``; the records come a chunk at
    a time from :func:`_records`, which splits chunks of quote-free lines
    on commas and hands the file to ``csv.reader`` from the first line
    that holds a quote.  Each chunk goes into the columns through C-level
    maps, with no Python step per record: its pins are stripped in one
    map, its numeric cells parsed by one ``float`` map into an array
    (a cell ``float`` rejects is missing, and parsing resumes after it),
    and each distinct raw zone cell is canonicalised once.  No
    :class:`Parcel` is built.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        pins: list[str] = []
        try:
            header = next(csv.reader(fh), None)
            if header is None:
                raise SchemaError(f"{path}: no header row")
            index = {name: i for i, name in enumerate(header)}
            for column in CANONICAL_SCHEMA.values():
                if column not in index:
                    raise SchemaError(f"{path}: missing mapped column {column!r}")
            at = {name: index[column] for name, column in CANONICAL_SCHEMA.items()}
            pin_cell, zone_cell = itemgetter(at["pin"]), itemgetter(at["zone"])
            number_cells = itemgetter(*(at[name] for name in NUMERIC_FIELDS))
            width = 1 + max(at.values())
            zones: list[str | None] = []
            zone_of: dict[str, str | None] = {}  # raw zone cell -> its canonical zone
            numbers = array("d")  # row-major: the NUMERIC_FIELDS cells of each record
            missing_at: list[int] = []  # the position in numbers of each missing cell
            for records in _records(fh):
                if min(map(len, records)) < width:
                    for record in records:  # the cells a short row lacks are blank
                        record += [""] * (width - len(record))
                chunk_pins = list(map(str.strip, map(pin_cell, records)))
                if "" in chunk_pins:
                    line = _record_line(path, len(pins) + chunk_pins.index(""))
                    raise ParcelError(f"{path}: line {line}: empty pin")
                pins += chunk_pins
                cells = map(float, chain.from_iterable(map(number_cells, records)))
                while True:
                    try:
                        numbers.extend(cells)  # keeps the cells parsed before a bad one
                        break
                    except ValueError:
                        # float() strips the whitespace str.strip does, so a
                        # cell it rejects is blank or unparseable: missing
                        missing_at.append(len(numbers))
                        numbers.append(math.nan)
                zone_cells = list(map(zone_cell, records))
                for cell in set(zone_cells).difference(zone_of):
                    zone = cell.strip().upper()
                    # anything outside the four residential districts is unzoned/other
                    zone_of[cell] = _RESIDENTIAL_ZONE.get(zone, "OTHER") if zone else None
                zones += map(zone_of.__getitem__, zone_cells)
        except csv.Error as exc:
            raise ParcelError(f"{path}: line {_record_line(path, len(pins))}: {exc}") from None
    pins_tuple = tuple(pins)
    _check_unique(pins_tuple)
    n = len(pins)
    columns = np.frombuffer(numbers, dtype=np.float64).reshape(n, len(NUMERIC_FIELDS)).T.copy()
    missing = np.zeros((len(_MASK_ROW), n), dtype=bool)
    rows_at, fields_at = np.divmod(np.array(missing_at, dtype=np.intp), len(NUMERIC_FIELDS))
    missing[fields_at, rows_at] = True
    if None in zone_of.values():
        missing[_MASK_ROW["zone"]] = np.fromiter(map(is_, zones, repeat(None)), dtype=bool, count=n)
    return ParcelTable._from_columns(pins_tuple, tuple(zones), columns, missing)


def write_parcels(table: ParcelTable, path: str | Path) -> None:
    """Write the canonical parcel CSV: a float in its shortest round-trip
    form (``repr``) and a missing cell as an empty one, so
    load(write(t)) reproduces t field-for-field (a literal ``nan`` cell
    is written as ``nan``).

    Rows are written a chunk at a time.  A chunk whose pins and zones
    hold no character that needs quoting is joined with commas; any
    other chunk goes through ``csv.writer``, which quotes those cells.
    Both give the bytes ``csv.writer`` would give for the whole table."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CANONICAL_SCHEMA.values())
        # Parcel's field order is the canonical column order
        for start in range(0, len(table), _ROW_CHUNK):
            columns = table._field_columns(slice(start, start + _ROW_CHUNK), text=True)
            # a number's repr needs no quoting, so only pins and zones can
            pins_and_zones = "".join(columns[0]) + "".join(columns[2])
            if any(char in pins_and_zones for char in _NEEDS_QUOTING):
                writer.writerows(zip(*columns))
            else:
                fh.write("\r\n".join(map(",".join, zip(*columns))))
                fh.write("\r\n")
