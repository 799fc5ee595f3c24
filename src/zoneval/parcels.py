"""Assessor parcel records: data model, CSV ingestion, listwise cleaning.

A :class:`ParcelTable` is an immutable, ordered collection of parcels
keyed by the assessor's property identification number (pin).  It is
stored by column: the pins as a tuple, the zones as integer codes into a
tuple of levels, one float64 array per numeric field, and a mask of the
missing numeric cells.  A table's levels begin with ``ZONE_LEVELS``, the
five zones then None (a missing zone), and go on with any other zone a
table built from rows holds, in first-seen order; so a zone test, a
count or a row selection works on the codes, and a zone string is built
from the levels only where a caller asks for one.  A missing numeric
cell holds NaN in its array, and the mask is what tells it from a
literal ``nan`` cell, which cleans as non-finite rather than missing.
:class:`Parcel` is the row view: iterating a table builds its rows a
chunk at a time through :func:`field_setters` (one C-level ``map`` per
field, without the frozen ``__init__``), and :meth:`ParcelTable.row`
builds one the same way, from a one-row slice.  The loader,
:func:`clean` and the design never build rows; the per-parcel whatif
path and the single-parcel API do.

The loader reads one CSV layout, ``CANONICAL_SCHEMA``; a malformed file
ends in a :class:`ParcelError` naming it.  Each direction has a fast path
for quote-free records and keeps the csv module for the records that
need quoting.  The loader parses the header from text, then reads the
file in binary a chunk of lines at a time, joins each chunk's lines with
commas and decodes it once.  Binary lines break at ``\\n`` only, so from
a chunk holding a lone ``\\r``, which ends a record to ``csv``, the rest
of the file is read as text lines, and a file whose first block after
the header holds no ``\\n`` (CR-ended records) is read as text
throughout.  Each chunk takes one of two paths.  A quote-free chunk
whose lines all hold the same number of commas is split once, into one
flat list of cells in which every field is a slice; the split itself
shows the lines' widths agree (the cell count, and a line break ending
each line's last cell where the first line's width puts it).  From the
first chunk that is not (one with a quote, or with a blank, short or
long line), ``csv.reader`` reads the rest of the file.  Each chunk is
read field by field through C-level maps, with no Python step per
record, each numeric field parsed into an array of the chunk's length
unless a cell is blank or unparseable.  The writer joins a chunk of rows
with commas unless a pin or zone in it needs quoting, when
``csv.writer`` writes that chunk.  Both give what the csv module would.

Raw CSV exports may carry missing or invalid cells.  One table of
cleaning rules, each a (field, reason, column predicate, condition on a
parcel), drives :func:`clean`, which drops every row a rule fires on
(listwise deletion) and reports exactly what was dropped and why,
:func:`parcel_defects`, which runs them over a one-row table, and
``ROW_CONDITIONS``, their conditions, which fitted models compile
(``ROW_TEST`` joins them).
"""

from __future__ import annotations

import codecs
import csv
import io
import math
import sys
from array import array
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import chain, compress, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator
from weakref import WeakValueDictionary

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
_ZONE_SET = frozenset(ZONES)
# the levels every zone column begins with, so a missing zone is the same
# code in every table and a code past it is a zone outside ZONES
ZONE_LEVELS = (*ZONES, None)
_ZONE_CODE = {level: code for code, level in enumerate(ZONE_LEVELS)}
_MISSING_ZONE = _ZONE_CODE[None]
_ROW_CHUNK = 4096  # rows built or written per step, and records csv.reader reads
_READ_CHUNK = 1 << 16  # bytes of lines the loader reads per step (characters where it reads text)
# the characters that make csv.writer quote a cell; NUL is one because
# Python 3.10's csv module quotes it on write and rejects it on read
_NEEDS_QUOTING = (",", '"', "\r", "\n", "\0")
_BREAK_CHARS = frozenset("\r\n")  # the last character of a cell that ends a line
_last_char = itemgetter(slice(-1, None))  # "" for an empty cell


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
        if self.pin != self.pin.strip():  # the loader strips every pin
            raise ParcelError(f"pin {self.pin!r} has surrounding whitespace")


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

    Skipping ``Parcel.__post_init__`` is sound because its check, a
    nonempty pin without surrounding whitespace, holds for every table's
    pins: load_parcels strips each pin and rejects an empty one,
    ParcelTable(rows) takes its pins from checked Parcels, and
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
    build rows back from the columns.  ``codes`` holds each row's zone
    as an index into ``levels`` (see the module docstring).  ``_designs``
    maps a spec to the live design built from the table for it (see
    ``design.build_design_matrix``), holding each weakly; a new, taken
    or unpickled table starts with none.
    """

    __slots__ = ("pins", "codes", "levels", "_numbers", "_missing", "_designs")
    pins: tuple[str, ...]
    codes: np.ndarray
    levels: tuple[str | None, ...]

    def __init__(self, rows: Iterable[Parcel] = ()):
        rows = tuple(rows)
        pins = tuple(p.pin for p in rows)
        _check_unique(pins)
        code_of = dict(_ZONE_CODE)  # grows by each other zone, in first-seen order
        codes = np.fromiter((code_of.setdefault(p.zone, len(code_of)) for p in rows), np.intp, len(rows))
        cells = [[getattr(p, name) for p in rows] for name in NUMERIC_FIELDS]
        try:
            numbers = np.array(
                [[math.nan if v is None else v for v in column] for column in cells], dtype=np.float64
            )
        except OverflowError:  # an int past the float range, named by field and pin rather than digits
            name, pin = next((name, pin) for name, column in zip(NUMERIC_FIELDS, cells)
                             for pin, v in zip(pins, column) if isinstance(v, int) and abs(v) > sys.float_info.max)
            raise ParcelError(f"pin {pin}: {name} is past the largest float") from None
        missing = np.array([[v is None for v in column] for column in cells], dtype=bool)
        self._set(
            pins,
            codes,
            tuple(code_of),
            numbers.reshape(len(NUMERIC_FIELDS), len(rows)),
            missing.reshape(len(NUMERIC_FIELDS), len(rows)),
        )

    @classmethod
    def _from_columns(cls, pins, codes, levels, numbers, missing=None) -> "ParcelTable":
        """A table over columns whose pins are already known to be unique.
        ``codes`` index ``levels``, which begin with ``ZONE_LEVELS``;
        ``numbers`` and ``missing`` hold a row per NUMERIC_FIELDS entry,
        and a ``missing`` of None means no numeric cell is missing."""
        if missing is None:
            missing = np.zeros((len(NUMERIC_FIELDS), len(pins)), dtype=bool)
        table = cls.__new__(cls)
        table._set(pins, codes, levels, numbers, missing)
        return table

    def _set(self, pins, codes, levels, numbers, missing) -> None:
        for column in (codes, numbers, missing):
            column.flags.writeable = False
        for name, value in zip(self.__slots__, (pins, codes, levels, numbers, missing, WeakValueDictionary())):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"ParcelTable is immutable; cannot set {name!r}")

    def __reduce__(self):  # through the column constructor, as __setattr__ refuses the default's
        return type(self)._from_columns, (self.pins, self.codes, self.levels, self._numbers, self._missing)

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
        """The i-th parcel, built as iterating the table builds it."""
        i = range(len(self))[i]
        return _build_rows(self._field_columns(slice(i, i + 1)))[0]

    @property
    def zones(self) -> tuple[str | None, ...]:
        """Each row's zone, None where it is missing, built from the codes
        on each call."""
        return tuple(self._zone_cells(slice(None)))

    def column(self, name: str):
        """The zone or numeric field ``name`` in row order (the pins are
        :attr:`pins`): the zone tuple (:attr:`zones`, built from the
        codes), or a read-only float64 array, NaN wherever its cell is
        missing or non-finite (:meth:`missing` tells them apart)."""
        if name == "zone":
            return self.zones
        return self._numbers[_NUMBER_ROW[name]]

    def missing(self, name: str) -> np.ndarray:
        """Boolean mask of the rows whose zone or numeric field ``name``
        is missing (a pin never is); a missing zone is the code of None."""
        if name == "zone":
            return self.codes == _MISSING_ZONE
        return self._missing[_NUMBER_ROW[name]]

    def _zone_cells(self, rows: slice, blank=None) -> list:
        """The zones of ``rows``, ``blank`` for a missing one: their codes
        mapped through the levels in one step."""
        levels = (blank if level is None else level for level in self.levels)
        return np.fromiter(levels, dtype=object, count=len(self.levels))[self.codes[rows]].tolist()

    def _field_columns(self, rows: slice, text: bool = False) -> list:
        """Every field of ``rows`` as a sequence, in Parcel field order,
        with None in a missing cell; with ``text``, every cell as the CSV
        holds it instead: a number's ``repr`` and "" for a missing cell."""
        numbers = self._numbers[:, rows].tolist()
        blank = "" if text else None
        if text:
            numbers = [list(map(repr, column)) for column in numbers]
        fields_at, rows_at = np.nonzero(self._missing[:, rows])
        for j, i in zip(fields_at.tolist(), rows_at.tolist()):
            numbers[j][i] = blank
        return [self.pins[rows], numbers[0], self._zone_cells(rows, blank), *numbers[1:]]

    def _take(self, keep: np.ndarray) -> "ParcelTable":
        """The rows where the boolean mask ``keep`` is set, in order."""
        return ParcelTable._from_columns(
            tuple(compress(self.pins, keep.tolist())),
            self.codes[keep],
            self.levels,
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


def _rules():
    """The cleaning rules in the order a row's defects are itemised, each as
    (field, reason, predicate, condition); a predicate maps the field's column
    and its missing-cell mask to the mask of the rows the rule drops (the zone's
    column is its codes), and a condition is the source of its test of a valid
    parcel ``p`` (see ROW_TEST)."""
    for name in list(CANONICAL_SCHEMA)[1:]:  # every field but the pin, in Parcel order
        yield name, "missing", lambda values, missing: missing, "p.zone in ZONE_SET" if name == "zone" else None
        if name != "zone":
            yield name, "non-finite", lambda values, missing: ~np.isfinite(values), f"isfinite(p.{name})"
    for name in LOG_SOURCE_FIELDS:
        yield name, "nonpositive", lambda values, missing: values <= 0, f"p.{name} > 0"
    yield ("condition_pct", "out of range", lambda values, missing: (values < 0) | (values > 100),
           "0 <= p.condition_pct <= 100")
    yield "age_years", "negative", lambda values, missing: values < 0, "p.age_years >= 0"
    # the design's test of a square term, here the default spec's age^2
    yield ("age_years", "square overflows", lambda values, missing: ~np.isfinite(values * values),
           "isfinite(p.age_years * p.age_years)")
    yield "zone", "unknown zone", lambda codes, missing: codes > _MISSING_ZONE, "p.zone in ZONE_SET"


_RULES = tuple(_rules())
# The cleaning rules' test of a valid parcel ``p``, each rule's condition once in
# rule order: all true exactly when the rules find no defect, except that a
# missing (None) field raises TypeError (so a numeric field's missing rule has no
# condition) and an int, or an int age's square, past the float range raises
# OverflowError.  Each fitted model's pricer compiles them with ROW_TEST_NAMES.
ROW_CONDITIONS = tuple(dict.fromkeys(condition for *_, condition in _RULES if condition))
ROW_TEST = " and ".join(ROW_CONDITIONS)
ROW_TEST_NAMES = {"ZONE_SET": _ZONE_SET, "isfinite": math.isfinite}


def _defect_masks(table: ParcelTable) -> list[tuple[str, str, np.ndarray]]:
    """Each rule with the mask of the rows it drops.  A rule fires only where
    no earlier rule of its field did, so a missing or non-finite cell gets
    no range check and a row reports each defective field once."""
    flagged: dict[str, np.ndarray] = {}
    masks = []
    for name, reason, fires, _condition in _RULES:
        with np.errstate(over="ignore"):  # an age's square may overflow, which its rule flags
            mask = fires(table.codes if name == "zone" else table.column(name), table.missing(name))
        if name in flagged:
            mask = mask & ~flagged[name]
            flagged[name] = flagged[name] | mask
        else:
            flagged[name] = mask
        masks.append((name, reason, mask))
    return masks


def parcel_defects(parcel: Parcel) -> list[tuple[str, str]]:
    """Return (field, reason) pairs that would get this row dropped (see
    _rules), each defective field once.  A call costs a one-row clean:
    check tables with clean."""
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
    this reads the file again, and only error paths call it.  A byte that
    is not UTF-8 reads as U+FFFD, which ends no line."""
    with open(path, newline="", encoding="utf-8-sig", errors="replace") as fh:
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


def _undecodable_line(path: str | Path) -> int:
    """The physical line (the first = 1) holding the first byte of ``path``
    that is not UTF-8.  This reads the file again, and only error paths
    call it."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        data = data[: exc.start]
    return data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n") + 1


def _kept(lines, kept: list) -> Iterator:
    """``lines``, each appended to ``kept`` as it is read."""
    for line in lines:
        kept.append(line)
        yield line


@contextmanager
def _header_and_lines(path: Path):
    """Open the parcel CSV at ``path`` for :func:`_records`: yield its
    header, as ``csv.reader`` parses it from ``newline=""`` UTF-8 text
    after an optional byte-order mark (None for an empty file), and the
    source of the lines after it.

    That source is the file in binary, at the header's byte end: the
    byte-order mark, if any, plus the UTF-8 length of the header's
    physical lines.  If the first buffered block there holds no ``\\n``,
    it is a ``newline=""`` text wrapper from that byte instead: binary
    lines break at ``\\n`` only, so a file of CR-ended records would be
    one line.  The file is closed on exit, and a wrapper of it with it."""
    # a buffer of one default _READ_CHUNK: one read call per chunk, not one per 8 KiB
    with open(path, "rb", buffering=1 << 16) as fh:
        start = len(codecs.BOM_UTF8) if fh.read(3) == codecs.BOM_UTF8 else 0
        fh.seek(start)
        text = io.TextIOWrapper(fh, encoding="utf-8", newline="")
        physical: list[str] = []  # the header's lines
        try:
            header = next(csv.reader(_kept(text, physical)), None)
        finally:
            text.detach()
        fh.seek(start + sum(len(line.encode("utf-8")) for line in physical))
        yield header, fh if b"\n" in fh.peek() else io.TextIOWrapper(fh, encoding="utf-8", newline="")


def _lone_cr(data: bytes) -> bool:
    """Whether ``data`` holds a ``\\r`` that no ``\\n`` follows, which ends a
    record to ``csv`` and ``newline=""`` but no line to binary reads."""
    if b"\r" not in data:  # one memchr, where the vector test takes three passes
        return False
    octets = np.frombuffer(data, np.uint8)
    cr = octets == 13
    return bool(cr[-1] or (cr[:-1] > (octets[1:] == 10)).any())


def _records(fh, width: int) -> Iterator[tuple[list, int | None]]:
    """The non-empty records of the rest of the open CSV file ``fh``, as
    ``csv.reader`` would give them, in nonempty chunks.  ``fh`` is a
    binary file or a ``newline=""`` text one (see
    :func:`_header_and_lines`).

    A chunk is ``(cells, stride)``, a flat list whose field k is the
    slice ``cells[k::stride]``, or ``(records, None)``, a list of records.
    Lines are read about ``_READ_CHUNK`` bytes (of a text file,
    characters) at a time; a binary chunk's lines are joined with commas
    and decoded as UTF-8 once.  Each chunk takes one of two paths.  A
    chunk of lines that all hold the same number of commas c, with c + 1
    >= ``width`` (at least 2, so no such line is blank), and none of which
    holds a quote or NUL (which Python 3.10's reader rejects) or is longer
    than the csv field limit, is split once on commas with stride c + 1;
    each line keeps its line break on its last cell.  The stride is the
    first line's, and the split shows whether every line has it: the
    chunk must hold its lines times stride cells, every stride-th of
    which, but the chunk's last, ends in a line break.  A line's break
    ends its last cell and no other, and only the file's last line can
    lack one, so that holds exactly when every line is stride cells wide;
    it looks at one character per line.  A binary line breaks at ``\\n``
    only, so a binary chunk must also hold no lone ``\\r``, which ends a
    record to ``csv.reader`` (see :func:`_lone_cr`).
    From the first chunk of a text file that is not, whether for a quote
    or for a blank, short or long line, ``csv.reader`` reads the rest of
    the file, quoted cells and errors included (see
    :func:`_reader_chunks`).  From the first binary chunk that is not,
    this reads the rest of the file as text, from the chunk's first byte,
    through a ``newline=""`` wrapper."""
    limit = csv.field_size_limit()
    binary = not isinstance(fh, io.TextIOBase)
    comma = b"," if binary else ","
    while True:
        start = fh.tell() if binary else 0
        lines = fh.readlines(_READ_CHUNK)
        if not lines:
            return
        data = comma.join(lines)
        if binary and _lone_cr(data):  # before the split: a line of CR-ended records can be the whole file
            break
        text = data.decode("utf-8") if binary else data
        stride = 1 + lines[0].count(comma)
        cells = text.split(",")
        if (len(cells) != len(lines) * stride or stride < width
                or not _BREAK_CHARS.issuperset(map(_last_char, cells[stride - 1 : -1 : stride]))
                or '"' in text or "\0" in text
                or len(text) > limit and max(map(len, lines)) > limit):  # no line is longer than text
            break
        yield cells, stride
    if not binary:
        yield from zip(_reader_chunks(csv.reader(chain(lines, fh))), repeat(None))
        return
    fh.seek(start)  # read this chunk and the rest as text, whose lines break at a lone \r too
    rest = io.TextIOWrapper(fh, encoding="utf-8", newline="")
    try:
        yield from _records(rest, width)
    finally:
        rest.detach()


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


def _parse_column(cells: list[str], missing_at: list[int], first: int):
    """One field's cells in a chunk, parsed by a ``float`` map: into a float64 array
    of their length, or, if ``float`` rejects a cell (a blank one, empty, all
    whitespace or a bare line break, among them), into an ``array("d")`` by a map
    that resumes after each cell it rejects: NaN, its row (``first`` plus its
    index) in ``missing_at``."""
    try:
        return np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:  # a cell float rejects: parse them again, below
        pass
    column, parsed = array("d"), map(float, cells)
    while True:
        try:
            column.extend(parsed)  # keeps the cells parsed before a bad one
            return column
        except ValueError:
            missing_at.append(first + len(column))
            column.append(math.nan)


def load_parcels(path: str | Path) -> ParcelTable:
    """Read a parcel CSV (UTF-8, header row, an optional byte-order mark)
    in the canonical assessor layout (``CANONICAL_SCHEMA``) into a
    ParcelTable.

    Empty or unparseable cells, and the cells a short row lacks, become
    missing values, never errors; extra cells and columns are ignored and
    blank lines skipped.  A column name repeated in the header resolves
    to its last occurrence.  Missing file, missing canonical column,
    malformed CSV (a cell over the csv module's field limit), a byte that
    is not UTF-8, empty pin and duplicate pins are errors; a record's
    error cites the physical line it starts on (header = 1), and a bad
    byte's the line it is on.

    The header goes through ``csv.reader``, from text; the records come a
    chunk at a time from :func:`_records`, which reads the lines after it
    in binary and decodes each chunk once as UTF-8 (and a file of CR-ended
    records as text, see :func:`_header_and_lines`): split flat, and from the first
    chunk the split cannot take, as ``csv.reader`` records, each padded to
    its chunk's longest and flattened.  Either way a cell is a ``str``.
    So every chunk is read field by field, with no Python step per
    record: its pins are stripped in one map, each numeric field is
    parsed by a ``float`` map (on one of two routes, see
    :func:`_parse_column`: a cell ``float`` rejects is missing), and each
    distinct raw zone cell is mapped once to its code in ``ZONE_LEVELS``.
    A line break left on a last cell is whitespace to ``str.strip`` and
    ``float``.  Each field's arrays are copied once, into its column, at
    the end.  No :class:`Parcel` is built.
    """
    path = Path(path)
    pins: list[str] = []
    try:
        with _header_and_lines(path) as (header, lines):
            if header is None:
                raise SchemaError(f"{path}: no header row")
            index = {name: i for i, name in enumerate(header)}
            for column in CANONICAL_SCHEMA.values():
                if column not in index:
                    raise SchemaError(f"{path}: missing mapped column {column!r}")
            at = {name: index[column] for name, column in CANONICAL_SCHEMA.items()}
            width = 1 + max(at.values())  # at least 11: the layout's columns are distinct
            codes = bytearray()  # each row's code in ZONE_LEVELS, all below 256
            code_of: dict[str, int] = {}  # raw zone cell -> its code
            columns: list[list] = [[] for _ in NUMERIC_FIELDS]  # each field's parsed chunks
            missing_rows: list[list[int]] = [[] for _ in NUMERIC_FIELDS]  # each field's missing rows
            for cells, stride in _records(lines, width):
                if stride is None:  # records of any length: pad each to the longest, and flatten
                    stride = max(width, max(map(len, cells)))
                    for record in cells:
                        record += [""] * (stride - len(record))
                    cells = list(chain.from_iterable(cells))
                chunk_pins = list(map(str.strip, cells[at["pin"] :: stride]))
                if "" in chunk_pins:
                    line = _record_line(path, len(pins) + chunk_pins.index(""))
                    raise ParcelError(f"{path}: line {line}: empty pin")
                for name, chunks, missing_at in zip(NUMERIC_FIELDS, columns, missing_rows):
                    chunks.append(_parse_column(cells[at[name] :: stride], missing_at, len(pins)))
                pins += chunk_pins
                zone_cells = cells[at["zone"] :: stride]
                for cell in set(zone_cells).difference(code_of):
                    zone = cell.strip().upper()
                    # anything outside the four residential districts is unzoned/other
                    code_of[cell] = _ZONE_CODE.get(zone, _ZONE_CODE["OTHER"]) if zone else _MISSING_ZONE
                codes.extend(map(code_of.__getitem__, zone_cells))
    except csv.Error as exc:
        raise ParcelError(f"{path}: line {_record_line(path, len(pins))}: {exc}") from None
    except UnicodeDecodeError:
        raise ParcelError(f"{path}: line {_undecodable_line(path)}: not UTF-8 text") from None
    pins_tuple = tuple(pins)
    _check_unique(pins_tuple)
    n = len(pins)
    # one copy of each field's chunks: nine arrays grown to whole columns
    # side by side fragment the heap (about 2 MB more peak RSS at 50,000 rows)
    numbers = np.empty((len(NUMERIC_FIELDS), n))
    if n:
        for row, chunks in zip(numbers, columns):
            np.concatenate([np.frombuffer(chunk, dtype=np.float64) for chunk in chunks], out=row)
    missing = np.zeros((len(NUMERIC_FIELDS), n), dtype=bool)
    for row, missing_at in zip(missing, missing_rows):
        row[missing_at] = True
    zone_codes = np.frombuffer(codes, dtype=np.uint8).astype(np.intp)
    return ParcelTable._from_columns(pins_tuple, zone_codes, ZONE_LEVELS, numbers, missing)


def write_parcels(table: ParcelTable, path: str | Path) -> None:
    """Write the canonical parcel CSV: a float in its shortest round-trip
    form (``repr``) and a missing cell as an empty one, so
    load(write(t)) reproduces t field-for-field (a literal ``nan`` cell
    is written as ``nan``) when every zone is one of ``ZONES`` or
    missing.  The loader strips zones, folds their case, and reads any
    other zone as ``OTHER``, so a zone that ``clean`` would drop as
    unknown (``XYZ``, `` r1a ``) loads as one it keeps.

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
