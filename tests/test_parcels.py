import copy
import csv
import dataclasses
import gc
import math
import pickle
import tracemalloc
from collections import Counter
from itertools import compress
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zoneval import ZONES, parcels
from zoneval.design import DesignError, ModelSpec, Term, Transform, build_design_matrix
from zoneval.diagnostics import descriptive_stats
from zoneval.parcels import (
    CANONICAL_SCHEMA,
    NUMERIC_FIELDS,
    ZONE_LEVELS,
    DuplicatePinError,
    Parcel,
    ParcelError,
    ParcelTable,
    SchemaError,
    _ROW_CHUNK,
    _header_and_lines,
    _records,
    clean,
    load_parcels,
    parcel_defects,
    write_parcels,
)

from zoneval.synth import default_true_model, generate_parcels

from conftest import make_parcel, make_table
from oracle import clean_row_by_row, itemised_defects, load_parcels_oracle, write_parcels_oracle


HEADER = ",".join(CANONICAL_SCHEMA.values())


def write_csv(path, lines):
    path.write_text("\n".join([HEADER, *lines]) + "\n", encoding="utf-8")


def row(pin, value="150000", zone="R1A", width="68", depth="120", sqft="8160",
        bldg="2200", baths="2", age="30", cond="55", tax="7.5"):
    return f"{pin},{value},{zone},{width},{depth},{sqft},{bldg},{baths},{age},{cond},{tax}"


class TestLoad:
    def test_basic_load(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, [row("A1"), row("A2", zone="S2")])
        table = load_parcels(path)
        assert len(table) == 2
        assert table.rows[0].pin == "A1"
        assert table.rows[0].assessed_value == 150000.0
        assert table.rows[1].zone == "S2"

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with a byte-order mark
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        write_csv(plain, [row("A1"), row("A2", zone="S2", age="")])
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        table, expected = load_parcels(marked), load_parcels(plain)
        assert table.pins == expected.pins == ("A1", "A2")
        assert table.rows == expected.rows
        assert table.missing("age_years").tolist() == [False, True]

    def test_header_only_gives_empty_table(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(path, [])
        assert len(load_parcels(path)) == 0

    def test_blank_and_unparseable_cells_become_missing(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, [row("A1", value=""), row("A2", baths="two")])
        table = load_parcels(path)
        assert table.rows[0].assessed_value is None
        assert table.rows[1].bathrooms is None

    def test_unknown_zone_maps_to_other(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, [row("A1", zone="B1"), row("A2", zone="r1a"), row("A3", zone="")])
        table = load_parcels(path)
        assert table.rows[0].zone == "OTHER"
        assert table.rows[1].zone == "R1A"  # case-insensitive
        assert table.rows[2].zone is None

    def test_duplicate_pin_is_error_naming_pin(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, [row("DUP"), row("DUP")])
        with pytest.raises(DuplicatePinError, match="DUP"):
            load_parcels(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_parcels(tmp_path / "nope.csv")

    @pytest.mark.parametrize("case, at, line", [
        ("header", 0, 1), ("record", 2, 3), ("crlf", 2, 3), ("cr", 2, 3), ("byte_order_mark", 1, 2),
        ("late_chunk", 2998, 2999), ("after_a_quoted_record", 3, 5), ("truncated_at_the_end", 3, 4),
    ])
    def test_a_byte_that_is_not_utf8_names_file_and_line(self, tmp_path, case, at, line):
        # was a bare UnicodeDecodeError naming neither; ``at`` is the corrupted
        # entry of ``lines``, ``line`` the physical line it starts on
        lines = [HEADER.encode(), *(row(f"A{i}").encode() for i in range(1, 3000 if case == "late_chunk" else 4))]
        if case == "after_a_quoted_record":
            lines[1] = row("A1", zone='"R1\nA"').encode()  # the csv module reads from here on
        if case == "truncated_at_the_end":
            lines[at] += b",caf\xc3"  # the first byte of a two-byte character, then the end
        else:
            lines[at] = lines[at].replace(b"R1A" if at else b"pin", b"R1\xffA" if at else b"p\xffin", 1)
        data = {"crlf": b"\r\n", "cr": b"\r"}.get(case, b"\n").join(lines)
        path = tmp_path / "p.csv"
        path.write_bytes(b"\xef\xbb\xbf" + data if case == "byte_order_mark" else data)
        with pytest.raises(ParcelError) as raised:
            load_parcels(path)
        assert str(raised.value) == f"{path}: line {line}: not UTF-8 text"

    def test_missing_mapped_column(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("pin,zone\nA1,R1A\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="u1tfcash"):
            load_parcels(path)

    @pytest.mark.parametrize("line", [1, 4])
    def test_cell_over_the_field_limit_names_file_and_line(self, tmp_path, line):
        lines = [HEADER, row("A1"), row("A2"), row("A3"), row("A4")]
        lines[line - 1] += "," + "x" * 131_073
        path = tmp_path / "p.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParcelError) as raised:
            load_parcels(path)
        assert str(raised.value) == f"{path}: line {line}: field larger than field limit (131072)"

    def test_cell_over_the_field_limit_cites_the_first_line_of_its_record(self, tmp_path):
        # the record starts on line 4; its quoted zone cell spans 70,001 lines
        cell = '"' + "x\n" * 70_000 + '"'
        path = tmp_path / "p.csv"
        write_csv(path, [row("A1"), row("A2"), row("A3", zone=cell), row("A4")])
        with pytest.raises(ParcelError) as raised:
            load_parcels(path)
        assert str(raised.value) == f"{path}: line 4: field larger than field limit (131072)"

    def test_empty_pin_cites_the_first_line_of_its_record(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, [row("A1"), row("", zone='"R1\n\nA\n"'), row("A4")])
        with pytest.raises(ParcelError) as raised:
            load_parcels(path)
        assert str(raised.value) == f"{path}: line 3: empty pin"

    def test_blank_first_line_is_a_schema_error(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("\n" + HEADER + "\n" + row("A1") + "\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="missing mapped column 'pin'"):
            load_parcels(path)

    def test_first_quote_on_a_late_line(self, tmp_path):
        # lines 2-3001 are split on commas; the csv reader reads from line 3002
        plain = [row(f"A{i}") for i in range(3000)]
        quoted = [
            row('"Q,1"', zone='"r1b"'), "", row("B1", zone="S2"), row('"Q""2"', zone='"R2\r\n"'),
        ]
        path = tmp_path / "p.csv"
        write_csv(path, plain + quoted)
        table = load_parcels(path)
        assert table.pins[-5:] == ("A2998", "A2999", "Q,1", "B1", 'Q"2')
        assert table.zones[-5:] == ("R1A", "R1A", "R1B", "S2", "R2")
        with _header_and_lines(path) as (_header, lines):
            records = records_of(lines, len(CANONICAL_SCHEMA))
        with open(path, newline="", encoding="utf-8") as fh:
            assert records == list(filter(None, csv.reader(fh)))[1:]
        # the last record spans lines 3005-3006, so the empty pin is on 3007
        write_csv(path, plain + quoted + [row("")])
        with pytest.raises(ParcelError) as raised:
            load_parcels(path)
        assert str(raised.value) == f"{path}: line 3007: empty pin"

    def test_quote_free_line_over_the_field_limit(self, tmp_path):
        # the line is longer than the limit but each of its cells is within
        # it, so the csv reader takes over and reads it
        long_line = row("A2") + "," + ",".join(["x" * 70_000] * 2)
        path = tmp_path / "p.csv"
        write_csv(path, [row("A1"), long_line, row("A3")])
        assert load_parcels(path).pins == ("A1", "A2", "A3")
        write_csv(path, [row("A1"), long_line, row("A3") + "," + "x" * 131_073, row("A4")])
        with pytest.raises(ParcelError) as raised:
            load_parcels(path)
        assert str(raised.value) == f"{path}: line 4: field larger than field limit (131072)"

    def test_empty_pin_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, [row("")])
        with pytest.raises(ParcelError, match="pin"):
            load_parcels(path)

    def test_short_row_reads_missing_cells(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, [row("A1")[: len("A1,150000,R1A,68")], row("A2")])
        first, second = load_parcels(path).rows
        assert (first.pin, first.assessed_value, first.zone, first.lot_width_ft) == ("A1", 150000.0, "R1A", 68.0)
        assert all(getattr(first, name) is None for name in NUMERIC_FIELDS[2:])
        assert second.tax_rate_pct == 7.5

    def test_blank_lines_skipped_and_counted_in_line_numbers(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, ["", row("A1"), "", row("A2")])
        assert load_parcels(path).pins == ("A1", "A2")
        # the line number is the physical line (header = 1), blank lines included
        write_csv(path, [row("A1"), "", row("")])
        with pytest.raises(ParcelError, match=r"line 4: empty pin"):
            load_parcels(path)

    @pytest.mark.parametrize("terminator", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_blank_cells_read_as_missing_wherever_they_stand(self, tmp_path, terminator):
        # float rejects an empty cell, a whitespace-only one and the bare line
        # break a blank last cell keeps; it reads digits grouped by "_"
        path = tmp_path / "p.csv"
        lines = [HEADER, row("A1", age=""), row("A2", tax=""), row("A3", cond=" \t "), row("A4", sqft="1_000"),
                 row("A5", tax="")]
        path.write_bytes(terminator.join(lines).encode() + terminator.encode())
        table = load_parcels(path)
        assert table.missing("age_years").tolist() == [True, False, False, False, False]
        assert table.missing("tax_rate_pct").tolist() == [False, True, False, False, True]
        assert table.missing("condition_pct").tolist() == [False, False, True, False, False]
        assert not table.missing("lot_sqft").any()
        assert table.column("lot_sqft").tolist() == [8160.0, 8160.0, 8160.0, 1000.0, 8160.0]

    def test_whitespace_padded_cells(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, [row(" A1 ", value=" 150000 ", zone=" r1b ", width="\t68", tax="7.5  ")])
        parcel = load_parcels(path).rows[0]
        assert (parcel.pin, parcel.assessed_value, parcel.zone) == ("A1", 150000.0, "R1B")
        assert (parcel.lot_width_ft, parcel.tax_rate_pct) == (68.0, 7.5)

    def test_non_finite_and_unparseable_cells(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, [row("A1", value="abc", age="nan", width="inf", depth="-inf", baths="abc", cond=" ")])
        parcel = load_parcels(path).rows[0]
        assert parcel.assessed_value is None and parcel.bathrooms is None and parcel.condition_pct is None
        assert math.isnan(parcel.age_years)
        assert parcel.lot_width_ft == math.inf and parcel.lot_depth_ft == -math.inf
        # one bad cell leaves the row's other cells parsed
        assert (parcel.lot_sqft, parcel.total_bldg_sqft, parcel.tax_rate_pct) == (8160.0, 2200.0, 7.5)

    def test_repeated_header_name_last_wins(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(HEADER + ",u1tfcash,zone\n" + row("A1") + ",99,S2\n", encoding="utf-8")
        parcel = load_parcels(path).rows[0]
        assert (parcel.assessed_value, parcel.zone) == (99.0, "S2")

    def test_extra_cells_ignored_and_columns_found_by_name(self, tmp_path):
        path = tmp_path / "p.csv"
        columns = list(CANONICAL_SCHEMA.values())[::-1]
        cells = row("A1").split(",")[::-1]
        path.write_text(",".join(columns) + "\n" + ",".join(cells) + ",x,,9\n", encoding="utf-8")
        assert load_parcels(path).rows == (
            Parcel("A1", 150000.0, "R1A", 68.0, 120.0, 8160.0, 2200.0, 2.0, 30.0, 55.0, 7.5),
        )


class TestClean:
    def test_clean_table_is_noop(self):
        table = make_table(10)
        cleaned, report = clean(table)
        assert cleaned.rows == table.rows
        assert report.rows_dropped == 0
        assert report.rows_in == report.rows_kept == 10

    def test_zero_bathrooms_dropped_as_nonpositive_log_source(self):
        bad = make_parcel(pin="B0", bathrooms=0.0)
        cleaned, report = clean(ParcelTable((make_parcel(pin="OK"), bad)))
        assert cleaned.pins == ("OK",)
        assert report.dropped_pins == ("B0",)
        assert report.dropped_by_field == {"bathrooms": 1}

    def test_condition_out_of_range_dropped(self):
        bad = make_parcel(pin="C1", condition_pct=140.0)
        _, report = clean(ParcelTable((bad,)))
        assert report.dropped_by_field == {"condition_pct": 1}

    def test_non_finite_cells_dropped_as_non_finite(self, tmp_path):
        lines = [row(f"P{i:03d}") for i in range(200)]
        lines[3] = row("P003", age="nan")
        lines[7] = row("P007", width="inf")
        lines[9] = row("P009", cond="-inf")
        path = tmp_path / "p.csv"
        write_csv(path, lines)
        cleaned, report = clean(load_parcels(path))
        assert report.rows_kept == 197
        assert report.dropped_pins == ("P003", "P007", "P009")
        assert report.dropped_by_field == {"age_years": 1, "lot_width_ft": 1, "condition_pct": 1}
        assert parcel_defects(make_parcel(lot_sqft=float("-inf"))) == [("lot_sqft", "non-finite")]

    @pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["positive", "negative"])
    def test_an_int_past_the_float_range_is_one_line_naming_pin_and_field(self, value):
        # not numpy's bare OverflowError, and not the int's 401 digits
        parcel = make_parcel(pin="BIG", lot_sqft=value, age_years=10**300)
        for build in (lambda: ParcelTable((make_parcel(), parcel)), lambda: parcel_defects(parcel)):
            with pytest.raises(ParcelError) as raised:
                build()
            assert str(raised.value) == "pin BIG: lot_sqft is past the largest float"

    def test_missing_fields_itemized(self):
        rows = (
            make_parcel(pin="M1", lot_sqft=None),
            make_parcel(pin="M2", lot_sqft=None, age_years=None),
            make_parcel(pin="OK"),
        )
        cleaned, report = clean(ParcelTable(rows))
        assert report.rows_kept == 1
        assert report.dropped_by_field["lot_sqft"] == 2
        assert report.dropped_by_field["age_years"] == 1
        assert report.dropped_pins == ("M1", "M2")

    def test_survivor_order_preserved(self):
        rows = tuple(
            make_parcel(pin=f"P{i}", lot_sqft=None if i % 3 == 0 else 100.0)
            for i in range(12)
        )
        cleaned, _ = clean(ParcelTable(rows))
        assert list(cleaned.pins) == [f"P{i}" for i in range(12) if i % 3 != 0]

    def test_all_dropped_is_legal(self):
        rows = (make_parcel(pin="X", assessed_value=None),)
        cleaned, report = clean(ParcelTable(rows))
        assert len(cleaned) == 0
        assert report.rows_kept == 0

    def test_blanked_lot_sqft_counts(self, tmp_path):
        # 100 rows, 5 with blanked lot_sqft
        lines = [
            row(f"P{i:03d}", sqft="" if i < 5 else "8160")
            for i in range(100)
        ]
        path = tmp_path / "p.csv"
        write_csv(path, lines)
        cleaned, report = clean(load_parcels(path))
        assert report.rows_in == 100
        assert report.rows_kept == 95
        assert report.dropped_by_field == {"lot_sqft": 5}


class TestRoundTrip:
    def test_empty_table_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_parcels(ParcelTable(()), path)
        assert path.read_text(encoding="utf-8").strip() == HEADER
        assert len(load_parcels(path)) == 0

    def test_other_zone_round_trips_literally(self, tmp_path):
        path = tmp_path / "t.csv"
        write_parcels(ParcelTable((make_parcel(zone="OTHER"),)), path)
        assert ",OTHER," in path.read_text(encoding="utf-8")
        assert load_parcels(path).rows[0].zone == "OTHER"

    def test_random_table_round_trip(self, tmp_path):
        table = make_table(1000, seed=5)
        path = tmp_path / "t.csv"
        write_parcels(table, path)
        back = load_parcels(path)
        assert back.rows == table.rows

    def test_missing_cells_round_trip(self, tmp_path):
        table = ParcelTable((make_parcel(pin="M", bathrooms=None, zone="R2"),))
        path = tmp_path / "t.csv"
        write_parcels(table, path)
        assert load_parcels(path).rows == table.rows

    def test_numpy_floats_round_trip(self, tmp_path):
        rows = tuple(
            Parcel(p.pin, np.float64(p.assessed_value), p.zone,
                   *(np.float64(getattr(p, name)) for name in NUMERIC_FIELDS[1:]))
            for p in make_table(5, seed=3).rows
        )
        table = ParcelTable(rows + (make_parcel(pin="H", assessed_value=np.float64(2.5)),))
        path = tmp_path / "t.csv"
        write_parcels(table, path)
        assert "np.float64" not in path.read_text(encoding="utf-8")
        assert load_parcels(path).rows == table.rows


# --- the CSV fast paths against the csv module ------------------------------

# the characters the csv module treats specially (NUL on Python 3.10),
# and a letter, a digit and a space
csv_text = st.text(alphabet='a1,"\r\n\0 ', max_size=60)


def records_of(lines, width):
    """The records ``_records`` reads from the line source ``lines`` (see
    ``_header_and_lines``): a flat chunk's cells regrouped by its stride,
    less the line break each record keeps on its last cell."""
    records = []
    for cells, stride in _records(lines, width):
        if stride is None:
            records += cells
            continue
        for start in range(0, len(cells), stride):
            record = cells[start : start + stride]
            record[-1] = record[-1].rstrip("\r\n")
            records.append(record)
    return records


def csv_outcome(read):
    """The records ``read`` returns, or the csv error it raises."""
    try:
        return read()
    except csv.Error as exc:
        return ("csv.Error", str(exc))


@given(text=csv_text, width=st.integers(2, 4))
@settings(max_examples=400, deadline=None)
@example(text='a,1\r\n1,a\n\n\r"a\r\n,",1\r\n \ra,1', width=2)
@example(text='h\na,\0\n1', width=2)
@example(text='h\n"a', width=2)
@example(text='h\na,1\r\n,\r\n1, \ra,', width=2)
@example(text='h\na,1\n1,a,1\na\n', width=2)  # widths 2, 3, 1: as many cells as three of width 2
@example(text='h\na,1\n1,a', width=2)  # an unterminated last line of the chunk's width
@example(text='h\ra,1\r1,a\r', width=2)  # lines ended by \r alone
@example(text='h\na,1\n\n1,a\n', width=2)  # a blank line mid-chunk
@example(text='h\na,1\n\n', width=2)  # a blank last line, short of the first line's width
def test_records_are_the_csv_readers(tmp_path_factory, text, width):
    path = tmp_path_factory.getbasetemp() / "records.csv"
    path.write_bytes(text.encode("utf-8"))

    def by_csv_reader():
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            next(reader, None)
            return list(filter(None, reader))

    def by_records():
        with _header_and_lines(path) as (_header, lines):
            return records_of(lines, width)

    assert csv_outcome(by_records) == csv_outcome(by_csv_reader)


# --- the chunked loader against the csv.reader oracle ----------------------


def load_outcome(load, path):
    """The table ``load`` reads from ``path``, or its error's type and message."""
    try:
        return load(path)
    except ParcelError as exc:
        return type(exc), str(exc)


def load_in_chunks(path, read_chunk, row_chunk):
    """The outcome of load_parcels reading ``read_chunk`` characters of
    lines and ``row_chunk`` csv records per step."""
    with mock.patch.object(parcels, "_READ_CHUNK", read_chunk), mock.patch.object(parcels, "_ROW_CHUNK", row_chunk):
        return load_outcome(load_parcels, path)


def assert_same_load(got, want):
    """The same table bit for bit, or the same error."""
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, ParcelTable)
    assert got.pins == want.pins
    assert got.zones == want.zones
    # each zone is one of the package's canonical string objects
    assert all(zone is None or zone is ZONES[ZONES.index(zone)] for zone in got.zones)
    assert got._numbers.tobytes() == want._numbers.tobytes()
    assert got._missing.tobytes() == want._missing.tobytes()


def assert_loads_as_the_oracle(path, read_chunk=parcels._READ_CHUNK, row_chunk=parcels._ROW_CHUNK):
    assert_same_load(load_in_chunks(path, read_chunk, row_chunk), load_outcome(load_parcels_oracle, path))


CHUNK_EDGE_FILES = {
    "blank_and_bad_cells_at_chunk_edges": [
        row("A1", value=""), row("A2", tax=""), row("A3", value="abc", tax=" "), row("A4"),
        row("A5", value=" x ", tax="1e999x"), row("A6", tax=""), row("A7", value=""),
    ],
    # no cell is empty, so each column chunk goes to np.fromiter, and one
    # with a cell float rejects falls back to the resuming parse
    "bad_cells_without_blanks": [
        row("A1", value="abc"), row("A2"), row("A3", tax=" "), row("A4", value=" x ", tax="1e999x"),
        row("A5", bldg="abc"), row("A6", tax="abc"), row("A7"),
    ],
    "short_rows": [
        row("A1")[: len("A1,150000,R1A,68")], "A2", row("A3"), "A4,", row("A5")[:-1],
        row("A6")[: len("A6,150000,R1A,68,12")], row("A7"),
    ],
    "blank_lines": ["", row("A1"), "", "", row("A2", zone=""), "", row("A3", value=""), ""],
    "quote_mid_chunk": [
        row("A1"), row("A2", value=""), row('"Q,1"', zone='"r1b"'), row("A3"), "",
        row("A4", zone='"R2\r\n"'), row("A5", tax=""), row("A6"),
    ],
    # a lone \r ends a record to csv.reader but no binary line: the third
    # line is two short records whose split cells are as many as the stride
    "lone_cr_inside_a_line": [
        row("A1"), row("A2", value=""), "A3,150000,R1A,68,120\rA4,6000,R1A,3,40,50,7", row("A5"), row("A6", tax=""),
    ],
}


@pytest.mark.parametrize("terminator", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("name", sorted(CHUNK_EDGE_FILES))
def test_loads_as_the_oracle_across_chunk_edges(tmp_path, name, terminator):
    lines = [HEADER, *CHUNK_EDGE_FILES[name]]
    path = tmp_path / "p.csv"
    path.write_bytes(terminator.join(lines).encode("utf-8") + terminator.encode("utf-8"))
    # a chunk ends on the first line that takes it past read_chunk
    # characters, so these end the first chunk on every line in turn
    want = load_outcome(load_parcels_oracle, path)
    for read_chunk in range(1, len(path.read_bytes()) + 1):
        for row_chunk in (1, 2, 4096):
            assert_same_load(load_in_chunks(path, read_chunk, row_chunk), want)


def test_a_csv_error_on_the_first_record_of_a_reader_chunk_cites_its_line(tmp_path):
    # the csv reader reads from line 2 (a quoted pin); its first chunk of
    # records is full, and the next one fails on its first record
    records = [row('"Q1"')] + [row(f"A{i}") for i in range(2, _ROW_CHUNK + 1)]
    path = tmp_path / "p.csv"
    write_csv(path, [*records, row("B") + "," + "x" * 131_073, row("C")])
    with pytest.raises(ParcelError) as raised:
        load_parcels(path)
    assert str(raised.value) == f"{path}: line {_ROW_CHUNK + 2}: field larger than field limit (131072)"
    assert_loads_as_the_oracle(path)


def test_cell_over_the_field_limit_inside_a_reader_chunk(tmp_path):
    # the csv reader reads from line 2; its chunk holds line 2 and 3 when it
    # meets the cell on line 4, so the records it had read must be counted
    oversized = row("A4") + "," + "x" * 131_073
    path = tmp_path / "p.csv"
    write_csv(path, [row('"Q1"'), row("A3"), oversized, row("A5")])
    with pytest.raises(ParcelError) as raised:
        load_parcels(path)
    assert str(raised.value) == f"{path}: line 4: field larger than field limit (131072)"
    assert_loads_as_the_oracle(path)
    # an empty pin the reader read before the error is reported first
    write_csv(path, [row('"Q1"'), row(""), oversized, row("A5")])
    with pytest.raises(ParcelError) as raised:
        load_parcels(path)
    assert str(raised.value) == f"{path}: line 3: empty pin"
    assert_loads_as_the_oracle(path)


# cells of every kind the loader tells apart; any cell may land in any column
NUMBER_TEXTS = [
    "nan", "-nan", "inf", "-inf", "-0.0", "5e-324", "1e+16", "0.1", "150000.0", "7.5", "12", "-3", "1e400",
    "1_000", " 7.5 ", "\t2",
]
OTHER_TEXTS = ["", " ", "abc", "R1A", "r1b", " R2 ", "S2", "other", "B1"]
QUOTED_TEXTS = ["Q,2", 'a"b', "R1\nA", "x\r\ny", "r2"]  # written quoted
BAD_PINS = ["", " ", "P0"]


@st.composite
def parcel_files(draw):
    """The text of a parcel CSV: the canonical header, then records that
    may be short or long (or, in part of the examples, all of one length
    at or above the header's width), hold blank, unparseable or quoted
    cells, empty or repeated pins, and blank lines, under any mix of line
    endings."""
    quoting, bad_pins, regular = draw(st.booleans()), draw(st.booleans()), draw(st.booleans())
    cell = st.sampled_from(NUMBER_TEXTS + OTHER_TEXTS + (QUOTED_TEXTS if quoting else []))
    if regular:  # the pin and length - 1 more cells
        length = draw(st.integers(len(CANONICAL_SCHEMA), len(CANONICAL_SCHEMA) + 2))
        record_cells = st.lists(cell, min_size=length - 1, max_size=length - 1)
    else:
        record_cells = st.lists(cell, max_size=12)
    pin = st.sampled_from([None] * 6 + ["<blank line>"] + (BAD_PINS if bad_pins else []))
    lines = [HEADER + draw(st.sampled_from(["", ",extra"]))]
    for i, (record_pin, cells) in enumerate(draw(st.lists(st.tuples(pin, record_cells), max_size=20))):
        if record_pin == "<blank line>":
            lines.append("")
            continue
        cells = [f"P{i}" if record_pin is None else record_pin, *cells]
        lines.append(",".join('"' + c.replace('"', '""') + '"' if c in QUOTED_TEXTS else c for c in cells))
    endings = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(map(str.__add__, lines, endings))
    return text if draw(st.booleans()) else text[:-1]


@given(text=parcel_files(), read_chunk=st.integers(1, 600), row_chunk=st.integers(1, 5))
@settings(max_examples=300, deadline=None)
# CR-only files shorter than the field limit, which a binary read takes as one
# line after the header: whole, and after a header ended by \n
@example(text=f"{HEADER}\r{row('P0')}\r{row('P1', value='')}\r", read_chunk=600, row_chunk=5)
@example(text=f"{HEADER}\n{row('P0')}\r{row('P1', value='')}\r", read_chunk=600, row_chunk=5)
def test_loads_as_the_oracle(tmp_path_factory, text, read_chunk, row_chunk):
    path = tmp_path_factory.getbasetemp() / "random.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_loads_as_the_oracle(path, read_chunk, row_chunk)


def test_generated_file_with_blank_cells_loads_as_the_oracle(tmp_path):
    # 3,000 rows span several chunks of the default size
    generated, _log = generate_parcels(default_true_model(seed=4), 3000)
    path = tmp_path / "g.csv"
    write_parcels(generated, path)
    # newline="" keeps the written \r\n, so the file splits into its records
    with path.open(encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\r\n")
    blanked = 0
    for i in range(1, len(lines) - 1, 97):
        cells = lines[i].split(",")
        blanked += cells[1 + i % 10] != ""
        cells[1 + i % 10] = ""
        lines[i] = ",".join(cells)
    assert blanked == 31  # every 97th of the 3,000 records loses a cell
    path.write_text("\r\n".join(lines), encoding="utf-8", newline="")
    assert_loads_as_the_oracle(path)


@pytest.mark.parametrize("read_chunk", [parcels._READ_CHUNK, 1000])
def test_written_file_loads_as_the_oracle_by_fields_alone(tmp_path, read_chunk):
    # every line of a written file holds ten commas, so every chunk is
    # split once and read field by field: reading records with csv.reader
    # fails the test
    rows = list(generate_parcels(default_true_model(seed=5), 3000)[0])
    for i in range(0, len(rows), 89):  # blank cells in the first, a middle and the last numeric column
        name = ("assessed_value", "total_bldg_sqft", "tax_rate_pct")[i % 3]
        rows[i] = dataclasses.replace(rows[i], **{name: None})
    path = tmp_path / "w.csv"
    write_parcels(ParcelTable(rows), path)
    per_record = AssertionError("a record was read on its own")
    with mock.patch.object(parcels, "_reader_chunks", side_effect=per_record):
        assert_loads_as_the_oracle(path, read_chunk)
    table = load_parcels(path)
    assert [int(table.missing(name).sum()) for name in ("assessed_value", "total_bldg_sqft", "tax_rate_pct")] == [12, 11, 11]


@pytest.mark.parametrize("header_end, line_end", [("\r\n", "\r\n"), ("\n", "\n"), ("\r", "\r"), ("\n", "\r")],
                         ids=["crlf", "lf", "cr", "lf_header_cr_records"])
@pytest.mark.parametrize("read_chunk", [parcels._READ_CHUNK, 1000])
def test_a_file_with_non_ascii_pins_is_split_end_to_end(tmp_path, read_chunk, header_end, line_end):
    # a binary chunk is decoded once, after its lines are joined; its pins
    # hold characters of two, three and four bytes, so a chunk of bytes and
    # one of characters end on other lines.  Records ended by a lone \r are
    # read as text, line by line: a binary read takes them as one line
    rows = list(generate_parcels(default_true_model(seed=5), 3000)[0])
    rows = [dataclasses.replace(p, pin=f"{p.pin}-{('Zoë', '東京', '𝔸', 'ß')[i % 4]}") for i, p in enumerate(rows)]
    path = tmp_path / "u.csv"
    write_parcels(ParcelTable(rows), path)
    header, records = path.read_bytes().split(b"\r\n", 1)
    path.write_bytes(header + header_end.encode() + records.replace(b"\r\n", line_end.encode()))
    per_record = AssertionError("a record was read on its own")
    binary_chunks = mock.Mock(wraps=parcels._lone_cr)  # each binary chunk is tested for a lone \r
    with mock.patch.object(parcels, "_reader_chunks", side_effect=per_record), \
            mock.patch.object(parcels, "_lone_cr", binary_chunks):
        assert_loads_as_the_oracle(path, read_chunk)
    # a file whose records end in a lone \r is read as text throughout
    assert binary_chunks.called == (line_end != "\r")
    assert load_parcels(path).pins == tuple(p.pin for p in rows)


def test_records_ended_by_a_lone_cr_after_an_lf_header_are_not_read_as_one_binary_line(tmp_path):
    # a binary read took the records as one line, the rest of the file, handed
    # it to _lone_cr and then read it again as text
    rows = generate_parcels(default_true_model(seed=5), 3000)[0]
    path = tmp_path / "lf_cr.csv"
    write_parcels(rows, path)
    header, records = path.read_bytes().split(b"\r\n", 1)
    path.write_bytes(header + b"\n" + records.replace(b"\r\n", b"\r"))
    assert path.stat().st_size > 4 * parcels._READ_CHUNK
    longest = []
    lone_cr = parcels._lone_cr

    def measuring(data):
        longest.append(max(map(len, data.split(b"\n"))))
        return lone_cr(data)

    with mock.patch.object(parcels, "_lone_cr", measuring):
        assert_loads_as_the_oracle(path)
    assert all(length <= parcels._READ_CHUNK for length in longest)


def numeric_column_chunks(path, read_chunk):
    """Each numeric field's cells in each chunk ``_records`` yields for the
    canonical file at ``path``, chunk by chunk, in field order."""
    at = list(CANONICAL_SCHEMA)
    with mock.patch.object(parcels, "_READ_CHUNK", read_chunk), _header_and_lines(path) as (_header, lines):
        return [cells[at.index(name) :: stride] for cells, stride in _records(lines, len(at)) for name in NUMERIC_FIELDS]


@pytest.mark.parametrize("blanks", [False, True], ids=["blank_free", "blanks_in_three_columns"])
@pytest.mark.parametrize("read_chunk", [parcels._READ_CHUNK, 1000])
def test_only_a_column_chunk_holding_a_blank_cell_is_parsed_resuming(tmp_path, read_chunk, blanks):
    # a column chunk whose cells are all numbers goes into a float64 array of
    # its length; only one holding a blank cell (an empty one, or in the last
    # column a bare line break) takes the loop that resumes after each cell
    # float rejects, which builds an array("d")
    rows = list(generate_parcels(default_true_model(seed=5), 3000)[0])
    for i in range(0, len(rows), 89) if blanks else ():  # as in the test above
        name = ("assessed_value", "total_bldg_sqft", "tax_rate_pct")[i % 3]
        rows[i] = dataclasses.replace(rows[i], **{name: None})
    path = tmp_path / "w.csv"
    write_parcels(ParcelTable(rows), path)
    parse_column, routes = parcels._parse_column, []

    def recording_the_route(cells, *args):
        column = parse_column(cells, *args)
        routes.append((cells, type(column)))
        return column

    with mock.patch.object(parcels, "_parse_column", recording_the_route):
        assert_loads_as_the_oracle(path, read_chunk)
    column_chunks = numeric_column_chunks(path, read_chunk)
    assert [cells for cells, _route in routes] == column_chunks
    holding_a_blank = [cells for cells in column_chunks if not all(map(str.strip, cells))]
    assert [cells for cells, route in routes if route is not np.ndarray] == holding_a_blank
    assert bool(holding_a_blank) == blanks and len(holding_a_blank) < len(column_chunks) / 2


def strides_of(path):
    """The stride of each chunk ``_records`` yields for the file at ``path``."""
    with _header_and_lines(path) as (_header, lines):
        return [stride for _cells, stride in _records(lines, len(CANONICAL_SCHEMA))]


@pytest.mark.parametrize("irregular", ["short_row", "long_row", "blank_line"])
def test_an_irregular_first_chunk_sends_the_rest_of_the_file_to_the_csv_reader(tmp_path, irregular):
    # the written file is split once, chunk by chunk; a short row, a long row
    # or a blank line on line 4 puts the first chunk on csv.reader, which then
    # reads every record to the end of the file, a reader chunk at a time
    path = tmp_path / "g.csv"
    write_parcels(generate_parcels(default_true_model(seed=8), 3000)[0], path)
    strides = strides_of(path)
    assert len(strides) > 2 and set(strides) == {len(CANONICAL_SCHEMA)}
    lines = path.read_bytes().decode("utf-8").split("\r\n")
    if irregular == "short_row":
        lines[3] = lines[3][: lines[3].index(",", lines[3].index(",") + 1)]
    elif irregular == "long_row":
        lines[3] += ",extra"
    else:
        lines.insert(3, "")
    path.write_bytes("\r\n".join(lines).encode("utf-8"))
    with mock.patch.object(parcels, "_ROW_CHUNK", 1000):
        assert strides_of(path) == [None] * 3
    assert_loads_as_the_oracle(path)


ODD_NUMBERS = [None, math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1, 150000.0, 7.5, 1e-7]


def odd_parcels(pins, zones):
    """A parcel per pin and zone whose numeric cells cycle through ODD_NUMBERS."""
    return [
        make_parcel(pin, zone=zone, **{
            name: ODD_NUMBERS[(i + j) % len(ODD_NUMBERS)] for j, name in enumerate(NUMERIC_FIELDS)
        })
        for i, (pin, zone) in enumerate(zip(pins, zones))
    ]


def assert_written_as_the_oracle(table, tmp_path):
    path, reference = tmp_path / "t.csv", tmp_path / "oracle.csv"
    write_parcels(table, path)
    write_parcels_oracle(table, reference)
    assert path.read_bytes() == reference.read_bytes()
    return path


def assert_same_table(got, want):
    assert got.pins == want.pins
    assert got.zones == want.zones
    for name in NUMERIC_FIELDS:  # repr tells -0.0 from 0.0 and matches nan
        got_cells, want_cells = (list(map(repr, t.column(name).tolist())) for t in (got, want))
        assert got_cells == want_cells
        assert got.missing(name).tolist() == want.missing(name).tolist()
    assert got.missing("zone").tolist() == want.missing("zone").tolist()


class TestWrite:
    def test_pins_that_need_quoting(self, tmp_path):
        pins = ["plain", "a,b", 'q"uote', 'q"', "cr\r\nlf", "cr\rx", "lf\nx", "sp ace", "nul\0x"]
        zones = ["R1A", None, "R1B", "R2", "S2", "OTHER", None, "R1A", "R2"]
        table = ParcelTable(odd_parcels(pins, zones))
        path = assert_written_as_the_oracle(table, tmp_path)
        assert_same_table(load_parcels(path), table)

    def test_zones_that_need_quoting(self, tmp_path):
        zones = ["r,1a", 'S"2', "R1B\r\n", "\nR2", None, "R1A"]
        table = ParcelTable(odd_parcels([f"Z{i}" for i in range(len(zones))], zones))
        path = assert_written_as_the_oracle(table, tmp_path)
        loaded = load_parcels(path)
        assert loaded.zones == ("OTHER", "OTHER", "R1B", "R2", None, "R1A")
        rezoned = ParcelTable(dataclasses.replace(p, zone=z) for p, z in zip(table, loaded.zones))
        assert_same_table(loaded, rezoned)

    def test_only_the_chunk_that_needs_quoting_is_quoted(self, tmp_path):
        # the first and last chunks are joined, odd numbers and all
        n = 2 * _ROW_CHUNK + 5
        pins = [f"C{i}" for i in range(n)]
        pins[_ROW_CHUNK + 7] = "C,quoted"
        table = ParcelTable(odd_parcels(pins, ["R1A", "S2", None, "R2"] * (n // 4) + ["OTHER"]))
        path = assert_written_as_the_oracle(table, tmp_path)
        assert path.read_text(encoding="utf-8").count('"') == 2
        assert_same_table(load_parcels(path), table)


@given(
    st.lists(
        st.tuples(
            st.text(alphabet='a1,"\r\n\0 ', min_size=1, max_size=6),
            st.one_of(st.none(), st.text(alphabet='a1,"\r\n\0 R', max_size=6)),
            st.lists(
                st.one_of(st.none(), st.floats()),
                min_size=len(NUMERIC_FIELDS),
                max_size=len(NUMERIC_FIELDS),
            ),
        ),
        max_size=12,
        unique_by=lambda cells: cells[0],
    )
)
@settings(max_examples=200, deadline=None)
def test_written_bytes_are_the_oracles(tmp_path_factory, rows):
    # a pin with surrounding whitespace is refused, since the loader strips
    # every pin; a table of the other rows is written as the oracle writes it
    parcels = []
    for pin, zone, numbers in rows:
        if pin != pin.strip():
            with pytest.raises(ParcelError) as info:
                Parcel(pin, numbers[0], zone, *numbers[1:])
            assert str(info.value) == f"pin {pin!r} has surrounding whitespace"
        else:
            parcels.append(Parcel(pin, numbers[0], zone, *numbers[1:]))
    assert_written_as_the_oracle(ParcelTable(parcels), tmp_path_factory.getbasetemp())


# --- property tests -------------------------------------------------------

finite_pos = st.floats(min_value=1e-3, max_value=1e9, allow_nan=False)
maybe_missing = st.one_of(st.none(), finite_pos)

parcels_strategy = st.builds(
    Parcel,
    pin=st.uuids().map(str),
    assessed_value=maybe_missing,
    zone=st.sampled_from(["R1A", "R1B", "R2", "S2", "OTHER", None]),
    lot_width_ft=maybe_missing,
    lot_depth_ft=maybe_missing,
    lot_sqft=maybe_missing,
    total_bldg_sqft=maybe_missing,
    bathrooms=maybe_missing,
    age_years=st.one_of(st.none(), st.floats(min_value=0, max_value=200)),
    condition_pct=st.one_of(st.none(), st.floats(min_value=-10, max_value=150)),
    tax_rate_pct=maybe_missing,
)

tables_strategy = st.lists(parcels_strategy, max_size=25).map(
    lambda rows: ParcelTable(tuple(rows))
)


@given(tables_strategy)
@settings(max_examples=50, deadline=None)
def test_clean_is_idempotent(table):
    once, report1 = clean(table)
    twice, report2 = clean(once)
    assert twice.rows == once.rows
    assert report2.rows_dropped == 0
    assert report1.rows_in == report1.rows_kept + report1.rows_dropped
    assert len(report1.dropped_pins) == report1.rows_dropped


@given(table=tables_strategy)
@settings(max_examples=30, deadline=None)
def test_clean_then_round_trip_is_identity(tmp_path_factory, table):
    cleaned, _ = clean(table)
    path = tmp_path_factory.mktemp("rt") / "t.csv"
    write_parcels(cleaned, path)
    assert load_parcels(path).rows == cleaned.rows


edge_values = st.one_of(
    st.sampled_from([
        None, 0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308,
        1.0, 55.0, 100.0, 150.0, -5.0, 0, 7, True, False,
    ]),
    st.floats(),
    st.integers(min_value=-10, max_value=200),
)
edge_parcels = st.builds(
    Parcel,
    pin=st.just("E1"),
    zone=st.sampled_from(["R1A", "R1B", "R2", "S2", "OTHER", "R9", "r1a", "", None]),
    **{name: edge_values for name in NUMERIC_FIELDS},
)


@given(edge_parcels)
@example(make_parcel(lot_sqft=1e308, total_bldg_sqft=1e308))  # the sum overflows
@example(make_parcel(condition_pct=-0.0, age_years=-0.0))
@example(make_parcel(lot_width_ft=math.inf, lot_depth_ft=-math.inf))
@example(make_parcel(age_years=1e308))  # finite, but its square is not
@example(make_parcel(age_years=-1e200))  # negative first
@settings(max_examples=500, deadline=None)
def test_defects_equal_the_itemised_defects(parcel):
    assert parcel_defects(parcel) == itemised_defects(parcel)


def test_an_age_whose_square_overflows_is_dropped_and_itemised():
    # 1.3e154 squares to about 1.7e308, still finite; 1.4e154 does not
    ages = {"OK": 1.3e154, "BIG": 1.4e154, "HUGE": 1e200, "NEG": -1e200, "NAN": math.nan}
    table = ParcelTable(make_parcel(pin=pin, age_years=age) for pin, age in ages.items())
    cleaned, report = clean(table)
    assert cleaned.pins == ("OK",)
    assert report.dropped_by_field == {"age_years": 4}
    overflows = [("age_years", "square overflows")]
    assert [parcel_defects(p) for p in table.rows] == [
        [], overflows, overflows, [("age_years", "negative")], [("age_years", "non-finite")]
    ]


def test_cleaned_parcels_have_no_defects():
    table = make_table(30)
    cleaned, _ = clean(table)
    assert all(not parcel_defects(p) for p in cleaned.rows)


def test_parcel_table_rejects_duplicate_pins():
    with pytest.raises(DuplicatePinError):
        ParcelTable((make_parcel(pin="A"), make_parcel(pin="A")))


def test_a_parcel_needs_a_pin():
    with pytest.raises(ParcelError) as info:
        Parcel("")
    assert str(info.value) == "pin must be nonempty"


@pytest.mark.parametrize(
    "pins, refused",
    [
        # written and loaded back, " P1" was a duplicate of "P1" and "  " an empty pin
        (["P1", " P1"], " P1"),
        (["  "], "  "),
        (["P1 "], "P1 "),
        (["\tP1"], "\tP1"),
        (["\u00a0P1"], "\u00a0P1"),
    ],
    ids=["beside_its_stripped_self", "spaces_alone", "trailing_space", "leading_tab", "no_break_space"],
)
def test_a_pin_the_loader_would_strip_is_refused(pins, refused):
    with pytest.raises(ParcelError) as info:
        ParcelTable([make_parcel(pin=pin) for pin in pins])
    assert str(info.value) == f"pin {refused!r} has surrounding whitespace"


def test_an_empty_file_has_no_header_row(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_bytes(b"")
    with pytest.raises(SchemaError) as info:
        load_parcels(path)
    assert str(info.value) == f"{path}: no header row"


def test_parcels_are_immutable():
    with pytest.raises(dataclasses.FrozenInstanceError):
        make_parcel().pin = "other"


def field_values(parcel):
    return tuple(getattr(parcel, f.name) for f in dataclasses.fields(Parcel))


def test_rows_built_from_a_table_are_the_parcels_init_builds():
    # longer than a chunk, with missing cells, literal nan/inf cells and unknown zones
    rng = np.random.default_rng(5)
    cells = (None, math.nan, math.inf, -math.inf, 0.0, -3.5, 1e300)
    zones = (*ZONES, None, "C2", "r1a")
    source = []
    for i in range(_ROW_CHUNK + 905):
        parcel = make_parcel(pin=f"Q{i}", zone=zones[i % len(zones)], age_years=float(i))
        if i % 3 == 0:
            name = NUMERIC_FIELDS[rng.integers(len(NUMERIC_FIELDS))]
            parcel = dataclasses.replace(parcel, **{name: cells[rng.integers(len(cells))]})
        source.append(parcel)
    table = ParcelTable(source)
    rows = list(table)
    picks = (0, _ROW_CHUNK - 1, _ROW_CHUNK, len(table) - 1, -1, -len(table))
    for built, original in [*zip(rows, source), *((table.row(i), source[i]) for i in picks)]:
        assert type(built) is Parcel
        # the same field objects through the generated __init__: equal, with equal hashes
        rebuilt = Parcel(*field_values(built))
        assert built == rebuilt and hash(built) == hash(rebuilt)
        # repr tells None, nan and inf apart
        assert list(map(repr, field_values(built))) == list(map(repr, field_values(original)))
        if not any(isinstance(v, float) and math.isnan(v) for v in field_values(original)):
            assert built == original and hash(built) == hash(original)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rows[-1].zone = "R1A"
    assert dataclasses.replace(rows[0], pin="NEW").pin == "NEW"


def test_row_is_the_iterated_row():
    # missing numeric cells, a literal nan cell and a None zone
    table = ParcelTable([
        make_parcel("A", zone=None),
        make_parcel("B", assessed_value=None, tax_rate_pct=None),
        make_parcel("C", zone=None, age_years=None, condition_pct=math.nan),
        make_parcel("D", zone="OTHER", bathrooms=-0.0),
    ])
    rows = list(table)
    for i in range(-len(table), len(table)):
        built = table.row(i)
        assert type(built) is Parcel
        # repr tells None, nan and -0.0 apart
        assert list(map(repr, field_values(built))) == list(map(repr, field_values(rows[i])))
    for i in (len(table), -len(table) - 1):
        with pytest.raises(IndexError):
            table.row(i)


def test_tables_are_immutable():
    table = make_table(3)
    with pytest.raises(AttributeError):
        table.pins = ("X",)
    with pytest.raises(ValueError):
        table.column("lot_sqft")[0] = 1.0
    with pytest.raises(ValueError):
        table.missing("lot_sqft")[0] = True


# --- the columnar table against the row-wise rules --------------------------

ZONE_EDGES = ["R9", "r1a", "", None, "OTHER", "S2"]
NUMBER_EDGES = [None, math.nan, math.inf, -math.inf, 0.0, -0.0, -3.0, 100.0, 150.0, 7]

# each row is a valid parcel with up to three fields replaced, so rows
# with exactly one defect of each kind are common
field_changes = st.one_of(
    st.tuples(st.just("zone"), st.sampled_from(ZONE_EDGES)),
    st.tuples(st.sampled_from(NUMERIC_FIELDS), st.sampled_from(NUMBER_EDGES)),
)
mixed_tables = st.lists(st.lists(field_changes, max_size=3).map(dict), max_size=30).map(
    lambda rows: ParcelTable(make_parcel(f"P{i}", **changes) for i, changes in enumerate(rows))
)
every_single_change = ParcelTable(
    make_parcel(f"S{i}", **{name: value})
    for i, (name, value) in enumerate(
        [("zone", zone) for zone in ZONE_EDGES]
        + [(name, value) for name in NUMERIC_FIELDS for value in NUMBER_EDGES]
    )
)


@given(mixed_tables)
@example(every_single_change)
@settings(max_examples=200, deadline=None)
def test_clean_equals_the_row_by_row_reference(table):
    kept, dropped, by_field = clean_row_by_row(table)
    cleaned, report = clean(table)
    assert cleaned.pins == kept
    assert report.dropped_pins == dropped
    assert list(report.dropped_by_field.items()) == by_field
    assert (report.rows_in, report.rows_kept, report.rows_dropped) == (len(table), len(kept), len(dropped))
    assert cleaned.rows == tuple(p for p in table.rows if p.pin in kept)


# --- the coded zone column against a plain zone tuple -----------------------

CODED_ZONES = [*ZONES, None, "C2", "r1a", "", "R9"]
DUMMY_LEVELS = [*ZONES, "C2", "r1a", "R9", "nowhere"]
FLOAT_EDGES = [value for value in NUMBER_EDGES if not isinstance(value, int)]  # a row holds an int as a float


def another_object(zone):
    """``zone``, or an equal string that is another object."""
    return zone if zone is None else "".join(list(zone))


# zones drawn as the pool's objects or as equal copies, each row with up to
# two numeric fields replaced, so clean drops rows for either
coded_rows = st.lists(
    st.tuples(
        st.sampled_from(CODED_ZONES),
        st.booleans(),
        st.lists(st.tuples(st.sampled_from(NUMERIC_FIELDS), st.sampled_from(FLOAT_EDGES)), max_size=2).map(dict),
    ),
    max_size=30,
).map(lambda rows: [
    make_parcel(f"P{i}", zone=another_object(zone) if copied else zone, **changes)
    for i, (zone, copied, changes) in enumerate(rows)
])


def assert_same_rows(got, want):
    # repr tells None, nan and -0.0 apart
    assert [list(map(repr, field_values(p))) for p in got] == [list(map(repr, field_values(p))) for p in want]


@given(rows=coded_rows, keep=st.lists(st.booleans(), min_size=30, max_size=30))
# more zones than an int8 code holds, each past the canonical levels
@example(rows=[make_parcel(f"U{i}", zone=f"Z{i}") for i in range(300)], keep=[True, False] * 15)
@settings(max_examples=200, deadline=None)
def test_the_coded_zone_column_is_the_zone_tuple(tmp_path_factory, rows, keep):
    table = ParcelTable(rows)
    zones = tuple(p.zone for p in rows)
    assert table.levels[: len(ZONE_LEVELS)] == ZONE_LEVELS
    assert table.zones == table.column("zone") == zones
    assert table.missing("zone").tolist() == [zone is None for zone in zones]
    assert_same_rows(table, rows)
    assert_same_rows([table.row(i) for i in range(len(rows))], rows)

    flags = (keep * (len(rows) // len(keep) + 1))[: len(rows)]
    taken = table._take(np.array(flags, dtype=bool))
    assert taken.zones == tuple(compress(zones, flags))
    assert_same_rows(taken, list(compress(rows, flags)))

    kept, dropped, by_field = clean_row_by_row(rows)
    cleaned, report = clean(table)
    assert (report.rows_in, report.rows_kept, report.rows_dropped) == (len(rows), len(kept), len(dropped))
    assert report.dropped_pins == dropped and list(report.dropped_by_field.items()) == by_field
    assert cleaned.pins == kept
    assert_same_rows(cleaned, [p for p in rows if p.pin in kept])

    path, reference = (tmp_path_factory.getbasetemp() / name for name in ("coded.csv", "plain.csv"))
    write_parcels(table, path)
    write_parcels_oracle(rows, reference)
    assert path.read_bytes() == reference.read_bytes()

    dummies = ModelSpec(tuple(Term(f"d{k}", "zone", Transform("dummy", level=level))
                              for k, level in enumerate(DUMMY_LEVELS)))
    counts = Counter(zones)
    if None in counts:  # descriptive_stats reads the zone as the design does
        with pytest.raises(DesignError, match=r"^missing zone \(pin "):
            descriptive_stats(table, dummies)
    # the design refuses a missing zone, so the counts and dummies are built over the zoned rows
    zoned = [make_parcel(p.pin, zone=p.zone) for p in rows if p.zone is not None]
    if zoned:
        assert descriptive_stats(ParcelTable(zoned), dummies).zone_counts == {level: counts[level] for level in DUMMY_LEVELS}
        X = build_design_matrix(ParcelTable(zoned), dummies).X
        plain = np.asarray([p.zone for p in zoned], dtype=object)
        for j, level in enumerate(DUMMY_LEVELS, 1):
            assert X[:, j].tobytes() == (plain == level).astype(np.float64).tobytes()


def assert_same_columns(got, want):
    assert type(got) is ParcelTable
    assert got.pins == want.pins and got.zones == want.zones and got.levels == want.levels
    assert got.codes.tolist() == want.codes.tolist()
    for name in (*NUMERIC_FIELDS, "zone"):
        assert got.missing(name).tolist() == want.missing(name).tolist()
    assert got._numbers.tobytes() == want._numbers.tobytes()


@pytest.mark.parametrize("copier", [
    lambda table: pickle.loads(pickle.dumps(table)), copy.copy, copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_a_table_pickles_and_copies(tmp_path, copier):
    path = tmp_path / "p.csv"
    write_csv(path, [row("A", zone="r1b"), row("B", zone=" "), row("C", age=""), row("D", value="nan")])
    loaded = load_parcels(path)
    unknown = ParcelTable(odd_parcels(["U1", "U2", "U3"], ["C2", None, "R1A"]))
    for table in (loaded, clean(loaded)[0], ParcelTable(), unknown):
        got = copier(table)
        assert_same_columns(got, table)
        with pytest.raises(AttributeError):
            got.pins = ()
        with pytest.raises(ValueError):
            got.codes[:1] = 0
    assert unknown.levels == (*ZONE_LEVELS, "C2")


def test_empty_and_nan_cells_keep_their_reasons_through_a_round_trip(tmp_path):
    path = tmp_path / "p.csv"
    write_csv(path, [row("E", age=""), row("N", age="nan"), row("Z", zone=" "), row("OK")])
    age_at, zone_at = (list(CANONICAL_SCHEMA).index(name) for name in ("age_years", "zone"))
    first = load_parcels(path)
    out = tmp_path / "back.csv"
    write_parcels(first, out)
    written = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert [cells[age_at] for cells in written] == ["", "nan", "30.0", "30.0"]
    assert [cells[zone_at] for cells in written] == ["R1A", "R1A", "", "R1A"]
    for table in (first, load_parcels(out)):
        assert table.missing("age_years").tolist() == [True, False, False, False]
        assert table.missing("zone").tolist() == [False, False, True, False]
        empty, nan, no_zone, _ok = table.rows
        assert itemised_defects(empty) == [("age_years", "missing")]
        assert itemised_defects(nan) == [("age_years", "non-finite")]
        assert itemised_defects(no_zone) == [("zone", "missing")]
        assert [parcel_defects(p) for p in (empty, nan, no_zone)] == [
            [("age_years", "missing")], [("age_years", "non-finite")], [("zone", "missing")]
        ]
        cleaned, report = clean(table)
        assert cleaned.pins == ("OK",)
        assert report.dropped_by_field == {"age_years": 2, "zone": 1}


def test_load_memory_per_row_is_bounded(tmp_path):
    # a loader that builds every record before transposing it held about
    # 450 B/row; the columns hold about 150
    n = 20000
    generated, _log = generate_parcels(default_true_model(seed=3), n)
    path = tmp_path / "m.csv"
    write_parcels(generated, path)
    del generated
    gc.collect()
    tracemalloc.start()
    try:
        table = load_parcels(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == n
    assert retained / n <= 250, f"{retained / n:.0f} B/row retained"
    assert peak / n <= 400, f"{peak / n:.0f} B/row at peak"
