"""The writers every report goes through: a report's json is its
dataclass's fields, in declaration order, whatever the report holds, and
its csv and text are its sections, whatever sections it has."""

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

from zoneval.inference import CoefficientRow, InferenceTable
from zoneval.render import _emit, _fixed, dump_json, render_fit


@dataclass(frozen=True, slots=True)
class Row:
    name: str
    value: float


# a report no emitter knows, its fields out of alphabetical order
@dataclass(frozen=True)
class Throwaway:
    zeta: int
    rows: tuple[Row, ...]
    grid: np.ndarray
    scale: np.float64
    extremes: tuple[float, float, float]
    counts: dict[str, int]
    flag: bool


def refuse(token):
    raise AssertionError(f"json holds {token}")


def test_a_new_report_is_its_fields_in_declaration_order():
    report = Throwaway(
        zeta=3,
        rows=(Row("a", 1.5), Row("b", math.nan)),
        grid=np.array([[1.0, 2.0], [3.0, np.inf]]),
        scale=np.float64(0.25),
        extremes=(math.nan, math.inf, -math.inf),
        counts={"z": 2, "a": 1},
        flag=True,
    )
    text = dump_json(report, command="throwaway")
    # json has no nan or inf: the writer gives them as strings, never NaN or Infinity
    payload = json.loads(text, parse_constant=refuse)
    assert list(payload) == ["command", "zeta", "rows", "grid", "scale", "extremes", "counts", "flag"]
    assert payload == {
        "command": "throwaway",
        "zeta": 3,
        "rows": [{"name": "a", "value": 1.5}, {"name": "b", "value": "nan"}],
        "grid": [[1.0, 2.0], [3.0, "inf"]],
        "scale": 0.25,
        "extremes": ["nan", "inf", "-inf"],
        "counts": {"z": 2, "a": 1},
        "flag": True,
    }
    assert list(payload["counts"]) == ["z", "a"]
    assert list(payload["rows"][0]) == ["name", "value"]
    assert text.endswith("}\n") and text.startswith('{\n  "command": "throwaway",\n')



# a report no emitter knows: a section of a row type and one of measures
@dataclass(frozen=True)
class Summary:
    rows: tuple[Row, ...]
    spread: float
    count: int


def summary_sections(report):
    measures = [("spread", report.spread), ("count", report.count)]
    return [
        ("row", report.rows, ["Rows", *(f"  {r.name:<4}{r.value:8.3f}" for r in report.rows)]),
        ("measure", measures, [f"spread {report.spread:.2f}, count {report.count}"]),
    ]


class Untouchable:
    """Rows that text output must not read."""

    def __iter__(self):
        raise AssertionError("text output read the csv rows")


def test_a_new_report_is_its_sections_in_every_format():
    report = Summary(rows=(Row("a", 1.5), Row("b", math.nan)), spread=0.125, count=7)
    sections = summary_sections(report)
    assert _emit("text", ["name", "value"], sections) == "Rows\n  a      1.500\n  b        nan\nspread 0.12, count 7\n"
    # the section column first, an int through str, a float at full precision
    assert list(csv.reader(io.StringIO(_emit("csv", ["name", "value"], sections)))) == [
        ["section", "name", "value"],
        ["row", "a", "1.5"],
        ["row", "b", "nan"],
        ["measure", "spread", "0.125"],
        ["measure", "count", "7"],
    ]
    assert json.loads(dump_json(report, command="summary")) == {
        "command": "summary",
        "rows": [{"name": "a", "value": 1.5}, {"name": "b", "value": "nan"}],
        "spread": 0.125,
        "count": 7,
    }


def test_text_output_reads_no_row():
    sections = [("a", Untouchable(), ["first"]), ("b", Untouchable(), []), ("c", Untouchable(), ["", "last"])]
    assert _emit("text", ["value"], sections) == "first\n\nlast\n"


def short_label_fit(exact: bool) -> InferenceTable:
    """A fit whose coefficient labels are all shorter than ``Adj R-square``."""
    if exact:
        rows = (CoefficientRow("intercept", 11.5, 0.0, math.nan, math.nan, False),
                CoefficientRow("age", -0.0125, 0.0, math.nan, math.nan, False))
        return InferenceTable(rows, 1.0, 1.0, math.inf, 40, 1, 0.0, exact_fit=True)
    rows = (CoefficientRow("intercept", 11.5, 0.25, 46.0, 1e-30, True),
            CoefficientRow("age", -0.0125, 0.005, -2.5, 0.0168, True))
    return InferenceTable(rows, 0.1412, 0.1186, 6.25, 40, 1, 0.04)


@pytest.mark.parametrize("exact", [False, True], ids=["fit", "exact_fit"])
def test_fit_text_with_short_labels_aligns_every_row(exact):
    # the label column was sized from the coefficient labels alone, so
    # "Adj R-square" pushed its value one column right; an exact fit's t
    # cell was 3 characters narrower than its column
    lines = render_fit(short_label_fit(exact), "text").splitlines()
    head = next(line for line in lines if line.startswith("variable "))
    cells_at = len(head) - len(f"{'estimate':>12} {'std error':>12} {'t value':>9}")
    coefficients = [line.removesuffix(" *") for line in lines if line.startswith(("intercept ", "age "))]
    assert len(coefficients) == 2 and {len(line) for line in coefficients} == {len(head)}
    stats = [line for line in lines if line.startswith(("F-value ", "R-square ", "Adj R-square "))]
    assert len(stats) == 3
    for line in stats:
        assert line[cells_at - 1] == " " and line[cells_at] != " ", line


@pytest.mark.parametrize("x, width, decimals, text", [
    (1.23e-170, 12, 4, "1.23000e-170"),
    (-3e-9, 9, 2, "-3.00e-09"),
    (4e-5, 12, 4, "4.000000e-05"),
    (5e-5, 12, 4, "      0.0001"),  # rounds to a nonzero digit
    (0.0, 12, 4, "      0.0000"),  # an exact zero stays fixed
    (-0.0, 9, 2, "    -0.00"),
    (12.5, 12, 4, "     12.5000"),
    (7421895.41, 9, 2, "7.422e+06"),
])
def test_a_value_fixed_point_shows_as_zero_is_in_e_notation(x, width, decimals, text):
    # a tax rate times 1e-170 had a mean of 0.0000
    assert _fixed(x, width, decimals) == text
