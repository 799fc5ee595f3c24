"""The json writer every report goes through: a report's json is its
dataclass's fields, in declaration order, whatever the report holds."""

import json
import math
from dataclasses import dataclass

import numpy as np

from zoneval.render import dump_json


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

