"""Golden outputs: every report command, in every format, on one fixed-seed
market (seed 61, 2,500 rows, balanced zones); and ``fit``, ``describe``
and ``whatif`` under a second spec (``SPEC_TERMS``: every transform kind,
S2 the omitted zone) on a second market (seed 60, 2,500 rows, the default
zone mix) that carries a defect for every cleaning rule a loaded file can
trigger, plus that market's default-spec ``fit`` and ``hypothesis``'s
refusal of ``--spec``.  The second market's numbers are written at two
decimals, as an assessor export would, so its bytes do not move with the
generator's last bits.

Text reports must match their golden file byte for byte, and so must the
second market's whatif csv.  Other csv and json reports are parsed:
labels, pins and verdicts must match exactly and floats within
GOLDEN_REL_TOL relative, so a change of factorization that moves only the
last digits of ``repr`` still passes.

After an intended change of output, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

It writes a golden only when the file is missing or the fresh output
fails that file's test comparison, and prints the path of each file it
wrote, so float noise within GOLDEN_REL_TOL leaves the files as they are.
"""

import contextlib
import csv
import gzip
import io
import json
import math
import sys
from pathlib import Path

import pytest

from zoneval.cli import main
from zoneval.parcels import _RULES, LOG_SOURCE_FIELDS, NUMERIC_FIELDS, _defect_masks, load_parcels, write_parcels
from zoneval.synth import default_true_model, generate_parcels

from conftest import BALANCED_ZONES
from test_cli import CORRUPTIONS, FIELDS, corrupt

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_REL_TOL = 1e-10
MARKET = "market.csv"
DEFECTS = "defects.csv"
SPEC = "spec.txt"
FORMATS = ("text", "csv", "json")
SUFFIX = {"text": "txt", "csv": "csv", "json": "json"}

COMMANDS = {
    "fit": ["fit", "--input", MARKET],
    "describe": ["describe", "--input", MARKET],
    "hypothesis": ["hypothesis", "--input", MARKET],
    "whatif_R1A": ["whatif", "--input", MARKET, "--to-zone", "R1A"],
    "reproduction_check": ["reproduction-check"],
    "defects_fit": ["fit", "--input", DEFECTS, "--spec", SPEC],
    "defects_describe": ["describe", "--input", DEFECTS, "--spec", SPEC],
    "defects_whatif_R1A": ["whatif", "--input", DEFECTS, "--spec", SPEC, "--to-zone", "R1A"],
    "defects_fit_default_spec": ["fit", "--input", DEFECTS],
}
# whatif reports carry one line per parcel; their goldens are gzipped
LARGE = {"whatif_R1A", "defects_whatif_R1A"}
# csv reports compared byte for byte
BYTE_EXACT = {"defects_whatif_R1A"}
# a command that fails, and the golden of its stderr
REFUSAL = ["hypothesis", "--input", DEFECTS, "--spec", SPEC]
REFUSAL_GOLDEN = GOLDEN_DIR / "defects_hypothesis_spec.stderr.txt"

# every transform kind; the dummies leave out S2, so OTHER gets one
SPEC_TERMS = (
    "term R1A zone dummy:R1A",
    "term R1B zone dummy:R1B",
    "term R2 zone dummy:R2",
    "term OTHER zone dummy:OTHER",
    "term log(lotsqfeet) lot_sqft log",
    "term log(totbldgft) total_bldg_sqft log",
    "term bathrooms bathrooms identity",
    "term age age_years identity",
    "term age^2 age_years square",
    "term good_condition condition_pct threshold:40",
    "term taxrate tax_rate_pct identity",
)

# (kind, field) of each corruption of the second market, one row each, of
# test_cli's kinds but the fatal duplicate_pin: a blank cell in every field, a
# nan or inf in every number, a negative where a rule forbids one and in the
# tax rate, where none does, an unknown zone (read as OTHER), a short row and
# an age whose square overflows
_DEFECT_CELLS = (
    [("blank", name) for name in FIELDS[1:]]
    + [("inf" if j % 2 else "nan", name) for j, name in enumerate(NUMERIC_FIELDS)]
    + [("negative", name) for name in (*LOG_SOURCE_FIELDS, "age_years", "condition_pct", "tax_rate_pct")]
    + [("unknown_zone", "zone"), ("short_row", "condition_pct"), ("overflowing_age", "age_years")]
)
DEFECT_PLAN = tuple((kind, 40 + 75 * i, name) for i, (kind, name) in enumerate(_DEFECT_CELLS))


def golden_path(name: str, fmt: str) -> Path:
    path = GOLDEN_DIR / f"{name}.{SUFFIX[fmt]}"
    return path.with_name(path.name + ".gz") if name in LARGE else path


def read_golden(name: str, fmt: str) -> str:
    path = golden_path(name, fmt)
    data = gzip.decompress(path.read_bytes()) if name in LARGE else path.read_bytes()
    return data.decode("utf-8")


def write_markets(workdir: Path) -> None:
    """Write both markets and the second spec into ``workdir``."""
    truth = default_true_model(seed=61, noise_sigma=0.2, zone_probs=dict(BALANCED_ZONES))
    table, _ = generate_parcels(truth, 2500)
    write_parcels(table, workdir / MARKET)

    table, _ = generate_parcels(default_true_model(seed=60), 2500)
    write_parcels(table, workdir / DEFECTS)
    lines = [line.split(",") for line in (workdir / DEFECTS).read_text(encoding="utf-8").splitlines()]
    for cells in lines[1:]:
        cells[1:] = [cell if j == 1 else f"{float(cell):.2f}" for j, cell in enumerate(cells[1:])]  # j 1: zone
    corrupt(lines, DEFECT_PLAN, None)
    (workdir / DEFECTS).write_text("".join(",".join(cells) + "\n" for cells in lines), encoding="utf-8")
    (workdir / SPEC).write_text("\n".join(SPEC_TERMS) + "\n", encoding="utf-8")


def refusal() -> str:
    """Run REFUSAL, which must fail, and return its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(REFUSAL) == 1
    return err.getvalue()


def render(workdir: Path, name: str, fmt: str) -> str:
    """Run one command in ``workdir`` (where the market file lives) and
    return its report."""
    out = workdir / f"{name}.{SUFFIX[fmt]}.out"
    assert main([*COMMANDS[name], "--format", fmt, "--output", str(out)]) == 0
    return out.read_bytes().decode("utf-8")


def close(got: float, want: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return got == want or abs(got - want) <= GOLDEN_REL_TOL * abs(want)


def same_cell(got: str, want: str) -> bool:
    try:
        return close(float(got), float(want))
    except ValueError:
        return got == want


def same_json(got, want) -> bool:
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            same_json(got[k], want[k]) for k in want
        )
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(same_json, got, want))
    if isinstance(want, float) and type(got) in (int, float):
        return close(float(got), want)
    return type(got) is type(want) and got == want


def csv_mismatches(got: str, want: str) -> list[str]:
    got_rows = list(csv.reader(io.StringIO(got)))
    want_rows = list(csv.reader(io.StringIO(want)))
    if len(got_rows) != len(want_rows):
        return [f"{len(got_rows)} rows, golden has {len(want_rows)}"]
    return [
        f"row {i + 1}: {g} != golden {w}"
        for i, (g, w) in enumerate(zip(got_rows, want_rows))
        if len(g) != len(w) or not all(map(same_cell, g, w))
    ]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("golden")
    write_markets(path)
    return path


@pytest.fixture(autouse=True)
def in_workdir(workdir, monkeypatch):
    # the fit report names its input; a relative path keeps it fixed
    monkeypatch.chdir(workdir)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_text_is_byte_identical(workdir, name):
    assert render(workdir, name, "text") == read_golden(name, "text")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_csv_matches(workdir, name):
    got, want = render(workdir, name, "csv"), read_golden(name, "csv")
    if name in BYTE_EXACT:
        assert got == want
    else:
        assert csv_mismatches(got, want)[:5] == []


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_json_matches(workdir, name):
    assert same_json(json.loads(render(workdir, name, "json")), json.loads(read_golden(name, "json")))


def key_orders(text: str) -> list[list[str]]:
    """The keys of every json object in ``text``, innermost first, in order."""
    orders = []

    def keep(pairs):
        orders.append([key for key, _ in pairs])
        return dict(pairs)

    json.loads(text, object_pairs_hook=keep)
    return orders


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_json_keys_come_in_the_golden_order(workdir, name):
    assert key_orders(render(workdir, name, "json")) == key_orders(read_golden(name, "json"))


# a table ends at a blank line, at fit's statistics or at the consistency
# verdict; a row may carry a flag after its last column
TABLE_ENDS = ("F-value ", "verdict: ")
ROW_FLAGS = (" *", "  ok", "  ANOMALY")


def text_table(text: str) -> tuple[str, list[str]]:
    """The column head of a text report's first table, and its rows less
    their flags."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(("variable ", "pin ")))
    rows = []
    for line in lines[start + 1 :]:
        if not line or line.startswith(TABLE_ENDS):
            break
        if not line.startswith("note: "):
            rows.append(next((line[: -len(flag)] for flag in ROW_FLAGS if line.endswith(flag)), line))
    return lines[start], rows


@pytest.mark.parametrize("name", sorted(set(COMMANDS) - {"hypothesis"}))
def test_every_text_row_is_as_wide_as_its_column_head(workdir, name):
    head, rows = text_table(render(workdir, name, "text"))
    assert rows and [row for row in rows if len(row) != len(head)] == []


@pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", ["defects_fit", "defects_describe"])
def test_defects_reports_hold_under_every_line_end(workdir, tmp_path, monkeypatch, name, fmt, line_end):
    # the second market is written with \n; the loader reads a file whose
    # header ends in a lone \r as text, and any other in binary
    (tmp_path / SPEC).write_bytes((workdir / SPEC).read_bytes())
    (tmp_path / DEFECTS).write_bytes((workdir / DEFECTS).read_bytes().replace(b"\n", line_end.encode()))
    monkeypatch.chdir(tmp_path)
    assert passes(name, fmt, render(tmp_path, name, fmt))


def test_hypothesis_refuses_a_spec_in_one_line(workdir):
    assert refusal() == REFUSAL_GOLDEN.read_text(encoding="utf-8")


def test_defects_fire_every_rule_a_loaded_file_can_trigger(workdir):
    assert {kind for kind, *_ in DEFECT_PLAN} == set(CORRUPTIONS) - {"duplicate_pin"}
    fired = {(name, reason) for name, reason, mask in _defect_masks(load_parcels(workdir / DEFECTS)) if mask.any()}
    # the loader reads an unknown zone cell as OTHER
    assert fired == {(name, reason) for name, reason, *_ in _RULES} - {("zone", "unknown zone")}


def test_comparison_flags_a_perturbed_float_and_a_changed_label():
    assert same_cell("0.1234567890123", "0.1234567890124")
    assert not same_cell("0.123456789", "0.123456790")
    assert not same_cell("R1A", "R1B")
    assert not same_json({"x": [1.0, "MET"]}, {"x": [1.0, "NOT MET"]})
    assert not same_json({"x": 1.0 + 1e-8}, {"x": 1.0})
    assert not same_json({"ok": 1}, {"ok": True})


def passes(name: str, fmt: str, got: str) -> bool:
    """Whether ``got`` passes the tests' comparison with its golden."""
    want = read_golden(name, fmt)
    if fmt == "text" or (fmt == "csv" and name in BYTE_EXACT):
        return got == want
    if fmt == "csv":
        return csv_mismatches(got, want) == []
    return same_json(json.loads(got), json.loads(want)) and key_orders(got) == key_orders(want)


def regenerate() -> None:
    """Write each golden that is missing or that its fresh output fails,
    and print its path."""
    import os
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        write_markets(workdir)
        os.chdir(workdir)
        for name in COMMANDS:
            for fmt in FORMATS:
                path, got = golden_path(name, fmt), render(workdir, name, fmt)
                if path.exists() and passes(name, fmt, got):
                    continue
                data = got.encode("utf-8")
                path.write_bytes(gzip.compress(data, mtime=0) if name in LARGE else data)
                print(path)
        got = refusal()
        if not REFUSAL_GOLDEN.exists() or REFUSAL_GOLDEN.read_text(encoding="utf-8") != got:
            REFUSAL_GOLDEN.write_text(got, encoding="utf-8")
            print(REFUSAL_GOLDEN)


if __name__ == "__main__":
    sys.exit(regenerate())
