"""Golden outputs: every report command, in every format, on one fixed-seed
market (seed 61, 2,500 rows, balanced zones).

Text reports must match their golden file byte for byte.  csv and json
reports are parsed: labels, pins and verdicts must match exactly and
floats within GOLDEN_REL_TOL relative, so a change of factorization that
moves only the last digits of ``repr`` still passes.

After an intended change of output, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import gzip
import io
import json
import math
import sys
from pathlib import Path

import pytest

from zoneval.cli import main
from zoneval.parcels import write_parcels
from zoneval.synth import default_true_model, generate_parcels

from conftest import BALANCED_ZONES

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_REL_TOL = 1e-10
MARKET = "market.csv"
FORMATS = ("text", "csv", "json")
SUFFIX = {"text": "txt", "csv": "csv", "json": "json"}

COMMANDS = {
    "fit": ["fit", "--input", MARKET],
    "describe": ["describe", "--input", MARKET],
    "hypothesis": ["hypothesis", "--input", MARKET],
    "whatif_R1A": ["whatif", "--input", MARKET, "--to-zone", "R1A"],
    "reproduction_check": ["reproduction-check"],
}
# whatif reports carry one line per parcel; their goldens are gzipped
LARGE = {"whatif_R1A"}


def golden_path(name: str, fmt: str) -> Path:
    path = GOLDEN_DIR / f"{name}.{SUFFIX[fmt]}"
    return path.with_name(path.name + ".gz") if name in LARGE else path


def read_golden(name: str, fmt: str) -> str:
    path = golden_path(name, fmt)
    data = gzip.decompress(path.read_bytes()) if name in LARGE else path.read_bytes()
    return data.decode("utf-8")


def write_market(workdir: Path) -> None:
    truth = default_true_model(seed=61, noise_sigma=0.2, zone_probs=dict(BALANCED_ZONES))
    table, _ = generate_parcels(truth, 2500)
    write_parcels(table, workdir / MARKET)


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
    write_market(path)
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
    assert csv_mismatches(render(workdir, name, "csv"), read_golden(name, "csv"))[:5] == []


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


def test_comparison_flags_a_perturbed_float_and_a_changed_label():
    assert same_cell("0.1234567890123", "0.1234567890124")
    assert not same_cell("0.123456789", "0.123456790")
    assert not same_cell("R1A", "R1B")
    assert not same_json({"x": [1.0, "MET"]}, {"x": [1.0, "NOT MET"]})
    assert not same_json({"x": 1.0 + 1e-8}, {"x": 1.0})
    assert not same_json({"ok": 1}, {"ok": True})


def regenerate() -> None:
    import os
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        write_market(workdir)
        os.chdir(workdir)
        for name in COMMANDS:
            for fmt in FORMATS:
                data = render(workdir, name, fmt).encode("utf-8")
                if name in LARGE:
                    data = gzip.compress(data, mtime=0)
                golden_path(name, fmt).write_bytes(data)
                print(golden_path(name, fmt))


if __name__ == "__main__":
    sys.exit(regenerate())
