"""Seeded benchmark inputs: synthetic assessor files at the paper's defect rate.

The paper's market collected 12,507 records and kept 12,475 after listwise
deletion, so 32 rows in every 12,507 are defective.  :func:`plan_defects`
draws that many distinct rows from the workload seed and gives each exactly
one defect of a kind ``clean()`` itemises: a blank cell, a non-positive log
source, an out-of-range condition or a negative age.  With one defect per
row, the expected ``CleanReport`` follows from the plan alone.

Non-finite cells (``nan``, ``inf``) are deliberately not injected: ``clean()``
keeps them today and ``fit`` then aborts (ROADMAP item 1).  They belong to
that item's fuzz test, not to timed inputs.

Defects are written into the CSV text, after ``write_parcels``, so the
inputs depend only on the canonical file format and not on how a
``ParcelTable`` is stored in memory.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import zoneval
from zoneval.parcels import CANONICAL_SCHEMA, LOG_SOURCE_FIELDS, NUMERIC_FIELDS

PAPER_ROWS_COLLECTED = 12507
PAPER_ROWS_DEFECTIVE = 32
TARGET_R2 = 0.895

# every zone identified at small n, so warm-up and test inputs never lose
# a dummy column (the paper's 0.15% S2 share empties it below ~5,000 rows)
BALANCED_ZONES = {"R1A": 0.3, "R1B": 0.3, "R2": 0.15, "S2": 0.05, "OTHER": 0.2}

DEFECT_KINDS = ("blank", "nonpositive", "condition_out_of_range", "negative_age")
BLANKABLE_FIELDS = ("zone",) + NUMERIC_FIELDS


@dataclass(frozen=True)
class Defect:
    row: int  # 0-based data row in the file
    field: str  # parcel field name (CANONICAL_SCHEMA key)
    kind: str
    cell: str  # replacement CSV cell; "" is a blank


def defect_count(n: int) -> int:
    return round(n * PAPER_ROWS_DEFECTIVE / PAPER_ROWS_COLLECTED)


def plan_defects(seed: int, n: int) -> tuple[Defect, ...]:
    """Deterministic defect plan for an n-row file; the four kinds take turns."""
    rng = np.random.default_rng([seed, 0xDEF])
    rows = np.sort(rng.choice(n, size=defect_count(n), replace=False))
    plan = []
    for k, row in enumerate(rows):
        kind = DEFECT_KINDS[k % len(DEFECT_KINDS)]
        if kind == "blank":
            field, cell = BLANKABLE_FIELDS[rng.integers(len(BLANKABLE_FIELDS))], ""
        elif kind == "nonpositive":
            field = LOG_SOURCE_FIELDS[rng.integers(len(LOG_SOURCE_FIELDS))]
            cell = repr(float(rng.choice([0.0, -1.0, -250.0])))
        elif kind == "condition_out_of_range":
            field, cell = "condition_pct", repr(float(rng.choice([-5.0, 100.5, 150.0])))
        else:
            field, cell = "age_years", repr(-float(rng.integers(1, 30)))
        plan.append(Defect(int(row), field, kind, cell))
    return tuple(plan)


def inject_defects(path: Path, plan: tuple[Defect, ...]) -> dict:
    """Rewrite the planned cells of a canonical parcel CSV in place.

    Returns the ``CleanReport`` fields that ``clean(load_parcels(path))``
    must reproduce.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        lines = fh.read().split("\r\n")
    header = next(csv.reader([lines[0]]))
    pin_col = header.index(CANONICAL_SCHEMA["pin"])
    dropped_pins = []
    for defect in plan:
        cells = next(csv.reader([lines[1 + defect.row]]))
        cells[header.index(CANONICAL_SCHEMA[defect.field])] = defect.cell
        buf = io.StringIO()
        csv.writer(buf, lineterminator="").writerow(cells)
        lines[1 + defect.row] = buf.getvalue()
        dropped_pins.append(cells[pin_col])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join(lines))
    n = len([line for line in lines[1:] if line])
    return {
        "rows_in": n,
        "rows_kept": n - len(plan),
        "rows_dropped": len(plan),
        "dropped_by_field": dict(Counter(d.field for d in plan)),
        "dropped_pins": dropped_pins,
    }


def market_truth(seed: int, zone_probs: dict[str, float] | None = None):
    """The generating model: reference-shaped, noise calibrated to the paper's R-square."""
    truth = zoneval.default_true_model(seed=seed, zone_probs=zone_probs)
    sigma = zoneval.calibrated_noise_sigma(truth, TARGET_R2)
    return zoneval.default_true_model(seed=seed, noise_sigma=sigma, zone_probs=zone_probs)


def write_input(path: Path, seed: int, n: int, zone_probs: dict[str, float] | None = None) -> dict:
    """Generate an n-row market, write it with ``write_parcels`` and inject
    the seed's defects.  Writes the expected clean report beside the CSV
    (``<path>.expect.json``) and returns it."""
    table, _log = zoneval.generate_parcels(market_truth(seed, zone_probs), n)
    zoneval.write_parcels(table, path)
    expected = inject_defects(path, plan_defects(seed, n))
    Path(str(path) + ".expect.json").write_text(json.dumps(expected), encoding="utf-8")
    return expected


def read_expected(path: Path) -> dict:
    return json.loads(Path(str(path) + ".expect.json").read_text(encoding="utf-8"))
