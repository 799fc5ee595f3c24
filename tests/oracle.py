"""Independent references for cross-checking the package's fast paths.

``solve_normal_equations_oracle`` solves the normal equations by Cholesky.
It is numerically inferior to the package's pivoted QR on collinear
designs, which is why it lives here and not in ``zoneval``.

``write_parcels_oracle`` writes every row of a parcel table through
``csv.writer``; ``write_parcels`` must give the same bytes.
``load_parcels_oracle`` reads every record through ``csv.reader`` into a
``Parcel``; ``load_parcels`` must give the same table or the same error.
``itemised_defects`` states the cleaning rules row by row, and
``clean_row_by_row`` applies them to each row of a plain sequence of
parcels, whose zones are plain strings; ``clean`` must give the same
report and keep the same rows.
"""

import csv
import math
from pathlib import Path

import numpy as np

from zoneval import ZONES
from zoneval.lstsq import LeastSquaresError, LsFit, _check_inputs
from zoneval.parcels import (
    CANONICAL_SCHEMA,
    LOG_SOURCE_FIELDS,
    RESIDENTIAL_ZONES,
    Parcel,
    ParcelError,
    ParcelTable,
    SchemaError,
)


def solve_normal_equations_oracle(X: np.ndarray, y: np.ndarray) -> LsFit:
    """Brute-force reference: b = (X^T X)^-1 X^T y via Cholesky."""
    X, y, _scales = _check_inputs(X, y)
    n, p = X.shape
    try:
        chol = np.linalg.cholesky(X.T @ X)
    except np.linalg.LinAlgError as exc:
        raise LeastSquaresError(f"singular normal equations: {exc}") from exc
    chol_inv = np.linalg.inv(chol)
    xtx_inverse = chol_inv.T @ chol_inv
    beta = xtx_inverse @ (X.T @ y)
    # rss from the residual vector, independent of the solver's triangle
    residuals = y - X @ beta
    return LsFit(
        coefficients=beta,
        rss=float(residuals @ residuals),
        scaled_inverse=xtx_inverse,  # of X unscaled
        scales=np.ones(p),
        dof=n - p,
    )


def write_parcels_oracle(table, path) -> None:
    """Reference writer: the header and every row through ``csv.writer``,
    which writes a float as its ``repr``, a missing cell (None) as an
    empty one and quotes any cell that needs it."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CANONICAL_SCHEMA.values())
        writer.writerows([getattr(parcel, name) for name in CANONICAL_SCHEMA] for parcel in table)


def _parse_cell(cell: str) -> float | None:
    """A numeric cell: None when blank or unparseable."""
    cell = cell.strip()
    if not cell:
        return None
    try:
        return float(cell)
    except ValueError:
        return None


def _parse_zone(cell: str) -> str | None:
    """A zone cell: None when blank, else a residential zone (any case)
    or "OTHER"."""
    zone = cell.strip().upper()
    if not zone:
        return None
    return zone if zone in RESIDENTIAL_ZONES else "OTHER"


def load_parcels_oracle(path) -> ParcelTable:
    """Reference loader: the header and then every record through one
    ``csv.reader``, a ``Parcel`` per non-empty record, and the table
    built from the rows.  A record's error cites the line after the one
    the reader had reached before reading it, which is the record's
    first line."""
    path = Path(path)
    rows = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        first_line = 1
        try:
            header = next(reader, None)
            if header is None:
                raise SchemaError(f"{path}: no header row")
            index = {name: i for i, name in enumerate(header)}
            for column in CANONICAL_SCHEMA.values():
                if column not in index:
                    raise SchemaError(f"{path}: missing mapped column {column!r}")
            first_line = reader.line_num + 1
            for record in reader:
                if record:
                    cells = {
                        name: record[index[column]] if index[column] < len(record) else ""
                        for name, column in CANONICAL_SCHEMA.items()
                    }
                    pin = cells.pop("pin").strip()
                    if not pin:
                        raise ParcelError(f"{path}: line {first_line}: empty pin")
                    zone = _parse_zone(cells.pop("zone"))
                    rows.append(Parcel(pin, zone=zone, **{name: _parse_cell(cell) for name, cell in cells.items()}))
                first_line = reader.line_num + 1
        except csv.Error as exc:
            raise ParcelError(f"{path}: line {first_line}: {exc}") from None
    return ParcelTable(rows)


def itemised_defects(parcel):
    """The oracle: the cleaning rules stated row by row, field by field."""
    defects = []
    for name in list(CANONICAL_SCHEMA)[1:]:
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
    elif "age_years" not in defective and not math.isfinite(parcel.age_years * parcel.age_years):
        defects.append(("age_years", "square overflows"))
    if "zone" not in defective and parcel.zone not in ZONES:
        defects.append(("zone", "unknown zone"))
    return defects


def clean_row_by_row(rows):
    """The reference: the oracle's rules on every parcel of ``rows`` (a
    table or a sequence of parcels), in order: the kept pins, the dropped
    pins and each field's dropped rows in the order the rows first meet it."""
    kept, dropped, by_field = [], [], {}
    for parcel in rows:
        defects = itemised_defects(parcel)
        (dropped if defects else kept).append(parcel.pin)
        for name, _reason in defects:
            by_field[name] = by_field.get(name, 0) + 1
    return tuple(kept), tuple(dropped), list(by_field.items())
