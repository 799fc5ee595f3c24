"""Independent references for cross-checking the package's fast paths.

``solve_normal_equations_oracle`` solves the normal equations by Cholesky.
It is numerically inferior to the package's pivoted QR on collinear
designs, which is why it lives here and not in ``zoneval``.

``write_parcels_oracle`` writes every row of a parcel table through
``csv.writer``; ``write_parcels`` must give the same bytes.
``load_parcels_oracle`` reads every record through ``csv.reader`` into a
``Parcel``; ``load_parcels`` must give the same table or the same error.
"""

import csv
from pathlib import Path

import numpy as np

from zoneval.lstsq import LeastSquaresError, LsFit, _check_inputs
from zoneval.parcels import (
    CANONICAL_SCHEMA,
    RESIDENTIAL_ZONES,
    Parcel,
    ParcelError,
    ParcelTable,
    SchemaError,
)


def solve_normal_equations_oracle(X: np.ndarray, y: np.ndarray) -> LsFit:
    """Brute-force reference: b = (X^T X)^-1 X^T y via Cholesky."""
    X, y = _check_inputs(X, y)
    n, p = X.shape
    try:
        chol = np.linalg.cholesky(X.T @ X)
    except np.linalg.LinAlgError as exc:
        raise LeastSquaresError(f"singular normal equations: {exc}") from exc
    chol_inv = np.linalg.inv(chol)
    xtx_inverse = chol_inv.T @ chol_inv
    beta = xtx_inverse @ (X.T @ y)
    fitted = X @ beta
    residuals = y - fitted
    return LsFit(
        coefficients=beta,
        residuals=residuals,
        fitted=fitted,
        rank=p,
        rss=float(residuals @ residuals),
        xtx_inverse=xtx_inverse,
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
