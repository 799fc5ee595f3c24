"""Report rendering in text, csv, and json.

Text output prints at fixed display precisions (estimates to 7
decimals, t to 2, R-square to 4) so side-by-side comparison against
published tables is mechanical; csv and json carry full double
precision.

The csv and json rows of a report come from its row type's fields, in
declaration order, so each report's columns are stated once: in the row
type (``CoefficientRow``, ``VariableStats``, ``OptionValueReport``, ...).

The module imports no analysis module (and so no numpy) at load time:
the command line reads ``FORMATS`` from it while building its parser.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import fields
from operator import attrgetter
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .diagnostics import CorrMatrix, StatsTable, VarianceShare
    from .inference import InferenceTable
    from .option_value import OptionValueReport
    from .reference import ConsistencyReport

FORMATS = ("text", "csv", "json")


def _names(row_type) -> list[str]:
    return [f.name for f in fields(row_type)]


def _record(row) -> dict:
    """A row as its json object: field name to value, in declaration order."""
    return {f.name: getattr(row, f.name) for f in fields(row)}


def _cell(x) -> str:
    """A csv cell: text as it is, a flag as True/False, a number at full
    precision."""
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return str(x)
    return repr(float(x))


def _cells(row) -> list[str]:
    return [_cell(getattr(row, f.name)) for f in fields(row)]


def _dump_json(payload) -> str:
    def clean(obj):
        if isinstance(obj, dict):
            return {k: clean(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [clean(v) for v in obj]
        # json has no nan or inf; they are written as strings
        return str(obj) if isinstance(obj, float) and not math.isfinite(obj) else obj

    return json.dumps(clean(payload), indent=2) + "\n"


def _csv_string(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerows(rows)
    return buf.getvalue()


def _csv_table(header: list[str], rows) -> str:
    """A csv report, short rows padded with empty cells to the header's width."""
    width = len(header)
    return _csv_string([header, *(row + [""] * (width - len(row)) for row in rows)])


# --- fit ------------------------------------------------------------------

def render_fit(table: InferenceTable, fmt: str = "text") -> str:
    if fmt == "json":
        return _dump_json(
            {
                "command": "fit",
                "n": table.n,
                "k": table.k,
                "alpha": table.alpha,
                "exact_fit": table.exact_fit,
                "coefficients": [_record(r) for r in table.rows],
                "f_value": table.f_value,
                "r_squared": table.r_squared,
                "adj_r_squared": table.adj_r_squared,
                "sigma2_hat": table.sigma2_hat,
            }
        )
    if fmt == "csv":
        from .inference import CoefficientRow

        rows = [["coefficient", *_cells(r)] for r in table.rows]
        for name in ("f_value", "r_squared", "adj_r_squared"):
            rows.append(["stat", name, _cell(getattr(table, name))])
        rows.append(["stat", "n", str(table.n)])
        return _csv_table(["section", *_names(CoefficientRow)], rows)

    width = max(len(r.label) for r in table.rows) + 2
    lines = [
        f"Log-value model fit: n = {table.n}, regressors = {table.k}, "
        f"significance level = {table.alpha:g}",
        f"{'variable':<{width}} {'estimate':>12} {'std error':>12} {'t value':>9}",
    ]
    if table.exact_fit:
        lines.append("note: exact fit (zero residual variance); t and p undefined")
    for r in table.rows:
        star = " *" if r.significant else ""
        t_text = "   n/a" if math.isnan(r.t_value) else f"{r.t_value:9.2f}"
        lines.append(f"{r.label:<{width}} {r.estimate:12.7f} {r.std_error:12.6f} {t_text}{star}")
    f_text = "exact fit" if table.exact_fit else f"{table.f_value:.4f}"
    lines.append(f"{'F-value':<{width}} {f_text}")
    lines.append(f"{'R-square':<{width}} {table.r_squared:.4f}")
    lines.append(f"{'Adj R-square':<{width}} {table.adj_r_squared:.4f}")
    lines.append("* significant at the chosen level (two-sided)")
    return "\n".join(lines) + "\n"


# --- describe -------------------------------------------------------------

def render_describe(
    stats: StatsTable,
    blocks: list[CorrMatrix],
    flagged: list[tuple[str, str, float]],
    watchlist: list[tuple[str, str, float]],
    fmt: str = "text",
) -> str:
    if fmt == "json":
        return _dump_json(
            {
                "command": "describe",
                "n": stats.n,
                "variables": [_record(v) for v in stats.variables],
                "zone_counts": stats.zone_counts,
                "correlation_blocks": [
                    {"labels": list(b.labels), "values": [list(map(float, row)) for row in b.values]}
                    for b in blocks
                ],
                "flagged_pairs": [{"a": a, "b": b, "r": r} for a, b, r in flagged],
                "watchlist_pairs": [{"a": a, "b": b, "r": r} for a, b, r in watchlist],
            }
        )
    if fmt == "csv":
        from .diagnostics import VariableStats

        header = ["section", *_names(VariableStats), "zoned_yes"]
        rows = [["stats", *_cells(v)] for v in stats.variables]
        blank = [""] * (len(header) - 3)
        rows += [["stats", zone, *blank, str(count)] for zone, count in stats.zone_counts.items()]
        for b_i, block in enumerate(blocks, 1):
            for i, a in enumerate(block.labels):
                for j, b in enumerate(block.labels):
                    rows.append([f"corr{b_i}", a, b, _cell(block.values[i, j])])
        return _csv_table(header, rows)

    # zone labels count too: a spec of zone dummies alone has no variables
    width = max(map(len, [*(v.label for v in stats.variables), *stats.zone_counts])) + 2
    lines = [
        f"Descriptive statistics (n = {stats.n})",
        f"{'variable':<{width}} {'mean':>12} {'highest':>12} {'lowest':>12} {'zoned yes':>10}",
    ]
    for v in stats.variables:
        lines.append(f"{v.label:<{width}} {v.mean:12.4f} {v.highest:12.4f} {v.lowest:12.4f} {'':>10}")
    for zone, count in stats.zone_counts.items():
        lines.append(f"{zone:<{width}} {'':>12} {'':>12} {'':>12} {count:>10}")
    for b_i, block in enumerate(blocks, 1):
        lines.append("")
        lines.append(f"Correlation block {b_i}")
        label_w = max(len(s) for s in block.labels) + 2
        header = " " * label_w + "".join(f"{s:>16}" for s in block.labels)
        lines.append(header)
        for i, a in enumerate(block.labels):
            row = "".join(f"{block.values[i, j]:16.4f}" for j in range(len(block.labels)))
            lines.append(f"{a:<{label_w}}{row}")
    if flagged:
        lines.append("")
        lines.append("High-correlation pairs (|r| at or above threshold):")
        for a, b, r in flagged:
            lines.append(f"  {a} ~ {b}: {r:.4f}")
    if watchlist:
        lines.append("")
        lines.append("Watchlist pairs:")
        for a, b, r in watchlist:
            lines.append(f"  {a} ~ {b}: {r:.4f}")
    return "\n".join(lines) + "\n"


# --- whatif ---------------------------------------------------------------

_tail_key = attrgetter("from_zone", "to_zone", "delta_log", "naive_pct", "exact_pct")


def render_whatif(reports: list[OptionValueReport], fmt: str = "csv") -> str:
    if fmt == "json":
        return _dump_json({"command": "whatif", "rows": [_record(r) for r in reports]})
    if fmt == "text":
        lines = [f"{'pin':<12} {'from':<6} {'to':<6} {'delta log':>11} {'naive %':>9} {'exact %':>9}"]
        for r in reports:
            lines.append(
                f"{r.pin:<12} {r.from_zone:<6} {r.to_zone:<6} "
                f"{r.delta_log:11.7f} {r.naive_pct:9.2f} {r.exact_pct:9.2f}"
            )
        return "\n".join(lines) + "\n"

    # A row is its pin and a tail of five cells that rezoning gives every
    # parcel of a zone pair, so each distinct tail is formatted once and the
    # rows stream into one buffer.  Tails are keyed by value, and 0.0 equals
    # -0.0, so a cached tail is reused only for the very float objects it
    # was formatted from (rezone_counterfactual shares them per pair).
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(("pin", "from_zone", "to_zone", "delta_log", "naive_pct", "exact_pct"))
    write = buf.write
    # tail key -> (its three floats, its cells as text, its csv text after the pin)
    tails = {}
    for r in reports:
        key = _tail_key(r)
        entry = tails.get(key)
        if entry is None or entry[0] is not key[2] or entry[1] is not key[3] or entry[2] is not key[4]:
            cells = (r.from_zone, r.to_zone, repr(float(r.delta_log)), repr(float(r.naive_pct)),
                     repr(float(r.exact_pct)))
            # an empty first cell writes the comma that follows the pin
            entry = tails[key] = (*key[2:], cells, _csv_string([("", *cells)]))
        pin = r.pin
        if pin.isalnum():
            write(pin + entry[4])
        else:
            # a pin that may need quoting goes through the writer
            writer.writerow((pin, *entry[3]))
    return buf.getvalue()


# --- hypothesis -----------------------------------------------------------

def render_hypothesis(share: VarianceShare, fmt: str = "text") -> str:
    verdict = "MET" if share.hypothesis_met else "NOT MET"
    if fmt == "json":
        return _dump_json({"command": "hypothesis", **_record(share)})
    if fmt == "csv":
        measures = {**_record(share), "hypothesis_met": verdict}
        return _csv_string([["measure", "value"], *([name, _cell(v)] for name, v in measures.items())])
    return (
        "Zoning variance share\n"
        f"R-square, full model          {share.r2_full:.4f}\n"
        f"R-square, zoning only         {share.r2_zoning:.4f}\n"
        f"share (zoning / full)         {share.zoning_share:.4f}\n"
        f"R-square without zoning       {share.r2_without_zoning:.4f}\n"
        f"delta R-square (attribution)  {share.delta_r2:.4f}\n"
        f"hypothesis (share > 0.5): {verdict}\n"
    )


# --- reproduction check ---------------------------------------------------

def render_consistency(report: ConsistencyReport, fmt: str = "text") -> str:
    if fmt == "json":
        return _dump_json(
            {
                "command": "reproduction-check",
                "rows": [_record(r) for r in report.rows],
                "n_matching": report.n_matching,
                "anomalies": list(report.anomalies),
                "adj_r_squared_from_formula": report.adj_r_squared_from_formula,
                "f_value_from_formula": report.f_value_from_formula,
                "ok": report.ok,
            }
        )
    from .reference import T_MATCH_TOLERANCE, ConsistencyRow

    if fmt == "csv":
        return _csv_string([_names(ConsistencyRow), *map(_cells, report.rows)])

    width = max(len(r.label) for r in report.rows) + 2
    lines = [
        "Reference-table consistency check (t = estimate / std error)",
        f"{'variable':<{width}} {'estimate':>12} {'std error':>12} {'published t':>12} {'recomputed t':>13}",
    ]
    for r in report.rows:
        mark = "ok" if r.matches else "ANOMALY"
        lines.append(
            f"{r.label:<{width}} {r.estimate:12.7f} {r.std_error:12.6f} "
            f"{r.published_t:12.2f} {r.recomputed_t:13.2f}  {mark}"
        )
    lines.append(
        f"verdict: {report.n_matching} of {len(report.rows)} rows match within {T_MATCH_TOLERANCE:g}; "
        f"anomalies: {', '.join(report.anomalies) or 'none'}"
    )
    lines.append(
        "note: published adjusted R-square and F are not recoverable from the "
        f"published R-square and sample size (formula gives adj "
        f"{report.adj_r_squared_from_formula:.4f}, F {report.f_value_from_formula:.4f})"
    )
    return "\n".join(lines) + "\n"
