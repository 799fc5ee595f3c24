"""Report rendering in text, csv, and json.

Text output prints at fixed display precisions (estimates to 7
decimals, t to 2, R-square to 4) so side-by-side comparison against
published tables is mechanical, and a number wider than its column in
e-notation of that width; csv and json carry full double precision.

A report's json is the command's name, then its dataclass's fields in
declaration order (:func:`dump_json`); whatif's is its rows, and only
``fit`` maps its table's fields to keys by hand.  The csv rows of all
but whatif come from the row type's fields, so each report's columns
are stated once: in the row type (``CoefficientRow``, ``VariableStats``,
...).  A whatif row in csv and text is its pin plus a tail per zone pair.

The module imports no analysis module (and so no numpy) at load time:
the command line reads ``FORMATS`` from it while building its parser.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import fields, is_dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .diagnostics import DescribeReport, VarianceShare
    from .inference import InferenceTable
    from .option_value import OptionValueReport
    from .reference import ConsistencyReport

FORMATS = ("text", "csv", "json")


def _names(row_type) -> list[str]:
    return [f.name for f in fields(row_type)]


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


def _fixed(x: float, width: int, decimals: int) -> str:
    """x in fixed point, or, wider than ``width``, in e-notation that fits it
    (no digits round x to its largest exponent, so more never widen it)."""
    text = f"{x:{width}.{decimals}f}"
    return text if len(text) <= width else f"{x:{width}.{width - len(f'{x:.0e}') - 1}e}"


def _plain(obj):
    """``obj`` as json holds it: a dataclass as its fields by name, in
    declaration order, a numpy array or scalar as a list or a number, and
    nan and inf, which json lacks, as strings."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else str(obj)
    if is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if hasattr(obj, "tolist"):  # numpy's, found without importing numpy
        return _plain(obj.tolist())
    return obj


def dump_json(report, **head) -> str:
    """The json text of ``head``'s keys, then of ``report``'s: the fields of
    a dataclass, or the keys of a dict."""
    return json.dumps({**head, **_plain(report)}, indent=2) + "\n"


def _csv_string(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _csv_table(header: list[str], rows) -> str:
    """A csv report, short rows padded with empty cells to the header's width."""
    width = len(header)
    return _csv_string([header, *(row + [""] * (width - len(row)) for row in rows)])


# --- fit ------------------------------------------------------------------

def render_fit(table: InferenceTable, fmt: str = "text") -> str:
    if fmt == "json":
        return dump_json(
            {
                "command": "fit",
                "n": table.n,
                "k": table.k,
                "alpha": table.alpha,
                "exact_fit": table.exact_fit,
                "coefficients": table.rows,
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
        t_text = "   n/a" if math.isnan(r.t_value) else _fixed(r.t_value, 9, 2)
        lines.append(f"{r.label:<{width}} {_fixed(r.estimate, 12, 7)} {_fixed(r.std_error, 12, 6)} {t_text}{star}")
    f_text = "exact fit" if table.exact_fit else f"{table.f_value:.4f}"
    lines.append(f"{'F-value':<{width}} {f_text}")
    lines.append(f"{'R-square':<{width}} {table.r_squared:.4f}")
    lines.append(f"{'Adj R-square':<{width}} {table.adj_r_squared:.4f}")
    lines.append("* significant at the chosen level (two-sided)")
    return "\n".join(lines) + "\n"


# --- describe -------------------------------------------------------------

def render_describe(report: DescribeReport, fmt: str = "text") -> str:
    if fmt == "json":
        return dump_json(report, command="describe")
    if fmt == "csv":
        from .diagnostics import VariableStats

        header = ["section", *_names(VariableStats), "zoned_yes"]
        rows = [["stats", *_cells(v)] for v in report.variables]
        blank = [""] * (len(header) - 3)
        rows += [["stats", zone, *blank, str(count)] for zone, count in report.zone_counts.items()]
        for b_i, block in enumerate(report.correlation_blocks, 1):
            for i, a in enumerate(block.labels):
                for j, b in enumerate(block.labels):
                    rows.append([f"corr{b_i}", a, b, _cell(block.values[i, j])])
        return _csv_table(header, rows)

    # zone labels count too: a spec of zone dummies alone has no variables
    width = max(map(len, [*(v.label for v in report.variables), *report.zone_counts])) + 2
    lines = [
        f"Descriptive statistics (n = {report.n})",
        f"{'variable':<{width}} {'mean':>12} {'highest':>12} {'lowest':>12} {'zoned yes':>10}",
    ]
    for v in report.variables:
        cells = " ".join(_fixed(x, 12, 4) for x in (v.mean, v.highest, v.lowest))
        lines.append(f"{v.label:<{width}} {cells} {'':>10}")
    for zone, count in report.zone_counts.items():
        lines.append(f"{zone:<{width}} {'':>12} {'':>12} {'':>12} {count:>10}")
    for b_i, block in enumerate(report.correlation_blocks, 1):
        lines.append("")
        lines.append(f"Correlation block {b_i}")
        label_w = max(len(s) for s in block.labels) + 2
        header = " " * label_w + "".join(f"{s:>16}" for s in block.labels)
        lines.append(header)
        for i, a in enumerate(block.labels):
            row = "".join(f"{block.values[i, j]:16.4f}" for j in range(len(block.labels)))
            lines.append(f"{a:<{label_w}}{row}")
    for title, pairs in (
        ("High-correlation pairs (|r| at or above threshold):", report.flagged_pairs),
        ("Watchlist pairs:", report.watchlist_pairs),
    ):
        if pairs:
            lines += ["", title, *(f"  {p.a} ~ {p.b}: {p.r:.4f}" for p in pairs)]
    return "\n".join(lines) + "\n"


# --- whatif ---------------------------------------------------------------

def _csv_pin(pin: str) -> str:
    """A pin as csv.writer writes it: the row (pin, "") less its last 3 characters."""
    return pin if pin.isalnum() else _csv_string([(pin, "")])[:-3]


def _csv_tail(r: OptionValueReport) -> str:
    """A whatif csv row after its pin; an empty first cell writes the comma."""
    return _csv_string([("", *map(_cell, (r.from_zone, r.to_zone, r.delta_log, r.naive_pct, r.exact_pct)))])


def _text_tail(r: OptionValueReport) -> str:
    return f" {r.from_zone:<6} {r.to_zone:<6} {r.delta_log:11.7f} {r.naive_pct:9.2f} {r.exact_pct:9.2f}\n"


def render_whatif(reports: list[OptionValueReport], fmt: str = "csv") -> str:
    """One row per report.  In csv and text a row is its pin and a tail made
    once per key: its zones and the identities of its three floats, which
    rezone_counterfactual shares across a zone pair (0.0 and -0.0 are two)."""
    if fmt == "json":
        return dump_json({"command": "whatif", "rows": reports})
    if fmt == "text":
        head = f"{'pin':<12} {'from':<6} {'to':<6} {'delta log':>11} {'naive %':>9} {'exact %':>9}\n"
        pin_cell, tail_text = (lambda pin: pin.ljust(12)), _text_tail
    else:
        head, pin_cell, tail_text = "pin,from_zone,to_zone,delta_log,naive_pct,exact_pct\r\n", _csv_pin, _csv_tail
    parts, tails = [head], {}
    for r in reports:
        key = (r.from_zone, r.to_zone, id(r.delta_log), id(r.naive_pct), id(r.exact_pct))
        entry = tails.get(key)
        if entry is None:  # r keeps its floats alive, so no other float takes their ids
            entry = tails[key] = (tail_text(r), r)
        parts += (pin_cell(r.pin), entry[0])
    return "".join(parts)


# --- hypothesis -----------------------------------------------------------

def render_hypothesis(share: VarianceShare, fmt: str = "text") -> str:
    verdict = "MET" if share.hypothesis_met else "NOT MET"
    if fmt == "json":
        return dump_json(share, command="hypothesis")
    if fmt == "csv":
        measures = {**dict(zip(_names(share), _cells(share))), "hypothesis_met": verdict}
        return _csv_string([["measure", "value"], *measures.items()])
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
        return dump_json(report, command="reproduction-check")
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
