"""Report rendering in text, csv, and json.

Every report but whatif's is a list of sections, so a new block is one
more: a name, its rows (each a row type's instance, as a slots
``CoefficientRow``, or a tuple of values) and its text lines.  One
emitter writes text as every section's lines, or csv as a header and a
row of cells per row, padded with empty cells, after its section's name
(``fit``, ``describe``) or without it (the flat ``hypothesis`` and
``reproduction-check``).  Rows become cells only in csv: text, an int or
a flag through ``str``, any other number at full precision.  Text prints
at fixed display precisions (estimates to 7 decimals, t to 2, R-square
to 4), for comparison against published tables, and a number wider than
its column in e-notation of that width.

A report's json is the command's name, then its dataclass's fields in
declaration order (:func:`dump_json`); whatif's is its rows, and only
``fit`` maps its table's fields to keys by hand.  A whatif row in csv
and text is its pin plus a tail per zone pair.

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
    """A csv cell (see the module docstring)."""
    if isinstance(x, str):
        return x
    if isinstance(x, int):  # a bool is an int
        return str(x)
    return repr(float(x))


def _fixed(x: float, width: int, decimals: int) -> str:
    """x in fixed point, or, wider than ``width`` or showing no nonzero digit
    of a nonzero x, in e-notation that fits ``width`` (no digits round x to
    its largest exponent, so more never widen it)."""
    text = f"{x:{width}.{decimals}f}"
    shown = len(text) <= width and (x == 0.0 or text.strip(" -0."))  # a nonzero x shows a nonzero digit
    return text if shown else f"{x:{width}.{width - len(f'{x:.0e}') - 1}e}"


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


def _emit(fmt: str, columns: list[str], sections: list[tuple]) -> str:
    """A report's text or csv from its (name, rows, text lines) sections; a
    name of None is the flat csv layout (see the module docstring)."""
    if fmt == "text":
        return "".join(f"{line}\n" for _, _, text in sections for line in text)
    named = sections[0][0] is not None
    header = ["section", *columns] if named else columns
    rows = [header]
    for name, section_rows, _ in sections:
        for row in section_rows:
            values = row if isinstance(row, tuple) else [getattr(row, f.name) for f in fields(row)]
            cells = [name, *map(_cell, values)] if named else [*map(_cell, values)]
            rows.append(cells + [""] * (len(header) - len(cells)))
    return _csv_string(rows)


def _text_table(title: str, head: str, rows: list[tuple[str, str]], tail=()) -> list[str]:
    """``title``, a ``variable`` column before ``head``, and a line per (label,
    cells) of ``rows`` and ``tail``, labels two wider than the longest."""
    lines = [*rows, *tail]
    width = max(len(label) for label, _ in lines) + 2
    return [title, f"{'variable':<{width}} {head}", *(f"{label:<{width}} {cells}" for label, cells in lines)]


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
    from .inference import CoefficientRow

    rows = []
    for r in table.rows:
        t_text = f"{'n/a':>9}" if math.isnan(r.t_value) else _fixed(r.t_value, 9, 2)
        star = " *" if r.significant else ""
        rows.append((r.label, f"{_fixed(r.estimate, 12, 7)} {_fixed(r.std_error, 12, 6)} {t_text}{star}"))
    # the model's statistics print in the coefficients' label column
    text = _text_table(
        f"Log-value model fit: n = {table.n}, regressors = {table.k}, significance level = {table.alpha:g}",
        f"{'estimate':>12} {'std error':>12} {'t value':>9}",
        rows,
        [
            ("F-value", "exact fit" if table.exact_fit else f"{table.f_value:.4f}"),
            ("R-square", f"{table.r_squared:.4f}"),
            ("Adj R-square", f"{table.adj_r_squared:.4f}"),
        ],
    )
    if table.exact_fit:
        text.insert(2, "note: exact fit (zero residual variance); t and p undefined")
    text.append("* significant at the chosen level (two-sided)")
    stats = [(name, getattr(table, name)) for name in ("f_value", "r_squared", "adj_r_squared", "n")]
    return _emit(fmt, _names(CoefficientRow), [("coefficient", table.rows, text), ("stat", stats, [])])


# --- describe -------------------------------------------------------------

def render_describe(report: DescribeReport, fmt: str = "text") -> str:
    if fmt == "json":
        return dump_json(report, command="describe")
    from .diagnostics import VariableStats

    zones = report.zone_counts.items()
    stats = [(v.label, f"{_fixed(v.mean, 12, 4)} {_fixed(v.highest, 12, 4)} {_fixed(v.lowest, 12, 4)} {'':10}")
             for v in report.variables]
    # zone labels count too: a spec of zone dummies alone has no variables
    stats += ((zone, f"{'':38} {count:>10}") for zone, count in zones)
    head = f"{'mean':>12} {'highest':>12} {'lowest':>12} {'zoned yes':>10}"
    text = _text_table(f"Descriptive statistics (n = {report.n})", head, stats)
    sections = [("stats", [*report.variables, *((zone, "", "", "", count) for zone, count in zones)], text)]
    for b_i, block in enumerate(report.correlation_blocks, 1):
        labels, values = block.labels, block.values.tolist()
        width = max(map(len, labels)) + 2
        text = ["", f"Correlation block {b_i}", " " * width + "".join(f"{s:>16}" for s in labels)]
        text += (f"{a:<{width}}" + "".join(f"{r:16.4f}" for r in row) for a, row in zip(labels, values))
        pairs = [(a, b, r) for a, row in zip(labels, values) for b, r in zip(labels, row)]
        sections.append((f"corr{b_i}", pairs, text))
    for name, title, pairs in (
        ("flagged", "High-correlation pairs (|r| at or above threshold):", report.flagged_pairs),
        ("watchlist", "Watchlist pairs:", report.watchlist_pairs),
    ):
        if pairs:  # in text only
            sections.append((name, (), ["", title, *(f"  {p.a} ~ {p.b}: {p.r:.4f}" for p in pairs)]))
    return _emit(fmt, [*_names(VariableStats), "zoned_yes"], sections)


# --- whatif ---------------------------------------------------------------

def _csv_pin(pin: str) -> str:
    """A pin as csv.writer writes it: the row (pin, "") less its last 3 characters."""
    return pin if pin.isalnum() else _csv_string([(pin, "")])[:-3]


def _csv_tail(r: OptionValueReport) -> str:
    """A whatif csv row after its pin; an empty first cell writes the comma."""
    return _csv_string([("", *map(_cell, (r.from_zone, r.to_zone, r.delta_log, r.naive_pct, r.exact_pct)))])


def _text_tail(r: OptionValueReport) -> str:
    return (
        f" {r.from_zone:<6} {r.to_zone:<6} {_fixed(r.delta_log, 11, 7)} "
        f"{_fixed(r.naive_pct, 9, 2)} {_fixed(r.exact_pct, 9, 2)}\n"
    )


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
    if fmt == "json":
        return dump_json(share, command="hypothesis")
    verdict = "MET" if share.hypothesis_met else "NOT MET"
    measures = {f.name: getattr(share, f.name) for f in fields(share)} | {"hypothesis_met": verdict}
    text = [
        "Zoning variance share",
        f"R-square, full model          {share.r2_full:.4f}",
        f"R-square, zoning only         {share.r2_zoning:.4f}",
        f"share (zoning / full)         {share.zoning_share:.4f}",
        f"R-square without zoning       {share.r2_without_zoning:.4f}",
        f"delta R-square (attribution)  {share.delta_r2:.4f}",
        f"hypothesis (share > 0.5): {verdict}",
    ]
    return _emit(fmt, ["measure", "value"], [(None, measures.items(), text)])


# --- reproduction check ---------------------------------------------------

def render_consistency(report: ConsistencyReport, fmt: str = "text") -> str:
    if fmt == "json":
        return dump_json(report, command="reproduction-check")
    from .reference import T_MATCH_TOLERANCE, ConsistencyRow

    text = _text_table(
        "Reference-table consistency check (t = estimate / std error)",
        f"{'estimate':>12} {'std error':>12} {'published t':>12} {'recomputed t':>13}",
        [
            (r.label, f"{r.estimate:12.7f} {r.std_error:12.6f} {r.published_t:12.2f} {r.recomputed_t:13.2f}  "
                      f"{'ok' if r.matches else 'ANOMALY'}")
            for r in report.rows
        ],
    )
    text += [
        f"verdict: {report.n_matching} of {len(report.rows)} rows match within {T_MATCH_TOLERANCE:g}; "
        f"anomalies: {', '.join(report.anomalies) or 'none'}",
        "note: published adjusted R-square and F are not recoverable from the "
        f"published R-square and sample size (formula gives adj "
        f"{report.adj_r_squared_from_formula:.4f}, F {report.f_value_from_formula:.4f})",
    ]
    return _emit(fmt, _names(ConsistencyRow), [(None, report.rows, text)])
