"""Report rendering in text, csv, and json.

Text output prints at fixed display precisions (estimates to 7
decimals, t to 2, R-square to 4) so side-by-side comparison against
published tables is mechanical; csv and json carry full double
precision.
"""

from __future__ import annotations

import csv
import io
import json
import math

from .diagnostics import CorrMatrix, StatsTable, VarianceShare
from .inference import InferenceTable
from .option_value import OptionValueReport, option_value_csv_rows
from .reference import ConsistencyReport

FORMATS = ("text", "csv", "json")


def _full(x: float) -> str:
    return repr(float(x))


def _json_safe(x):
    if isinstance(x, float) and not math.isfinite(x):
        return str(x)
    return x


def _dump_json(payload) -> str:
    def clean(obj):
        if isinstance(obj, dict):
            return {k: clean(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [clean(v) for v in obj]
        return _json_safe(obj)

    return json.dumps(clean(payload), indent=2) + "\n"


def _csv_string(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerows(rows)
    return buf.getvalue()


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
                "coefficients": [
                    {
                        "label": r.label,
                        "estimate": r.estimate,
                        "std_error": r.std_error,
                        "t_value": r.t_value,
                        "p_value": r.p_value,
                        "significant": r.significant,
                    }
                    for r in table.rows
                ],
                "f_value": table.f_value,
                "r_squared": table.r_squared,
                "adj_r_squared": table.adj_r_squared,
                "sigma2_hat": table.sigma2_hat,
            }
        )
    if fmt == "csv":
        rows = [["section", "label", "estimate", "std_error", "t_value", "p_value", "significant"]]
        for r in table.rows:
            rows.append(
                ["coefficient", r.label, _full(r.estimate), _full(r.std_error),
                 _full(r.t_value), _full(r.p_value), str(r.significant)]
            )
        rows.append(["stat", "f_value", _full(table.f_value), "", "", "", ""])
        rows.append(["stat", "r_squared", _full(table.r_squared), "", "", "", ""])
        rows.append(["stat", "adj_r_squared", _full(table.adj_r_squared), "", "", "", ""])
        rows.append(["stat", "n", str(table.n), "", "", "", ""])
        return _csv_string(rows)

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
                "variables": [
                    {"label": v.label, "mean": v.mean, "highest": v.highest, "lowest": v.lowest}
                    for v in stats.variables
                ],
                "zone_counts": stats.zone_counts,
                "correlation_blocks": [
                    {"labels": list(b.labels), "values": [list(map(float, row)) for row in b.values]}
                    for b in blocks
                ],
                "flagged_pairs": [
                    {"a": a, "b": b, "r": r} for a, b, r in flagged
                ],
                "watchlist_pairs": [
                    {"a": a, "b": b, "r": r} for a, b, r in watchlist
                ],
            }
        )
    if fmt == "csv":
        rows = [["section", "label", "mean", "highest", "lowest", "zoned_yes"]]
        for v in stats.variables:
            rows.append(["stats", v.label, _full(v.mean), _full(v.highest), _full(v.lowest), ""])
        for zone, count in stats.zone_counts.items():
            rows.append(["stats", zone, "", "", "", str(count)])
        for b_i, block in enumerate(blocks, 1):
            for i, a in enumerate(block.labels):
                for j, b in enumerate(block.labels):
                    rows.append([f"corr{b_i}", a, b, _full(block.values[i, j]), "", ""])
        return _csv_string(rows)

    width = max(len(v.label) for v in stats.variables) + 2
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

def render_whatif(reports: list[OptionValueReport], fmt: str = "csv") -> str:
    if fmt == "json":
        return _dump_json(
            {
                "command": "whatif",
                "rows": [
                    {
                        "pin": r.pin,
                        "from_zone": r.from_zone,
                        "to_zone": r.to_zone,
                        "delta_log": r.delta_log,
                        "naive_pct": r.naive_pct,
                        "exact_pct": r.exact_pct,
                        "predicted_value_from": r.predicted_value_from,
                        "predicted_value_to": r.predicted_value_to,
                    }
                    for r in reports
                ],
            }
        )
    if fmt == "text":
        lines = [f"{'pin':<12} {'from':<6} {'to':<6} {'delta log':>11} {'naive %':>9} {'exact %':>9}"]
        for r in reports:
            lines.append(
                f"{r.pin:<12} {r.from_zone:<6} {r.to_zone:<6} "
                f"{r.delta_log:11.7f} {r.naive_pct:9.2f} {r.exact_pct:9.2f}"
            )
        return "\n".join(lines) + "\n"
    return _csv_string(option_value_csv_rows(reports))


# --- hypothesis -----------------------------------------------------------

def render_hypothesis(share: VarianceShare, fmt: str = "text") -> str:
    verdict = "MET" if share.hypothesis_met else "NOT MET"
    if fmt == "json":
        return _dump_json(
            {
                "command": "hypothesis",
                "r2_full": share.r2_full,
                "r2_zoning": share.r2_zoning,
                "zoning_share": share.zoning_share,
                "r2_without_zoning": share.r2_without_zoning,
                "delta_r2": share.delta_r2,
                "hypothesis_met": share.hypothesis_met,
            }
        )
    if fmt == "csv":
        return _csv_string(
            [
                ["measure", "value"],
                ["r2_full", _full(share.r2_full)],
                ["r2_zoning", _full(share.r2_zoning)],
                ["zoning_share", _full(share.zoning_share)],
                ["r2_without_zoning", _full(share.r2_without_zoning)],
                ["delta_r2", _full(share.delta_r2)],
                ["hypothesis_met", verdict],
            ]
        )
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
                "rows": [
                    {
                        "label": r.label,
                        "estimate": r.estimate,
                        "std_error": r.std_error,
                        "published_t": r.published_t,
                        "recomputed_t": r.recomputed_t,
                        "matches": r.matches,
                    }
                    for r in report.rows
                ],
                "n_matching": report.n_matching,
                "anomalies": list(report.anomalies),
                "adj_r_squared_from_formula": report.adj_r_squared_from_formula,
                "f_value_from_formula": report.f_value_from_formula,
                "ok": report.ok,
            }
        )
    if fmt == "csv":
        rows = [["label", "estimate", "std_error", "published_t", "recomputed_t", "matches"]]
        for r in report.rows:
            rows.append(
                [r.label, _full(r.estimate), _full(r.std_error), _full(r.published_t),
                 _full(r.recomputed_t), str(r.matches)]
            )
        return _csv_string(rows)

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
        f"verdict: {report.n_matching} of {len(report.rows)} rows match within 0.01; "
        f"anomalies: {', '.join(report.anomalies) or 'none'}"
    )
    lines.append(
        "note: published adjusted R-square and F are not recoverable from the "
        f"published R-square and sample size (formula gives adj "
        f"{report.adj_r_squared_from_formula:.4f}, F {report.f_value_from_formula:.4f})"
    )
    return "\n".join(lines) + "\n"
