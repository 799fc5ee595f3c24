import contextlib
import csv
import io
import json
import math
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zoneval.cli import main
from zoneval.design import ModelSpec, Term, Transform, build_design_matrix, default_model_spec, write_model_spec
from zoneval.diagnostics import describe, high_correlation_pairs
from zoneval.option_value import FittedModel, predict_value
from zoneval.parcels import CANONICAL_SCHEMA, NUMERIC_FIELDS, ParcelTable, clean, load_parcels, write_parcels
from zoneval.synth import TrueModel, default_true_model, generate_parcels

from conftest import BALANCED_ZONES, fresh_interpreter_env, make_parcel


FIELDS = tuple(CANONICAL_SCHEMA)


@pytest.fixture(scope="module")
def market_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "market.csv"
    truth = default_true_model(seed=61, noise_sigma=0.2, zone_probs=dict(BALANCED_ZONES))
    table, _ = generate_parcels(truth, 2500)
    write_parcels(table, path)
    return str(path)


@pytest.fixture(scope="module")
def noiseless_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "noiseless.csv"
    truth = default_true_model(seed=62, noise_sigma=0.0, zone_probs=dict(BALANCED_ZONES))
    table, _ = generate_parcels(truth, 600)
    write_parcels(table, path)
    return str(path)


@pytest.fixture(scope="module")
def dropped_pin_csv(tmp_path_factory):
    """A market with one row cleaning drops (blank u1tfcash): the file, the
    dropped pin and a kept one."""
    path = tmp_path_factory.mktemp("cli") / "dropped.csv"
    truth = default_true_model(seed=65, noise_sigma=0.2, zone_probs=dict(BALANCED_ZONES))
    rows = list(generate_parcels(truth, 600)[0])
    rows[4] = replace(rows[4], assessed_value=None)
    write_parcels(ParcelTable(rows), path)
    return str(path), rows[4].pin, rows[5].pin


@pytest.fixture(scope="module")
def extreme_values_csv(tmp_path_factory):
    """A market whose R1B parcels are worth about 1e-300 and R1A parcels
    about 1e300, so exp(delta_log) overflows from R1B to R1A: the file, an
    R1B pin and an R1A pin."""
    path = tmp_path_factory.mktemp("cli") / "extreme.csv"
    truth = default_true_model(seed=66, noise_sigma=0.2, zone_probs=dict(BALANCED_ZONES))
    scale = {"R1A": 1e295, "R1B": 1e-305}
    rows = [replace(p, assessed_value=p.assessed_value * scale.get(p.zone, 1.0))
            for p in generate_parcels(truth, 600)[0]]
    write_parcels(ParcelTable(rows), path)
    first = {zone: next(p.pin for p in rows if p.zone == zone) for zone in scale}
    return str(path), first["R1B"], first["R1A"]


# specs whose labels differ from the default spec's, which the standard
# correlation blocks and watchlist pairs are written in
DESCRIBE_SPECS = {
    "renamed_dummy": ModelSpec(tuple(
        Term("zoneA", t.source, t.transform) if t.label == "R1A" else t for t in default_model_spec().terms
    )),
    "without_s2": default_model_spec().drop_terms(["S2"]),
    "one_dummy": ModelSpec((Term("R1A", "zone", Transform("dummy", level="R1A")),)),
}


class TestFit:
    def test_layout_has_14_coefficients_and_3_stat_rows(self, market_csv, capsys):
        assert main(["fit", "--input", market_csv]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        coef_lines = [l for l in lines if l.startswith(("intercept", "R1", "R2", "S2", "log(", "age", "condition", "taxrate"))]
        assert len(coef_lines) == 14  # intercept + 13 regressors
        assert any(l.startswith("F-value") for l in lines)
        assert any(l.startswith("R-square") for l in lines)
        assert any(l.startswith("Adj R-square") for l in lines)

    def test_noiseless_fit_renders_unit_r_squared(self, noiseless_csv, capsys):
        assert main(["fit", "--input", noiseless_csv]) == 0
        out = capsys.readouterr().out
        assert "R-square" in out and "1.0000" in out
        assert "exact fit" in out

    def test_duplicated_column_exits_nonzero_naming_it(self, market_csv, tmp_path, capsys):
        spec = default_model_spec()
        dup = type(spec.terms[0])("age_again", "age_years", spec.terms[9].transform)
        spec = type(spec)(spec.terms + (dup,))
        spec_path = tmp_path / "dup.spec"
        write_model_spec(spec, spec_path)
        assert main(["fit", "--input", market_csv, "--spec", str(spec_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "age_again" in err or "age" in err
        assert "\n" not in err.strip()

    @pytest.mark.parametrize("alpha", ["5", "nan"])
    @pytest.mark.parametrize("given", ["flag", "variable"])
    @pytest.mark.parametrize("fault", ["absent_input", "bad_spec", "no_S2"])
    def test_alpha_is_checked_before_the_spec_and_the_input(self, tmp_path, monkeypatch, alpha, given, fault):
        # each fault would be reported first if alpha were checked later: a
        # missing file, a spec line of a zone log, and a market without S2,
        # whose design is rank-deficient
        market = tmp_path / "market.csv"  # absent but for no_S2
        argv = ["fit", "--input", str(market)]
        if fault == "bad_spec":
            (tmp_path / "bad.spec").write_text("term z zone log\n", encoding="utf-8")
            argv += ["--spec", str(tmp_path / "bad.spec")]
        if fault == "no_S2":
            truth = default_true_model(seed=61, zone_probs={"R1A": 0.4, "R1B": 0.4, "R2": 0.1, "OTHER": 0.1})
            write_parcels(generate_parcels(truth, 300)[0], market)
        if given == "flag":
            argv += ["--alpha", alpha]
        else:
            monkeypatch.setenv("ZONEVAL_ALPHA", alpha)
        code, out, err = run_cli(argv)
        assert_one_line_error(code, out, err)
        assert err == f"error: alpha must be in (0, 1), got {float(alpha)}\n"

    def test_missing_input_exits_nonzero(self, capsys):
        assert main(["fit", "--input", "/no/such/file.csv"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_output_file(self, market_csv, tmp_path):
        report = tmp_path / "fit.txt"
        assert main(["fit", "--input", market_csv, "--output", str(report)]) == 0
        assert "R-square" in report.read_text(encoding="utf-8")

    def test_formats_carry_identical_values(self, market_csv, capsys):
        main(["fit", "--input", market_csv, "--format", "json"])
        as_json = json.loads(capsys.readouterr().out)
        main(["fit", "--input", market_csv, "--format", "csv"])
        as_csv = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        main(["fit", "--input", market_csv])
        as_text = capsys.readouterr().out

        csv_coefs = {r["label"]: float(r["estimate"]) for r in as_csv if r["section"] == "coefficient"}
        for row in as_json["coefficients"]:
            # csv and json are full precision: 7+ significant digits
            assert csv_coefs[row["label"]] == pytest.approx(row["estimate"], rel=1e-12)
            printed = f"{row['estimate']:12.7f}".strip()
            assert printed in as_text

    def test_custom_spec(self, market_csv, tmp_path, capsys):
        from zoneval.design import zoning_only_spec

        spec_path = tmp_path / "zoning.spec"
        write_model_spec(zoning_only_spec(), spec_path)
        assert main(["fit", "--input", market_csv, "--spec", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "regressors = 4" in out


class TestDescribe:
    def test_zone_counts_and_blocks(self, market_csv, capsys):
        assert main(["describe", "--input", market_csv]) == 0
        out = capsys.readouterr().out
        assert "Correlation block 1" in out
        assert "Correlation block 3" in out
        assert "zoned yes" in out
        assert "log(u1tfcash)" in out

    def test_constant_column_exits_nonzero_naming_it(self, tmp_path, capsys):
        # all parcels in good condition: the condition column is constant
        rows = tuple(
            make_parcel(pin=f"C{i}", condition_pct=90.0, zone=("R1A", "R1B", "R2", "S2")[i % 4],
                        assessed_value=50000.0 + 1000.0 * i, age_years=float(i),
                        lot_sqft=1000.0 + i, lot_width_ft=30.0 + i, lot_depth_ft=90.0 + i,
                        total_bldg_sqft=900.0 + i, bathrooms=1.0 + (i % 3),
                        tax_rate_pct=6.3 + 0.01 * i)
            for i in range(40)
        )
        path = tmp_path / "const.csv"
        write_parcels(ParcelTable(rows), path)
        assert main(["describe", "--input", str(path)]) == 1
        assert "condition" in capsys.readouterr().err

    def test_unknown_source_in_the_spec_is_one_line(self, market_csv, tmp_path):
        spec = tmp_path / "bad.spec"
        spec.write_text("response y assessed_value log\nterm x nosuch log\n", encoding="utf-8")
        code, out, err = run_cli(["describe", "--input", market_csv, "--spec", str(spec)])
        assert_one_line_error(code, out, err, "unknown source field 'nosuch' for term 'x'")

    @pytest.mark.parametrize(
        "command", [["fit"], ["describe"], ["whatif", "--to-zone", "R1A"]], ids=lambda argv: argv[0]
    )
    def test_a_pin_source_in_the_spec_is_one_line(self, market_csv, tmp_path, command):
        # a term reads a numeric field or the zone; the pin is neither
        spec = tmp_path / "pin.spec"
        spec.write_text("term x pin identity\n", encoding="utf-8")
        code, out, err = run_cli([*command, "--input", market_csv, "--spec", str(spec)])
        assert_one_line_error(code, out, err, "unknown source field 'pin' for term 'x'")

    @pytest.mark.parametrize("threshold", ["-3", "5", "nan", "inf"])
    def test_corr_threshold_outside_unit_interval_is_one_line(self, market_csv, threshold):
        code, out, err = run_cli(["describe", "--input", market_csv, "--corr-threshold", threshold])
        assert_one_line_error(code, out, err, "correlation threshold must be in [0, 1]", threshold)

    @pytest.mark.parametrize("spec", [None, "term x lot_sqft identity\n"], ids=["default", "no_block"])
    def test_corr_threshold_is_checked_before_the_input_is_loaded(self, tmp_path, spec):
        # the input does not exist, and a spec of one numeric term has no
        # correlation block to apply the threshold to
        argv = ["describe", "--input", str(tmp_path / "absent.csv"), "--corr-threshold", "5"]
        if spec:
            (tmp_path / "one.spec").write_text(spec, encoding="utf-8")
            argv += ["--spec", str(tmp_path / "one.spec")]
        code, out, err = run_cli(argv)
        assert_one_line_error(code, out, err)
        assert err == "error: correlation threshold must be in [0, 1], got 5.0\n"

    def test_json_format(self, market_csv, capsys):
        assert main(["describe", "--input", market_csv, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["correlation_blocks"]) == 3
        assert payload["zone_counts"].keys() == {"R1A", "R1B", "R2", "S2"}

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    @pytest.mark.parametrize("name", sorted(DESCRIBE_SPECS))
    def test_spec_without_the_default_labels_is_described(self, market_csv, tmp_path, name, fmt):
        spec = tmp_path / f"{name}.spec"
        write_model_spec(DESCRIBE_SPECS[name], spec)
        code, out, err = run_cli(["describe", "--input", market_csv, "--spec", str(spec), "--format", fmt])
        assert (code, err) == (0, "")
        assert DESCRIBE_SPECS[name].labels[0] in out

    def test_a_term_labelled_as_the_response_is_one_line(self, market_csv, tmp_path):
        # the default spec with log(lotsqfeet) relabelled: it was described
        # as the response, at r = 1 with log(u1tfcash)
        spec = tmp_path / "response.spec"
        spec.write_text("".join(
            f"term {'log(u1tfcash)' if t.label == 'log(lotsqfeet)' else t.label} {t.source} {t.transform.token()}\n"
            for t in default_model_spec().terms
        ), encoding="utf-8")
        code, out, err = run_cli(["describe", "--input", market_csv, "--spec", str(spec)])
        assert_one_line_error(code, out, err)
        assert err == f"error: {spec}: 'log(u1tfcash)' is reserved\n"

    @pytest.mark.parametrize("name", ["default", "renamed_dummy"])
    def test_describe_gives_the_cli_json(self, market_csv, tmp_path, name):
        spec = DESCRIBE_SPECS.get(name)
        argv = ["describe", "--input", market_csv, "--format", "json"]
        if spec is not None:
            write_model_spec(spec, tmp_path / "spec")
            argv += ["--spec", str(tmp_path / "spec")]
        code, out, err = run_cli(argv)
        assert (code, err) == (0, "")
        report = describe(clean(load_parcels(market_csv))[0], spec)

        def pairs(rows):
            return [{"a": p.a, "b": p.b, "r": p.r} for p in rows]

        payload = json.loads(out)
        assert list(payload) == [
            "command", "n", "variables", "zone_counts", "correlation_blocks", "flagged_pairs", "watchlist_pairs",
        ]
        assert payload == {
            "command": "describe",
            "n": report.n,
            "variables": [
                {"label": v.label, "mean": v.mean, "highest": v.highest, "lowest": v.lowest} for v in report.variables
            ],
            "zone_counts": report.zone_counts,
            "correlation_blocks": [
                {"labels": list(b.labels), "values": b.values.tolist()} for b in report.correlation_blocks
            ],
            "flagged_pairs": pairs(report.flagged_pairs),
            "watchlist_pairs": pairs(report.watchlist_pairs),
        }
        # the pairs are the blocks' own: flagged at the default threshold, and
        # each watch pair read from the first block holding both labels
        blocks = report.correlation_blocks
        assert [(p.a, p.b, p.r) for p in report.flagged_pairs] == [
            pair for block in blocks for pair in high_correlation_pairs(block)
        ]
        for p in report.watchlist_pairs:
            assert p.r == next(b for b in blocks if {p.a, p.b} <= set(b.labels)).value(p.a, p.b)
        assert len(report.watchlist_pairs) == 3

    def test_zone_counts_are_the_spec_dummies(self, market_csv, tmp_path):
        # a spec whose one dummy is OTHER counts OTHER, and no zone it has no dummy for
        spec = tmp_path / "other.spec"
        spec.write_text("term other zone dummy:OTHER\nterm la lot_sqft log\n", encoding="utf-8")
        others = str(clean(load_parcels(market_csv))[0].zones.count("OTHER"))
        outputs = {}
        for fmt in ("text", "csv", "json"):
            code, outputs[fmt], err = run_cli(["describe", "--input", market_csv, "--spec", str(spec), "--format", fmt])
            assert (code, err) == (0, "")
        assert json.loads(outputs["json"])["zone_counts"] == {"OTHER": int(others)}
        stats_rows = [cells for cells in csv.reader(io.StringIO(outputs["csv"])) if cells[0] == "stats"]
        assert [(cells[1], cells[-1]) for cells in stats_rows] == [("lotsqfeet", ""), ("OTHER", others)]
        text = outputs["text"].split("\n\n")[0].splitlines()[2:]
        assert [line.split()[0] for line in text] == ["lotsqfeet", "OTHER"]
        assert text[-1].split() == ["OTHER", others]

    def test_blocks_and_watchlist_follow_the_spec_labels(self, market_csv, tmp_path):
        def describe(*extra):
            code, out, err = run_cli(["describe", "--input", market_csv, *extra, "--format", "json"])
            assert (code, err) == (0, "")
            return json.loads(out)

        default = describe()
        reports = {}
        for name, spec in DESCRIBE_SPECS.items():
            write_model_spec(spec, tmp_path / name)
            reports[name] = describe("--spec", str(tmp_path / name))
        block1 = default["correlation_blocks"][0]
        renamed = reports["renamed_dummy"]["correlation_blocks"][0]
        assert renamed["labels"] == [label.replace("R1A", "zoneA") for label in block1["labels"]]
        assert renamed["values"] == block1["values"]
        assert reports["renamed_dummy"]["watchlist_pairs"][0] == {**default["watchlist_pairs"][0], "a": "zoneA"}

        without_s2 = reports["without_s2"]["correlation_blocks"]
        assert [b["labels"] for b in without_s2] == [
            [label for label in b["labels"] if label != "S2"] for b in default["correlation_blocks"]
        ]
        one = reports["one_dummy"]
        assert [b["labels"] for b in one["correlation_blocks"]] == [["log(u1tfcash)", "R1A"]]
        assert one["variables"] == [] and one["watchlist_pairs"] == []


class TestWhatif:
    def test_identity_rezone_rows_are_zero(self, market_csv, capsys):
        assert main(["whatif", "--input", market_csv, "--to-zone", "R1A"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        identity = [r for r in rows if r["from_zone"] == "R1A"]
        assert identity, "fixture should contain R1A parcels"
        for row in identity:
            assert float(row["delta_log"]) == 0.0
            assert float(row["naive_pct"]) == 0.0
            assert float(row["exact_pct"]) == 0.0

    def test_batch_covers_all_parcels(self, market_csv, capsys):
        assert main(["whatif", "--input", market_csv, "--to-zone", "R2"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 2500
        assert all(r["to_zone"] == "R2" for r in rows)

    def test_unknown_pin_rejected(self, market_csv, capsys):
        assert main(["whatif", "--input", market_csv, "--to-zone", "R2",
                     "--pins", "NOPE"]) == 1
        assert "NOPE" in capsys.readouterr().err

    def test_pin_absent_from_the_file_is_unknown(self, market_csv):
        code, out, err = run_cli(["whatif", "--input", market_csv, "--to-zone", "R2", "--pins", "NOPE"])
        assert_one_line_error(code, out, err, "unknown pins: NOPE")
        assert "cleaning" not in err

    def test_pin_dropped_by_cleaning_is_not_unknown(self, dropped_pin_csv):
        path, dropped, kept = dropped_pin_csv
        code, out, err = run_cli(["whatif", "--input", path, "--to-zone", "R2", "--pins", f"{kept},{dropped}"])
        assert_one_line_error(code, out, err, f"pins dropped in cleaning: {dropped}")
        assert "unknown" not in err
        code, out, err = run_cli(["whatif", "--input", path, "--to-zone", "R2", "--pins", f"NOPE,{dropped}"])
        assert_one_line_error(code, out, err, f"pins dropped in cleaning: {dropped}; unknown pins: NOPE")

    def test_overflowing_rezone_is_one_line_naming_pin_and_pair(self, extreme_values_csv):
        path, r1b_pin, r1a_pin = extreme_values_csv
        code, out, err = run_cli(["whatif", "--input", path, "--to-zone", "R1A"])
        assert_one_line_error(code, out, err, f"rezoning pin {r1b_pin} from R1B to R1A overflows")
        # the same file still fits, and pairs that do not overflow rezone
        code, out, err = run_cli(["whatif", "--input", path, "--to-zone", "R1A", "--pins", r1a_pin])
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == f"{r1a_pin},R1A,R1A,0.0,0.0,0.0"
        assert run_cli(["fit", "--input", path])[0] == 0

    @pytest.mark.parametrize("pins", [",", " , ", ""])
    def test_pins_naming_no_pin_is_one_line(self, market_csv, pins):
        code, out, err = run_cli(["whatif", "--input", market_csv, "--to-zone", "R2", "--pins", pins])
        assert_one_line_error(code, out, err, f"--pins names no pin: {pins!r}")

    def test_pins_give_the_batch_rows_of_those_parcels_in_their_order(self, market_csv, capsys):
        assert main(["whatif", "--input", market_csv, "--to-zone", "R2"]) == 0
        batch = {r["pin"]: r for r in csv.DictReader(io.StringIO(capsys.readouterr().out))}
        wanted = [list(batch)[i] for i in (2400, 7, 1300)]
        assert main(["whatif", "--input", market_csv, "--to-zone", "R2", "--pins", ",".join(wanted)]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert rows == [batch[pin] for pin in wanted]

    def test_naive_and_exact_consistent(self, market_csv, capsys):
        main(["whatif", "--input", market_csv, "--to-zone", "R1B", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        for row in payload["rows"][:100]:
            expected = 100.0 * (math.exp(row["delta_log"]) - 1.0)
            assert row["exact_pct"] == pytest.approx(expected, abs=1e-9)

    def test_renamed_zone_dummies_give_the_same_deltas(self, market_csv, tmp_path):
        spec = tmp_path / "renamed.spec"
        write_model_spec(ModelSpec(tuple(
            Term(f"zone{t.label}", t.source, t.transform) if t.transform.kind == "dummy" else t
            for t in default_model_spec().terms
        )), spec)
        runs = [
            run_cli(["whatif", "--input", market_csv, "--to-zone", "S2", *extra])
            for extra in ([], ["--spec", str(spec)])
        ]
        assert [(code, err) for code, _, err in runs] == [(0, ""), (0, "")]
        default, renamed = ([r["delta_log"] for r in csv.DictReader(io.StringIO(out))] for _, out, _ in runs)
        assert renamed == default

    def test_zone_without_a_dummy_term_rezones_to_the_baseline(self, market_csv, tmp_path):
        no_s2 = default_model_spec().drop_terms(["S2"])
        spec = tmp_path / "no_s2.spec"
        write_model_spec(no_s2, spec)
        code, out, err = run_cli(["whatif", "--input", market_csv, "--to-zone", "S2",
                                  "--spec", str(spec), "--format", "json"])
        assert (code, err) == (0, "")
        cleaned, _ = clean(load_parcels(market_csv))
        model = FittedModel.fit(cleaned, no_s2)
        rows = json.loads(out)["rows"]
        assert [row["pin"] for row in rows] == list(cleaned.pins)
        for row, parcel in zip(rows, cleaned):
            expected = predict_value(model, replace(parcel, zone="S2"))
            assert row["predicted_value_to"] == pytest.approx(expected, rel=1e-12, abs=0)


class TestHypothesis:
    def test_met_on_zoning_only_truth(self, tmp_path, capsys):
        base = default_true_model(seed=63)
        beta = {label: 0.0 for label in base.beta}
        beta.update(intercept=11.0, R1A=0.6, R1B=0.4, R2=0.3, S2=-2.0)
        truth = TrueModel(beta=beta, noise_sigma=0.05, zone_probs=base.zone_probs, seed=63)
        path = tmp_path / "zoned.csv"
        write_parcels(generate_parcels(truth, 2500)[0], path)
        assert main(["hypothesis", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "MET" in out and "NOT MET" not in out

    def test_not_met_without_zone_effects(self, tmp_path, capsys):
        base = default_true_model(seed=64)
        beta = dict(base.beta)
        beta.update(R1A=0.0, R1B=0.0, R2=0.0, S2=0.0)
        truth = TrueModel(beta=beta, noise_sigma=0.1, zone_probs=base.zone_probs, seed=64)
        path = tmp_path / "unzoned.csv"
        write_parcels(generate_parcels(truth, 2500)[0], path)
        assert main(["hypothesis", "--input", str(path)]) == 0
        assert "NOT MET" in capsys.readouterr().out

    def test_prints_both_share_definitions(self, market_csv, capsys):
        assert main(["hypothesis", "--input", market_csv]) == 0
        out = capsys.readouterr().out
        assert "share (zoning / full)" in out
        assert "delta R-square" in out

    def test_spec_is_rejected_naming_the_flag(self, market_csv, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        write_model_spec(default_model_spec(), spec)
        assert main(["hypothesis", "--input", market_csv, "--spec", str(spec)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: unrecognized arguments: --spec")


class TestSynth:
    def test_spec_is_rejected_naming_the_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ZONEVAL_SPEC", str(tmp_path / "spec.txt"))
        out = tmp_path / "m.csv"
        assert main(["synth", "--n", "50", "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "synth does not take --spec (or ZONEVAL_SPEC)" in captured.err
        assert not out.exists()

    def test_same_seed_identical_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["synth", "--n", "200", "--seed", "9", "--output", str(a)]) == 0
        assert main(["synth", "--n", "200", "--seed", "9", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.log.json").exists()

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_noise_sigma_is_one_line(self, tmp_path, sigma):
        out = tmp_path / "m.csv"
        code, stdout, err = run_cli(["synth", "--n", "20", "--output", str(out), "--noise-sigma", sigma])
        assert_one_line_error(code, stdout, err, f"noise_sigma must be finite and >= 0, got {float(sigma)}")
        assert not out.exists()

    def test_overflowing_prices_are_one_line(self, tmp_path):
        out = tmp_path / "m.csv"
        code, stdout, err = run_cli(["synth", "--n", "20", "--output", str(out), "--noise-sigma", "1e3"])
        assert_one_line_error(code, stdout, err, "noise_sigma 1000", "prices must be finite and > 0")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags, env, seed", [(["--seed", "-1"], {}, -1), ([], {"ZONEVAL_SEED": "-4"}, -4)], ids=["flag", "env"]
    )
    def test_negative_seed_is_one_line_naming_the_seed(self, tmp_path, monkeypatch, flags, env, seed):
        for variable, value in env.items():
            monkeypatch.setenv(variable, value)
        code, stdout, err = run_cli(["synth", "--n", "5", *flags, "--output", str(tmp_path / "m.csv")])
        assert_one_line_error(code, stdout, err, f"seed must be >= 0, got {seed}")
        assert list(tmp_path.iterdir()) == []

    def test_zero_n_rejected(self, tmp_path, capsys):
        assert main(["synth", "--n", "0", "--output", str(tmp_path / "x.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--target-r2", "0.5"]], ids=["plain", "target_r2"])
    def test_n_below_one_is_the_generators_one_line(self, tmp_path, flags):
        # generate_parcels refuses it, on the calibration probe too, before any draw
        code, stdout, err = run_cli(["synth", "--n", "0", *flags, "--output", str(tmp_path / "x.csv")])
        assert (code, stdout, err) == (1, "", "error: n must be >= 1, got 0\n")
        assert list(tmp_path.iterdir()) == []

    def test_a_log_that_cannot_be_written_leaves_no_csv(self, tmp_path):
        out, logs = tmp_path / "m.csv", tmp_path / "logs"
        logs.mkdir()
        code, stdout, err = run_cli(["synth", "--n", "5", "--output", str(out), "--log-output", str(logs)])
        assert_one_line_error(code, stdout, err, "Is a directory", str(logs))
        assert list(tmp_path.iterdir()) == [logs] and list(logs.iterdir()) == []

    def test_a_one_parcel_calibration_probe_is_one_line(self, tmp_path):
        code, stdout, err = run_cli(["synth", "--n", "1", "--target-r2", "0.5", "--output", str(tmp_path / "q.csv")])
        assert (code, stdout) == (1, "")
        assert err == "error: probe_n must be >= 2 to calibrate noise to target_r2, got 1\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("order", ["noise_first", "target_first"])
    def test_noise_sigma_beside_target_r2_is_a_usage_error(self, tmp_path, order):
        # the calibration sets the noise: a given --noise-sigma was ignored, and
        # the file was the same bytes as without it
        flags = [["--noise-sigma", "5"], ["--target-r2", "0.5"]]
        if order == "target_first":
            flags.reverse()
        out = tmp_path / "m.csv"
        code, stdout, err = run_cli(["synth", "--n", "50", "--seed", "3", "--output", str(out), *flags[0], *flags[1]])
        first, second = (flag for flag, _ in flags)
        assert (code, stdout, err) == (1, "", f"error: argument {second}: not allowed with argument {first}\n")
        assert list(tmp_path.iterdir()) == []

    def test_sidecar_log_is_valid_json(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert main(["synth", "--n", "50", "--seed", "4", "--output", str(out)]) == 0
        payload = json.loads((tmp_path / "m.csv.log.json").read_text(encoding="utf-8"))
        assert payload["n"] == 50 and payload["seed"] == 4

    def test_log_output_names_the_sidecar(self, tmp_path, capsys):
        out, log = tmp_path / "m.csv", tmp_path / "logs" / "gen.json"
        log.parent.mkdir()
        assert main(["synth", "--n", "50", "--seed", "4", "--output", str(out), "--log-output", str(log)]) == 0
        payload = json.loads(log.read_text(encoding="utf-8"))
        assert payload["n"] == 50 and payload["seed"] == 4
        assert not (tmp_path / "m.csv.log.json").exists()
        stdout = capsys.readouterr().out
        assert stdout.count("\n") == 1 and stdout.endswith(f"; log: {log}\n")

    @pytest.mark.parametrize("relative", [True, False], ids=["relative", "absolute"])
    def test_a_log_path_that_is_the_output_is_refused(self, tmp_path, monkeypatch, relative):
        # the log was written over the parcels it describes, and the run exited 0
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        log = "sub/../m.csv" if relative else str(tmp_path / "m.csv")
        code, stdout, err = run_cli(["synth", "--n", "50", "--output", "m.csv", "--log-output", log])
        assert_one_line_error(code, stdout, err, f"--log-output {log} is the --output file")
        assert [path.name for path in tmp_path.iterdir()] == ["sub"]

    def test_target_r2_calibration(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(["synth", "--n", "3000", "--seed", "5", "--output", str(out),
                     "--target-r2", "0.895"]) == 0
        capsys.readouterr()
        assert main(["fit", "--input", str(out), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.85 <= payload["r_squared"] <= 0.94


class TestReproductionCheck:
    def test_verdict(self, capsys):
        assert main(["reproduction-check"]) == 0
        out = capsys.readouterr().out
        assert "12 of 13" in out
        assert "age^2" in out
        assert "ANOMALY" in out

    def test_json_format(self, capsys):
        assert main(["reproduction-check", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_matching"] == 12
        assert payload["anomalies"] == ["age^2"]
        assert payload["ok"] is True


class TestEnvOverrides:
    def test_env_supplies_format_and_input(self, market_csv, capsys, monkeypatch):
        monkeypatch.setenv("ZONEVAL_INPUT", market_csv)
        monkeypatch.setenv("ZONEVAL_FORMAT", "json")
        assert main(["fit"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "fit"

    @pytest.mark.parametrize(
        "variable, value",
        [("ZONEVAL_ALPHA", "abc"), ("ZONEVAL_SEED", "x"), ("ZONEVAL_FORMAT", "xml")],
    )
    def test_bad_env_value_is_a_one_line_error_naming_it(
        self, market_csv, capsys, monkeypatch, variable, value
    ):
        monkeypatch.setenv(variable, value)
        assert main(["fit", "--input", market_csv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert variable in captured.err and repr(value) in captured.err

    def test_flag_beats_env(self, market_csv, capsys, monkeypatch):
        monkeypatch.setenv("ZONEVAL_FORMAT", "json")
        assert main(["fit", "--input", market_csv, "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "R-square" in out and not out.lstrip().startswith("{")


def test_cli_runs_in_a_fresh_interpreter(market_csv, tmp_path):
    # end to end through a fresh interpreter, as the installed script runs
    env = fresh_interpreter_env()
    result = subprocess.run(
        [sys.executable, "-m", "zoneval.cli", "fit", "--input", market_csv],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0
    assert "R-square" in result.stdout

    result = subprocess.run(
        [sys.executable, "-m", "zoneval.cli", "fit", "--input", market_csv, "--seed", "1"],
        capture_output=True, text=True, env=env,
    )
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == "error: unrecognized arguments: --seed 1\n"
    assert "usage:" not in result.stderr


@pytest.fixture(scope="module")
def paper_scale_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "paper.csv"
    argv = ["synth", "--n", "12475", "--seed", "7", "--target-r2", "0.895", "--output", str(path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return str(path)


@pytest.mark.parametrize("command", ["fit", "hypothesis", "describe"])
def test_output_is_the_same_under_one_and_two_blas_threads(paper_scale_csv, command):
    # a paper-scale design is factored in blocks whose BLAS sums split with
    # the thread count; what a report prints must not
    outputs = []
    for threads in ("1", "2"):
        result = subprocess.run(
            [sys.executable, "-m", "zoneval.cli", command, "--input", paper_scale_csv, "--format", "json"],
            capture_output=True, text=True, env=dict(fresh_interpreter_env(), OPENBLAS_NUM_THREADS=threads),
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]


# runs the CLI as __main__, then prints its exit code and which of numpy and
# scipy the run imported
STARTUP_PROBE = """
import runpy, sys
try:
    runpy.run_module("zoneval.cli", run_name="__main__", alter_sys=True)
except SystemExit as stop:
    code = stop.code
print(code, *sorted({"numpy", "scipy"} & set(sys.modules)))
"""


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["reproduction-check"], "0"),
        (["reproduction-check", "--format", "json"], "0"),
        (["reproduction-check", "--format", "csv"], "0"),
        (["--help"], "0"),
        (["fit", "--help"], "0"),
        (["fit"], "1"),
        (["refit"], "1"),
        (["describe", "--input", "MARKET"], "0 numpy"),
        (["fit", "--input", "MARKET"], "0 numpy"),
        (["hypothesis", "--input", "MARKET"], "0 numpy"),
        (["whatif", "--input", "MARKET", "--to-zone", "R1A", "--pins", "SYN0000007"], "0 numpy"),
    ],
    ids=[
        "reproduction-check", "reproduction-check-json", "reproduction-check-csv", "help", "fit-help", "missing-input", "unknown-command", "describe",
        "fit", "hypothesis", "whatif",
    ],
)
def test_each_command_imports_only_what_it_runs(market_csv, argv, expected):
    argv = [market_csv if arg == "MARKET" else arg for arg in argv]
    result = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, *argv],
        capture_output=True, text=True, env=fresh_interpreter_env(),
    )
    assert result.stdout.splitlines()[-1] == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["fit"],
        ["describe"],
        ["hypothesis"],
        ["whatif", "--to-zone", "R1A", "--pins", "SYN0000007"],
    ],
    ids=["fit", "describe", "hypothesis", "whatif"],
)
def test_numpy_commands_leave_the_published_tables_unloaded(market_csv, argv):
    # reference holds the published study; a fit reads only its formula,
    # which the package defines, so no command that fits compiles it
    probe = "import sys; from zoneval.cli import main; code = main(sys.argv[1:]); print(code, 'zoneval.reference' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe, *argv, "--input", market_csv],
        capture_output=True, text=True, env=fresh_interpreter_env(),
    )
    assert result.stdout.splitlines()[-1] == "0 False", result.stderr


@pytest.mark.parametrize("command", ["fit", "describe", "hypothesis"])
def test_a_missing_numpy_is_one_line(market_csv, command):
    # as under an interpreter without numpy: the first import of it fails
    probe = "import sys; sys.modules['numpy'] = None; from zoneval.cli import main; sys.exit(main(sys.argv[1:]))"
    result = subprocess.run(
        [sys.executable, "-c", probe, command, "--input", market_csv],
        capture_output=True, text=True, env=fresh_interpreter_env(),
    )
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == "error: import of numpy halted; None in sys.modules\n"


def test_solving_and_inference_leave_scipy_unloaded():
    # the least-squares core and the Student-t tail run on numpy alone
    probe = """
import sys
import numpy as np
from zoneval.design import DesignMatrix
from zoneval.inference import compute_inference
from zoneval.lstsq import solve_least_squares
rng = np.random.default_rng(0)
X = np.column_stack([np.ones(50), rng.standard_normal((50, 2))])
y = X @ [1.0, 2.0, -1.0] + rng.standard_normal(50)
fit = solve_least_squares(X, y)
compute_inference(fit, DesignMatrix(X, y, ("intercept", "a", "b"), tuple(map(str, range(50)))))
print("scipy" in sys.modules)
"""
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=fresh_interpreter_env()
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False"]


# --- the flags each command takes -------------------------------------------

def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# the (command, flag) pairs a command does not read: refused, never ignored
UNREAD_FLAGS = [
    ("fit", "seed"),
    ("describe", "alpha"), ("describe", "seed"),
    ("whatif", "alpha"), ("whatif", "seed"),
    ("hypothesis", "spec"), ("hypothesis", "alpha"), ("hypothesis", "seed"),
    ("synth", "input"), ("synth", "spec"), ("synth", "alpha"), ("synth", "format"),
    ("reproduction-check", "input"), ("reproduction-check", "spec"),
    ("reproduction-check", "alpha"), ("reproduction-check", "seed"),
]


@pytest.fixture
def valid_argv(market_csv, tmp_path):
    """A command line each command accepts, and a value for each flag."""
    spec = tmp_path / "model.spec"
    write_model_spec(default_model_spec(), spec)
    argv = {
        "fit": ["fit", "--input", market_csv],
        "describe": ["describe", "--input", market_csv],
        "whatif": ["whatif", "--input", market_csv, "--to-zone", "R1A"],
        "hypothesis": ["hypothesis", "--input", market_csv],
        "synth": ["synth", "--n", "50", "--output", str(tmp_path / "m.csv")],
        "reproduction-check": ["reproduction-check"],
    }
    values = {"input": market_csv, "spec": str(spec), "alpha": "0.5", "seed": "1", "format": "json"}
    return argv, values


def assert_one_line_error(code, out, err, *named):
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    for text in named:
        assert text in err


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
def test_unread_flag_is_refused(valid_argv, tmp_path, command, flag):
    argv, values = valid_argv
    code, out, err = run_cli([*argv[command], f"--{flag}", values[flag]])
    assert_one_line_error(code, out, err, f"unrecognized arguments: --{flag}")
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
def test_unread_variable_is_refused(valid_argv, tmp_path, monkeypatch, command, flag):
    argv, values = valid_argv
    monkeypatch.setenv(f"ZONEVAL_{flag.upper()}", values[flag])
    code, out, err = run_cli(argv[command])
    assert_one_line_error(code, out, err, f"{command} does not take --{flag} (or ZONEVAL_{flag.upper()})")
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fit"], "the following arguments are required: --input"),
        (["fit", "--input", "x.csv", "--alpha", "x"], "argument --alpha: invalid float value: 'x'"),
        (["fit", "--input", "x.csv", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
        (["whatif", "--input", "x.csv"], "the following arguments are required: --to-zone"),
        (["refit"], "invalid choice: 'refit'"),
        ([], "the following arguments are required: command"),
        (["synth", "--n", "5"], "the following arguments are required: --output"),
    ],
)
def test_usage_error_is_one_line(argv, message):
    code, out, err = run_cli(argv)
    assert_one_line_error(code, out, err, message)
    assert "usage:" not in err


@pytest.mark.parametrize(
    "command, fault",
    [(command, "input") for command in ("fit", "describe", "whatif", "hypothesis")]
    + [(command, "spec") for command in ("fit", "describe", "whatif")],
)
def test_a_file_that_is_not_utf8_is_one_line_naming_file_and_line(market_csv, tmp_path, command, fault):
    # printed the decoder's message, naming neither file nor line
    bad = tmp_path / ("bad.spec" if fault == "spec" else "bad.csv")
    if fault == "spec":
        bad.write_bytes(b"# zoneval model spec\nterm R1A zone dummy:R1A\nterm \xff age_years identity\n")
    else:
        lines = Path(market_csv).read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b",", b",\xff", 1)
        bad.write_bytes(b"\n".join(lines))
    argv = [command, "--input", str(bad) if fault == "input" else market_csv]
    argv += ["--spec", str(bad)] if fault == "spec" else []
    argv += ["--to-zone", "R1A"] if command == "whatif" else []
    code, out, err = run_cli(argv)
    assert (code, out, err) == (1, "", f"error: {bad}: line 3: not UTF-8 text\n")


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["fit", "--help"])
    assert stop.value.code == 0
    assert "--alpha" in capsys.readouterr().out


def test_synth_output_is_the_generated_csv_path(tmp_path, monkeypatch, capsys):
    with pytest.raises(SystemExit) as stop:
        main(["synth", "--help"])
    assert stop.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "--output OUTPUT path of the generated parcel CSV" in help_text
    assert "report" not in help_text
    # like --input, the flag may come from its variable instead
    monkeypatch.setenv("ZONEVAL_OUTPUT", str(tmp_path / "m.csv"))
    code, out, err = run_cli(["synth", "--n", "5"])
    assert (code, err) == (0, "")
    assert len((tmp_path / "m.csv").read_text(encoding="utf-8").splitlines()) == 6


def test_empty_input_variable_is_unset(monkeypatch):
    monkeypatch.setenv("ZONEVAL_INPUT", "")
    code, out, err = run_cli(["fit"])
    assert_one_line_error(code, out, err, "the following arguments are required: --input")


@pytest.mark.parametrize("flag", ["input", "output", "spec", "alpha", "seed", "format"])
def test_every_empty_variable_is_unset(market_csv, monkeypatch, flag):
    expected = run_cli(["fit", "--input", market_csv])
    monkeypatch.setenv(f"ZONEVAL_{flag.upper()}", "")
    assert run_cli(["fit", "--input", market_csv]) == expected


@pytest.mark.parametrize("source, token", [
    ("zone", "log"), ("zone", "square"), ("zone", "threshold:3"), ("zone", "identity"),
    ("lot_sqft", "dummy:R1A"),
])
def test_zone_with_a_non_dummy_transform_is_one_line(market_csv, tmp_path, source, token):
    spec = tmp_path / "bad.spec"
    spec.write_text(f"response y assessed_value log\nterm z {source} {token}\n", encoding="utf-8")
    code, out, err = run_cli(["fit", "--input", market_csv, "--spec", str(spec)])
    assert_one_line_error(code, out, err, "term 'z'")
    assert "Traceback" not in err


@pytest.mark.parametrize("lines, message", [
    ("term z zone log", "line 2: term 'z': a zone term needs a dummy transform"),
    ("term good condition_pct threshold:x", "line 2: bad threshold cut 'x'"),
    ("term w lot_sqft wibble", "line 2: unknown transform kind 'wibble'"),
    ("term a lot_sqft log\nterm a lot_sqft log", "term labels must be unique"),
    ("intercept false", "line 2: the model always has an intercept"),
    ("response v assessed_value identity", "line 2: the response is always log(assessed_value)"),
    ("response y lot_sqft log", "line 2: the response is always log(assessed_value)"),
])
def test_spec_file_error_names_the_file_and_line(market_csv, tmp_path, lines, message):
    spec = tmp_path / "bad.spec"
    spec.write_text(f"response y assessed_value log\n{lines}\n", encoding="utf-8")
    code, out, err = run_cli(["fit", "--input", market_csv, "--spec", str(spec)])
    assert_one_line_error(code, out, err, f"error: {spec}: {message}")


@pytest.mark.parametrize(
    "command", [["fit"], ["describe"], ["whatif", "--to-zone", "R1A"]], ids=lambda argv: argv[0]
)
def test_spec_is_read_before_the_input(tmp_path, command):
    # the input does not exist; the spec error is the one reported
    spec = tmp_path / "bad.spec"
    spec.write_text("term z zone log\n", encoding="utf-8")
    code, out, err = run_cli([*command, "--input", str(tmp_path / "absent.csv"), "--spec", str(spec)])
    assert_one_line_error(code, out, err, f"error: {spec}: line 1: term 'z': a zone term needs a dummy transform")


ANALYSIS_COMMANDS = [["fit"], ["describe"], ["hypothesis"], ["whatif", "--to-zone", "R1A"]]


@pytest.mark.parametrize("command", ANALYSIS_COMMANDS, ids=lambda argv: argv[0])
def test_cell_over_the_csv_field_limit_is_one_line(market_csv, tmp_path, command):
    lines = Path(market_csv).read_text(encoding="utf-8").splitlines()
    cells = lines[5].split(",")
    cells[FIELDS.index("zone")] = "R" * 200_000
    lines[5] = ",".join(cells)
    path = tmp_path / "wide.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run_cli([*command, "--input", str(path)])
    assert_one_line_error(code, out, err, f"error: {path}: line 6: field larger than field limit")


@pytest.fixture(scope="module")
def overflowing_age_csvs(tmp_path_factory):
    """A paper-scale market (12,507 rows) with one age of 1e200, whose
    square overflows, and the same file without that row: both paths and
    the row's pin."""
    path = tmp_path_factory.mktemp("cli")
    rows = list(generate_parcels(default_true_model(seed=67, noise_sigma=0.2), 12507)[0])
    rows[9] = replace(rows[9], age_years=1e200)
    write_parcels(ParcelTable(rows), path / "overflow.csv")
    write_parcels(ParcelTable(rows[:9] + rows[10:]), path / "without.csv")
    return path / "overflow.csv", path / "without.csv", rows[9].pin


@pytest.mark.parametrize("command", ANALYSIS_COMMANDS, ids=lambda argv: argv[0])
def test_overflowing_age_is_cleaned_and_itemised(overflowing_age_csvs, command):
    overflow, without, pin = overflowing_age_csvs
    _, report = clean(load_parcels(overflow))
    assert (report.dropped_pins, report.dropped_by_field) == ((pin,), {"age_years": 1})
    code, out, err = run_cli([*command, "--format", "json", "--input", str(overflow)])
    assert (code, err) == (0, "")
    # the coefficients, and every other figure, are the file's without the row
    assert (code, out, err) == run_cli([*command, "--format", "json", "--input", str(without)])


@pytest.fixture(scope="module")
def huge_age_csv(tmp_path_factory):
    """A 3,000-row market with one age of 1e150, whose square (1e300) is
    finite and passes clean but whose column's sum of squares is not: the
    file and the row's pin."""
    path = tmp_path_factory.mktemp("cli") / "huge_age.csv"
    rows = list(generate_parcels(default_true_model(seed=67, noise_sigma=0.2), 3000)[0])
    rows[9] = replace(rows[9], age_years=1e150)
    write_parcels(ParcelTable(rows), path)
    return path, rows[9].pin


@pytest.mark.parametrize("command", ANALYSIS_COMMANDS, ids=lambda argv: argv[0])
def test_age_too_large_to_factor_is_one_line_naming_term_field_and_pin(huge_age_csv, command):
    path, pin = huge_age_csv
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli([*command, "--input", str(path)])
    assert caught == []
    assert_one_line_error(code, out, err, f"error: term 'age^2' overflows: square of age_years 1e+150 (pin {pin})")


@pytest.fixture(scope="module")
def zero_age_csv(tmp_path_factory):
    """A market with one age of 0, which clean keeps: the file and the
    pin of the first row whose age is 0."""
    path = tmp_path_factory.mktemp("cli") / "zero_age.csv"
    rows = list(generate_parcels(default_true_model(seed=68, noise_sigma=0.2), 600)[0])
    rows[4] = replace(rows[4], age_years=0.0)
    write_parcels(ParcelTable(rows), path)
    return path, next(p.pin for p in rows if p.age_years == 0.0)


@pytest.mark.parametrize(
    "command", [["fit"], ["whatif", "--to-zone", "R1A"]], ids=lambda argv: argv[0]
)
def test_log_of_a_zero_age_is_one_line_naming_the_value_and_pin(zero_age_csv, tmp_path, command):
    path, pin = zero_age_csv
    spec = tmp_path / "lage.spec"
    spec.write_text("term lage age_years log\n", encoding="utf-8")
    code, out, err = run_cli([*command, "--input", str(path), "--spec", str(spec)])
    assert_one_line_error(code, out, err)
    assert err == f"error: log transform needs a positive age_years, got 0.0 (pin {pin})\n"


@pytest.fixture(scope="module")
def large_age_csv(tmp_path_factory):
    """A 3,000-row market with one age of 1e7, which gives the age^2
    column a norm 1e14 times the intercept's."""
    path = tmp_path_factory.mktemp("cli") / "large_age.csv"
    rows = list(generate_parcels(default_true_model(seed=67, noise_sigma=0.2), 3000)[0])
    rows[9] = replace(rows[9], age_years=1e7)
    write_parcels(ParcelTable(rows), path)
    return path


@pytest.mark.parametrize("command", [["fit"], ["hypothesis"], ["whatif", "--to-zone", "R1A"]], ids=lambda argv: argv[0])
def test_one_large_age_is_no_dependence(large_age_csv, command):
    # rank is decided on unit-norm columns, so no column reads as dependent
    # on the age^2 column
    code, out, err = run_cli([*command, "--input", str(large_age_csv)])
    assert (code, err) == (0, "")


@pytest.fixture(scope="module")
def tax_scaled_csvs(tmp_path_factory):
    """A 400-row market and variants of it: the tax rate times 1e-160 and
    1e-170, and a near-constant market (assessed values that differ in
    the 15th digit) with the tax rate times 1e150."""
    path = tmp_path_factory.mktemp("cli")
    truth = default_true_model(seed=3, zone_probs=dict(BALANCED_ZONES))
    rows = list(generate_parcels(truth, 400)[0])
    variants = {
        "plain": rows,
        "tiny_1e-160": [replace(p, tax_rate_pct=p.tax_rate_pct * 1e-160) for p in rows],
        "tiny_1e-170": [replace(p, tax_rate_pct=p.tax_rate_pct * 1e-170) for p in rows],
        "near_constant": [
            replace(p, assessed_value=1e5 * (1.0 + 1e-14 * (i % 9)), tax_rate_pct=p.tax_rate_pct * 1e150)
            for i, p in enumerate(rows)
        ],
    }
    for name, variant in variants.items():
        write_parcels(ParcelTable(variant), path / f"{name}.csv")
    return path


def run_cli_warning_free(argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_cli(argv)
    assert caught == []
    return result


@pytest.mark.parametrize("command", [["fit"], ["hypothesis"], ["whatif", "--to-zone", "R1A"]], ids=lambda argv: argv[0])
def test_a_standard_error_whose_square_underflows_is_no_traceback(tax_scaled_csvs, command):
    # sigma2 * (X^T X)^-1_jj of the tax rate underflowed to 0, and t = estimate / 0 raised
    code, out, err = run_cli_warning_free([*command, "--input", str(tax_scaled_csvs / "near_constant.csv")])
    assert (code, err) == (0, "")


def test_a_near_constant_response_reads_the_r_squared_of_its_centred_fit(tax_scaled_csvs):
    # its tss is 6.7 rounding floors, and the rss read off the triangle of the
    # uncentred response was rounded past it: R2 -1.3805, F -17.22, and a
    # zoning-only R2 above the full model's
    path = tax_scaled_csvs / "near_constant.csv"
    fit, hypothesis = (
        json.loads(run_cli_warning_free([command, "--input", str(path), "--format", "json"])[1])
        for command in ("fit", "hypothesis")
    )
    design = build_design_matrix(clean(load_parcels(path))[0], default_model_spec())
    centred = design.y - design.y.mean()
    # on unit-norm columns, as numpy's default rcond reads the unscaled X as rank 1
    rss = np.linalg.lstsq(design.X / np.linalg.norm(design.X, axis=0), centred, rcond=None)[1][0]
    assert abs(fit["r_squared"] - (1.0 - rss / (centred @ centred))) <= 1e-3
    assert fit["f_value"] >= 0.0
    assert hypothesis["r2_full"] >= max(hypothesis["r2_zoning"], hypothesis["r2_without_zoning"])


def assert_fits_as_the_plain_market(path, plain_path, tax_scale):
    """``fit`` and ``hypothesis`` on ``path``, the plain market with its tax
    rate times ``tax_scale``, exit 0 with no warning and give the plain
    market's reports: the tax rate's estimate and SE times ``tax_scale``,
    every other number the same, to 1e-12 relative."""
    for command in ("fit", "hypothesis"):
        reports = []
        for market in (path, plain_path):
            code, out, err = run_cli_warning_free([command, "--input", str(market), "--format", "json"])
            assert (code, err) == (0, "")
            reports.append(json.loads(out))
        scaled, plain = reports
        if command == "fit":
            for row in plain["coefficients"]:
                if row["label"] == "taxrate":
                    row["estimate"] /= tax_scale
                    row["std_error"] /= tax_scale
            scaled, plain = scaled.pop("coefficients"), plain.pop("coefficients")
            assert [r["label"] for r in scaled] == [r["label"] for r in plain]
            assert [r["significant"] for r in scaled] == [r["significant"] for r in plain]
            for name in ("estimate", "std_error", "t_value", "p_value"):
                np.testing.assert_allclose([r[name] for r in scaled], [r[name] for r in plain], rtol=1e-12, atol=0.0)
        else:
            assert scaled == pytest.approx(plain, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("scale", ["1e-160", "1e-170"])
def test_a_tiny_column_is_refused_by_name_not_called_dependent(tax_scaled_csvs, scale):
    # the solve refused the tax rate: "column 'taxrate' is too small to factor";
    # its columns are now factored scaled by powers of two
    path = tax_scaled_csvs / f"tiny_{scale}.csv"
    assert_fits_as_the_plain_market(path, tax_scaled_csvs / "plain.csv", float(scale))


@pytest.mark.parametrize("command", [["fit"], ["hypothesis"], ["whatif", "--to-zone", "R1A"]], ids=lambda argv: argv[0])
def test_an_empty_zone_cell_is_named_as_all_zeros(tmp_path, command):
    # a 20-row market of balanced zones draws no S2 parcel at seed 0; the
    # error read "dependent columns: S2", as if S2 copied other columns
    market = tmp_path / "m.csv"
    truth = default_true_model(seed=0, zone_probs=dict(BALANCED_ZONES))
    write_parcels(generate_parcels(truth, 20)[0], market)
    code, out, err = run_cli([*command, "--input", str(market)])
    assert_one_line_error(code, out, err)
    assert err == "error: rank-deficient design (rank 13): dependent columns: S2 (all zeros)\n"


def test_describe_names_an_empty_zone_cell_as_all_zeros(tmp_path):
    # the same market: describe said "zero-variance column 'S2'", which does
    # not say that no parcel is in the zone
    market = tmp_path / "m.csv"
    truth = default_true_model(seed=0, zone_probs=dict(BALANCED_ZONES))
    write_parcels(generate_parcels(truth, 20)[0], market)
    code, out, err = run_cli(["describe", "--input", str(market)])
    assert_one_line_error(code, out, err)
    assert err == "error: zero-variance column S2 (all zeros)\n"


@pytest.mark.parametrize("cut, named", [(1000.0, "over_1000 (all zeros)"), (-1.0, "over_-1")])
def test_a_threshold_no_row_reaches_is_named_as_all_zeros(market_csv, tmp_path, cut, named):
    # a threshold every row reaches is the intercept's copy, not all zeros
    spec = default_model_spec()
    spec = ModelSpec(spec.terms + (Term(f"over_{cut:g}", "condition_pct", Transform("threshold", cut=cut)),))
    write_model_spec(spec, tmp_path / "cut.spec")
    code, out, err = run_cli(["fit", "--input", market_csv, "--spec", str(tmp_path / "cut.spec")])
    assert_one_line_error(code, out, err)
    assert err == f"error: rank-deficient design (rank 14): dependent columns: {named}\n"


def test_describe_of_a_tiny_column_gives_the_unscaled_correlations(tax_scaled_csvs):
    # the centred sums of squares underflowed, and the tax rate read r = +-1 against its whole block
    reports = [
        json.loads(run_cli_warning_free(["describe", "--input", str(tax_scaled_csvs / name), "--format", "json"])[1])
        for name in ("plain.csv", "tiny_1e-170.csv")
    ]
    plain, tiny = ([block["values"] for block in report["correlation_blocks"]] for report in reports)
    assert np.max(np.abs(np.array(tiny) - np.array(plain))) <= 1e-12
    assert reports[1]["flagged_pairs"] == reports[0]["flagged_pairs"]  # none names taxrate


def test_describe_of_a_tiny_column_prints_its_statistics_in_e_notation(tax_scaled_csvs):
    # its mean, highest and lowest printed as 0.0000
    code, out, err = run_cli_warning_free(["describe", "--input", str(tax_scaled_csvs / "tiny_1e-170.csv")])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    head = next(line for line in lines if line.startswith("variable"))
    taxrate = next(line for line in lines if line.startswith("taxrate "))  # the statistics' row
    cells = taxrate.split()[1:]
    assert len(cells) == 3 and all(cell.endswith("e-170") for cell in cells)
    assert len(taxrate.rstrip()) == len(head.removesuffix("zoned yes").rstrip())


def test_describe_of_a_log_source_whose_sum_overflows_prints_a_finite_mean(tmp_path):
    # no bound covers a log term's source: two lot_sqft of 1.5e308 printed a
    # mean of inf, and numpy's overflow RuntimeWarning on stderr
    rows = list(generate_parcels(default_true_model(seed=5), 60)[0])
    for i in (3, 40):
        rows[i] = replace(rows[i], lot_sqft=1.5e308)
    path = tmp_path / "huge_lots.csv"
    write_parcels(ParcelTable(rows), path)
    code, out, err = run_cli_warning_free(["describe", "--input", str(path), "--format", "json"])
    assert (code, err) == (0, "")
    mean = next(v["mean"] for v in json.loads(out)["variables"] if v["label"] == "lotsqfeet")
    values = clean(load_parcels(path))[0].column("lot_sqft")
    exact = math.fsum(math.ldexp(v, -2) for v in values) / len(values) * 4  # fsum of the values overflows
    assert isinstance(mean, float) and math.isfinite(mean) and abs(mean - exact) <= 1e-15 * exact


@pytest.fixture(scope="module")
def scale_sweep_csvs(tmp_path_factory):
    """The 400-row market of ``tax_scaled_csvs`` with the tax rate times
    10^-155.5, 1e-150 or 1e150, and with each assessed value set to
    150000 (1 + k 2^-50), k drawn from -3..3."""
    path = tmp_path_factory.mktemp("cli")
    truth = default_true_model(seed=3, zone_probs=dict(BALANCED_ZONES))
    rows = list(generate_parcels(truth, 400)[0])
    ks = np.random.default_rng(0).integers(-3, 4, size=len(rows))
    variants = {
        f"tax_{name}": [replace(p, tax_rate_pct=p.tax_rate_pct * scale) for p in rows]
        for name, scale in (("1e-150", 1e-150), ("1e150", 1e150), ("1e-155.5", 10**-155.5))
    }
    variants["flat"] = [replace(p, assessed_value=150000 * (1 + int(k) * 2.0**-50)) for p, k in zip(rows, ks)]
    for name, variant in variants.items():
        write_parcels(ParcelTable(variant), path / f"{name}.csv")
    return path


def test_a_tiny_column_whose_inverse_overflows_is_refused_by_name(scale_sweep_csvs, tax_scaled_csvs):
    # its sum of squares was 9 times the smallest normal float, and (X^T X)^-1
    # overflowed: a RuntimeWarning, an SE of inf and a t of 0.00, and then a
    # refusal naming the column; the fit now keeps (X_s^T X_s)^-1 of the
    # scaled columns (both fixtures hold the same 400-row market)
    path = scale_sweep_csvs / "tax_1e-155.5.csv"
    assert_fits_as_the_plain_market(path, tax_scaled_csvs / "plain.csv", 10**-155.5)


@pytest.mark.parametrize("command", ["fit", "hypothesis"])
def test_a_response_that_varies_below_the_rss_rounding_is_refused(scale_sweep_csvs, command):
    # the rss read off the triangle was about 290 times the tss: R-square -286.16,
    # and hypothesis said NOT MET
    code, out, err = run_cli_warning_free([command, "--input", str(scale_sweep_csvs / "flat.csv")])
    assert_one_line_error(code, out, err, "response log(assessed_value)", "R-square undefined")


@pytest.mark.parametrize("command, name", [("fit", "tax_1e-150"), ("describe", "tax_1e150")])
def test_a_huge_number_keeps_its_table_line_as_wide_as_the_header(scale_sweep_csvs, command, name):
    # the tax rate's estimate and SE (fit) or mean (describe) printed some 150
    # digits in fixed point, on a line of over 300 characters
    code, out, err = run_cli_warning_free([command, "--input", str(scale_sweep_csvs / f"{name}.csv")])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("variable"))
    end = next(i for i in range(start + 1, len(lines)) if lines[i] == "" or lines[i].startswith("F-value"))
    table = [line.removesuffix(" *") for line in lines[start + 1 : end]]
    assert any("taxrate" in line and "e+" in line for line in table)
    assert {len(line) for line in table} == {len(lines[start])}


# --- fuzz: corrupted input files ------------------------------------------

FUZZ_ROWS = 200
# enough parcels in every zone that six corrupted rows never empty a dummy
FUZZ_ZONES = {"R1A": 0.25, "R1B": 0.25, "R2": 0.2, "S2": 0.1, "OTHER": 0.2}
CORRUPTIONS = (
    "blank", "nan", "inf", "negative", "unknown_zone", "duplicate_pin", "short_row", "overflowing_age",
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    truth = default_true_model(seed=65, noise_sigma=0.2, zone_probs=dict(FUZZ_ZONES))
    write_parcels(generate_parcels(truth, FUZZ_ROWS)[0], path / "base.csv")
    return path


def corrupt(lines, corruptions, drop_column):
    """Apply (kind, row, field) corruptions to the split lines of a
    canonical file.  Returns the rows expected to be dropped in cleaning
    and whether a duplicate pin was written."""
    rows = lines[1:]
    dropped, duplicate = set(), False
    for kind, i, name in corruptions:
        cells, j = rows[i], FIELDS.index(name)
        if kind == "blank":
            cells[j] = ""
        elif kind in ("nan", "inf"):
            cells[j] = kind
        elif kind == "negative":
            cells[j] = "-1"
        elif kind == "unknown_zone":
            cells[2] = "B1"
        elif kind == "duplicate_pin":
            cells[0] = rows[(i + 1) % len(rows)][0]
            duplicate = True
        elif kind == "overflowing_age":
            cells[FIELDS.index("age_years")] = "1e200"
        else:
            del cells[j:]
        # an unparseable zone reads as OTHER and a negative tax rate is legal
        if kind in ("blank", "short_row", "overflowing_age") or (
            name in NUMERIC_FIELDS and (kind in ("nan", "inf") or (kind == "negative" and name != "tax_rate_pct"))
        ):
            dropped.add(i)
    if drop_column is not None:
        for cells in lines:
            del cells[FIELDS.index(drop_column) : FIELDS.index(drop_column) + 1]
    return dropped, duplicate


@settings(max_examples=40, deadline=None)
@given(
    corruptions=st.lists(
        st.tuples(
            st.sampled_from(CORRUPTIONS), st.integers(0, FUZZ_ROWS - 1), st.sampled_from(FIELDS[1:])
        ),
        max_size=6,
        unique_by=lambda c: c[1],
    ),
    drop_column=st.none() | st.sampled_from(FIELDS),
)
def test_corrupted_csv_is_cleaned_or_one_line_error(fuzz_dir, corruptions, drop_column):
    lines = [line.split(",") for line in (fuzz_dir / "base.csv").read_text(encoding="utf-8").splitlines()]
    pins = [cells[0] for cells in lines[1:]]
    dropped, duplicate = corrupt(lines, corruptions, drop_column)
    path = fuzz_dir / "corrupted.csv"
    path.write_text("".join(",".join(cells) + "\n" for cells in lines), encoding="utf-8")

    for command in ANALYSIS_COMMANDS:
        code, out, err = run_cli([*command, "--input", str(path)])
        if drop_column is not None or duplicate:
            assert code == 1 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
            expected = f"missing mapped column {CANONICAL_SCHEMA[drop_column]!r}" if drop_column else "duplicate pin"
            assert expected in err
            continue
        assert (code, err) == (0, "")
        if command == ["fit"]:
            assert out.startswith(f"Input: {path} ({FUZZ_ROWS} rows, {len(dropped)} dropped in cleaning)")
        if command[0] == "whatif":
            kept = [pin for i, pin in enumerate(pins) if i not in dropped]
            assert [row["pin"] for row in csv.DictReader(io.StringIO(out))] == kept
