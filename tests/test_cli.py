import contextlib
import csv
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zoneval.cli import main
from zoneval.design import default_model_spec, write_model_spec
from zoneval.parcels import CANONICAL_SCHEMA, NUMERIC_FIELDS, ParcelTable, write_parcels
from zoneval.synth import TrueModel, default_true_model, generate_parcels

from conftest import make_parcel


# balanced mix keeps every zone identified even in small fixtures
BALANCED_ZONES = {"R1A": 0.3, "R1B": 0.3, "R2": 0.15, "S2": 0.05, "OTHER": 0.2}


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
        spec = type(spec)(spec.response, spec.terms + (dup,), True)
        spec_path = tmp_path / "dup.spec"
        write_model_spec(spec, spec_path)
        assert main(["fit", "--input", market_csv, "--spec", str(spec_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "age_again" in err or "age" in err
        assert "\n" not in err.strip()

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

    def test_json_format(self, market_csv, capsys):
        assert main(["describe", "--input", market_csv, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["correlation_blocks"]) == 3
        assert payload["zone_counts"].keys() == {"R1A", "R1B", "R2", "S2"}


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

    def test_zero_n_rejected(self, tmp_path, capsys):
        assert main(["synth", "--n", "0", "--output", str(tmp_path / "x.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_sidecar_log_is_valid_json(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert main(["synth", "--n", "50", "--seed", "4", "--output", str(out)]) == 0
        payload = json.loads((tmp_path / "m.csv.log.json").read_text(encoding="utf-8"))
        assert payload["n"] == 50 and payload["seed"] == 4

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
    import os
    import subprocess
    import sys
    from pathlib import Path

    import zoneval

    src = str(Path(zoneval.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
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
])
def test_spec_file_error_names_the_file_and_line(market_csv, tmp_path, lines, message):
    spec = tmp_path / "bad.spec"
    spec.write_text(f"response y assessed_value log\n{lines}\n", encoding="utf-8")
    code, out, err = run_cli(["fit", "--input", market_csv, "--spec", str(spec)])
    assert_one_line_error(code, out, err, f"error: {spec}: {message}")


# --- fuzz: corrupted input files ------------------------------------------

FUZZ_ROWS = 200
# enough parcels in every zone that six corrupted rows never empty a dummy
FUZZ_ZONES = {"R1A": 0.25, "R1B": 0.25, "R2": 0.2, "S2": 0.1, "OTHER": 0.2}
FIELDS = tuple(CANONICAL_SCHEMA)
CORRUPTIONS = ("blank", "nan", "inf", "negative", "unknown_zone", "duplicate_pin", "short_row")


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
        else:
            del cells[j:]
        # an unparseable zone reads as OTHER and a negative tax rate is legal
        if kind in ("blank", "short_row") or (
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

    for command in (["fit"], ["describe"], ["hypothesis"], ["whatif", "--to-zone", "R1A"]):
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
