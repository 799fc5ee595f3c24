import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import zoneval
import zoneval.render

from perfbench import checks
from perfbench.inputs import read_expected
from perfbench.spans import NO_TRACE
from perfbench.workloads import WHATIF_ZONE, SynthRoundtrip, check_analysis


def test_solver_check_flags_a_perturbed_coefficient_and_nan():
    rng = np.random.default_rng(0)
    X = np.column_stack([np.ones(200), rng.standard_normal((200, 4))])
    y = X @ rng.standard_normal(5) + rng.standard_normal(200)
    beta = zoneval.solve_least_squares(X, y).coefficients
    assert checks.check_solver(X, y, beta) == []
    perturbed = beta.copy()
    perturbed[2] *= 1 + 1e-6
    assert checks.check_solver(X, y, perturbed)
    perturbed[2] = math.nan
    assert math.isnan(checks.solver_rel_err(X, y, perturbed))
    assert checks.check_solver(X, y, perturbed)


def test_nan_never_passes_a_tolerance_or_hides_in_a_maximum():
    assert checks.within("x", math.nan, 1.0)
    assert math.isnan(checks.worst([math.nan, 1e-12]))
    assert math.isnan(checks.worst([1e-12, math.nan]))
    assert checks.worst([1e-12, 3e-12]) == 3e-12
    assert checks.worst([]) == 0.0


def test_analysis_passes_its_checks(analysed, small_market):
    assert check_analysis(analysed, read_expected(small_market)) == []


def test_vif_check_flags_a_perturbed_value(analysed):
    design, vifs = analysed["design"], analysed["vifs"]
    assert checks.check_vif(design.X, design.column_labels, vifs) == []
    bad = list(vifs)
    bad[3] = dataclasses.replace(bad[3], vif=bad[3].vif * (1 + 1e-6))
    assert checks.check_vif(design.X, design.column_labels, bad)


def test_share_check_flags_a_perturbed_r_squared(analysed):
    design, share = analysed["design"], analysed["share"]
    assert checks.check_share(design.X, design.column_labels, design.y, share) == []
    bad = dataclasses.replace(share, r2_zoning=share.r2_zoning + 1e-6)
    assert checks.check_share(design.X, design.column_labels, design.y, bad)


@pytest.fixture(scope="module")
def rezoned(small_market):
    cleaned, _ = zoneval.clean(zoneval.load_parcels(small_market))
    model = zoneval.FittedModel.fit(cleaned)
    design = zoneval.build_design_matrix(cleaned, model.spec)
    reports = [zoneval.rezone_counterfactual(model, p, WHATIF_ZONE) for p in cleaned]
    beta = np.array([model.coefficient(label) for label in design.column_labels])
    return design, reports, beta


def test_rezone_check_flags_a_perturbed_value(rezoned):
    design, reports, beta = rezoned
    args = (design.row_pins, design.X, design.column_labels, beta, WHATIF_ZONE)
    assert checks.check_rezones(reports, *args) == []
    bad = list(reports)
    bad[5] = dataclasses.replace(bad[5], predicted_value_from=bad[5].predicted_value_from * (1 + 1e-8))
    assert checks.check_rezones(bad, *args)
    bad[5] = dataclasses.replace(reports[5], delta_log=reports[5].delta_log + 1e-9)
    assert checks.check_rezones(bad, *args)


def test_whatif_csv_check_flags_a_changed_byte_and_a_lost_line(rezoned):
    _design, reports, _beta = rezoned
    text = zoneval.render.render_whatif(reports, "csv")
    assert checks.check_whatif_csv(text, reports) == []
    lines = text.split("\r\n")
    line = lines[7]
    last = len(line) - 1
    lines[7] = line[:last] + ("1" if line[last] != "1" else "2")
    assert checks.check_whatif_csv("\r\n".join(lines), reports)
    assert checks.check_whatif_csv(text.replace(lines[9] + "\r\n", "", 1), reports)


def test_fit_json_check_flags_a_perturbed_coefficient(analysed):
    inference = analysed["inference"]
    text = zoneval.render.render_fit(inference, "json")
    assert checks.check_fit_json(text, inference) == []
    payload = json.loads(text)
    payload["coefficients"][4]["estimate"] *= 1 + 1e-9
    assert checks.check_fit_json(json.dumps(payload), inference)
    assert checks.check_fit_json("not json", inference)


def test_synth_check_flags_a_changed_csv_byte(tmp_path):
    workload = SynthRoundtrip()
    state = SimpleNamespace(seed=2, n=300, path=tmp_path / "market.csv", digest=None, sigma=None)
    assert workload.check(state, workload.run_pass(state, NO_TRACE)) == [[]]
    out = workload.run_pass(state, NO_TRACE)
    data = bytearray(state.path.read_bytes())
    data[-5] = ord("7") if data[-5] != ord("7") else ord("3")
    state.path.write_bytes(bytes(data))
    assert workload.check(state, out) != [[]]

