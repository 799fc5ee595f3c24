import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from zoneval.design import default_model_spec
from zoneval.inference import CoefficientRow, InferenceTable, fit_table
from zoneval.option_value import (
    FittedModel,
    OptionValueError,
    predict_log_value,
    predict_value,
    rezone_counterfactual,
    write_option_value_csv,
    zone_effect_report,
)
from zoneval.parcels import RESIDENTIAL_ZONES, ZONES
from zoneval.reference import REFERENCE_COEFFICIENTS
from zoneval.render import render_whatif
from zoneval.synth import default_true_model, generate_parcels

from conftest import make_parcel


def reference_model(intercept=8.0) -> FittedModel:
    """FittedModel carrying the published coefficient table."""
    rows = [CoefficientRow("intercept", intercept, 0.1, intercept / 0.1, 0.0, True)]
    for ref in REFERENCE_COEFFICIENTS:
        rows.append(
            CoefficientRow(
                ref.label, ref.estimate, ref.std_error,
                ref.estimate / ref.std_error, 0.05 if ref.significant else 0.5,
                ref.significant,
            )
        )
    table = InferenceTable(
        rows=tuple(rows), r_squared=0.9, adj_r_squared=0.9, f_value=100.0,
        n=1000, k=13, sigma2_hat=0.05,
    )
    return FittedModel(default_model_spec(), table)


BALANCED_ZONES = {"R1A": 0.3, "R1B": 0.3, "R2": 0.15, "S2": 0.05, "OTHER": 0.2}


def reference_parcel(zone="OTHER"):
    # age 0 keeps the anomalous published age^2 coefficient from
    # dominating the prediction
    return make_parcel(zone=zone, age_years=0.0)


@pytest.fixture(scope="module")
def fitted_market():
    truth = default_true_model(seed=51, noise_sigma=0.15, zone_probs=dict(BALANCED_ZONES))
    table, log = generate_parcels(truth, 3000)
    return FittedModel.fit(table), table, log, truth


class TestPredict:
    def test_baseline_parcel_predicts_intercept(self):
        model = reference_model(intercept=8.25)
        baseline = make_parcel(
            zone="OTHER", lot_width_ft=1.0, lot_depth_ft=1.0, lot_sqft=1.0,
            total_bldg_sqft=1.0, bathrooms=1.0, age_years=0.0,
            condition_pct=10.0, tax_rate_pct=0.0,
        )
        assert predict_log_value(model, baseline) == 8.25

    def test_in_sample_mean_prediction_equals_mean_response(self, fitted_market):
        model, table, _, _ = fitted_market
        predictions = [predict_log_value(model, p) for p in table.rows]
        mean_y = np.mean([math.log(p.assessed_value) for p in table.rows])
        assert np.mean(predictions) == pytest.approx(mean_y, rel=1e-10)

    def test_noiseless_predictions_match_generated_values(self):
        truth = default_true_model(seed=52, noise_sigma=0.0, zone_probs=dict(BALANCED_ZONES))
        table, log = generate_parcels(truth, 800)
        model = FittedModel.fit(table)
        predictions = np.array([predict_log_value(model, p) for p in table.rows])
        assert np.max(np.abs(predictions - log.true_log_values)) < 1e-8

    def test_prediction_is_the_spec_order_sum_bit_for_bit(self, fitted_market):
        model, table, _, _ = fitted_market
        for parcel in table.rows[:200]:
            # the sum in the order the design has it: intercept, then the spec's terms
            expected = model.inference.row("intercept").estimate
            for term in model.spec.terms:
                x = term.transform.apply(getattr(parcel, term.source))
                expected += model.inference.row(term.label).estimate * x
            assert predict_log_value(model, parcel) == expected

    def test_unknown_label_is_a_key_error(self, fitted_market):
        model, _, _, _ = fitted_market
        with pytest.raises(KeyError, match="nope"):
            model.coefficient("nope")

    def test_invalid_parcel_rejected(self, fitted_market):
        model, _, _, _ = fitted_market
        with pytest.raises(OptionValueError, match="bathrooms"):
            predict_log_value(model, make_parcel(bathrooms=0.0))

    def test_prediction_overflow_is_clean_error(self):
        # the anomalous published age^2 coefficient explodes any aged parcel
        with pytest.raises(OptionValueError, match="overflows"):
            predict_value(reference_model(), make_parcel(age_years=60.0))

    def test_predict_value_exponentiates(self):
        model = reference_model(intercept=8.25)
        baseline = make_parcel(
            zone="OTHER", lot_width_ft=1.0, lot_depth_ft=1.0, lot_sqft=1.0,
            total_bldg_sqft=1.0, bathrooms=1.0, age_years=0.0,
            condition_pct=10.0, tax_rate_pct=0.0,
        )
        assert predict_value(model, baseline) == pytest.approx(math.exp(8.25))


class TestRezone:
    def test_identity_rezone_is_zero(self, fitted_market):
        model, table, _, _ = fitted_market
        parcel = table.rows[0]
        report = rezone_counterfactual(model, parcel, parcel.zone)
        assert report.delta_log == 0.0
        assert report.naive_pct == 0.0
        assert report.exact_pct == 0.0
        assert report.predicted_value_to == report.predicted_value_from

    def test_other_to_r1a_naive_percent(self):
        model = reference_model()
        report = rezone_counterfactual(model, reference_parcel(), "R1A")
        assert report.naive_pct == pytest.approx(55.92927, abs=1e-5)
        assert round(report.naive_pct, 2) == 55.93

    def test_other_to_r1b_exact_percent(self):
        model = reference_model()
        report = rezone_counterfactual(model, reference_parcel(), "R1B")
        expected = 100.0 * (math.exp(0.4670651) - 1.0)
        assert report.exact_pct == pytest.approx(expected, abs=1e-9)
        assert report.exact_pct == pytest.approx(59.53, abs=0.01)

    def test_predicted_values_consistent(self, fitted_market):
        model, table, _, _ = fitted_market
        for parcel in table.rows[:20]:
            report = rezone_counterfactual(model, parcel, "R2")
            expected = report.predicted_value_from * math.exp(report.delta_log)
            assert report.predicted_value_to == pytest.approx(expected, rel=1e-10)

    def test_antisymmetry_all_pairs(self, fitted_market):
        model, table, _, _ = fitted_market
        parcel = table.rows[3]
        for a in ZONES:
            for b in ZONES:
                fwd = rezone_counterfactual(model, replace(parcel, zone=a), b)
                back = rezone_counterfactual(model, replace(parcel, zone=b), a)
                assert fwd.delta_log == pytest.approx(-back.delta_log, abs=1e-12)

    def test_path_independence(self, fitted_market):
        model, table, _, _ = fitted_market
        parcel = table.rows[4]
        for a in ZONES:
            for b in ZONES:
                for c in ZONES:
                    ab = rezone_counterfactual(model, replace(parcel, zone=a), b).delta_log
                    bc = rezone_counterfactual(model, replace(parcel, zone=b), c).delta_log
                    ac = rezone_counterfactual(model, replace(parcel, zone=a), c).delta_log
                    assert ab + bc == pytest.approx(ac, abs=1e-12)

    def test_physical_invariance(self, fitted_market):
        model, table, _, _ = fitted_market
        parcel = table.rows[5]
        tweaked = replace(parcel, lot_sqft=99999.0, age_years=1.0, bathrooms=9.0)
        a = rezone_counterfactual(model, parcel, "R1B")
        b = rezone_counterfactual(model, tweaked, "R1B")
        assert a.delta_log == b.delta_log
        assert a.naive_pct == b.naive_pct
        assert a.exact_pct == b.exact_pct

    def test_naive_below_exact_for_positive_delta(self, fitted_market):
        model, table, _, _ = fitted_market
        for to_zone in RESIDENTIAL_ZONES:
            report = rezone_counterfactual(model, replace(table.rows[6], zone="OTHER"), to_zone)
            if report.delta_log > 0:
                assert report.naive_pct <= report.exact_pct
            assert (report.naive_pct >= 0) == (report.delta_log >= 0)
            assert (report.exact_pct >= 0) == (report.delta_log >= 0)

    def test_unknown_zone_rejected(self, fitted_market):
        model, table, _, _ = fitted_market
        with pytest.raises(OptionValueError, match="B3"):
            rezone_counterfactual(model, table.rows[0], "B3")


class TestZoneEffects:
    def test_reference_ordering(self):
        effects = zone_effect_report(reference_model())
        assert [e.zone for e in effects] == ["R1A", "R1B", "R2", "S2"]
        assert effects[0].coefficient > effects[1].coefficient > effects[2].coefficient

    def test_s2_is_extreme_near_total_loss(self):
        effects = {e.zone: e for e in zone_effect_report(reference_model())}
        assert effects["S2"].exact_pct == pytest.approx(-99.998, abs=1e-3)
        assert effects["S2"].extreme
        assert not effects["R1A"].extreme

    def test_zero_effects(self, fitted_market):
        model, _, _, _ = fitted_market
        rows = [
            CoefficientRow("intercept", 10.0, 0.1, 100.0, 0.0, True),
        ]
        for term in default_model_spec().terms:
            rows.append(CoefficientRow(term.label, 0.0, 0.1, 0.0, 1.0, False))
        table = InferenceTable(
            rows=tuple(rows), r_squared=0.0, adj_r_squared=0.0, f_value=0.0,
            n=100, k=13, sigma2_hat=1.0,
        )
        effects = zone_effect_report(FittedModel(default_model_spec(), table))
        assert all(e.naive_pct == 0.0 and e.exact_pct == 0.0 for e in effects)

    def test_significance_carried_through(self):
        effects = {e.zone: e for e in zone_effect_report(reference_model())}
        assert effects["R1A"].significant and effects["S2"].significant


class TestCsvExport:
    def test_batch_export(self, tmp_path, fitted_market):
        model, table, _, _ = fitted_market
        reports = [rezone_counterfactual(model, p, "R1A") for p in table.rows[:50]]
        path = tmp_path / "whatif.csv"
        write_option_value_csv(reports, path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 50
        assert set(rows[0]) == {"pin", "from_zone", "to_zone", "delta_log", "naive_pct", "exact_pct"}
        assert float(rows[0]["delta_log"]) == pytest.approx(reports[0].delta_log)

    def test_file_bytes_equal_rendered_csv(self, tmp_path, fitted_market):
        model, table, _, _ = fitted_market
        reports = [rezone_counterfactual(model, p, "S2") for p in table.rows[:50]]
        path = tmp_path / "whatif.csv"
        write_option_value_csv(reports, path)
        assert path.read_bytes() == render_whatif(reports, "csv").encode("utf-8")


def test_fit_classmethod_matches_pipeline(fitted_market):
    model, table, _, _ = fitted_market
    _, _, inference = fit_table(table, default_model_spec())
    assert model.inference.rows == inference.rows


def test_label_mismatch_rejected():
    rows = (CoefficientRow("intercept", 1.0, 1.0, 1.0, 0.5, False),)
    table = InferenceTable(rows=rows, r_squared=0.5, adj_r_squared=0.5,
                           f_value=1.0, n=10, k=13, sigma2_hat=1.0)
    with pytest.raises(OptionValueError):
        FittedModel(default_model_spec(), table)
