import json
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from zoneval.design import ModelSpec, Term, Transform, build_design_matrix, default_model_spec
from zoneval.inference import fit_table
from zoneval.parcels import write_parcels
from zoneval.reference import REFERENCE_ZONE_DENSITIES, N_USED
from conftest import BALANCED_ZONES
from zoneval.synth import (
    SynthError,
    TrueModel,
    calibrated_noise_sigma,
    default_true_model,
    generate_parcels,
    recovery_error,
    write_generation_log,
)


class TestDeterminism:
    def test_same_seed_same_table(self):
        truth = default_true_model(seed=77, noise_sigma=0.3)
        t1, l1 = generate_parcels(truth, 300)
        t2, l2 = generate_parcels(truth, 300)
        assert t1.rows == t2.rows
        assert np.array_equal(l1.true_log_values, l2.true_log_values)

    def test_same_seed_byte_identical_files(self, tmp_path):
        truth = default_true_model(seed=78, noise_sigma=0.3)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_parcels(generate_parcels(truth, 200)[0], p1)
        write_parcels(generate_parcels(truth, 200)[0], p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seeds_differ(self):
        t1, _ = generate_parcels(default_true_model(seed=1, noise_sigma=0.3), 50)
        t2, _ = generate_parcels(default_true_model(seed=2, noise_sigma=0.3), 50)
        assert t1.rows != t2.rows


class TestGeneration:
    def test_noiseless_fit_recovers_truth(self):
        truth = default_true_model(seed=80, noise_sigma=0.0, zone_probs=dict(BALANCED_ZONES))
        table, _ = generate_parcels(truth, 2000)
        _, _, inference = fit_table(table, default_model_spec())
        estimates = np.array([r.estimate for r in inference.rows])
        assert np.max(np.abs(estimates - truth.beta_vector())) < 1e-8

    def test_zone_counts_within_binomial_bound(self):
        truth = default_true_model(seed=81, noise_sigma=0.2)
        table, _ = generate_parcels(truth, N_USED)
        counts = {z: 0 for z in REFERENCE_ZONE_DENSITIES}
        for p in table.rows:
            if p.zone in counts:
                counts[p.zone] += 1
        for zone, expected in REFERENCE_ZONE_DENSITIES.items():
            prob = expected / N_USED
            bound = 3.0 * math.sqrt(N_USED * prob * (1.0 - prob))
            assert abs(counts[zone] - expected) <= bound, (zone, counts[zone], expected)

    def test_covariates_respect_ranges(self):
        truth = default_true_model(seed=82, noise_sigma=0.2)
        table, _ = generate_parcels(truth, 3000)
        for field, (lo, hi) in truth.covariate_ranges.items():
            values = [getattr(p, field) for p in table.rows]
            assert min(values) >= lo and max(values) <= hi, field

    def test_generated_table_is_clean(self):
        from zoneval.parcels import clean

        table, _ = generate_parcels(default_true_model(seed=83, noise_sigma=0.2), 500)
        _, report = clean(table)
        assert report.rows_dropped == 0

    def test_lot_geometry_correlations_are_strong(self):
        table, _ = generate_parcels(default_true_model(seed=84, noise_sigma=0.2), 8000)
        lw = np.log([p.lot_width_ft for p in table.rows])
        ld = np.log([p.lot_depth_ft for p in table.rows])
        ls = np.log([p.lot_sqft for p in table.rows])
        assert np.corrcoef(ls, lw)[0, 1] > 0.75
        assert np.corrcoef(ls, ld)[0, 1] > 0.55

    @pytest.mark.parametrize("n", [1, 999, 1000, 1001, 2001])
    def test_pins_are_numbered_across_block_edges(self, n):
        # pins are built a thousand at a time; each must still be SYN and i in 7 digits
        table, _ = generate_parcels(default_true_model(seed=86, noise_sigma=0.2), n)
        assert table.pins == tuple(f"SYN{i:07d}" for i in range(n))

    def test_n_must_be_positive(self):
        with pytest.raises(SynthError):
            generate_parcels(default_true_model(), 0)

    def test_log_values_recorded_before_noise(self):
        truth = default_true_model(seed=85, noise_sigma=0.0)
        table, log = generate_parcels(truth, 100)
        values = np.array([p.assessed_value for p in table.rows])
        assert np.allclose(np.log(values), log.true_log_values, atol=1e-12)


def renamed_dummy_and_moved_cut(truth):
    """The truth over a spec that calls R1A 'zoneA' and counts condition
    as good from 70, not 40."""
    spec = ModelSpec(tuple(
        Term("zoneA", t.source, t.transform) if t.label == "R1A"
        else Term(t.label, t.source, Transform("threshold", cut=70.0)) if t.label == "condition"
        else t
        for t in truth.spec.terms
    ))
    beta = {("zoneA" if label == "R1A" else label): value for label, value in truth.beta.items()}
    return replace(truth, spec=spec, beta=beta)


@pytest.mark.parametrize(
    "make_truth", [lambda truth: truth, renamed_dummy_and_moved_cut], ids=["default", "custom"]
)
def test_true_log_values_are_the_fitters_design_times_beta(make_truth):
    truth = make_truth(default_true_model(seed=86, noise_sigma=0.3))
    table, log = generate_parcels(truth, 500)
    expected = build_design_matrix(table, truth.spec).X @ truth.beta_vector()
    assert np.array_equal(log.true_log_values, expected)  # bit for bit


class TestValidation:
    def test_zone_probs_must_sum_to_one(self):
        with pytest.raises(SynthError, match="sum"):
            TrueModel(
                beta=default_true_model().beta,
                noise_sigma=0.1,
                zone_probs={"R1A": 0.5, "R1B": 0.2, "R2": 0.1, "S2": 0.1, "OTHER": 0.2},
            )

    def test_invalid_range_rejected(self):
        base = default_true_model()
        ranges = dict(base.covariate_ranges)
        ranges["lot_sqft"] = (-5.0, 100.0)
        with pytest.raises(SynthError, match="lot_sqft"):
            TrueModel(
                beta=base.beta, noise_sigma=0.1, zone_probs=base.zone_probs,
                covariate_ranges=ranges,
            )

    def test_beta_labels_must_match_spec(self):
        base = default_true_model()
        beta = dict(base.beta)
        del beta["taxrate"]
        with pytest.raises(SynthError, match="labels"):
            TrueModel(beta=beta, noise_sigma=0.1, zone_probs=base.zone_probs)

    def test_a_negative_zone_share_is_refused(self):
        base = default_true_model()
        shares = {"R1A": 0.6, "R1B": 0.3, "R2": 0.1, "S2": 0.1, "OTHER": -0.1}
        with pytest.raises(SynthError) as info:
            replace(base, zone_probs=shares)
        assert str(info.value) == "zone probabilities must be nonnegative"

    def test_an_empty_range_is_named(self):
        base = default_true_model()
        ranges = {**base.covariate_ranges, "age_years": (10.0, 5.0)}
        with pytest.raises(SynthError) as info:
            replace(base, covariate_ranges=ranges)
        assert str(info.value) == "empty range for age_years: (10.0, 5.0)"

    def test_negative_noise_rejected(self):
        with pytest.raises(SynthError):
            default_true_model(noise_sigma=-0.1)

    def test_negative_seed_is_named(self):
        with pytest.raises(SynthError, match=r"^seed must be >= 0, got -1$"):
            default_true_model(seed=-1)


class TestCalibration:
    def test_calibrated_noise_hits_target_r2(self):
        truth = default_true_model(seed=90)
        sigma = calibrated_noise_sigma(truth, 0.895, probe_n=6000)
        table, _ = generate_parcels(default_true_model(seed=90, noise_sigma=sigma), 6000)
        _, _, inference = fit_table(table, default_model_spec())
        assert 0.87 <= inference.r_squared <= 0.92

    def test_target_bounds(self):
        with pytest.raises(SynthError):
            calibrated_noise_sigma(default_true_model(), 1.5)

    @pytest.mark.parametrize("target", [0.0, 1.0, -0.5, math.nan])
    def test_a_target_outside_the_unit_interval_is_named(self, target):
        with pytest.raises(SynthError) as info:
            calibrated_noise_sigma(default_true_model(), target)
        assert str(info.value) == f"target_r2 must be in (0, 1), got {target}"

    def test_a_one_parcel_probe_is_refused_before_any_draw(self):
        # one parcel has no variance, whatever the truth's signal
        with mock.patch("zoneval.synth.generate_parcels", side_effect=AssertionError("generated")):
            with pytest.raises(SynthError) as info:
                calibrated_noise_sigma(default_true_model(), 0.5, probe_n=1)
        assert str(info.value) == "probe_n must be >= 2 to calibrate noise to target_r2, got 1"

    def test_a_truth_with_no_signal_is_refused(self):
        base = default_true_model()
        flat = replace(base, beta={label: (11.0 if label == "intercept" else 0.0) for label in base.beta})
        with pytest.raises(SynthError) as info:
            calibrated_noise_sigma(flat, 0.5, probe_n=200)
        assert str(info.value) == "degenerate truth: no signal variance"


class TestRecovery:
    def test_noiseless_recovery_is_exact_marker(self):
        truth = default_true_model(seed=91, noise_sigma=0.0, zone_probs=dict(BALANCED_ZONES))
        table, _ = generate_parcels(truth, 1000)
        _, _, inference = fit_table(table, default_model_spec())
        report = recovery_error(truth, inference)
        assert report.exact_fit
        assert report.standardized is None
        assert report.fraction_within() is None
        assert np.max(np.abs(report.raw_errors)) < 1e-8

    def test_standardized_errors_mostly_within_three(self):
        truth = default_true_model(seed=92, noise_sigma=0.25)
        table, _ = generate_parcels(truth, 8000)
        _, _, inference = fit_table(table, default_model_spec())
        report = recovery_error(truth, inference)
        assert report.fraction_within(3.0) >= 0.9

    def test_label_mismatch_rejected(self):
        truth = default_true_model(seed=93, noise_sigma=0.1, zone_probs=dict(BALANCED_ZONES))
        table, _ = generate_parcels(truth, 1000)
        restricted = default_model_spec().drop_terms(["taxrate"])
        _, _, inference = fit_table(table, restricted)
        with pytest.raises(SynthError, match="mismatch"):
            recovery_error(truth, inference)

    def test_omitted_live_regressor_biases_correlated_one(self):
        # drop the lot-area term: its effect loads onto the correlated
        # width/depth columns, pushing their standardized errors past 3
        truth = default_true_model(seed=94, noise_sigma=0.1)
        table, _ = generate_parcels(truth, 10000)
        restricted_spec = default_model_spec().drop_terms(["log(lotsqfeet)"])
        beta = {k: v for k, v in truth.beta.items() if k != "log(lotsqfeet)"}
        restricted_truth = TrueModel(
            beta=beta, noise_sigma=truth.noise_sigma, zone_probs=truth.zone_probs,
            covariate_ranges=truth.covariate_ranges, seed=truth.seed,
            spec=restricted_spec,
        )
        _, _, inference = fit_table(table, restricted_spec)
        report = recovery_error(restricted_truth, inference)
        by_label = dict(zip(report.labels, np.abs(report.standardized)))
        assert max(by_label["log(lotdima)"], by_label["log(lotdimb)"]) > 3.0


def test_generation_log_sidecar(tmp_path):
    truth = default_true_model(seed=95, noise_sigma=0.2)
    _, log = generate_parcels(truth, 50)
    path = tmp_path / "gen.log.json"
    write_generation_log(log, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["seed"] == 95
    assert payload["n"] == 50
    assert payload["generator"] == "numpy-pcg64"
    assert len(payload["true_log_values"]) == 50
    assert payload["true_beta"]["R1A"] == truth.beta["R1A"]
