"""Acceptance gate: every criterion runs at its stated tolerance and
prints one pass line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from zoneval.design import build_design_matrix, default_model_spec
from zoneval.diagnostics import correlation_matrix, zoning_variance_share
from zoneval.inference import fit_table
from zoneval.lstsq import solve_least_squares, solve_normal_equations_oracle
from zoneval.option_value import FittedModel, rezone_counterfactual
from zoneval.parcels import ParcelTable, clean, load_parcels, write_parcels
from zoneval.reference import consistency_check
from zoneval.synth import (
    TrueModel,
    calibrated_noise_sigma,
    default_true_model,
    generate_parcels,
    recovery_error,
)

from test_option_value import reference_model, reference_parcel


RECOVERY_ZONE_PROBS = {"R1A": 0.30, "R1B": 0.30, "R2": 0.15, "S2": 0.05, "OTHER": 0.20}


def report(name, elapsed=None, detail=""):
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE PASS: {name}{timing} {detail}")


def test_criterion_1_reference_table_consistency():
    start = time.perf_counter()
    result = consistency_check(tolerance=0.01)
    elapsed = time.perf_counter() - start
    matches = [r.label for r in result.rows if r.matches]
    assert len(matches) == 12
    assert result.anomalies == ("age^2",)
    age_sq = next(r for r in result.rows if r.label == "age^2")
    assert age_sq.estimate == 1.25516 and age_sq.std_error == 3.909098
    assert age_sq.published_t == 3.21
    assert elapsed < 1.0
    report("1 reference-table consistency", elapsed, f"12 match, anomaly: {result.anomalies[0]}")


def test_criterion_2_solver_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        X = rng.standard_normal((100, 6))
        X[:, 0] = 1.0
        y = X @ rng.standard_normal(6) + rng.standard_normal(100)
        qr = solve_least_squares(X, y)
        oracle = solve_normal_equations_oracle(X, y)
        rel = np.max(np.abs(qr.coefficients - oracle.coefficients)) / np.max(
            np.abs(oracle.coefficients)
        )
        worst = max(worst, rel)
        assert rel <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("2 solver oracle equivalence", elapsed, f"200 instances, worst rel diff {worst:.2e}")


def test_criterion_3_recovery_and_consistency():
    start = time.perf_counter()
    base = default_true_model(seed=0, zone_probs=dict(RECOVERY_ZONE_PROBS))
    sigma = calibrated_noise_sigma(base, 0.895, probe_n=10000)

    standardized = []
    for seed in range(100):
        truth = default_true_model(
            seed=seed, noise_sigma=sigma, zone_probs=dict(RECOVERY_ZONE_PROBS)
        )
        table, _ = generate_parcels(truth, 10000)
        _, _, inference = fit_table(table, default_model_spec())
        rep = recovery_error(truth, inference)
        standardized.extend(np.abs(rep.standardized))
    standardized = np.asarray(standardized)
    fraction = float(np.mean(standardized <= 3.0))
    assert fraction >= 0.95

    max_errors = []
    for n in (500, 5000, 50000):
        truth = default_true_model(
            seed=0, noise_sigma=sigma, zone_probs=dict(RECOVERY_ZONE_PROBS)
        )
        table, _ = generate_parcels(truth, n)
        _, _, inference = fit_table(table, default_model_spec())
        rep = recovery_error(truth, inference)
        max_errors.append(float(np.max(np.abs(rep.raw_errors))))
    assert max_errors[0] > max_errors[1] > max_errors[2]

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(
        "3 coefficient recovery", elapsed,
        f"{fraction:.1%} within +-3; max errors {['%.3f' % m for m in max_errors]}",
    )


def test_criterion_4_fit_quality_regime():
    start = time.perf_counter()
    truth = default_true_model(seed=8)
    sigma = calibrated_noise_sigma(truth, 0.895, probe_n=12475)
    table, _ = generate_parcels(default_true_model(seed=8, noise_sigma=sigma), 12475)
    _, _, inference = fit_table(table, default_model_spec())
    assert 0.88 <= inference.r_squared <= 0.91
    elapsed = time.perf_counter() - start
    report("4 fit-quality regime", elapsed, f"sample R-square {inference.r_squared:.4f}")


def test_criterion_5_invariant_suites():
    start = time.perf_counter()
    truth = default_true_model(seed=17, noise_sigma=0.2)
    table, _ = generate_parcels(truth, 6000)
    design = build_design_matrix(table, default_model_spec())

    # correlation matrices: symmetric, unit diagonal, PSD within 1e-8
    for block in correlation_matrix(design):
        v = block.values
        assert np.array_equal(v, v.T)
        assert np.all(np.diag(v) == 1.0)
        assert np.linalg.eigvalsh(v).min() >= -1e-8

    # zone dummies mutually exclusive, binary
    dummies = np.column_stack([design.column(z) for z in ("R1A", "R1B", "R2", "S2")])
    assert np.isin(dummies, (0.0, 1.0)).all()
    assert dummies.sum(axis=1).max() <= 1.0

    # rezone antisymmetry and path independence within 1e-12
    model = FittedModel.fit(table)
    parcel = table.rows[0]
    zones = ("R1A", "R1B", "R2", "S2", "OTHER")
    for a in zones:
        for b in zones:
            ab = rezone_counterfactual(model, replace(parcel, zone=a), b).delta_log
            ba = rezone_counterfactual(model, replace(parcel, zone=b), a).delta_log
            assert abs(ab + ba) <= 1e-12
            for c in zones:
                bc = rezone_counterfactual(model, replace(parcel, zone=b), c).delta_log
                ac = rezone_counterfactual(model, replace(parcel, zone=a), c).delta_log
                assert abs(ab + bc - ac) <= 1e-12

    # rescaling assessed values: slope t-values, R-square, F unchanged within 1e-9
    _, _, base = fit_table(table, default_model_spec())
    scaled_table = ParcelTable(
        tuple(replace(p, assessed_value=p.assessed_value * 3.0) for p in table.rows)
    )
    _, _, scaled = fit_table(scaled_table, default_model_spec())
    assert abs(scaled.r_squared - base.r_squared) <= 1e-9
    assert abs(scaled.f_value - base.f_value) <= 1e-9 * max(1.0, abs(base.f_value))
    for label in base.labels:
        if label != "intercept":
            assert abs(scaled.row(label).t_value - base.row(label).t_value) <= 1e-9 * max(
                1.0, abs(base.row(label).t_value)
            )

    # nested-model R-square monotonicity across 50 random spec pairs
    rng = np.random.default_rng(99)
    full_terms = default_model_spec().terms
    checked = 0
    while checked < 50:
        k_small = int(rng.integers(1, len(full_terms)))
        k_big = int(rng.integers(k_small, len(full_terms) + 1))
        idx = rng.permutation(len(full_terms))
        big_idx = sorted(idx[:k_big])
        small_idx = sorted(rng.permutation(big_idx)[:k_small])
        spec_small = type(default_model_spec())(
            default_model_spec().response, tuple(full_terms[i] for i in small_idx), True
        )
        spec_big = type(default_model_spec())(
            default_model_spec().response, tuple(full_terms[i] for i in big_idx), True
        )
        _, fit_small, _ = fit_table(table, spec_small)
        _, fit_big, _ = fit_table(table, spec_big)
        assert fit_big.rss <= fit_small.rss * (1.0 + 1e-12)
        checked += 1

    elapsed = time.perf_counter() - start
    report("5 invariant suites", elapsed)


def test_criterion_6_percent_effect_math():
    start = time.perf_counter()
    model = reference_model()
    parcel = reference_parcel()

    r1a = rezone_counterfactual(model, parcel, "R1A")
    assert r1a.naive_pct == pytest.approx(100.0 * 0.5592927, abs=1e-9)
    assert round(r1a.naive_pct, 2) == 55.93  # published rounding reads this as "55 percent"

    r1b = rezone_counterfactual(model, parcel, "R1B")
    independent = 100.0 * (math.exp(0.4670651) - 1.0)
    assert abs(r1b.exact_pct - independent) <= 1e-9
    assert abs(r1b.exact_pct - 59.53) <= 0.01

    s2 = rezone_counterfactual(model, parcel, "S2")
    assert s2.exact_pct == pytest.approx(-99.998, abs=1e-3)
    elapsed = time.perf_counter() - start
    report("6 percent-effect math", elapsed, f"naive R1A {r1a.naive_pct:.2f}, exact R1B {r1b.exact_pct:.2f}")


def test_criterion_7_cleaning_contract(tmp_path):
    start = time.perf_counter()
    table, _ = generate_parcels(default_true_model(seed=7, noise_sigma=0.2), 12507)
    rows = list(table.rows)
    # 32 defects spread across the failure modes the cleaner must itemize
    defects = (
        [("assessed_value", None)] * 6
        + [("lot_sqft", None)] * 6
        + [("bathrooms", 0.0)] * 5
        + [("condition_pct", 150.0)] * 5
        + [("total_bldg_sqft", -10.0)] * 5
        + [("age_years", None)] * 5
    )
    step = len(rows) // len(defects)
    defect_pins = []
    for i, (field, value) in enumerate(defects):
        idx = i * step
        rows[idx] = replace(rows[idx], **{field: value})
        defect_pins.append(rows[idx].pin)

    path = tmp_path / "fixture.csv"
    write_parcels(ParcelTable(tuple(rows)), path)
    loaded = load_parcels(path)
    assert len(loaded) == 12507

    cleaned, rep = clean(loaded)
    assert rep.rows_in == 12507
    assert rep.rows_dropped == 32
    assert rep.rows_kept == 12475
    assert len(cleaned) == 12475
    assert sorted(rep.dropped_pins) == sorted(defect_pins)
    assert rep.dropped_by_field == {
        "assessed_value": 6,
        "lot_sqft": 6,
        "bathrooms": 5,
        "condition_pct": 5,
        "total_bldg_sqft": 5,
        "age_years": 5,
    }
    elapsed = time.perf_counter() - start
    report("7 cleaning contract", elapsed, "12507 -> 12475, fully itemized")


def test_criterion_8_hypothesis_pipeline():
    start = time.perf_counter()
    base = default_true_model(seed=23)

    zoning_beta = {label: 0.0 for label in base.beta}
    zoning_beta.update(intercept=11.0, R1A=0.56, R1B=0.47, R2=0.40, S2=-2.0)
    zoned = TrueModel(beta=zoning_beta, noise_sigma=0.05, zone_probs=base.zone_probs, seed=23)
    table_zoned, _ = generate_parcels(zoned, 6000)
    share_zoned = zoning_variance_share(table_zoned)
    assert share_zoned.hypothesis_met

    silent_beta = dict(base.beta)
    silent_beta.update(R1A=0.0, R1B=0.0, R2=0.0, S2=0.0)
    silent = TrueModel(beta=silent_beta, noise_sigma=0.1, zone_probs=base.zone_probs, seed=24)
    table_silent, _ = generate_parcels(silent, 6000)
    share_silent = zoning_variance_share(table_silent)
    assert not share_silent.hypothesis_met

    for share in (share_zoned, share_silent):
        assert 0.0 <= share.r2_zoning <= share.r2_full <= 1.0

    elapsed = time.perf_counter() - start
    report(
        "8 hypothesis pipeline", elapsed,
        f"zoned share {share_zoned.zoning_share:.3f} MET; "
        f"silent share {share_silent.zoning_share:.3f} NOT MET",
    )
