import math
from dataclasses import replace

import numpy as np
import pytest

from zoneval.design import default_model_spec
from zoneval.inference import (
    InferenceError,
    compute_inference,
    fit_table,
    goodness_of_fit,
    student_t_sf,
)
from zoneval.lstsq import solve_least_squares, solve_normal_equations_oracle
from zoneval.parcels import ParcelTable
from zoneval.synth import default_true_model, generate_parcels

from conftest import BALANCED_ZONES, make_table


@pytest.fixture(scope="module")
def synthetic_fit():
    truth = default_true_model(seed=21, noise_sigma=0.2)
    table, _ = generate_parcels(truth, 3000)
    design, fit, inf = fit_table(table, default_model_spec())
    return design, fit, inf


class TestStudentTSF:
    def test_zero_statistic_gives_one(self):
        for dof in (1, 5, 100, 10_000):
            assert student_t_sf(0.0, dof) == 1.0

    def test_cauchy_quartile(self):
        # dof=1 is Cauchy: P(|T| >= 1) = 1/2 exactly
        assert student_t_sf(1.0, 1) == pytest.approx(0.5, abs=1e-12)

    def test_large_dof_matches_normal_tail(self):
        # oracle: two-sided normal tail via erfc
        p_normal = math.erfc(1.645 / math.sqrt(2.0))
        assert student_t_sf(1.645, 12461) == pytest.approx(p_normal, abs=5e-4)
        assert student_t_sf(1.645, 12461) == pytest.approx(0.0999, abs=5e-4)

    @pytest.mark.parametrize("dof", [1, 3, 12, 500, 5000])
    def test_monotone_decreasing_in_abs_t(self, dof):
        ts = np.linspace(0.0, 6.0, 40)
        ps = [student_t_sf(t, dof) for t in ts]
        assert all(a >= b for a, b in zip(ps, ps[1:]))
        assert all(0.0 <= p <= 1.0 for p in ps)

    def test_symmetry(self):
        assert student_t_sf(2.3, 17) == student_t_sf(-2.3, 17)

    def test_non_finite_rejected(self):
        with pytest.raises(InferenceError):
            student_t_sf(math.inf, 10)
        with pytest.raises(InferenceError):
            student_t_sf(1.0, 0)


class TestGoodnessOfFit:
    def test_zero_rss_is_exact_fit_marker(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        y = np.array([1.0, 3.0, 5.0])
        q = goodness_of_fit(solve_least_squares(X, y), y, k=1)
        assert q.exact_fit
        assert q.r_squared == 1.0
        assert math.isinf(q.f_value)

    def test_known_rss_tss_ratio(self):
        # orthogonal two-level design built so rss/tss = 0.25 exactly
        X = np.column_stack([np.ones(8), np.repeat([1.0, -1.0], 4)])
        signal = X[:, 1] * math.sqrt(3.0)
        noise = np.tile([1.0, -1.0], 4)  # orthogonal to both columns
        y = signal + noise
        fit = solve_least_squares(X, y)
        q = goodness_of_fit(fit, y, k=1)
        assert q.r_squared == pytest.approx(0.75, abs=1e-12)

    def test_adjusted_r_squared_formula(self):
        # R2=0.8952, k=13, n=12475 gives 0.8951 by the standard formula,
        # not the published 0.8930
        adj = 1.0 - (1.0 - 0.8952) * (12475 - 1) / (12475 - 13 - 1)
        assert round(adj, 4) == 0.8951
        assert round(adj, 4) != 0.8930

    def test_constant_response_rejected(self):
        X = np.column_stack([np.ones(5), np.arange(5.0)])
        y = np.full(5, 2.0)
        fit = solve_least_squares(X, y)
        with pytest.raises(InferenceError, match="tss"):
            goodness_of_fit(fit, y, k=1)


class TestComputeInference:
    def test_t_is_estimate_over_se(self, synthetic_fit):
        _, _, inf = synthetic_fit
        for row in inf.rows:
            assert row.t_value == pytest.approx(row.estimate / row.std_error, rel=1e-12)

    def test_significance_flag_matches_p(self, synthetic_fit):
        _, _, inf = synthetic_fit
        for row in inf.rows:
            assert row.significant == (row.p_value < inf.alpha)

    def test_table_shape_and_stats(self, synthetic_fit):
        design, fit, inf = synthetic_fit
        assert inf.labels == design.column_labels
        assert inf.n == design.n
        assert inf.k == 13
        assert 0.0 <= inf.r_squared <= 1.0
        assert inf.adj_r_squared <= inf.r_squared
        assert inf.f_value >= 0.0
        assert inf.sigma2_hat == pytest.approx(fit.rss / fit.dof, rel=1e-12)

    def test_standard_errors_match_oracle(self, synthetic_fit):
        design, fit, inf = synthetic_fit
        oracle = solve_normal_equations_oracle(design.X, design.y)
        sigma2 = oracle.rss / oracle.dof
        for j, row in enumerate(inf.rows):
            se = math.sqrt(sigma2 * oracle.xtx_inverse[j, j])
            assert row.std_error == pytest.approx(se, rel=1e-7)

    def test_f_matches_definition(self, synthetic_fit):
        design, fit, inf = synthetic_fit
        n, k = inf.n, inf.k
        f = (inf.r_squared / k) / ((1.0 - inf.r_squared) / (n - k - 1))
        assert inf.f_value == pytest.approx(f, rel=1e-12)

    def test_exact_fit_degenerates_gracefully(self):
        truth = default_true_model(seed=5, noise_sigma=0.0, zone_probs=dict(BALANCED_ZONES))
        table, _ = generate_parcels(truth, 500)
        _, _, inf = fit_table(table, default_model_spec())
        assert inf.exact_fit
        assert inf.r_squared == 1.0
        assert math.isinf(inf.f_value)
        for row in inf.rows:
            assert row.std_error == 0.0
            assert math.isnan(row.t_value)
            assert not row.significant

    def test_no_dof_rejected(self):
        table = make_table(14)  # n == p for the 13-term model with intercept
        with pytest.raises(InferenceError):
            fit_table(table, default_model_spec())

    def test_alpha_bounds(self, synthetic_fit):
        design, fit, _ = synthetic_fit
        with pytest.raises(InferenceError):
            compute_inference(fit, design, alpha=1.5)

    def test_value_rescale_leaves_slope_inference(self):
        table = make_table(200, seed=9)
        _, _, base = fit_table(table, default_model_spec())
        scaled_rows = tuple(
            replace(p, assessed_value=p.assessed_value * 7.0) for p in table.rows
        )
        _, _, scaled = fit_table(ParcelTable(scaled_rows), default_model_spec())
        assert scaled.r_squared == pytest.approx(base.r_squared, abs=1e-9)
        assert scaled.f_value == pytest.approx(base.f_value, rel=1e-9)
        for label in base.labels:
            if label == "intercept":
                continue
            assert scaled.row(label).t_value == pytest.approx(
                base.row(label).t_value, abs=1e-9
            )
