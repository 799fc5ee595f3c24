import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zoneval import inference
from zoneval.design import MAX_COLUMN_SQUARES, DesignMatrix, build_design_matrix, default_model_spec
from zoneval.inference import (
    InferenceError,
    compute_inference,
    fit_table,
    goodness_of_fit,
    student_t_sf,
)
from zoneval.lstsq import LsFit, solve_least_squares
from zoneval.parcels import ParcelTable, clean
from zoneval.synth import default_true_model, generate_parcels

from conftest import BALANCED_ZONES, make_table
from oracle import solve_normal_equations_oracle


# P(|T_dof| >= t) to 20 digits (mpmath at 50 digits, the regularized
# incomplete beta I_x(dof/2, 1/2), x = dof / (dof + t^2) from the exact
# double t), from t = 1e-8 to the last tail at or above 1e-300 and the
# first that underflows (0.0); the Cauchy tail (dof = 1) stays above the
# smallest double for every finite t
STUDENT_T_TAILS = [
    (1, 1e-08, 0.99999999363380227632),
    (1, 2.38e-06, 0.99999848484494176802),
    (1, 0.001, 0.99936338043983888211),
    (1, 0.3, 0.81445284184451531937),
    (1, 1.0, 0.5),
    (1, 1.7, 0.33850605466066533478),
    (1, 1.8, 0.32282893443419049558),
    (1, 1.9, 0.30842822890066695),
    (1, 2.0, 0.29516723530086654835),
    (1, 3.0, 0.20483276469913345165),
    (1, 6.0, 0.1051369134225068599),
    (1, 12.0, 0.052929352119179750904),
    (1, 6e+298, 1.061032953945968948e-299),
    (2, 1e-08, 0.99999999292893218813),
    (2, 2.38e-06, 0.9999983170858607784),
    (2, 0.001, 0.99929289339559008147),
    (2, 0.3, 0.79248566084017761065),
    (2, 1.0, 0.42264973081037423549),
    (2, 1.7, 0.23123342620157122332),
    (2, 1.8, 0.21366634900506584487),
    (2, 1.9, 0.19781937125057679258),
    (2, 2.0, 0.18350341907227396727),
    (2, 3.0, 0.09546596626670913206),
    (2, 6.0, 0.026671473215424771013),
    (2, 12.0, 0.0068729336771584601411),
    (2, 9e+149, 1.2345679012345679984e-300),
    (2, 1e+170, 0.0),
    (3, 1e-08, 0.99999999264894806104),
    (3, 2.38e-06, 0.99999825044963853038),
    (3, 0.001, 0.999264894969460938),
    (3, 0.3, 0.78376329203991904229),
    (3, 1.0, 0.39100221895577064191),
    (3, 1.7, 0.18769064155341008848),
    (3, 1.8, 0.16967992890125825561),
    (3, 1.9, 0.15363154330599921215),
    (3, 2.0, 0.13932596855884317685),
    (3, 3.0, 0.057668885622437308578),
    (3, 6.0, 0.0092727148922846674041),
    (3, 12.0, 0.001245015800789336738),
    (3, 1e+99, 2.2053155816871684141e-297),
    (3, 1e+120, 0.0),
    (10, 1e-08, 0.99999999221783232068),
    (10, 2.38e-06, 0.99999814784409232362),
    (10, 0.001, 0.99922178337474098418),
    (10, 0.3, 0.77032060756579861281),
    (10, 1.0, 0.34089313230205987267),
    (10, 1.7, 0.11996934590902040529),
    (10, 1.8, 0.1020522431346790128),
    (10, 1.9, 0.086622457516441026016),
    (10, 2.0, 0.073388034770740365618),
    (10, 3.0, 0.013343655022569577207),
    (10, 6.0, 0.00013210886035478560424),
    (10, 12.0, 2.9214088247699870879e-7),
    (10, 1e+29, 2.4609375000000021082e-286),
    (10, 1e+40, 0.0),
    (17, 1e-08, 0.99999999213756539985),
    (17, 2.38e-06, 0.99999812874056516726),
    (17, 0.001, 0.99921375667873427998),
    (17, 0.3, 0.76781449697029601339),
    (17, 1.0, 0.33133276203867883009),
    (17, 1.7, 0.10735220359908216536),
    (17, 1.8, 0.089632152531784119601),
    (17, 1.9, 0.074531628289750565487),
    (17, 2.0, 0.061738606530119164791),
    (17, 3.0, 0.0080546968092095170066),
    (17, 6.0, 0.000014339640123955386911),
    (17, 12.0, 1.0062315526421902557e-9),
    (17, 3e+16, 4.2470471921535542298e-271),
    (17, 1e+25, 0.0),
    (2486, 1e-08, 0.99999999202195672948),
    (2486, 2.38e-06, 0.99999810122570161878),
    (2486, 0.001, 0.99920219580596916946),
    (2486, 0.3, 0.76420223749904457267),
    (2486, 1.0, 0.31740783143071329131),
    (2486, 1.7, 0.089256013431420456654),
    (2486, 1.8, 0.071981830865655705527),
    (2486, 1.9, 0.057548724844697858258),
    (2486, 2.0, 0.045608874651641455112),
    (2486, 3.0, 0.0027266073467570560365),
    (2486, 6.0, 2.2610643993164908198e-9),
    (2486, 12.0, 2.7219591742257950452e-32),
    (2486, 42.5, 3.7349985388529590812e-297),
    (2486, 52.0, 0.0),
    (12461, 1e-08, 0.99999999202131446672),
    (12461, 2.38e-06, 0.99999810107284308015),
    (12461, 0.001, 0.99920213157966032235),
    (12461, 0.3, 0.76418215973391469613),
    (12461, 1.0, 0.31732992571620785892),
    (12461, 1.7, 0.089155881165682657193),
    (12461, 1.8, 0.071884815741681812174),
    (12461, 1.9, 0.057456181222128128739),
    (12461, 2.0, 0.045521928700143077845),
    (12461, 3.0, 0.0027051337302553579237),
    (12461, 6.0, 2.0279415348462712092e-9),
    (12461, 12.0, 5.3997282083508407826e-33),
    (12461, 37.5, 1.052649851869453511e-291),
    (12461, 41.0, 0.0),
    (49858, 1e-08, 0.99999999202119439972),
    (49858, 2.38e-06, 0.99999810104426713548),
    (49858, 0.001, 0.999202119572954878),
    (49858, 0.3, 0.76417840630885064048),
    (49858, 1.0, 0.31731536103615040783),
    (49858, 1.7, 0.089137162691467704481),
    (49858, 1.8, 0.071866680874160713488),
    (49858, 1.9, 0.057438883320162861829),
    (49858, 2.0, 0.045505678421695449116),
    (49858, 3.0, 0.0027011295796366005577),
    (49858, 6.0, 1.9867421680946136107e-9),
    (49858, 12.0, 3.9471548917109034023e-33),
    (49858, 37.25, 1.4047460099429786251e-299),
    (49858, 41.0, 0.0),
    (99986, 1e-08, 0.99999999202117434185),
    (99986, 2.38e-06, 0.9999981010394933629),
    (99986, 0.001, 0.99920211756716707889),
    (99986, 0.3, 0.76417777927764930182),
    (99986, 1.0, 0.31731292790291476914),
    (99986, 1.7, 0.089134035684086122505),
    (99986, 1.8, 0.071863651388504487788),
    (99986, 1.9, 0.057435993686476540942),
    (99986, 2.0, 0.045502963835499738355),
    (99986, 3.0, 0.0027004609771587618034),
    (99986, 6.0, 1.9799304027098401321e-9),
    (99986, 12.0, 3.7445333155976808628e-33),
    (99986, 37.0, 1.1982356757347253751e-297),
    (99986, 41.0, 0.0),
]


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

    def test_a_continued_fraction_that_does_not_converge_is_one_line(self, monkeypatch):
        monkeypatch.setattr(inference, "_CF_MAX_PAIRS", 2)
        with pytest.raises(InferenceError) as info:
            student_t_sf(2.0, 50)
        assert str(info.value) == "incomplete beta continued fraction did not converge (a=25.0, b=0.5)"

    def test_a_tail_below_the_smallest_double_at_large_dof_is_zero(self):
        # dof / t^2 underflows to 0, and at dof > 128 so does its power
        assert student_t_sf(1e200, 200) == 0.0
        assert student_t_sf(-1e200, 200) == 0.0

    def test_small_t_at_large_dof_is_below_one(self):
        # dof / (dof + t^2) rounds to 1.0 here; the tail must not
        assert student_t_sf(2.38e-6, 99986) == pytest.approx(0.99999810103949336, rel=1e-13)
        assert student_t_sf(2.38e-6, 99986) < 1.0

    @pytest.mark.parametrize("dof, t, p", STUDENT_T_TAILS)
    def test_matches_high_precision_table(self, dof, t, p):
        got = student_t_sf(t, dof)
        if p == 0.0:
            assert got == 0.0
        else:
            assert abs(got - p) <= 1e-13 * p
        assert student_t_sf(-t, dof) == got


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

    @pytest.mark.parametrize("ratio", [0.5, 2.0])
    def test_a_tss_below_the_rss_rounding_floor_is_refused(self, ratio):
        # y = 1 +- j eps has tss = n (j eps)^2 and y @ y = n, so with k = 6 the
        # floor (k + 2) eps^2 (y @ y) is 8 n eps^2, and j = sqrt(8 ratio) is 2 or 4
        n, k = 40, 6
        y = 1.0 + math.sqrt(8 * ratio) * np.finfo(np.float64).eps * np.tile([1.0, -1.0], n // 2)
        tss = float(np.sum((y - y.mean()) ** 2))
        assert tss == ratio * (k + 2) * inference.RSS_ROUNDING_FLOOR * (y @ y)
        fit = LsFit(
            coefficients=np.zeros(k + 1), rss=tss / 2, scaled_inverse=np.eye(k + 1), scales=np.ones(k + 1), dof=n - k - 1
        )
        if ratio > 1.0:
            assert goodness_of_fit(fit, y, k).r_squared == 0.5
        else:
            with pytest.raises(InferenceError) as info:
                goodness_of_fit(fit, y, k)
            assert str(info.value).startswith(
                "response log(assessed_value) varies less than the rounding of the residual sum of squares: "
                "R-square undefined (tss = "
            )

    @pytest.mark.parametrize("k, message", [
        (0, "need at least one regressor, got k=0"),
        (4, "no residual degrees of freedom: n=5, k=4"),
    ])
    def test_regressor_count_is_checked(self, k, message):
        X = np.column_stack([np.ones(5), np.arange(5.0)])
        y = np.array([1.0, 3.0, 2.0, 5.0, 4.0])
        with pytest.raises(InferenceError) as info:
            goodness_of_fit(solve_least_squares(X, y), y, k=k)
        assert str(info.value) == message


@pytest.fixture(scope="module")
def near_constant_design():
    """The CLI tests' near-constant market, built in process: 400 rows whose
    assessed values differ in the 15th digit, the tax rate times 1e150.  Its
    tss is 6.7 rounding floors."""
    rows = generate_parcels(default_true_model(seed=3, zone_probs=dict(BALANCED_ZONES)), 400)[0]
    table = ParcelTable(tuple(
        replace(p, assessed_value=1e5 * (1.0 + 1e-14 * (i % 9)), tax_rate_pct=p.tax_rate_pct * 1e150)
        for i, p in enumerate(rows)
    ))
    return build_design_matrix(clean(table)[0], default_model_spec())


class TestNearConstantResponse:
    def test_the_solve_reads_the_rss_of_the_centred_response(self, near_constant_design):
        # the triangle of the uncentred [X | y] read 6.29e-25, rounded in
        # proportion to y @ y, past the tss
        X, y = near_constant_design.X, near_constant_design.y
        fit = solve_least_squares(X, y, near_constant_design.column_labels)
        centred = y - y.mean()
        # on unit-norm columns, as numpy's default rcond reads the unscaled X as rank 1
        rss = np.linalg.lstsq(X / np.linalg.norm(X, axis=0), centred, rcond=None)[1][0]
        assert abs(fit.rss - rss) <= 1e-3 * rss

    def test_goodness_of_fit_reads_the_r_squared_of_compute_inference(self, near_constant_design):
        # goodness_of_fit without the design read R2 -1.3805 where compute_inference read 0.0148
        fit = solve_least_squares(near_constant_design.X, near_constant_design.y, near_constant_design.column_labels)
        table = compute_inference(fit, near_constant_design)
        quality = goodness_of_fit(fit, near_constant_design.y, table.k)
        assert quality.r_squared == table.r_squared
        assert 0.0 < quality.r_squared < 1.0


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
        with pytest.raises(InferenceError) as info:
            fit_table(table, default_model_spec())
        assert str(info.value) == "no residual degrees of freedom: n=14, k=13"

    def test_a_standard_error_whose_square_underflows_is_a_product_of_roots(self):
        # sigma2 * (X^T X)^-1_jj of the 1e150 column is below the smallest
        # double, where SE = sqrt of it gave t = estimate / 0; each root is not
        rng = np.random.default_rng(0)
        a = rng.standard_normal(50)
        y = 1.0 + 1e-14 * rng.standard_normal(50)  # the response varies in its 15th digit
        pins = tuple(f"p{i}" for i in range(50))
        rows = []
        for scale in (1.0, 1e150):
            design = DesignMatrix(np.column_stack([np.ones(50), scale * a]), y, ("intercept", "a"), pins)
            fit = solve_least_squares(design.X, design.y, design.column_labels)
            rows.append(compute_inference(fit, design).row("a"))
        assert fit.rss / fit.dof * fit.xtx_inverse[1, 1] == 0.0
        plain, huge = rows
        assert 0.0 < huge.std_error < 1e-160
        assert huge.std_error * 1e150 == pytest.approx(plain.std_error, rel=1e-12)
        assert huge.t_value == pytest.approx(plain.t_value, rel=1e-12)

    def test_a_standard_error_past_the_largest_float_names_its_column(self):
        # |t| is about 0.26, so a scale puts the SE past the largest float while
        # the coefficient stays below it
        rng = np.random.default_rng(8)
        a, y = rng.standard_normal(50), rng.standard_normal(50)
        pins = tuple(f"p{i}" for i in range(50))
        plain = DesignMatrix(np.column_stack([np.ones(50), a]), y, ("intercept", "a"), pins)
        row = compute_inference(plain.fit, plain).row("a")
        c = math.sqrt(abs(row.estimate) * row.std_error) / np.finfo(np.float64).max
        design = DesignMatrix(np.column_stack([np.ones(50), c * a]), y, ("intercept", "a"), pins)
        assert math.isfinite(design.fit.coefficients[1])
        with pytest.raises(InferenceError) as info:
            compute_inference(design.fit, design)
        assert str(info.value) == "column 'a' is out of range: its standard error exceeds the largest float"

    def test_a_design_without_intercept_is_refused(self):
        X = np.column_stack([np.arange(6.0), np.arange(6.0) ** 2])
        design = DesignMatrix(X, np.array([1.0, 2.0, 2.5, 4.0, 6.0, 9.0]), ("a", "b"), tuple("PQRSTU"))
        with pytest.raises(InferenceError) as info:
            compute_inference(solve_least_squares(design.X, design.y), design)
        assert str(info.value) == "inference requires an intercept model"

    def test_an_unknown_row_label_is_a_key_error(self, synthetic_fit):
        _, _, inf = synthetic_fit
        with pytest.raises(KeyError) as info:
            inf.row("nope")
        assert info.value.args == ("nope",)

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


@pytest.fixture(scope="module")
def market_design():
    truth = default_true_model(seed=11, noise_sigma=0.3, zone_probs=dict(BALANCED_ZONES))
    return build_design_matrix(generate_parcels(truth, 400)[0], default_model_spec())


def with_column_scaled(design, j, factor):
    X = design.X.copy()
    X[:, j] *= factor
    return DesignMatrix(X, design.y, design.column_labels, design.row_pins)


@given(j=st.integers(1, 13), k=st.integers(-600, 600))
@example(j=13, k=-600)  # the tax rate: a sum of squares below the smallest normal float was refused
@example(j=11, k=600)  # age^2: one past a quarter of the largest float was refused
@settings(max_examples=60, deadline=None)
def test_scaling_a_column_by_a_power_of_two_is_exact(market_design, j, k):
    # the solve factors each column scaled by a power of two, so a column times
    # 2^k factors to the same bits: its coefficient and SE are divided by 2^k
    # exactly, and every other number is the same
    plain = compute_inference(market_design.fit, market_design)
    design = with_column_scaled(market_design, j, 2.0**k)
    scaled = compute_inference(design.fit, design)
    assert design.fit.coefficients[j] == market_design.fit.coefficients[j] / 2.0**k
    assert np.array_equal(np.delete(design.fit.coefficients, j), np.delete(market_design.fit.coefficients, j))
    assert design.fit.rss == market_design.fit.rss
    assert scaled.rows[j].std_error == plain.rows[j].std_error / 2.0**k
    assert [(r.t_value, r.p_value) for r in scaled.rows] == [(r.t_value, r.p_value) for r in plain.rows]
    assert [r.std_error for i, r in enumerate(scaled.rows) if i != j] == [
        r.std_error for i, r in enumerate(plain.rows) if i != j
    ]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_scaling_a_column_by_a_power_of_ten_rescales_its_row(market_design, data):
    # within the design's bound above, and with every nonzero value a normal
    # float below, 10^k rounds each value once: the row is the plain one,
    # rescaled, to 1e-12 relative.  A two-sided tail p moves (1 + t^2) times
    # as far as t, relatively (Mills' ratio), so p's 1e-12 is scaled by that:
    # at t = 13 and p = 3e-33, t within 1e-14 moved p by 1e-12
    j = data.draw(st.integers(1, market_design.p - 1), label="j")
    column = market_design.X[:, j]
    top = math.floor(math.log10(math.sqrt(MAX_COLUMN_SQUARES / (column @ column))))
    bottom = math.ceil(math.log10(np.finfo(np.float64).tiny / np.abs(column[column != 0.0]).min()))
    k = data.draw(st.integers(bottom, top), label="k")
    design = with_column_scaled(market_design, j, 10.0**k)
    plain, scaled = (compute_inference(d.fit, d) for d in (market_design, design))
    row, plain_row = scaled.rows[j], plain.rows[j]
    assert row.estimate * 10.0**k == pytest.approx(plain_row.estimate, rel=1e-12)
    assert row.std_error * 10.0**k == pytest.approx(plain_row.std_error, rel=1e-12)
    assert row.t_value == pytest.approx(plain_row.t_value, rel=1e-12)
    assert row.p_value == pytest.approx(plain_row.p_value, rel=1e-12 * (1.0 + row.t_value**2), abs=0.0)
