import re
from dataclasses import replace

import numpy as np
import pytest

from zoneval.design import DesignError, DesignMatrix, build_design_matrix, default_model_spec
from zoneval.diagnostics import (
    DEFAULT_CORRELATION_GROUPS,
    DiagnosticsError,
    correlation_matrix,
    descriptive_stats,
    high_correlation_pairs,
    vif,
    zoning_variance_share,
)
from zoneval.lstsq import RankDeficiencyError
from zoneval.parcels import RESIDENTIAL_ZONES, ParcelTable
from zoneval.synth import TrueModel, default_true_model, generate_parcels

from conftest import make_parcel, make_table
from oracle import solve_normal_equations_oracle


def plain_design(columns: dict[str, np.ndarray], intercept=True) -> DesignMatrix:
    labels = list(columns)
    X = np.column_stack(list(columns.values()))
    n = X.shape[0]
    if intercept:
        X = np.column_stack([np.ones(n), X])
        labels = ["intercept"] + labels
    y = np.zeros(n)
    return DesignMatrix(X, y, tuple(labels), tuple(f"p{i}" for i in range(n)))


@pytest.fixture(scope="module")
def market():
    truth = default_true_model(seed=31, noise_sigma=0.2)
    table, _ = generate_parcels(truth, 4000)
    design = build_design_matrix(table, default_model_spec())
    return table, design


class TestDescriptiveStats:
    def test_single_parcel_collapses(self):
        table = ParcelTable((make_parcel(),))
        stats = descriptive_stats(table)
        for v in stats.variables:
            assert v.mean == v.highest == v.lowest

    def test_zone_counts(self):
        rows = [make_parcel(pin=f"Z{i}", zone=z) for i, z in
                enumerate(["R1A", "R1A", "R1B", "R2", "S2", "OTHER"])]
        stats = descriptive_stats(ParcelTable(tuple(rows)))
        assert stats.zone_counts == {"R1A": 2, "R1B": 1, "R2": 1, "S2": 1}
        assert sum(stats.zone_counts.values()) <= stats.n

    def test_a_missing_zone_is_the_designs_error(self):
        rows = [make_parcel("A"), make_parcel("B", zone=None), make_parcel("C", zone="C9")]
        with pytest.raises(DesignError, match=r"^missing zone \(pin B\); clean the table first$"):
            descriptive_stats(ParcelTable(tuple(rows)))

    def test_an_unknown_zone_counts_under_no_level(self):
        rows = [make_parcel("A"), make_parcel("C", zone="C9")]
        stats = descriptive_stats(ParcelTable(tuple(rows)))
        assert stats.zone_counts == {"R1A": 1, "R1B": 0, "R2": 0, "S2": 0}

    def test_a_spec_without_zone_terms_reads_no_zone(self):
        rows = [make_parcel("A"), make_parcel("B", zone=None)]
        spec = default_model_spec().drop_terms(RESIDENTIAL_ZONES)
        assert descriptive_stats(ParcelTable(tuple(rows)), spec).zone_counts == {}

    def test_injected_extremes_show_up(self):
        table = make_table(50, seed=3)
        rows = list(table.rows)
        rows[7] = replace(rows[7], lot_sqft=123456.0)
        rows[9] = replace(rows[9], lot_sqft=1.5)
        stats = descriptive_stats(ParcelTable(tuple(rows)))
        sqft = next(v for v in stats.variables if v.label == "lotsqfeet")
        assert sqft.highest == 123456.0
        assert sqft.lowest == 1.5
        assert sqft.lowest <= sqft.mean <= sqft.highest

    def test_square_term_reports_squares(self):
        rows = (make_parcel(pin="A", age_years=3.0), make_parcel(pin="B", age_years=5.0))
        stats = descriptive_stats(ParcelTable(rows))
        age_sq = next(v for v in stats.variables if v.label == "age^2")
        assert age_sq.highest == 25.0
        assert age_sq.lowest == 9.0
        assert age_sq.mean == 17.0

    def test_empty_table_rejected(self):
        with pytest.raises(DiagnosticsError):
            descriptive_stats(ParcelTable(()))

    @pytest.mark.parametrize(
        "cell, message",
        [(None, "missing lot_sqft (pin B)"), (float("nan"), "non-finite lot_sqft nan (pin B)"),
         (float("inf"), "non-finite lot_sqft inf (pin B)")],
        ids=["missing", "nan", "inf"],
    )
    def test_a_cell_the_design_rejects_is_named(self, cell, message):
        # the sources are read as the design reads them, not averaged into nan
        table = ParcelTable((make_parcel(pin="A"), make_parcel(pin="B", lot_sqft=cell)))
        with pytest.raises(DesignError, match=re.escape(message)):
            descriptive_stats(table)


class TestCorrelationMatrix:
    def test_single_variable_group(self, market):
        _, design = market
        (block,) = correlation_matrix(design, [["age"]])
        assert block.values.shape == (1, 1)
        assert block.values[0, 0] == 1.0

    def test_self_correlation_is_one(self, market):
        _, design = market
        (block,) = correlation_matrix(design, [["age", "taxrate"]])
        assert block.value("age", "age") == 1.0

    def test_hand_computed_pair(self):
        d = plain_design(
            {"a": np.array([1.0, 2.0, 3.0]), "b": np.array([1.0, 2.0, 4.0])},
            intercept=False,
        )
        (block,) = correlation_matrix(d, [["a", "b"]])
        assert block.value("a", "b") == pytest.approx(0.9820, abs=1e-4)

    def test_default_blocks_layout(self, market):
        _, design = market
        blocks = correlation_matrix(design)
        assert len(blocks) == 3
        assert blocks[0].labels == ("log(u1tfcash)", "R1A", "R1B", "R2", "S2")
        assert blocks[1].labels == ("log(u1tfcash)", "taxrate", "condition", "age", "age^2")
        assert blocks[2].labels == (
            "log(u1tfcash)", "log(lotdima)", "log(lotdimb)", "log(lotsqfeet)", "log(totbldgft)"
        )
        # age and its square are nearly collinear by construction
        assert blocks[1].value("age", "age^2") > 0.9

    def test_symmetry_unit_diagonal_psd(self, market):
        _, design = market
        for block in correlation_matrix(design):
            v = block.values
            assert np.array_equal(v, v.T)
            assert np.all(np.diag(v) == 1.0)
            assert np.abs(v).max() <= 1.0
            assert np.linalg.eigvalsh(v).min() >= -1e-8

    def test_affine_invariance_and_negation(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal(200)
        b = 0.6 * a + rng.standard_normal(200)
        base = correlation_matrix(
            plain_design({"a": a, "b": b}, intercept=False), [["a", "b"]]
        )[0].value("a", "b")
        scaled = correlation_matrix(
            plain_design({"a": 3.5 * a + 11.0, "b": b}, intercept=False), [["a", "b"]]
        )[0].value("a", "b")
        negated = correlation_matrix(
            plain_design({"a": -a, "b": b}, intercept=False), [["a", "b"]]
        )[0].value("a", "b")
        assert scaled == pytest.approx(base, rel=1e-12)
        assert negated == pytest.approx(-base, rel=1e-12)

    def test_zero_variance_column_named(self, market):
        _, design = market
        with pytest.raises(DiagnosticsError, match="intercept"):
            correlation_matrix(design, [["intercept", "age"]])

    def test_constant_column_whose_mean_is_inexact_is_zero_variance(self):
        # the mean of 12,475 copies of 0.3 does not round back to 0.3, so
        # the centred column's sum of squares is not zero
        n = 12_475
        columns = {"b": np.arange(n, dtype=float), "c": np.full(n, 0.3)}
        design = plain_design(columns, intercept=False)
        with pytest.raises(DiagnosticsError) as raised:
            correlation_matrix(design, [["b", "c"]])
        assert str(raised.value) == "zero-variance column 'c'"

    def test_groups_can_address_response(self, market):
        _, design = market
        (block,) = correlation_matrix(design, [["log(u1tfcash)", "log(lotsqfeet)"]])
        assert abs(block.value("log(u1tfcash)", "log(lotsqfeet)")) <= 1.0

    def test_blocks_match_corrcoef_at_paper_scale(self):
        table, _ = generate_parcels(default_true_model(seed=7), 12_475)
        design = build_design_matrix(table, default_model_spec())
        # besides the response in every block, age is in two
        groups = [*DEFAULT_CORRELATION_GROUPS, ("age", "R1B", "log(lotsqfeet)")]
        blocks = correlation_matrix(design, groups)
        assert [block.labels for block in blocks] == groups
        for group, block in zip(groups, blocks):
            expected = np.corrcoef(np.column_stack([design.column(a) for a in group]), rowvar=False)
            assert np.max(np.abs(block.values - expected)) <= 1e-12

    @pytest.mark.parametrize(
        "groups, error, message",
        [
            ([("age",), (), ("intercept", "age")], DiagnosticsError, "empty correlation group"),
            ([("age", "intercept"), ()], DiagnosticsError, "zero-variance column 'intercept'"),
            ([("age", "intercept"), ("no such",)], DiagnosticsError, "zero-variance column 'intercept'"),
            ([("age",), ("no such", "intercept")], DesignError, "no column labeled 'no such'"),
        ],
    )
    def test_the_first_bad_group_in_order_raises(self, market, groups, error, message):
        _, design = market
        with pytest.raises(error) as raised:
            correlation_matrix(design, groups)
        assert str(raised.value) == message


class TestHighCorrelationPairs:
    def test_threshold_flagging(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal(500)
        b = a + 0.01 * rng.standard_normal(500)
        c = rng.standard_normal(500)
        (block,) = correlation_matrix(
            plain_design({"a": a, "b": b, "c": c}, intercept=False), [["a", "b", "c"]]
        )
        flagged = high_correlation_pairs(block, 0.8)
        assert [(x, y) for x, y, _ in flagged] == [("a", "b")]
        assert high_correlation_pairs(block, 0.99999) == []

    @pytest.mark.parametrize("threshold", [-3.0, -0.01, 1.01, 5.0, float("nan"), float("inf")])
    def test_threshold_outside_unit_interval_is_rejected(self, threshold):
        columns = {"a": np.array([1.0, 2.0, 4.0]), "b": np.array([3.0, 1.0, 2.0])}
        (block,) = correlation_matrix(plain_design(columns, intercept=False), [["a", "b"]])
        with pytest.raises(DiagnosticsError, match=r"correlation threshold must be in \[0, 1\]"):
            high_correlation_pairs(block, threshold)


class TestVif:
    def test_orthogonal_columns_give_unit_vif(self):
        # exactly orthogonal centered columns
        a = np.array([1.0, 1.0, -1.0, -1.0])
        b = np.array([1.0, -1.0, 1.0, -1.0])
        entries = vif(plain_design({"a": a, "b": b}))
        assert all(e.vif == pytest.approx(1.0, abs=1e-10) for e in entries)
        assert not any(e.flagged for e in entries)

    def test_near_duplicate_flagged_and_matches_definition(self):
        rng = np.random.default_rng(14)
        n = 4000
        a = rng.standard_normal(n)
        b = a + 0.045 * rng.standard_normal(n)  # rho ~ 0.999
        design = plain_design({"a": a, "b": b})
        entries = {e.label: e for e in vif(design)}
        assert entries["a"].flagged and entries["b"].flagged

        # oracle: VIF_b = 1 / (1 - R2_b) from an independent regression
        others = design.X[:, [0, 1]]
        target = design.X[:, 2]
        fit = solve_normal_equations_oracle(others, target)
        tss = float(np.sum((target - target.mean()) ** 2))
        expected = 1.0 / (fit.rss / tss)
        assert entries["b"].vif == pytest.approx(expected, rel=1e-8)
        rho = np.corrcoef(a, b)[0, 1]
        assert entries["b"].vif == pytest.approx(1.0 / (1.0 - rho**2), rel=0.05)
        assert entries["b"].vif > 100

    def test_independent_columns_approach_one(self):
        rng = np.random.default_rng(15)
        entries = vif(
            plain_design({"a": rng.standard_normal(20000), "b": rng.standard_normal(20000)})
        )
        for e in entries:
            assert e.vif == pytest.approx(1.0, abs=0.01)

    def test_vif_at_least_one(self, market):
        _, design = market
        for e in vif(design):
            assert e.vif >= 1.0 - 1e-12

    def test_rank_deficient_design_rejected(self):
        a = np.arange(10.0)
        with pytest.raises(RankDeficiencyError):
            vif(plain_design({"a": a, "b": 2.0 * a}))


class TestZoningVarianceShare:
    def test_zoning_only_truth_is_met(self):
        base = default_true_model(seed=41)
        beta = {label: 0.0 for label in base.beta}
        beta.update(
            intercept=11.0,
            R1A=base.beta["R1A"],
            R1B=base.beta["R1B"],
            R2=base.beta["R2"],
            S2=base.beta["S2"],
        )
        zoned = TrueModel(beta=beta, noise_sigma=0.05, zone_probs=base.zone_probs, seed=41)
        table, _ = generate_parcels(zoned, 4000)
        share = zoning_variance_share(table)
        assert share.hypothesis_met
        assert share.zoning_share > 0.9
        assert share.r2_zoning <= share.r2_full <= 1.0

    def test_zero_zone_effects_not_met(self):
        base = default_true_model(seed=42)
        beta = dict(base.beta)
        beta.update(R1A=0.0, R1B=0.0, R2=0.0, S2=0.0)
        silent = TrueModel(beta=beta, noise_sigma=0.1, zone_probs=base.zone_probs, seed=42)
        table, _ = generate_parcels(silent, 4000)
        share = zoning_variance_share(table)
        assert not share.hypothesis_met
        assert share.r2_zoning < 0.05
        assert share.delta_r2 < 0.05

    def test_nested_inequality_on_generic_market(self, market):
        table, _ = market
        share = zoning_variance_share(table)
        assert 0.0 <= share.r2_zoning <= share.r2_full <= 1.0
        assert share.r2_without_zoning <= share.r2_full
