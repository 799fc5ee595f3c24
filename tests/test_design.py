import math
from dataclasses import replace

import numpy as np
import pytest

from zoneval.design import (
    DesignError,
    ModelSpec,
    Term,
    Transform,
    build_design_matrix,
    default_model_spec,
    read_model_spec,
    write_model_spec,
    zoning_only_spec,
)
from zoneval.parcels import ParcelTable

from conftest import make_parcel


EXPECTED_TERM_LABELS = (
    "R1A", "R1B", "R2", "S2",
    "log(lotsqfeet)", "log(lotdimb)", "log(lotdima)", "log(totbldgft)", "log(bathrooms)",
    "age", "age^2", "condition", "taxrate",
)


class TestDefaultSpec:
    def test_thirteen_terms_plus_intercept(self):
        spec = default_model_spec()
        assert len(spec.terms) == 13
        assert spec.include_intercept
        assert spec.labels == EXPECTED_TERM_LABELS

    def test_fourth_term_is_s2_dummy(self):
        term = default_model_spec().terms[3]
        assert term == Term("S2", "zone", Transform("dummy", level="S2"))

    def test_condition_term_thresholds_at_40(self):
        term = default_model_spec().terms[11]
        assert term.label == "condition"
        assert term.source == "condition_pct"
        assert term.transform == Transform("threshold", cut=40.0)

    def test_response_is_log_value(self):
        spec = default_model_spec()
        assert spec.response.source == "assessed_value"
        assert spec.response.transform.kind == "log"


class TestBuild:
    def test_zone_dummies(self):
        table = ParcelTable((make_parcel(zone="R1A"),))
        d = build_design_matrix(table, default_model_spec())
        cols = {lab: d.X[0, j] for j, lab in enumerate(d.column_labels)}
        assert (cols["R1A"], cols["R1B"], cols["R2"], cols["S2"]) == (1.0, 0.0, 0.0, 0.0)

    def test_unit_lot_gives_zero_log(self):
        table = ParcelTable((make_parcel(lot_sqft=1.0),))
        d = build_design_matrix(table, default_model_spec())
        assert d.column("log(lotsqfeet)")[0] == 0.0

    def test_age_square_and_condition_threshold(self):
        table = ParcelTable((make_parcel(age_years=12.0, condition_pct=40.0),))
        d = build_design_matrix(table, default_model_spec())
        assert d.column("age")[0] == 12.0
        assert d.column("age^2")[0] == 144.0
        assert d.column("condition")[0] == 1.0

    def test_condition_below_cut_is_zero(self):
        table = ParcelTable((make_parcel(condition_pct=39.999),))
        d = build_design_matrix(table, default_model_spec())
        assert d.column("condition")[0] == 0.0

    def test_intercept_first_and_labels_aligned(self, small_table):
        d = build_design_matrix(small_table, default_model_spec())
        assert d.column_labels[0] == "intercept"
        assert np.all(d.X[:, 0] == 1.0)
        assert d.column_labels[1:] == EXPECTED_TERM_LABELS
        assert d.row_pins == small_table.pins

    def test_log_of_nonpositive_cites_pin_and_field(self):
        table = ParcelTable((make_parcel(pin="BAD", total_bldg_sqft=-5.0),))
        with pytest.raises(DesignError, match=r"total_bldg_sqft.*BAD"):
            build_design_matrix(table, default_model_spec())

    def test_unknown_source_field(self, small_table):
        spec = ModelSpec(
            default_model_spec().response,
            (Term("x", "no_such_field", Transform("identity")),),
        )
        with pytest.raises(DesignError, match="no_such_field"):
            build_design_matrix(small_table, spec)

    def test_missing_field_cites_pin(self):
        table = ParcelTable((make_parcel(pin="HOLE", bathrooms=None),))
        with pytest.raises(DesignError, match="HOLE"):
            build_design_matrix(table, default_model_spec())

    def test_missing_zone_cites_pin(self):
        table = ParcelTable((make_parcel(pin="OK"), make_parcel(pin="NOZONE", zone=None)))
        with pytest.raises(DesignError, match=r"missing zone \(pin NOZONE\)"):
            build_design_matrix(table, default_model_spec())


class TestZoningOnly:
    def test_four_terms(self):
        spec = zoning_only_spec()
        assert spec.labels == ("R1A", "R1B", "R2", "S2")
        assert spec.include_intercept

    def test_all_other_zone_gives_zero_columns(self):
        table = ParcelTable(tuple(make_parcel(pin=f"Z{i}", zone="OTHER") for i in range(5)))
        d = build_design_matrix(table, zoning_only_spec())
        assert np.all(d.X[:, 1:] == 0.0)

    def test_column_sums_match_zone_mixture(self):
        densities = {"R1A": 4192, "R1B": 5219, "R2": 628, "S2": 19, "OTHER": 2417}
        rows = []
        i = 0
        for zone, count in densities.items():
            for _ in range(count):
                rows.append(make_parcel(pin=f"D{i:06d}", zone=zone))
                i += 1
        d = build_design_matrix(ParcelTable(tuple(rows)), zoning_only_spec())
        sums = d.X[:, 1:].sum(axis=0)
        assert list(sums) == [4192, 5219, 628, 19]


class TestInvariants:
    def test_zone_dummies_mutually_exclusive_binary(self, small_table):
        d = build_design_matrix(small_table, default_model_spec())
        dummies = np.column_stack([d.column(z) for z in ("R1A", "R1B", "R2", "S2")])
        assert np.isin(dummies, (0.0, 1.0)).all()
        assert np.all(dummies.sum(axis=1) <= 1.0)

    def test_age_square_column_is_exact_square(self, small_table):
        d = build_design_matrix(small_table, default_model_spec())
        age = d.column("age")
        assert np.array_equal(d.column("age^2"), age * age)

    def test_row_permutation_permutes_design(self, small_table):
        rng = np.random.default_rng(1)
        perm = rng.permutation(len(small_table))
        permuted = ParcelTable(tuple(small_table.rows[i] for i in perm))
        d0 = build_design_matrix(small_table, default_model_spec())
        d1 = build_design_matrix(permuted, default_model_spec())
        assert np.array_equal(d1.X, d0.X[perm])
        assert np.array_equal(d1.y, d0.y[perm])

    @pytest.mark.parametrize("c", [2.0, 0.5, 13.7])
    def test_value_rescale_shifts_y_only(self, small_table, c):
        scaled = ParcelTable(
            tuple(
                replace(p, assessed_value=p.assessed_value * c)
                for p in small_table.rows
            )
        )
        d0 = build_design_matrix(small_table, default_model_spec())
        d1 = build_design_matrix(scaled, default_model_spec())
        assert np.array_equal(d1.X, d0.X)
        assert np.allclose(d1.y, d0.y + math.log(c), rtol=0, atol=1e-12)

    def test_matrix_is_finite(self, small_table):
        d = build_design_matrix(small_table, default_model_spec())
        assert np.all(np.isfinite(d.X)) and np.all(np.isfinite(d.y))


class TestSpecFiles:
    def test_round_trip(self, tmp_path):
        spec = default_model_spec()
        path = tmp_path / "model.spec"
        write_model_spec(spec, path)
        assert read_model_spec(path) == spec

    def test_zoning_round_trip(self, tmp_path):
        path = tmp_path / "model.spec"
        write_model_spec(zoning_only_spec(), path)
        assert read_model_spec(path) == zoning_only_spec()

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "model.spec"
        path.write_text("term only-two-fields\n", encoding="utf-8")
        with pytest.raises(DesignError, match="line 1"):
            read_model_spec(path)

    def test_missing_response_rejected(self, tmp_path):
        path = tmp_path / "model.spec"
        path.write_text("term a zone dummy:R1A\n", encoding="utf-8")
        with pytest.raises(DesignError, match="response"):
            read_model_spec(path)


def test_duplicate_labels_rejected():
    t = Term("same", "age_years", Transform("identity"))
    with pytest.raises(DesignError, match="unique"):
        ModelSpec(default_model_spec().response, (t, t))


def test_drop_terms():
    spec = default_model_spec().drop_terms(["R1A", "R1B", "R2", "S2"])
    assert len(spec.terms) == 9
    with pytest.raises(DesignError, match="unknown"):
        default_model_spec().drop_terms(["nope"])


def test_transform_validation():
    with pytest.raises(DesignError):
        Transform("dummy")
    with pytest.raises(DesignError):
        Transform("threshold")
    with pytest.raises(DesignError):
        Transform("exp")


MISMATCHED_TERMS = [
    ("zone", "log"), ("zone", "square"), ("zone", "threshold:3"), ("zone", "identity"),
    ("lot_sqft", "dummy:R1A"), ("age_years", "dummy:OTHER"),
]


@pytest.mark.parametrize("source, token", MISMATCHED_TERMS)
def test_zone_pairs_only_with_dummy_naming_the_term(tmp_path, source, token):
    with pytest.raises(DesignError, match=f"term 'z'.*got {source} {token}"):
        Term("z", source, Transform.from_token(token))
    path = tmp_path / "model.spec"
    for line in (f"term z {source} {token}", f"response z {source} {token}"):
        path.write_text(f"response y assessed_value log\n{line}\nterm a age_years identity\n", encoding="utf-8")
        with pytest.raises(DesignError, match="term 'z'"):
            read_model_spec(path)

