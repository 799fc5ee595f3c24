import math
import pickle
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zoneval.design import (
    RESPONSE_LABEL,
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
from zoneval._kernels import MAX_COLUMN_SQUARES, qr_pivot_decompose
from zoneval.parcels import RESIDENTIAL_ZONES, ZONES, ParcelTable

from conftest import make_parcel, make_table


# what write_model_spec wrote before the response and intercept were fixed
LEGACY_ZONING_SPEC = """# zoneval model spec
intercept true
response log(u1tfcash) assessed_value log
term R1A zone dummy:R1A
term R1B zone dummy:R1B
term R2 zone dummy:R2
term S2 zone dummy:S2
"""
LEGACY_DEFAULT_SPEC = LEGACY_ZONING_SPEC + """term log(lotsqfeet) lot_sqft log
term log(lotdimb) lot_depth_ft log
term log(lotdima) lot_width_ft log
term log(totbldgft) total_bldg_sqft log
term log(bathrooms) bathrooms log
term age age_years identity
term age^2 age_years square
term condition condition_pct threshold:40
term taxrate tax_rate_pct identity
"""

EXPECTED_TERM_LABELS = (
    "R1A", "R1B", "R2", "S2",
    "log(lotsqfeet)", "log(lotdimb)", "log(lotdima)", "log(totbldgft)", "log(bathrooms)",
    "age", "age^2", "condition", "taxrate",
)


class TestDefaultSpec:
    def test_thirteen_terms_plus_intercept(self):
        spec = default_model_spec()
        assert len(spec.terms) == 13
        assert spec.labels == EXPECTED_TERM_LABELS

    def test_fourth_term_is_s2_dummy(self):
        term = default_model_spec().terms[3]
        assert term == Term("S2", "zone", Transform("dummy", level="S2"))

    def test_condition_term_thresholds_at_40(self):
        term = default_model_spec().terms[11]
        assert term.label == "condition"
        assert term.source == "condition_pct"
        assert term.transform == Transform("threshold", cut=40.0)

    def test_response_is_log_value(self, small_table):
        d = build_design_matrix(small_table, default_model_spec())
        assert np.array_equal(d.y, np.log(small_table.column("assessed_value")))
        assert d.column(RESPONSE_LABEL) is d.y


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

    def test_x_is_column_major_and_a_column_is_a_view(self, small_table):
        d = build_design_matrix(small_table, default_model_spec())
        assert d.X.flags.f_contiguous and not d.X.flags.c_contiguous
        column = d.column("age")
        assert column.flags.contiguous and np.shares_memory(column, d.X)

    def test_log_of_nonpositive_cites_pin_and_field(self):
        table = ParcelTable((make_parcel(pin="BAD", total_bldg_sqft=-5.0),))
        with pytest.raises(DesignError, match=r"total_bldg_sqft.*BAD"):
            build_design_matrix(table, default_model_spec())

    def test_unknown_source_field(self, small_table):
        with pytest.raises(DesignError, match="no_such_field"):
            spec = ModelSpec((Term("x", "no_such_field", Transform("identity")),))
            build_design_matrix(small_table, spec)

    def test_pin_is_not_a_source(self, small_table):
        with pytest.raises(DesignError, match="unknown source field 'pin' for term 'x'"):
            spec = ModelSpec((Term("x", "pin", Transform("identity")),))
            build_design_matrix(small_table, spec)

    @pytest.mark.parametrize(
        "old, new, error",
        [
            (b"lot_sqft", b"bogus_xx", "unknown source field 'bogus_xx' for term 's'"),
            (b"square", b"squarf", "unknown transform kind 'squarf'"),
        ],
        ids=["source", "kind"],
    )
    def test_a_tampered_term_pickle_fails_to_load(self, old, new, error):
        # unpickling calls the constructor, so a term is checked however it is made
        data = pickle.dumps(Term("s", "lot_sqft", Transform("square")))
        assert pickle.loads(data) == Term("s", "lot_sqft", Transform("square"))
        with pytest.raises(DesignError, match=f"^{re.escape(error)}$"):
            pickle.loads(data.replace(old, new))

    def test_missing_field_cites_pin(self):
        table = ParcelTable((make_parcel(pin="HOLE", bathrooms=None),))
        with pytest.raises(DesignError, match="HOLE"):
            build_design_matrix(table, default_model_spec())

    def test_missing_zone_cites_pin(self):
        table = ParcelTable((make_parcel(pin="OK"), make_parcel(pin="NOZONE", zone=None)))
        with pytest.raises(DesignError, match=r"missing zone \(pin NOZONE\)"):
            build_design_matrix(table, default_model_spec())

    @pytest.mark.parametrize("cell", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_source_cites_pin_and_field(self, cell):
        # the threshold would encode nan as 0.0 and inf as 1.0
        rows = make_table(30).rows
        table = ParcelTable((replace(rows[0], condition_pct=cell), *rows[1:]))
        with pytest.raises(DesignError, match=rf"non-finite condition_pct {cell!r} \(pin {rows[0].pin}\)"):
            build_design_matrix(table, default_model_spec())

    @pytest.mark.parametrize("age", [1e200, -1e200, 1.4e154, 1e150])
    def test_overflowing_square_cites_term_field_and_pin(self, age):
        # a finite age whose square, or its column's sum of squares, is not finite
        rows = make_table(30).rows
        table = ParcelTable((*rows[:7], replace(rows[7], age_years=age), *rows[8:]))
        with pytest.raises(DesignError) as raised:
            build_design_matrix(table, default_model_spec())
        assert str(raised.value) == f"term 'age^2' overflows: square of age_years {age!r} (pin {rows[7].pin})"

    def test_largest_column_inside_the_factorization_bound_is_kept(self):
        # the largest age whose square's column has a sum of squares inside
        # the bound, and the next float up; the other 29 squares are far
        # below the rounding of the one large square
        rows = make_table(30).rows
        square_of_square = lambda age: (age * age) * (age * age)
        age = math.sqrt(math.sqrt(MAX_COLUMN_SQUARES))
        while square_of_square(age) <= MAX_COLUMN_SQUARES:
            age = math.nextafter(age, math.inf)
        outside, inside = age, math.nextafter(age, 0.0)
        assert square_of_square(inside) <= MAX_COLUMN_SQUARES
        design = build_design_matrix(ParcelTable((replace(rows[0], age_years=inside), *rows[1:])), default_model_spec())
        assert design.column("age^2")[0] == inside * inside
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            qty, r_upper, _jpvt = qr_pivot_decompose(design.X, design.y)
        assert np.isfinite(qty).all() and np.isfinite(r_upper).all()
        table = ParcelTable((replace(rows[0], age_years=outside), *rows[1:]))
        with pytest.raises(DesignError) as raised:
            build_design_matrix(table, default_model_spec())
        assert str(raised.value) == f"term 'age^2' overflows: square of age_years {outside!r} (pin {rows[0].pin})"


class TestZoningOnly:
    def test_four_terms(self):
        spec = zoning_only_spec()
        assert spec.labels == ("R1A", "R1B", "R2", "S2")

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

    @pytest.mark.parametrize("cut", [40.0, 37.1234567, 1234567.0, 0.1, 1 / 3, 1e-7, 2.5e-308, 5e-324, -0.0, 1e300])
    def test_threshold_cut_round_trips(self, tmp_path, cut):
        spec = ModelSpec((Term("good", "condition_pct", Transform("threshold", cut=cut)),))
        path = tmp_path / "model.spec"
        write_model_spec(spec, path)
        read = read_model_spec(path).terms[0].transform.cut
        assert read.hex() == cut.hex()

    def test_threshold_cut_keeps_its_short_token(self):
        assert Transform("threshold", cut=40.0).token() == "threshold:40"
        assert Transform("threshold", cut=37.1234567).token() == "threshold:37.1234567"

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "model.spec"
        path.write_text("term only-two-fields\n", encoding="utf-8")
        with pytest.raises(DesignError, match="line 1"):
            read_model_spec(path)

    def test_term_lines_alone_are_a_spec(self, tmp_path):
        path = tmp_path / "model.spec"
        path.write_text("term a zone dummy:R1A\n", encoding="utf-8")
        assert read_model_spec(path) == ModelSpec((Term("a", "zone", Transform("dummy", level="R1A")),))

    def test_writes_term_lines_only(self, tmp_path):
        path = tmp_path / "model.spec"
        write_model_spec(zoning_only_spec(), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("#")
        assert all(line.startswith("term ") for line in lines[1:])

    @pytest.mark.parametrize("make_spec, text", [
        (default_model_spec, LEGACY_DEFAULT_SPEC), (zoning_only_spec, LEGACY_ZONING_SPEC),
    ])
    def test_legacy_intercept_and_response_lines_read_back(self, tmp_path, make_spec, text):
        path = tmp_path / "model.spec"
        path.write_text(text, encoding="utf-8")
        assert read_model_spec(path) == make_spec()

    @pytest.mark.parametrize("line, message", [
        ("intercept false", "the model always has an intercept"),
        ("intercept TRUE", "the model always has an intercept"),
        ("intercept", "the model always has an intercept"),
        ("response v assessed_value identity", "the response is always log(assessed_value)"),
        ("response y lot_sqft log", "the response is always log(assessed_value)"),
        ("response assessed_value log", "the response is always log(assessed_value)"),
    ])
    def test_other_intercept_or_response_line_names_the_line(self, tmp_path, line, message):
        path = tmp_path / "model.spec"
        path.write_text(f"term a age_years identity\n{line}\n", encoding="utf-8")
        with pytest.raises(DesignError, match=f"line 2: {re.escape(message)}") as info:
            read_model_spec(path)
        assert str(path) in str(info.value)


def test_duplicate_labels_rejected():
    t = Term("same", "age_years", Transform("identity"))
    with pytest.raises(DesignError, match="unique"):
        ModelSpec((t, t))


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
    path.write_text(f"response y assessed_value log\nterm z {source} {token}\nterm a age_years identity\n",
                    encoding="utf-8")
    with pytest.raises(DesignError, match="line 2: term 'z'"):
        read_model_spec(path)
    # the response is fixed, so a response line over another source or
    # transform is refused whatever the pairing
    path.write_text(f"response z {source} {token}\nterm a age_years identity\n", encoding="utf-8")
    with pytest.raises(DesignError, match=r"line 1: the response is always log\(assessed_value\)"):
        read_model_spec(path)


# --- each transform kind is one function, for a column and for a value ---

finite = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False)
positive = st.floats(min_value=1e-300, max_value=1e300, allow_nan=False, allow_infinity=False)


@given(
    rows=st.lists(st.tuples(st.sampled_from(ZONES), positive, finite), min_size=1, max_size=40),
    cut=finite,
)
@settings(max_examples=200, deadline=None)
def test_design_columns_are_the_kind_functions_of_each_value(rows, cut):
    table = ParcelTable(
        make_parcel(f"P{i}", zone=zone, lot_sqft=size, age_years=age)
        for i, (zone, size, age) in enumerate(rows)
    )
    terms = [Term(f"dummy {zone}", "zone", Transform("dummy", level=zone)) for zone in RESIDENTIAL_ZONES]
    terms += [
        Term("identity", "age_years", Transform("identity")),
        Term("square", "age_years", Transform("square")),
        Term("threshold", "age_years", Transform("threshold", cut=cut)),
        Term("log", "lot_sqft", Transform("log")),
    ]
    squares = np.array([age * age for _zone, _size, age in rows])
    with np.errstate(over="ignore"):
        too_large = not np.dot(squares, squares) <= MAX_COLUMN_SQUARES  # the other columns are far smaller
    if too_large:
        with pytest.raises(DesignError, match="term 'square' overflows: square of age_years"):
            build_design_matrix(table, ModelSpec(tuple(terms)))
        return
    design = build_design_matrix(table, ModelSpec(tuple(terms)))
    for term in terms:
        column = design.column(term.label)
        expected = np.array([float(term.transform.scalar(getattr(p, term.source))) for p in table.rows])
        if term.transform.kind == "log":
            # np.log and math.log may differ in the last bit
            assert np.all(np.abs(column - expected) <= np.spacing(np.abs(expected)))
        else:
            assert column.tobytes() == expected.tobytes(), term.label
