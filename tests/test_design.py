import gc
import math
import pickle
import re
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zoneval import design as design_module
from zoneval.design import (
    MAX_COLUMN_SQUARES,
    RESPONSE_LABEL,
    TRANSFORM_KINDS,
    DesignError,
    DesignMatrix,
    ModelSpec,
    Term,
    Transform,
    build_design_matrix,
    default_model_spec,
    read_model_spec,
    write_model_spec,
    zoning_only_spec,
)
from zoneval._kernels import qr_pivot_decompose
from zoneval.parcels import NUMERIC_FIELDS, RESIDENTIAL_ZONES, ZONES, ParcelTable, clean

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

    def test_both_infinities_in_one_source_name_the_first(self):
        # their sum is nan, with an invalid-value warning that this suite makes an error
        rows = make_table(30).rows
        table = ParcelTable(
            (*rows[:4], replace(rows[4], condition_pct=math.inf), replace(rows[5], condition_pct=-math.inf), *rows[6:])
        )
        with pytest.raises(DesignError) as raised:
            build_design_matrix(table, default_model_spec())
        assert str(raised.value) == f"non-finite condition_pct inf (pin {rows[4].pin}); clean the table first"

    def test_finite_values_whose_sum_overflows_build(self):
        # a source is finite when its sum is; three lot areas of 1.5e308 sum
        # past the largest float, so they are tested one by one, without an
        # overflow warning (an error in this suite)
        rows = make_table(30).rows
        table = ParcelTable((*(replace(row, lot_sqft=1.5e308) for row in rows[:3]), *rows[3:]))
        design = build_design_matrix(table, default_model_spec())
        assert (design.column("log(lotsqfeet)") == np.log(table.column("lot_sqft"))).all()

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
            qty, r_upper, _jpvt, rnorm = qr_pivot_decompose(design.X, design.y, 1.0, 1.0)
        assert np.isfinite(qty).all() and np.isfinite(r_upper).all() and math.isfinite(rnorm)
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

    @pytest.mark.parametrize("text, line", [
        (b"# zoneval model spec\nterm R1A zone dummy:R1A\nterm a\xffge age_years identity\n", 3),
        (b"term R1A zone dummy:R1A\r\nterm age age_years identity\r\n# caf\xc3", 3),
    ], ids=["invalid_start", "truncated_at_the_end"])
    def test_a_byte_that_is_not_utf8_names_file_and_line(self, tmp_path, text, line):
        # was a bare UnicodeDecodeError naming neither
        path = tmp_path / "model.spec"
        path.write_bytes(text)
        with pytest.raises(DesignError) as info:
            read_model_spec(path)
        assert str(info.value) == f"{path}: line {line}: not UTF-8 text"

    def test_a_file_of_no_terms_is_refused(self, tmp_path):
        path = tmp_path / "model.spec"
        path.write_text("# zoneval model spec\nintercept true\n", encoding="utf-8")
        with pytest.raises(DesignError) as info:
            read_model_spec(path)
        assert str(info.value) == f"{path}: no terms"


@st.composite
def accepted_terms(draw) -> tuple[Term, ...]:
    """Terms of any label, dummy level and threshold cut, each kept when
    ``Term`` and ``Transform`` accept it."""
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(TRANSFORM_KINDS))
        source = "zone" if kind == "dummy" else draw(st.sampled_from(NUMERIC_FIELDS))
        level = draw(st.text()) if kind == "dummy" else None
        cut = draw(st.floats()) if kind == "threshold" else None
        try:
            terms.append(Term(draw(st.text()), source, Transform(kind, level=level, cut=cut)))
        except DesignError:
            pass
    return tuple(terms)


@given(terms=accepted_terms())
@settings(max_examples=300, deadline=None)
def test_every_spec_the_terms_accept_reads_back_equal(tmp_path_factory, terms):
    labels = [t.label for t in terms]
    # a spec of no terms is refused by the reader, a repeated or reserved label by ModelSpec
    assume(terms and len(set(labels)) == len(labels) and not {"intercept", RESPONSE_LABEL} & set(labels))
    spec = ModelSpec(terms)
    path = tmp_path_factory.getbasetemp() / "round_trip.spec"
    write_model_spec(spec, path)
    assert read_model_spec(path) == spec


@pytest.mark.parametrize("text", ["log lot", "a#b", "x\ty", "", "a\u2028b"])
def test_a_label_or_level_no_spec_line_can_hold_is_refused(text):
    message = f"must be non-empty, without whitespace or '#'; got {text!r}"
    with pytest.raises(DesignError) as label:
        Term(text, "age_years", Transform("identity"))
    assert str(label.value) == f"term label {message}"
    with pytest.raises(DesignError) as level:
        Transform("dummy", level=text)
    assert str(level.value) == f"dummy level {message}"


@pytest.mark.parametrize("kind, level, cut", [
    ("log", "R1A", None), ("identity", None, 3.0), ("dummy", "R1A", 3.0), ("threshold", "R1A", 3.0),
])
def test_an_argument_the_kind_does_not_take_is_refused(kind, level, cut):
    # the spec file writes no such argument, so it would not read back
    with pytest.raises(DesignError) as info:
        Transform(kind, level=level, cut=cut)
    assert str(info.value) == f"transform {kind!r} takes no argument"


def test_a_nan_cut_is_refused(tmp_path):
    # a nan cut is unequal to itself, so its spec would not read back equal
    with pytest.raises(DesignError) as info:
        Transform("threshold", cut=math.nan)
    assert str(info.value) == "threshold transform requires a cut, got nan"
    path = tmp_path / "model.spec"
    path.write_text("term c condition_pct threshold:nan\n", encoding="utf-8")
    with pytest.raises(DesignError) as info:
        read_model_spec(path)
    assert str(info.value) == f"{path}: line 1: bad threshold cut 'nan'"


def test_a_token_argument_the_kind_does_not_take_is_refused():
    with pytest.raises(DesignError) as info:
        Transform.from_token("log:5")
    assert str(info.value) == "transform 'log' takes no argument"


def test_a_token_of_an_unknown_kind_is_refused_by_its_kind():
    with pytest.raises(DesignError) as info:
        Transform.from_token("foo:5")
    assert str(info.value) == "unknown transform kind 'foo'"


def test_intercept_label_is_reserved():
    with pytest.raises(DesignError) as info:
        ModelSpec((Term("intercept", "age_years", Transform("identity")),))
    assert str(info.value) == "'intercept' is reserved"


def test_response_label_is_reserved(tmp_path):
    # DesignMatrix.column reads the label as y, so a term of that label would
    # be correlated as the response
    with pytest.raises(DesignError) as info:
        ModelSpec((Term(RESPONSE_LABEL, "lot_sqft", Transform("log")),))
    assert str(info.value) == "'log(u1tfcash)' is reserved"
    path = tmp_path / "model.spec"
    path.write_text("term R1A zone dummy:R1A\nterm log(u1tfcash) lot_sqft log\n", encoding="utf-8")
    with pytest.raises(DesignError) as info:
        read_model_spec(path)
    assert str(info.value) == f"{path}: 'log(u1tfcash)' is reserved"


def test_an_empty_table_has_no_design():
    with pytest.raises(DesignError) as info:
        build_design_matrix(ParcelTable([]), default_model_spec())
    assert str(info.value) == "empty table"


def test_a_first_column_labeled_intercept_must_hold_ones():
    # inference and the VIFs read that label as a column of ones
    rng = np.random.default_rng(0)
    X = np.column_stack([rng.standard_normal(50), np.full(50, 3.0), rng.standard_normal(50)])
    y, pins = rng.standard_normal(50), tuple(map(str, range(50)))
    with pytest.raises(DesignError) as info:
        DesignMatrix(X, y, ("intercept", "c", "a"), pins)
    assert str(info.value) == "column 'intercept' must hold ones"
    # a design with no intercept label is legal, as the correlation tests build them
    assert DesignMatrix(X, y, ("b", "c", "a"), pins).p == 3


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
    terms = [Term(f"dummy:{zone}", "zone", Transform("dummy", level=zone)) for zone in RESIDENTIAL_ZONES]
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


class TestLiveDesigns:
    """A table keeps the designs built from it weakly, by spec, and a
    design is a read-only value."""

    @pytest.fixture
    def compiled(self, monkeypatch):
        """Every design compiled (not reused) while the test runs, held."""
        designs = []
        compile_design = design_module._compile_design

        def compile_and_keep(table, spec):
            designs.append(compile_design(table, spec))
            return designs[-1]

        monkeypatch.setattr(design_module, "_compile_design", compile_and_keep)
        return designs

    def test_an_equal_spec_on_a_live_design_returns_it(self, compiled):
        table = make_table(40)
        design = build_design_matrix(table, default_model_spec())
        # an equal spec, not the same object
        assert build_design_matrix(table, default_model_spec()) is design
        # a nested spec is sliced from the live design, not compiled
        assert build_design_matrix(table, zoning_only_spec()) is not design
        assert len(compiled) == 1

    def test_a_spec_with_a_term_no_live_design_holds_is_compiled(self, compiled):
        table = make_table(40)
        zoning = build_design_matrix(table, zoning_only_spec())
        full = build_design_matrix(table, default_model_spec())  # no subset of the zoning-only spec
        assert len(compiled) == 2
        # a term equal to a live one but for its label is another term
        renamed = build_design_matrix(table, ModelSpec((Term("r1a", "zone", Transform("dummy", level="R1A")),)))
        assert len(compiled) == 3
        assert renamed.X.tobytes() == zoning.X[:, :2].tobytes() == full.X[:, :2].tobytes()

    @pytest.mark.parametrize("nested", ["zoning_only", "without_zoning", "reordered_subset"])
    def test_a_nested_design_is_sliced_with_the_bits_a_compile_gives(self, compiled, nested):
        terms = default_model_spec().terms
        spec = {
            "zoning_only": zoning_only_spec(),
            "without_zoning": default_model_spec().drop_terms(RESIDENTIAL_ZONES),
            "reordered_subset": ModelSpec((terms[12], terms[2], terms[10], terms[4], terms[11], terms[0])),
        }[nested]
        table = make_table(300, seed=7)
        full = build_design_matrix(table, default_model_spec())
        sliced = build_design_matrix(table, spec)
        assert len(compiled) == 1 and table._designs[spec] is sliced and sliced.y is full.y
        # a copy of the table holds no live design, so its design is compiled
        fresh = build_design_matrix(pickle.loads(pickle.dumps(table)), spec)
        assert len(compiled) == 2
        assert sliced.X.flags.f_contiguous and not sliced.X.flags.writeable
        assert (sliced.X.tobytes(order="F"), sliced.y.tobytes()) == (fresh.X.tobytes(order="F"), fresh.y.tobytes())
        assert (sliced.column_labels, sliced.row_pins) == (fresh.column_labels, fresh.row_pins)

    def test_a_dropped_design_is_rebuilt_with_equal_bits(self):
        table = make_table(40)
        design = build_design_matrix(table, default_model_spec())
        X, y, dropped = design.X.tobytes(), design.y.tobytes(), weakref.ref(design)
        del design
        gc.collect()
        assert dropped() is None and len(table._designs) == 0
        again = build_design_matrix(table, default_model_spec())
        assert (again.X.tobytes(), again.y.tobytes()) == (X, y)

    def test_an_unpickled_or_taken_table_has_its_own_designs(self):
        table = make_table(40, seed=3)
        design = build_design_matrix(table, default_model_spec())
        copies = [pickle.loads(pickle.dumps(table)), clean(ParcelTable([*table, make_parcel("BAD", age_years=-1.0)]))[0]]
        for copy in copies:
            assert len(copy._designs) == 0
            other = build_design_matrix(copy, default_model_spec())
            assert other is not design and other.X.tobytes() == design.X.tobytes()

    def test_a_failing_build_raises_again(self):
        table = ParcelTable([make_parcel("A"), make_parcel("B", lot_sqft=None)])
        for _ in range(2):
            with pytest.raises(DesignError, match="missing lot_sqft"):
                build_design_matrix(table, default_model_spec())
        assert len(table._designs) == 0

    def test_a_design_is_read_only_after_unpickling_too(self):
        design = build_design_matrix(make_table(40), default_model_spec())
        design.fit  # solved and kept with the design
        loaded = pickle.loads(pickle.dumps(design))
        assert "fit" not in vars(loaded)  # the fit is not pickled
        assert loaded.column_labels == design.column_labels and loaded.X.tobytes() == design.X.tobytes()
        for d in (design, loaded):
            for array in (d.X, d.y):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0.0

    def test_a_design_of_arrays_makes_them_read_only(self):
        rng = np.random.default_rng(0)
        X, y = np.column_stack([np.ones(20), rng.standard_normal(20)]), rng.standard_normal(20)
        DesignMatrix(X, y, ("intercept", "a"), tuple(map(str, range(20))))
        assert not X.flags.writeable and not y.flags.writeable
