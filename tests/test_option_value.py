import csv
import gc
import io
import math
import pickle
import weakref
from dataclasses import FrozenInstanceError, fields, replace
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zoneval import design as design_module
from zoneval.design import (
    TRANSFORM_KINDS,
    DesignError,
    ModelSpec,
    Term,
    Transform,
    build_design_matrix,
    default_model_spec,
    zoning_only_spec,
)
from zoneval.inference import CoefficientRow, InferenceTable, fit_table
from zoneval.option_value import (
    FittedModel,
    OptionValueError,
    OptionValueReport,
    predict_log_value,
    predict_value,
    rezone_counterfactual,
    zone_effect_report,
)
from zoneval.parcels import (
    NUMERIC_FIELDS,
    RESIDENTIAL_ZONES,
    ROW_TEST,
    ROW_TEST_NAMES,
    ZONES,
    Parcel,
    ParcelError,
    ParcelTable,
    clean,
    parcel_defects,
)
from zoneval.reference import REFERENCE_COEFFICIENTS
from zoneval.render import _fixed, render_whatif
from zoneval.synth import default_true_model, generate_parcels

from conftest import BALANCED_ZONES, make_parcel


def reference_model(intercept=8.0, **estimates) -> FittedModel:
    """FittedModel carrying the published coefficient table, with any
    coefficient named in ``estimates`` replaced."""
    rows = [CoefficientRow("intercept", intercept, 0.1, intercept / 0.1, 0.0, True)]
    for ref in REFERENCE_COEFFICIENTS:
        estimate = estimates.get(ref.label, ref.estimate)
        rows.append(
            CoefficientRow(
                ref.label, estimate, ref.std_error,
                estimate / ref.std_error, 0.05 if ref.significant else 0.5,
                ref.significant,
            )
        )
    table = InferenceTable(
        rows=tuple(rows), r_squared=0.9, adj_r_squared=0.9, f_value=100.0,
        n=1000, k=13, sigma2_hat=0.05,
    )
    return FittedModel(default_model_spec(), table)


def model_of(terms, estimates) -> FittedModel:
    """FittedModel of the spec ``terms`` whose intercept and coefficients,
    in spec order, are ``estimates``."""
    labels = ("intercept", *(t.label for t in terms))
    rows = tuple(CoefficientRow(label, b, 1.0, b, 0.5, False) for label, b in zip(labels, estimates))
    inference = InferenceTable(rows=rows, r_squared=0.5, adj_r_squared=0.5, f_value=1.0,
                               n=100, k=len(terms), sigma2_hat=1.0)
    return FittedModel(ModelSpec(tuple(terms)), inference)


def finite_terms(terms, parcel: Parcel) -> bool:
    """Whether each term's value for the parcel is a finite number: no log of
    a value that is not positive, no square past the largest float."""
    try:
        return all(math.isfinite(t.transform.scalar(getattr(parcel, t.source))) for t in terms)
    except (ValueError, OverflowError):
        return False


def spec_order_oracle(model: FittedModel, parcel: Parcel) -> float:
    """A parcel's predicted log value as the rules and the design state it:
    the rules' first defect, else the error the design gives the parcel as
    a one-row table, else the intercept and each term summed in spec order.
    A parcel with a field that is neither a float nor an int (a str the
    rules read as a number) is a TypeError once both pass.  A parcel whose
    terms are all finite is summed even where the design refuses a column
    as too large to factor (past ``MAX_COLUMN_SQUARES``): that bounds the
    columns of a fit, not one parcel's price."""
    defects = parcel_defects(parcel)
    if defects:
        name, reason = defects[0]
        raise OptionValueError(f"invalid parcel {parcel.pin}: {name} {getattr(parcel, name)!r} {reason}")
    numbers = all(isinstance(getattr(parcel, name), (float, int)) for name in NUMERIC_FIELDS)
    try:
        build_design_matrix(ParcelTable((parcel,)), model.spec)
    except DesignError:
        if not (numbers and finite_terms(model.spec.terms, parcel)):
            raise
    if not numbers:
        raise TypeError(f"invalid parcel {parcel.pin}: a field is neither a float nor an int")
    total = model.coefficient("intercept")
    for term in model.spec.terms:
        total += model.coefficient(term.label) * term.transform.scalar(getattr(parcel, term.source))
    return total


@st.composite
def drawn_terms(draw) -> tuple[Term, ...]:
    """Terms of every kind in any order: dummies before and after other
    terms, random cuts, squares of any field."""
    terms = []
    for j in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(TRANSFORM_KINDS))
        if kind == "dummy":
            terms.append(Term(f"t{j}", "zone", Transform("dummy", level=draw(st.sampled_from(ZONES)))))
        else:
            cut = draw(st.floats(-10.0, 200.0)) if kind == "threshold" else None
            terms.append(Term(f"t{j}", draw(st.sampled_from(NUMERIC_FIELDS)), Transform(kind, cut=cut)))
    return tuple(terms)


# cells that fail a cleaning rule, or pass the rules in a form a sum over
# fields would get wrong (an int, a value whose sum with another overflows)
EDGE_CELLS = (0, 0.0, -0.0, -3.0, 1e308, 1e200, math.inf, -math.inf, math.nan, None, 250.0)


@st.composite
def drawn_parcels(draw) -> Parcel:
    """A parcel whose fields are floats or ints within the cleaning rules,
    with up to three fields set to an edge cell and a zone that may be
    unknown or missing."""
    within = st.one_of(st.floats(0.5, 5e4), st.integers(1, 120))
    cells = {name: draw(within) for name in NUMERIC_FIELDS}
    cells["condition_pct"] = draw(st.one_of(st.floats(0.0, 100.0), st.integers(0, 100)))
    for name in draw(st.lists(st.sampled_from(NUMERIC_FIELDS), max_size=3)):
        cells[name] = draw(st.sampled_from(EDGE_CELLS))
    return Parcel("D1", zone=draw(st.sampled_from((*ZONES, "B3", None))), **cells)


_ROW_TEST_CODE = compile(ROW_TEST, "<ROW_TEST>", "eval")


@given(parcel=drawn_parcels())
@example(parcel=make_parcel(assessed_value=1e308, lot_sqft=1e308))  # finite fields whose sum overflows
@settings(max_examples=500, deadline=None)
def test_the_row_test_passes_exactly_the_rows_the_rules_keep(parcel):
    try:
        passes = bool(eval(_ROW_TEST_CODE, dict(ROW_TEST_NAMES), {"p": parcel}))
    except TypeError:  # a missing field
        passes = False
    assert passes == (parcel_defects(parcel) == [])


# cells the rules keep or refuse in ways only the design or the types tell
# apart: a float whose square overflows, an int 0 for a log, ints past the
# float range or whose square is, and strs the rules read as numbers or reject
WIDE_CELLS = (1e200, 0, 10**200, 10**400, -(10**400), "7.5", "0", "abc")


@st.composite
def wide_parcels(draw) -> Parcel:
    """A drawn parcel with up to two fields set to a WIDE_CELLS cell."""
    parcel = draw(drawn_parcels())
    names = draw(st.lists(st.sampled_from(NUMERIC_FIELDS), max_size=2))
    return replace(parcel, **{name: draw(st.sampled_from(WIDE_CELLS)) for name in names})


@given(
    terms=drawn_terms(),
    estimates=st.lists(st.floats(-20.0, 20.0), min_size=11, max_size=11),
    parcel=wide_parcels(),
)
@example(terms=(Term("s", "lot_sqft", Transform("square")),), estimates=[11.0, 1e-300] + [0.0] * 9,
         parcel=make_parcel(lot_sqft=1e200))
@example(terms=(Term("l", "age_years", Transform("log")),), estimates=[11.0, 0.5] + [0.0] * 9,
         parcel=make_parcel(age_years=0))
@example(terms=(Term("l", "age_years", Transform("log")),), estimates=[11.0, 0.5] + [0.0] * 9,
         parcel=make_parcel(age_years="0"))
@settings(max_examples=300, deadline=None)
def test_a_parcel_is_priced_exactly_when_the_rules_and_the_design_take_it(terms, estimates, parcel):
    # a price exactly when parcel_defects is empty and the one-row design
    # builds, else that same error (see spec_order_oracle for the two refinements)
    model = model_of(terms, estimates)
    outcomes = []
    for call in (predict_log_value, spec_order_oracle):
        try:
            outcomes.append(bits(call(model, parcel)))
        except (ValueError, TypeError) as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


@given(terms=drawn_terms())
@example(terms=default_model_spec().terms)
@example(terms=zoning_only_spec().terms)
@settings(max_examples=100, deadline=None)
def test_a_spec_round_trips_through_pickle(terms):
    spec = ModelSpec(terms)
    assert pickle.loads(pickle.dumps(spec)) == spec


def bits(x: float) -> str:
    """A float's exact value, telling 0.0 from -0.0."""
    return float.hex(x)


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
                x = term.transform.scalar(getattr(parcel, term.source))
                expected += model.inference.row(term.label).estimate * x
            assert predict_log_value(model, parcel) == expected

    @pytest.mark.parametrize(
        "terms",
        [
            # a dummy after a log term is summed in its spec place, not in the zone's start
            (
                Term("R1A", "zone", Transform("dummy", level="R1A")),
                Term("log(lotsqfeet)", "lot_sqft", Transform("log")),
                Term("R1B", "zone", Transform("dummy", level="R1B")),
                Term("age", "age_years", Transform("identity")),
            ),
            # no dummy at all: the start is the intercept
            (
                Term("log(lotsqfeet)", "lot_sqft", Transform("log")),
                Term("age^2", "age_years", Transform("square")),
                Term("condition", "condition_pct", Transform("threshold", cut=40.0)),
            ),
        ],
        ids=["dummy_after_log", "no_dummy"],
    )
    def test_prediction_is_the_spec_order_sum_for_any_spec(self, fitted_market, terms):
        _, table, _, _ = fitted_market
        model = FittedModel.fit(table, ModelSpec(terms))
        for parcel in table.rows[:200]:
            expected = model.coefficient("intercept")
            for term in terms:
                expected += model.coefficient(term.label) * term.transform.scalar(getattr(parcel, term.source))
            assert bits(predict_log_value(model, parcel)) == bits(expected)

    @given(
        terms=drawn_terms(),
        estimates=st.lists(st.floats(-20.0, 20.0), min_size=11, max_size=11),
        parcels=st.lists(drawn_parcels(), min_size=1, max_size=4),
    )
    @example(  # a dummy after a log term, and both log fields at 1e308: their sum overflows
        terms=(Term("a", "lot_sqft", Transform("log")), Term("b", "zone", Transform("dummy", level="R2")),
               Term("c", "assessed_value", Transform("log"))),
        estimates=[11.0, 0.5, -0.25, 0.125] + [0.0] * 7,
        parcels=[make_parcel(zone="R2", assessed_value=1e308, lot_sqft=1e308)],
    )
    @example(  # a custom log term on an age of 0, which the rules keep
        terms=(Term("R1A", "zone", Transform("dummy", level="R1A")), Term("lage", "age_years", Transform("log")),
               Term("age^2", "age_years", Transform("square"))),
        estimates=[11.0, 0.3, -0.1, 0.001] + [0.0] * 7,
        parcels=[make_parcel(age_years=0), make_parcel(age_years=0.0), make_parcel(age_years=7)],
    )
    @example(  # int-valued fields, a threshold at its cut and a square
        terms=(Term("t", "condition_pct", Transform("threshold", cut=40.0)),
               Term("b2", "bathrooms", Transform("square")), Term("S2", "zone", Transform("dummy", level="S2"))),
        estimates=[11.0, 0.2, 0.01, -3.0] + [0.0] * 7,
        parcels=[make_parcel(zone="S2", condition_pct=40, bathrooms=3, age_years=12, tax_rate_pct=7)],
    )
    @settings(max_examples=300, deadline=None)
    def test_prediction_is_the_spec_order_sum_for_drawn_specs(self, terms, estimates, parcels):
        model = model_of(terms, estimates)
        for parcel in parcels:
            try:
                expected = spec_order_oracle(model, parcel)
            except ValueError as exc:
                for call in (predict_log_value, predict_value, lambda m, p: rezone_counterfactual(m, p, "R1A")):
                    with pytest.raises(type(exc)) as caught:
                        call(model, parcel)
                    assert str(caught.value) == str(exc)
                continue
            assert bits(predict_log_value(model, parcel)) == bits(expected)
            if math.isfinite(expected) and expected < 700.0:
                assert bits(predict_value(model, parcel)) == bits(math.exp(expected))
                report = rezone_counterfactual(model, parcel, parcel.zone)
                assert bits(report.predicted_value_from) == bits(math.exp(expected))

    @given(
        terms=drawn_terms(),
        estimates=st.lists(st.floats(-20.0, 20.0), min_size=11, max_size=11),
        parcels=st.lists(drawn_parcels(), min_size=1, max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_a_pickled_model_prices_as_the_original(self, terms, estimates, parcels):
        model = model_of(terms, estimates)
        loaded = pickle.loads(pickle.dumps(model))
        assert (loaded.spec, loaded.inference) == (model.spec, model.inference)
        for parcel in parcels:
            outcomes = []
            for m in (model, loaded):
                try:
                    outcomes.append(bits(predict_log_value(m, parcel)))
                except (ValueError, TypeError) as exc:
                    outcomes.append((type(exc), str(exc)))
            assert outcomes[0] == outcomes[1]

    def test_a_term_on_no_parcel_field_is_rejected_at_construction(self):
        with pytest.raises(DesignError, match="unknown source field 'foo' for term 'f'"):
            terms = (Term("R1A", "zone", Transform("dummy", level="R1A")), Term("f", "foo", Transform("log")))
            model_of(terms, [11.0, 0.3, 0.1])
        with pytest.raises(DesignError, match="unknown source field 'pin' for term 'p'"):
            model_of((Term("p", "pin", Transform("identity")),), [11.0, 0.1])

    def test_the_pricer_names_only_fields_and_constants(self):
        # labels, levels and cuts are never text in the generated source
        terms = (
            Term("R1A')or('", "zone", Transform("dummy", level="R1A")),
            Term("lage;import(os)", "age_years", Transform("log")),
            Term("c", "condition_pct", Transform("threshold", cut=1e-300)),
            Term("z", "zone", Transform("dummy", level="R2'+__import__('os').sep+'")),
        )
        model = model_of(terms, [11.0, 0.5, -0.1, 0.25, 2.0])
        allowed = {*NUMERIC_FIELDS, "zone", "isfinite", "ZONE_SET", "log", "starts", "rejection",
                   "TypeError", "OverflowError", "b1", "b2", "b3", "k1", "k2", "k3"}
        for function in (model._price,):
            assert set(function.__code__.co_names) <= allowed
            assert all(isinstance(c, (int, type(None))) for c in function.__code__.co_consts)
        parcel = make_parcel(zone="R1A", age_years=4.0)
        assert bits(predict_log_value(model, parcel)) == bits(spec_order_oracle(model, parcel))

    def test_unknown_label_is_a_key_error(self, fitted_market):
        model, _, _, _ = fitted_market
        with pytest.raises(KeyError, match="nope"):
            model.coefficient("nope")

    def test_invalid_parcel_rejected(self, fitted_market):
        model, _, _, _ = fitted_market
        with pytest.raises(OptionValueError, match="bathrooms"):
            predict_log_value(model, make_parcel(bathrooms=0.0))

    @pytest.mark.parametrize("value", ["7.5", Decimal("7.5")], ids=["str", "decimal"])
    def test_a_field_of_another_type_is_a_type_error_naming_the_pin(self, fitted_market, value):
        # the rules read the field as the float 7.5, the pricer as it is
        model, _, _, _ = fitted_market
        with pytest.raises(TypeError, match="^invalid parcel P1: a field is neither a float nor an int$"):
            predict_log_value(model, make_parcel(tax_rate_pct=value))

    def test_an_int_age_whose_square_overflows_is_itemised(self):
        # the row test's square raises OverflowError, and the rules name the defect
        with pytest.raises(OptionValueError, match=r"^invalid parcel P1: age_years 10{200} square overflows$"):
            predict_log_value(reference_model(), make_parcel(age_years=10**200))

    def test_the_square_of_an_int_past_the_float_range_names_the_field(self):
        # the rules square only the age, so the term's domain is where this one overflows
        model = model_of((Term("s", "lot_sqft", Transform("square")),), [11.0, 1e-300])
        with pytest.raises(DesignError, match=r"^term 's' overflows: square of lot_sqft 1e\+200 \(pin P1\)$"):
            predict_log_value(model, make_parcel(lot_sqft=10**200))

    def test_a_square_past_the_float_range_is_the_designs_error(self):
        # a float this time: its square is inf, not an OverflowError
        model = model_of((Term("s", "lot_sqft", Transform("square")),), [11.0, 1e-300])
        parcel = make_parcel(lot_sqft=1e200)
        with pytest.raises(DesignError) as designed:
            build_design_matrix(ParcelTable((parcel,)), model.spec)
        assert str(designed.value) == "term 's' overflows: square of lot_sqft 1e+200 (pin P1)"
        for call in (predict_log_value, predict_value, lambda m, p: rezone_counterfactual(m, p, "R1A")):
            with pytest.raises(DesignError) as caught:
                call(model, parcel)
            assert str(caught.value) == str(designed.value)

    def test_an_int_past_the_float_range_is_the_tables_error(self):
        with pytest.raises(ParcelError, match=r"^pin P1: lot_sqft is past the largest float$"):
            predict_log_value(reference_model(), make_parcel(lot_sqft=10**400))

    def test_log_of_a_zero_field_names_the_pin_and_the_field(self):
        # a custom log term on age: age 0 passes the cleaning rules but has no log
        spec = ModelSpec((Term("lage", "age_years", Transform("log")),))
        rows = (
            CoefficientRow("intercept", 11.0, 0.1, 110.0, 0.0, True),
            CoefficientRow("lage", -0.1, 0.01, -10.0, 0.0, True),
        )
        inference = InferenceTable(rows=rows, r_squared=0.5, adj_r_squared=0.5, f_value=10.0,
                                   n=100, k=1, sigma2_hat=0.1)
        model = FittedModel(spec, inference)
        parcel = make_parcel(pin="AGE0", age_years=0.0)
        for call in (lambda: predict_log_value(model, parcel),
                     lambda: rezone_counterfactual(model, parcel, "R1B")):
            with pytest.raises(ValueError) as caught:
                call()
            assert "AGE0" in str(caught.value) and "age_years" in str(caught.value)
        assert predict_log_value(model, replace(parcel, age_years=math.e)) == 11.0 - 0.1

    @pytest.mark.parametrize("betas", [[1e300], [1e300, -1e300]], ids=["inf", "nan"])
    def test_a_log_value_that_is_not_finite_is_an_overflow_error(self, betas):
        # 1e300 * 1e10 is inf, and inf - inf is nan; neither is a price
        terms = tuple(Term(f"x{j}", "lot_sqft", Transform("identity")) for j in range(len(betas)))
        model = model_of(terms, [0.0, *betas])
        parcel = make_parcel(lot_sqft=1e10)
        log_value = predict_log_value(model, parcel)
        assert not math.isfinite(log_value)
        message = f"predicted log value {log_value} overflows for pin P1; check the model coefficients"
        for call in (predict_value, lambda m, p: rezone_counterfactual(m, p, "R1A")):
            with pytest.raises(OptionValueError) as caught:
                call(model, parcel)
            assert str(caught.value) == message

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

    def test_pair_table_is_exact(self, fitted_market):
        model, table, _, _ = fitted_market
        parcel = table.rows[7]
        for a in ZONES:
            for b in ZONES:
                report = rezone_counterfactual(model, replace(parcel, zone=a), b)
                delta = model.zone_coefficient(b) - model.zone_coefficient(a)
                assert bits(report.delta_log) == bits(delta)
                assert bits(report.naive_pct) == bits(100.0 * delta)
                assert bits(report.exact_pct) == bits(100.0 * math.expm1(delta))
                assert bits(report.predicted_value_from) == bits(predict_value(model, replace(parcel, zone=a)))
                assert bits(report.predicted_value_to) == bits(report.predicted_value_from * math.exp(delta))

    def test_reports_equal_the_reports_init_builds(self, fitted_market):
        model, table, _, _ = fitted_market
        for parcel in table.rows[:200]:
            report = rezone_counterfactual(model, parcel, "R1A")
            delta = model.zone_coefficient("R1A") - model.zone_coefficient(parcel.zone)
            value_from = predict_value(model, parcel)
            expected = OptionValueReport(
                parcel.pin, parcel.zone, "R1A", delta, 100.0 * delta, 100.0 * math.expm1(delta),
                value_from, value_from * math.exp(delta),
            )
            assert type(report) is OptionValueReport
            for f in fields(OptionValueReport):
                got, want = getattr(report, f.name), getattr(expected, f.name)
                assert (bits(got) == bits(want)) if isinstance(want, float) else (got == want)
            assert report == expected and hash(report) == hash(expected)
        with pytest.raises(FrozenInstanceError):
            report.delta_log = 0.0

    def test_replace_on_a_report(self, fitted_market):
        model, table, _, _ = fitted_market
        report = rezone_counterfactual(model, table.rows[0], "R1A")
        moved = replace(report, to_zone="R1B")
        assert type(moved) is OptionValueReport
        assert moved.to_zone == "R1B" and moved.pin == report.pin
        assert replace(moved, to_zone="R1A") == report

    def test_overflowing_pair_is_an_error_naming_pin_and_pair(self):
        # exp(delta) overflows for OTHER -> R1A only; the model still builds
        model = reference_model(R1A=720.0)
        parcel = reference_parcel("OTHER")
        with pytest.raises(OptionValueError, match=r"pin P1 from OTHER to R1A overflows"):
            rezone_counterfactual(model, parcel, "R1A")
        assert rezone_counterfactual(model, parcel, "OTHER").delta_log == 0.0
        assert rezone_counterfactual(model, parcel, "R1B").delta_log == model.coefficient("R1B")

    def test_overflowing_rezoned_value_is_an_error(self):
        # exp(700) is finite, but the parcel's value times it is not
        model = reference_model(intercept=20.0, R1A=700.0)
        parcel = reference_parcel("OTHER")
        assert math.isfinite(math.exp(700.0))
        with pytest.raises(OptionValueError, match=r"pin P1 from OTHER to R1A overflows"):
            rezone_counterfactual(model, parcel, "R1A")

    def test_overflow_check_keeps_the_unknown_zone_error(self):
        with pytest.raises(OptionValueError, match="unknown zone 'B3'"):
            rezone_counterfactual(reference_model(R1A=720.0), reference_parcel("OTHER"), "B3")

    def test_unknown_zone_rejected(self, fitted_market):
        model, table, _, _ = fitted_market
        with pytest.raises(OptionValueError, match="B3"):
            rezone_counterfactual(model, table.rows[0], "B3")

    def test_unknown_parcel_zone_names_the_zone_and_the_pin(self, fitted_market):
        model, table, _, _ = fitted_market
        parcel = replace(table.rows[0], zone="C1")
        with pytest.raises(OptionValueError, match=rf"{parcel.pin}: zone 'C1'"):
            rezone_counterfactual(model, parcel, "R1A")


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

    def test_overflowing_effect_is_an_error_naming_the_zone(self):
        # expm1 overflows above about 709.78; a large negative effect is -100%
        with pytest.raises(OptionValueError, match=r"zone R1A effect overflows: coefficient 720"):
            zone_effect_report(reference_model(R1A=720.0))
        effects = {e.zone: e for e in zone_effect_report(reference_model(R1A=-720.0))}
        assert effects["R1A"].exact_pct == -100.0 and effects["R1A"].extreme


class TestZoneEffectsFromDummyTerms:
    """A zone's effect is the coefficient of the dummy term whose level
    it is, whatever the term's label; a zone without one reads 0.0."""

    @pytest.fixture(scope="class")
    def table(self, fitted_market):
        return fitted_market[1]

    def test_renamed_dummy_gives_the_same_effects(self, table, fitted_market):
        model = fitted_market[0]
        renamed = ModelSpec(tuple(
            Term(f"zone{t.label}", t.source, t.transform) if t.transform.kind == "dummy" else t
            for t in default_model_spec().terms
        ))
        other = FittedModel.fit(table, renamed)
        for zone in ZONES:
            assert other.zone_coefficient(zone) == model.zone_coefficient(zone)
        assert zone_effect_report(other) == zone_effect_report(model)

    def test_zone_without_a_dummy_reads_zero(self, table):
        model = FittedModel.fit(table, default_model_spec().drop_terms(["S2"]))
        assert model.zone_coefficient("S2") == 0.0
        assert model.zone_coefficient("OTHER") == 0.0
        assert [e.zone for e in zone_effect_report(model)] == ["R1A", "R1B", "R2"]
        for parcel in table.rows[:50]:
            report = rezone_counterfactual(model, parcel, "S2")
            expected = predict_value(model, replace(parcel, zone="S2"))
            assert report.predicted_value_to == pytest.approx(expected, rel=1e-12, abs=0)

    def test_dummy_on_other_is_its_effect(self, table):
        # with OTHER as a term and R1A left out, R1A is the baseline
        terms = [t for t in default_model_spec().terms if t.label != "R1A"]
        terms.insert(0, Term("OTHER", "zone", Transform("dummy", level="OTHER")))
        model = FittedModel.fit(table, ModelSpec(tuple(terms)))
        assert model.zone_coefficient("R1A") == 0.0
        assert model.zone_coefficient("OTHER") == model.coefficient("OTHER") != 0.0
        parcel = replace(table.rows[0], zone="OTHER")
        report = rezone_counterfactual(model, parcel, "R1A")
        expected = predict_value(model, replace(parcel, zone="R1A"))
        assert report.predicted_value_to == pytest.approx(expected, rel=1e-12, abs=0)


class TestCsvExport:
    def test_batch_export(self, fitted_market):
        model, table, _, _ = fitted_market
        reports = [rezone_counterfactual(model, p, "R1A") for p in table.rows[:50]]
        rows = list(csv.DictReader(io.StringIO(render_whatif(reports, "csv"), newline="")))
        assert len(rows) == 50
        assert list(rows[0]) == ["pin", "from_zone", "to_zone", "delta_log", "naive_pct", "exact_pct"]
        assert float(rows[0]["delta_log"]) == pytest.approx(reports[0].delta_log)

    def test_floats_are_written_at_full_precision(self, fitted_market):
        model, table, _, _ = fitted_market
        reports = [rezone_counterfactual(model, p, "S2") for p in table.rows[:50]]
        rows = list(csv.reader(io.StringIO(render_whatif(reports, "csv"), newline="")))[1:]
        assert [(r[0], float(r[3]), float(r[4]), float(r[5])) for r in rows] == [
            (r.pin, r.delta_log, r.naive_pct, r.exact_pct) for r in reports
        ]


def reference_whatif_csv(reports) -> str:
    """The whatif CSV as a plain csv.writer writes it, one row per report."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["pin", "from_zone", "to_zone", "delta_log", "naive_pct", "exact_pct"])
    for r in reports:
        writer.writerow([r.pin, r.from_zone, r.to_zone, repr(float(r.delta_log)),
                         repr(float(r.naive_pct)), repr(float(r.exact_pct))])
    return buf.getvalue()


# text a cell may hold: csv specials, spaces, non-ASCII letters, digits
CELL_TEXT = st.text(alphabet=st.sampled_from(list('AZaz09 ,"\r\n\t-éü漢')), max_size=6)
CELL_FLOAT = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e-320, 100.0]),
    st.floats(allow_nan=True, allow_infinity=True),
)
# a tail's floats are shared objects: the renderer reuses a tail per object
TAIL = st.tuples(st.sampled_from(ZONES) | CELL_TEXT, st.sampled_from(ZONES) | CELL_TEXT,
                 CELL_FLOAT, CELL_FLOAT, CELL_FLOAT)


@settings(max_examples=300, deadline=None)
@given(
    tails=st.lists(TAIL, min_size=1, max_size=6),
    rows=st.lists(st.tuples(st.text(max_size=8) | CELL_TEXT, st.integers(0, 5)), max_size=30),
)
def test_whatif_csv_equals_the_csv_writer(tails, rows):
    # same-pair tails with other values: 0.0 and -0.0, a different delta
    tails = tails + [(a, b, -d if d == 0.0 else d + 1.0, n, e) for a, b, d, n, e in tails]
    reports = [
        OptionValueReport(pin, *tails[i % len(tails)], 1.0, 2.0) for pin, i in rows
    ]
    assert render_whatif(reports, "csv") == reference_whatif_csv(reports)


def test_whatif_csv_keeps_the_sign_of_zero():
    reports = [
        OptionValueReport("A", "R1A", "R1A", 0.0, 0.0, 0.0, 1.0, 1.0),
        OptionValueReport("B", "R1A", "R1A", -0.0, -0.0, -0.0, 1.0, 1.0),
        OptionValueReport("C", "R1A", "R1A", 0.0, 0.0, 0.0, 1.0, 1.0),
    ]
    assert render_whatif(reports, "csv").splitlines()[1:] == [
        "A,R1A,R1A,0.0,0.0,0.0", "B,R1A,R1A,-0.0,-0.0,-0.0", "C,R1A,R1A,0.0,0.0,0.0",
    ]


def reference_whatif_text(reports) -> str:
    """The whatif text as one plain f-string per row, each number wider than
    its column in e-notation of the column's width."""
    lines = [f"{'pin':<12} {'from':<6} {'to':<6} {'delta log':>11} {'naive %':>9} {'exact %':>9}"]
    for r in reports:
        lines.append(f"{r.pin:<12} {r.from_zone:<6} {r.to_zone:<6} "
                     f"{_fixed(r.delta_log, 11, 7)} {_fixed(r.naive_pct, 9, 2)} {_fixed(r.exact_pct, 9, 2)}")
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(
    tails=st.lists(TAIL, min_size=1, max_size=6),
    rows=st.lists(st.tuples(st.text(max_size=14) | CELL_TEXT, st.integers(0, 5)), max_size=30),
)
@example(tails=[("R1A", "S2", 0.0, 0.0, 0.0)], rows=[("a pin", 0), ("é漢 ü", 1), ("A", 0), ("B", 1)])
def test_whatif_text_equals_an_f_string_per_row(tails, rows):
    # the reports of one tail share its float objects, as a zone pair's do; each
    # tail has a same-pair twin with other values (0.0 beside -0.0)
    tails = tails + [(a, b, -d if d == 0.0 else d + 1.0, n, e) for a, b, d, n, e in tails]
    reports = [OptionValueReport(pin, *tails[i % len(tails)], 1.0, 2.0) for pin, i in rows]
    assert render_whatif(reports, "text") == reference_whatif_text(reports)


def test_fit_classmethod_matches_pipeline(fitted_market):
    model, table, _, _ = fitted_market
    _, _, inference = fit_table(table, default_model_spec())
    assert model.inference.rows == inference.rows


def test_a_fitted_model_keeps_no_design_alive(monkeypatch):
    # a table keeps its designs weakly, so the design a fit is made from is
    # freed once the fit returns, as before designs were reused
    compiled = []
    compile_design = design_module._compile_design

    def compile_and_watch(table, spec):
        design = compile_design(table, spec)
        compiled.append(weakref.ref(design))
        return design

    truth = default_true_model(seed=52, noise_sigma=0.2, zone_probs=dict(BALANCED_ZONES))
    cleaned, _ = clean(generate_parcels(truth, 800)[0])
    monkeypatch.setattr(design_module, "_compile_design", compile_and_watch)
    model = FittedModel.fit(cleaned)
    gc.collect()
    assert len(compiled) == 1 and compiled[0]() is None
    assert len(cleaned._designs) == 0 and model.inference.n == len(cleaned)


def test_label_mismatch_rejected():
    rows = (CoefficientRow("intercept", 1.0, 1.0, 1.0, 0.5, False),)
    table = InferenceTable(rows=rows, r_squared=0.5, adj_r_squared=0.5,
                           f_value=1.0, n=10, k=13, sigma2_hat=1.0)
    with pytest.raises(OptionValueError):
        FittedModel(default_model_spec(), table)
