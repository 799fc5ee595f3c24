import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zoneval import _kernels
from zoneval.design import MAX_COLUMN_SQUARES
from zoneval.lstsq import (
    LeastSquaresError,
    RankDeficiencyError,
    UnderdeterminedError,
    _rejected_left_to_right,
    solve_least_squares,
)

from oracle import solve_normal_equations_oracle


def random_instance(rng, n=100, p=6):
    X = rng.standard_normal((n, p))
    X[:, 0] = 1.0
    beta = rng.standard_normal(p)
    y = X @ beta + 0.3 * rng.standard_normal(n)
    return X, y


class TestExactData:
    def test_three_point_line(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        y = np.array([1.0, 3.0, 5.0])
        fit = solve_least_squares(X, y)
        assert fit.coefficients == pytest.approx([1.0, 2.0], abs=1e-12)
        assert np.max(np.abs(y - X @ fit.coefficients)) < 1e-12
        assert fit.rss < 1e-24
        assert fit.dof == 1

    def test_oracle_same_line(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        y = np.array([1.0, 3.0, 5.0])
        fit = solve_normal_equations_oracle(X, y)
        assert fit.coefficients == pytest.approx([1.0, 2.0], abs=1e-12)

    def test_oracle_identity_design(self):
        y = np.array([3.0, -1.0, 2.5, 0.0])
        fit = solve_normal_equations_oracle(np.eye(4), y)
        assert fit.coefficients == pytest.approx(y, abs=1e-12)


class TestRankDetection:
    def test_duplicated_column_rejected_by_name(self):
        rng = np.random.default_rng(0)
        base = rng.standard_normal((50, 3))
        X = np.column_stack([base[:, 0], base[:, 1], base[:, 1], base[:, 2]])
        with pytest.raises(RankDeficiencyError) as exc_info:
            solve_least_squares(X, rng.standard_normal(50), ("a", "b", "b_copy", "c"))
        err = exc_info.value
        assert err.dependent_labels == ("b_copy",)
        assert err.dependent_columns == (2,)
        assert "b_copy" in str(err)

    def test_later_copy_of_a_duplicate_is_rejected_at_any_position(self):
        # pivoting breaks the copies' norm tie either way; the reject is
        # named left to right, so it is always the later copy
        for seed in range(200):
            rng = np.random.default_rng(seed)
            p = int(rng.integers(2, 12))
            n = int(rng.integers(p + 2, 200))
            X = rng.standard_normal((n, p)) * rng.uniform(0.1, 10.0, p)
            original = int(rng.integers(p))
            copy = int(rng.integers(original + 1, p + 1))
            X = np.insert(X, copy, X[:, original], axis=1)
            labels = tuple(f"x{j}" for j in range(p + 1))
            with pytest.raises(RankDeficiencyError) as exc_info:
                solve_least_squares(X, rng.standard_normal(n), labels)
            err = exc_info.value
            assert err.dependent_columns == (copy,), f"seed {seed}"
            assert err.dependent_labels == (f"x{copy}",)
            assert err.rank == p

    def test_pivot_just_under_the_threshold_still_raises(self):
        # unit columns a = e0, b = e0 + d e1, c = e1 + d e2: scanned left
        # to right, b's distance from a and c's from (a, b) are both about
        # d, far above the threshold, so the scan keeps all three; but
        # pivoting takes a and c first, and b's distance from them, d^2 =
        # 0.5 tol, does not clear it: the pivoted factorization's reject
        # is named
        n = 1000
        tol = n * np.finfo(np.float64).eps
        d = np.sqrt(0.5 * tol)
        X = np.zeros((n, 3))
        X[0] = [1.0, 1.0, 0.0]
        X[1] = [0.0, d, 1.0]
        X[2] = [0.0, 0.0, d]
        _, r_upper, jpvt, _ = _kernels.qr_pivot_decompose(X, np.ones(n), 1.0, 1.0)
        unit = r_upper / np.linalg.norm(r_upper, axis=0)
        assert _rejected_left_to_right(unit[:, np.argsort(jpvt)], tol) == []
        with pytest.raises(RankDeficiencyError) as exc_info:
            solve_least_squares(X, np.ones(n), ("a", "b", "c"))
        assert exc_info.value.rank == 2
        assert exc_info.value.dependent_columns == (jpvt[-1],)

    def test_zero_column_rejected(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((30, 3))
        X[:, 2] = 0.0
        with pytest.raises(RankDeficiencyError):
            solve_least_squares(X, rng.standard_normal(30))

    def test_an_all_zero_column_is_marked_in_the_message_only(self):
        # labels stay bare, so a caller can still drop them by name
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(30), rng.standard_normal(30), np.zeros(30), 2.0 * np.ones(30)])
        for labels, named in ((("one", "a", "zero", "two"), "zero (all zeros), two"), (None, "2 (all zeros), 3")):
            with pytest.raises(RankDeficiencyError) as exc_info:
                solve_least_squares(X, rng.standard_normal(30), labels)
            assert str(exc_info.value) == f"rank-deficient design (rank 2): dependent columns: {named}"
            assert exc_info.value.dependent_labels == (labels[2:] if labels else ())
            assert exc_info.value.dependent_columns == (2, 3)

    def test_linear_combination_rejected(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((40, 4))
        X[:, 3] = 2.0 * X[:, 0] - X[:, 1]
        with pytest.raises(RankDeficiencyError) as exc_info:
            solve_least_squares(X, rng.standard_normal(40))
        assert exc_info.value.rank == 3


@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(2, 10),
    duplicate=st.booleans(),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_column_scales_change_neither_the_rank_nor_the_named_columns(seed, p, duplicate, data):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(p + 20, 200))
    X = rng.standard_normal((n, p))
    if duplicate:
        original = data.draw(st.integers(0, p - 2), label="original")
        copy = data.draw(st.integers(original + 1, p - 1), label="copy")
        X[:, copy] = X[:, original]
    exponents = data.draw(st.lists(st.floats(-8.0, 8.0), min_size=p, max_size=p), label="exponents")
    scales = 10.0 ** np.array(exponents)
    y = rng.standard_normal(n)
    labels = tuple(f"x{j}" for j in range(p))

    def outcome(design):
        try:
            fit = solve_least_squares(design, y, labels)
        except RankDeficiencyError as exc:
            return exc.rank, exc.dependent_labels, None
        return p, (), fit.coefficients  # a solve that returns is full rank

    rank, named, beta = outcome(X)
    scaled_rank, scaled_named, scaled_beta = outcome(X * scales)
    assert (scaled_rank, scaled_named) == (rank, named)
    if duplicate:
        # an exact duplicate is rejected as the later column, whatever the scales
        assert (rank, named) == (p - 1, (f"x{copy}",))
    else:
        assert rank == p
        assert np.max(np.abs(scaled_beta * scales - beta)) <= 1e-8 * np.max(np.abs(beta))


class TestErrors:
    def test_underdetermined(self):
        with pytest.raises(UnderdeterminedError):
            solve_least_squares(np.ones((2, 3)), np.ones(2))

    def test_non_finite_input(self):
        X = np.ones((5, 2))
        X[0, 0] = np.nan
        with pytest.raises(LeastSquaresError, match="finite"):
            solve_least_squares(X, np.ones(5))

    def test_shape_mismatch(self):
        with pytest.raises(LeastSquaresError):
            solve_least_squares(np.ones((5, 2)), np.ones(4))

    def test_no_columns(self):
        with pytest.raises(LeastSquaresError) as info:
            solve_least_squares(np.ones((3, 0)), np.ones(3))
        assert str(info.value) == "X needs at least one column"

    def test_label_count_must_match_the_columns(self):
        with pytest.raises(LeastSquaresError) as info:
            solve_least_squares(np.ones((3, 1)), np.arange(3.0), ("a", "b"))
        assert str(info.value) == "column_labels length does not match X"

    def test_oracle_singular(self):
        X = np.ones((5, 2))  # duplicated constant column
        with pytest.raises(LeastSquaresError):
            solve_normal_equations_oracle(X, np.ones(5))

    @pytest.mark.parametrize("labels, named", [(None, "column 1"), (("intercept", "big", "a"), "column 'big'")])
    def test_a_column_past_the_bound_is_named(self, labels, named):
        # its sum of squares overflows: the solve refused it, and unchecked
        # gave nan coefficients; scaled by a power of two, it factors as the
        # plain column does
        rng = np.random.default_rng(0)
        X = np.column_stack([np.ones(50), rng.standard_normal(50), rng.standard_normal(50)])
        y = X @ [1.0, 2.0, 1.0] + rng.standard_normal(50)
        plain = solve_least_squares(X, y, labels)
        big = X * [1.0, 1e300, 1.0]
        assert_the_plain_fit_rescaled(solve_least_squares(big, y, labels), plain, column=1, by=1e300)
        # the bound now is the largest float, for the coefficient
        with pytest.raises(LeastSquaresError) as info:
            solve_least_squares(X * [1.0, 1e-300, 1.0], 1e10 * y, labels)
        assert str(info.value) == f"{named} is out of range: its coefficient exceeds the largest float"

    @pytest.mark.parametrize("target", [1, "y"])
    def test_the_bound_holds_for_each_column_and_for_y(self, target):
        # a column, or y, on either side of the old bound on its sum of
        # squares fits as the plain one does, rescaled
        rng = np.random.default_rng(1)
        X = np.column_stack([np.ones(50), rng.standard_normal((50, 2))])
        y = X @ [1.0, 2.0, -1.0] + rng.standard_normal(50)
        plain = solve_least_squares(X, y)
        v = y if target == "y" else X[:, target]
        for share in (0.99, 1.01):
            c = np.sqrt(share * MAX_COLUMN_SQUARES) / np.linalg.norm(v)
            if target == "y":
                assert_the_plain_fit_rescaled(solve_least_squares(X, c * y), plain, y_by=c)
            else:
                assert_the_plain_fit_rescaled(solve_least_squares(X * [1.0, c, 1.0], y), plain, column=1, by=c)
        # past the largest float, the rss names y, and a coefficient its column
        with pytest.raises(LeastSquaresError) as info:
            if target == "y":
                solve_least_squares(X, 1e160 * y)
            else:
                solve_least_squares(X * [1.0, 1e-300, 1.0], 1e10 * y)
        assert str(info.value) == (
            "y is out of range: its residual sum of squares exceeds the largest float"
            if target == "y"
            else "column 1 is out of range: its coefficient exceeds the largest float"
        )

    def test_the_lower_bound_holds_for_a_column_whose_values_differ(self):
        # below the old bound (a sum of squares of the smallest normal float)
        # the rank test read the column's norm as 0 and called it dependent,
        # and then the solve refused it; scaled, it fits as the plain column does
        rng = np.random.default_rng(1)
        X = np.column_stack([np.ones(50), rng.standard_normal((50, 2))])
        y = X @ [1.0, 2.0, -1.0] + rng.standard_normal(50)
        labels = ("intercept", "tiny", "a")
        plain = solve_least_squares(X, y, labels)
        for share in (1.01, 0.99):
            c = np.sqrt(share * np.finfo(np.float64).tiny) / np.linalg.norm(X[:, 1])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fit = solve_least_squares(X * [1.0, c, 1.0], y, labels)
            assert_the_plain_fit_rescaled(fit, plain, column=1, by=c)

    def test_a_tiny_column_whose_inverse_overflows_is_named(self):
        # its sum of squares is 10 times the old lower bound, and its uncentred
        # R^2 on the intercept is about 0.996, so (X^T X)^-1_jj ~ 1 / (ss (1 - R^2))
        # passes the largest float: the solve refused it.  The fit keeps the
        # inverse of the scaled columns, which is finite; only the unscaled
        # entry reads inf
        rng = np.random.default_rng(2)
        X = np.column_stack([np.ones(50), rng.standard_normal(50), 1.0 + 0.06 * rng.standard_normal(50)])
        y = X[:, :2] @ [1.0, 2.0] + rng.standard_normal(50)
        labels = ("intercept", "a", "tiny")
        plain = solve_least_squares(X, y, labels)
        for share, overflows in ((1e4, False), (10.0, True)):
            c = np.sqrt(share * np.finfo(np.float64).tiny) / np.linalg.norm(X[:, 2])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fit = solve_least_squares(X * [1.0, 1.0, c], y, labels)
                assert np.isfinite(fit.scaled_inverse).all()
                assert np.isinf(fit.xtx_inverse[2, 2]) == overflows
                assert np.isfinite(fit.xtx_inverse[:2, :2]).all()
            assert_the_plain_fit_rescaled(fit, plain, column=2, by=c)


def assert_the_plain_fit_rescaled(fit, plain, column=None, by=1.0, y_by=1.0):
    """``fit``, of the design of ``plain`` with ``column`` times ``by`` and y
    times ``y_by``, is ``plain``'s: each coefficient times ``y_by``, the
    column's divided by ``by``, the rss times ``y_by``^2 and each SE scale
    sqrt((X^T X)^-1_jj) the coefficient's, to 1e-12 relative."""
    expected = plain.coefficients * y_by
    se_scale = np.sqrt(np.diag(plain.scaled_inverse)) * plain.scales
    if column is not None:
        expected[column] /= by
        se_scale[column] /= by
    np.testing.assert_allclose(fit.coefficients, expected, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(np.sqrt(np.diag(fit.scaled_inverse)) * fit.scales, se_scale, rtol=1e-12, atol=0.0)
    assert fit.rss == pytest.approx(plain.rss * y_by**2, rel=1e-12)


class TestOracleAgreement:
    def test_random_instances_match_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            X, y = random_instance(rng)
            qr = solve_least_squares(X, y)
            ne = solve_normal_equations_oracle(X, y)
            scale = np.max(np.abs(ne.coefficients))
            assert np.max(np.abs(qr.coefficients - ne.coefficients)) <= 1e-8 * scale
            assert qr.rss == pytest.approx(ne.rss, rel=1e-10)
            assert np.allclose(qr.xtx_inverse, ne.xtx_inverse, rtol=1e-6)


def residuals(X, y, fit):
    return y - X @ fit.coefficients


class TestFitInvariants:
    def test_rss_is_residual_sum_of_squares(self):
        rng = np.random.default_rng(4)
        X, y = random_instance(rng)
        fit = solve_least_squares(X, y)
        assert fit.rss == pytest.approx(float(np.sum(residuals(X, y, fit) ** 2)), rel=1e-10)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(5)
        X, y = random_instance(rng, 300, 7)
        fit = solve_least_squares(X, y)
        bound = 1e-8 * np.max(np.abs(X)) * np.max(np.abs(y))
        assert np.max(np.abs(X.T @ residuals(X, y, fit))) <= bound

    def test_adding_span_vector_shifts_coefficients(self):
        rng = np.random.default_rng(6)
        X, y = random_instance(rng)
        gamma = rng.standard_normal(X.shape[1])
        base = solve_least_squares(X, y)
        shifted_y = y + X @ gamma
        shifted = solve_least_squares(X, shifted_y)
        assert np.allclose(shifted.coefficients, base.coefficients + gamma, atol=1e-9)
        assert np.allclose(residuals(X, shifted_y, shifted), residuals(X, y, base), atol=1e-9)

    @pytest.mark.parametrize("rows", [300, 3000])
    def test_an_exact_shift_of_y_moves_only_the_intercept(self, rows):
        # y on a 2^-10 grid, so y + 2^30 is exact: the intercept fit factors
        # the centred response, and its slopes and rss do not see the shift
        # (factoring the uncentred response moved them by up to 6e-7 relative)
        rng = np.random.default_rng(13)
        X, y = random_instance(rng, rows, 7)
        y = np.round(y * 1024.0) / 1024.0
        shift = 2.0**30
        assert np.array_equal(y + shift - shift, y)
        base = solve_least_squares(X, y)
        shifted = solve_least_squares(X, y + shift)
        np.testing.assert_allclose(shifted.coefficients[1:], base.coefficients[1:], rtol=1e-12, atol=0.0)
        assert shifted.rss == pytest.approx(base.rss, rel=1e-12)
        eps = np.finfo(np.float64).eps
        assert abs(shifted.coefficients[0] - base.coefficients[0] - shift) <= eps * shift

    @pytest.mark.parametrize("intercept_at", [None, 3], ids=["no_intercept", "intercept_not_first"])
    def test_a_design_whose_column_0_is_not_all_ones_factors_y_as_given(self, intercept_at):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((500, 5))
        if intercept_at is not None:
            X[:, intercept_at] = 1.0
        y = X @ rng.standard_normal(5) + 0.3 * rng.standard_normal(500) + 50.0
        fit = solve_least_squares(X, y)
        qty, r_upper, jpvt, rnorm = _kernels.qr_pivot_decompose(X, y, 1.0, 1.0)
        coefficients = np.empty(5)
        coefficients[jpvt] = np.linalg.solve(r_upper, qty)
        assert np.array_equal(fit.coefficients, coefficients)
        assert fit.rss == rnorm * rnorm

    @pytest.mark.parametrize("c", [3.0, -2.0, 0.25])
    def test_scaling_y_scales_fit(self, c):
        rng = np.random.default_rng(7)
        X, y = random_instance(rng)
        base = solve_least_squares(X, y)
        scaled = solve_least_squares(X, c * y)
        assert np.allclose(scaled.coefficients, c * base.coefficients, rtol=1e-10)
        assert np.allclose(residuals(X, c * y, scaled), c * residuals(X, y, base), rtol=1e-10)
        assert np.sqrt(scaled.rss) == pytest.approx(abs(c) * np.sqrt(base.rss), rel=1e-9)

    def test_row_permutation_leaves_coefficients(self):
        rng = np.random.default_rng(8)
        X, y = random_instance(rng)
        perm = rng.permutation(len(y))
        base = solve_least_squares(X, y)
        permuted = solve_least_squares(X[perm], y[perm])
        assert np.max(np.abs(permuted.coefficients - base.coefficients)) <= 1e-10

    def test_rank_and_dof(self):
        rng = np.random.default_rng(9)
        X, y = random_instance(rng, 50, 4)
        fit = solve_least_squares(X, y)  # returns only at full rank
        assert fit.coefficients.shape == (4,)
        assert fit.dof == 46
