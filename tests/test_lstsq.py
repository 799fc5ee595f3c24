import numpy as np
import pytest

from zoneval.lstsq import (
    LeastSquaresError,
    RankDeficiencyError,
    UnderdeterminedError,
    solve_least_squares,
    solve_normal_equations_oracle,
)


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
        assert np.max(np.abs(fit.residuals)) < 1e-12
        assert fit.rss < 1e-24
        assert fit.rank == 2
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
        # b = 2a + 1.5 tol e: its distance from a clears the threshold,
        # so the left-to-right scan keeps both, but pivoting takes b first
        # and a's distance from b (0.75 tol) does not; the pivoted
        # factorization's reject is named
        n = 10
        tol = n * np.finfo(np.float64).eps * 2.0
        X = np.zeros((n, 2))
        X[0] = [1.0, 2.0]
        X[1, 1] = 1.5 * tol
        with pytest.raises(RankDeficiencyError) as exc_info:
            solve_least_squares(X, np.ones(n), ("a", "b"))
        assert exc_info.value.rank == 1
        assert exc_info.value.dependent_labels == ("a",)

    def test_zero_column_rejected(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((30, 3))
        X[:, 2] = 0.0
        with pytest.raises(RankDeficiencyError):
            solve_least_squares(X, rng.standard_normal(30))

    def test_linear_combination_rejected(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((40, 4))
        X[:, 3] = 2.0 * X[:, 0] - X[:, 1]
        with pytest.raises(RankDeficiencyError) as exc_info:
            solve_least_squares(X, rng.standard_normal(40))
        assert exc_info.value.rank == 3


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

    def test_oracle_singular(self):
        X = np.ones((5, 2))  # duplicated constant column
        with pytest.raises(LeastSquaresError):
            solve_normal_equations_oracle(X, np.ones(5))


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


class TestFitInvariants:
    def test_fitted_plus_residuals_is_y(self):
        rng = np.random.default_rng(3)
        X, y = random_instance(rng, 200, 5)
        fit = solve_least_squares(X, y)
        assert np.max(np.abs(fit.fitted + fit.residuals - y)) <= 1e-12 * np.max(np.abs(y))

    def test_rss_is_residual_sum_of_squares(self):
        rng = np.random.default_rng(4)
        X, y = random_instance(rng)
        fit = solve_least_squares(X, y)
        assert fit.rss == pytest.approx(float(np.sum(fit.residuals**2)), rel=1e-10)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(5)
        X, y = random_instance(rng, 300, 7)
        fit = solve_least_squares(X, y)
        bound = 1e-8 * np.max(np.abs(X)) * np.max(np.abs(y))
        assert np.max(np.abs(X.T @ fit.residuals)) <= bound

    def test_adding_span_vector_shifts_coefficients(self):
        rng = np.random.default_rng(6)
        X, y = random_instance(rng)
        gamma = rng.standard_normal(X.shape[1])
        base = solve_least_squares(X, y)
        shifted = solve_least_squares(X, y + X @ gamma)
        assert np.allclose(shifted.coefficients, base.coefficients + gamma, atol=1e-9)
        assert np.allclose(shifted.residuals, base.residuals, atol=1e-9)

    @pytest.mark.parametrize("c", [3.0, -2.0, 0.25])
    def test_scaling_y_scales_fit(self, c):
        rng = np.random.default_rng(7)
        X, y = random_instance(rng)
        base = solve_least_squares(X, y)
        scaled = solve_least_squares(X, c * y)
        assert np.allclose(scaled.coefficients, c * base.coefficients, rtol=1e-10)
        assert np.allclose(scaled.residuals, c * base.residuals, rtol=1e-10)
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
        fit = solve_least_squares(X, y)
        assert fit.rank == 4
        assert fit.dof == 46
