"""The factorization kernel's contract: X[:, jpvt] = Q r_upper with
qty = Q^T y and rnorm = ||y - X b||, checked through what Q leaves
invariant (Q has orthonormal columns, so r_upper^T r_upper is the pivoted
Gram matrix and qty carries all of y that X explains) and against
numpy's SVD solver."""

import warnings

import numpy as np
import pytest

from zoneval._kernels import BLOCK_ROWS, qr_pivot_decompose
from zoneval.design import build_design_matrix, default_model_spec
from zoneval.lstsq import RankDeficiencyError, solve_least_squares
from zoneval.synth import default_true_model, generate_parcels

from conftest import BALANCED_ZONES
from oracle import solve_normal_equations_oracle

GRAM_REL_TOL = 1e-12


def assert_kernel_contract(X, y, rank=None):
    qty, r_upper, jpvt, rnorm = qr_pivot_decompose(X, y, 1.0, 1.0)
    n, p = X.shape
    assert sorted(jpvt.tolist()) == list(range(p))
    assert r_upper.shape == (p, p) and qty.shape == (p,)
    assert np.all(np.tril(r_upper, -1) == 0.0)

    pivoted = X[:, jpvt]
    gram = pivoted.T @ pivoted
    assert np.max(np.abs(r_upper.T @ r_upper - gram)) <= GRAM_REL_TOL * np.max(np.abs(gram))

    # pivoting is on unit-norm columns, so their diagonal is monotone
    diag = np.abs(np.diag(r_upper)) / np.linalg.norm(r_upper, axis=0)
    assert np.all(diag[1:] <= diag[:-1])

    # ||qty||^2 + rss = ||y||^2 over the rank's leading pivots, and rnorm^2
    # is the rss, less what qty holds past the rank; rss from numpy's SVD
    # solver
    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    rss = float(np.sum((y - X @ beta) ** 2))
    explained, past = np.split(qty, [p if rank is None else rank])
    assert float(explained @ explained) + rss == pytest.approx(float(y @ y), rel=GRAM_REL_TOL)
    if n == p:
        assert rnorm == 0.0
    else:
        assert rnorm**2 + float(past @ past) == pytest.approx(rss, rel=GRAM_REL_TOL)
    return qty, r_upper, jpvt, rnorm


def assert_same_in_either_order(X, y):
    """The contract holds for a row-major X and for a column-major one,
    as designs are built, and the factors are the same bits: the blocks
    LAPACK factors are copied out of X either way."""
    row_major = assert_kernel_contract(np.ascontiguousarray(X), y)
    column_major = assert_kernel_contract(np.asfortranarray(X), y)
    assert all(map(np.array_equal, row_major, column_major))


@pytest.mark.parametrize("seed", range(25))
def test_random_designs(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 16))
    n = int(rng.integers(p, 400))
    X = rng.standard_normal((n, p)) * rng.uniform(0.01, 100.0, p)
    y = X @ rng.standard_normal(p) + rng.standard_normal(n)
    assert_same_in_either_order(X, y)


def test_duplicated_column():
    rng = np.random.default_rng(3)
    base = rng.standard_normal((60, 4))
    X = np.column_stack([base, base[:, 1]])
    _, r_upper, jpvt, _ = assert_kernel_contract(X, rng.standard_normal(60), rank=4)
    # one copy adds nothing to the other: it is pivoted last, at rounding level
    diag = np.abs(np.diag(r_upper))
    assert diag[-1] <= 60 * np.finfo(np.float64).eps * diag[0]
    assert jpvt[-1] in (1, 4)


def test_two_zero_columns_are_both_named_without_a_warning():
    # the pivoted pass meets a remaining norm of 0 with a column still to go
    rng = np.random.default_rng(5)
    X = np.column_stack([rng.standard_normal((30, 2)), np.zeros(30), rng.standard_normal(30), np.zeros(30)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RankDeficiencyError) as info:
            solve_least_squares(X, rng.standard_normal(30), ("a", "b", "zero1", "c", "zero2"))
    assert (info.value.rank, info.value.dependent_labels) == (3, ("zero1", "zero2"))


def test_square_design_leaves_no_residual():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((6, 6))
    assert_kernel_contract(X, rng.standard_normal(6))


def test_golden_market_design():
    truth = default_true_model(seed=61, noise_sigma=0.2, zone_probs=dict(BALANCED_ZONES))
    table, _ = generate_parcels(truth, 2500)
    design = build_design_matrix(table, default_model_spec())
    assert design.X.shape == (2500, 14)
    assert_kernel_contract(design.X, design.y)


def market_design(n, seed):
    table, _ = generate_parcels(default_true_model(seed=seed), n)
    return build_design_matrix(table, default_model_spec())


@pytest.fixture(scope="module")
def paper_scale_design():
    design = market_design(12_475, seed=7)
    assert design.X.shape == (12_475, 14)
    return design


# a table longer than BLOCK_ROWS is factored block by block; the last
# size leaves a 3-row tail block, fewer rows than its p + 1 = 15 columns
@pytest.mark.parametrize("n", [BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3])
def test_designs_across_the_block_boundary(n):
    rng = np.random.default_rng(n)
    X = rng.standard_normal((n, 14)) * rng.uniform(0.01, 100.0, 14)
    X[:, 0] = 1.0
    y = X @ rng.standard_normal(14) + rng.standard_normal(n)
    assert_same_in_either_order(X, y)


def test_paper_scale_market_design(paper_scale_design):
    assert_kernel_contract(paper_scale_design.X, paper_scale_design.y)


def test_duplicated_column_across_blocks_names_the_later_copy(paper_scale_design):
    design = paper_scale_design
    X = np.column_stack([design.X, design.column("R1B")])
    labels = (*design.column_labels, "R1B copy")
    with pytest.raises(RankDeficiencyError) as raised:
        solve_least_squares(X, design.y, labels)
    assert raised.value.dependent_labels == ("R1B copy",)
    assert raised.value.rank == 14


def test_county_scale_fit_matches_the_oracle():
    design = market_design(50_000, seed=11)
    fit = solve_least_squares(design.X, design.y)
    oracle = solve_normal_equations_oracle(design.X, design.y)
    scale = np.max(np.abs(oracle.coefficients))
    assert np.max(np.abs(fit.coefficients - oracle.coefficients)) <= 1e-8 * scale
    assert fit.rss == pytest.approx(oracle.rss, rel=1e-10)
