"""Tests for the damped LSQR solver against a dense factorization oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anovafit import (
    BandwidthProfile,
    BasisKind,
    DesignOperator,
    NumericalError,
    SolverConfig,
    TermSet,
    build_index_union,
    dense_design_matrix,
    direct_solve,
    lsqr_solve,
    superposition_terms,
)

from conftest import random_instance, term_sets

TIGHT = SolverConfig(tolerance=1e-13)


def normal_equations_oracle(op, y, lam):
    """Dense solve of (F* F + lam I) g = F* y."""
    dense = dense_design_matrix(op.nodes, op.index_union)
    gram = dense.conj().T @ dense + lam * np.eye(op.cols)
    return np.linalg.solve(gram, dense.conj().T @ np.asarray(y, dtype=gram.dtype))


def test_constant_column_recovers_mean():
    union = build_index_union(TermSet(1, ()), BandwidthProfile(), BasisKind.COSINE)
    op = DesignOperator(np.linspace(0, 1, 9).reshape(-1, 1), union)
    result = lsqr_solve(op, np.full(9, 4.25), TIGHT)
    np.testing.assert_allclose(result.coefficients, [4.25], rtol=1e-12)
    assert result.stop_reason == "tolerance"


def test_matches_dense_oracle_regularized():
    rng = np.random.default_rng(21)
    ts = superposition_terms(3, 2)
    bw = BandwidthProfile.from_list([4, 2])
    union = build_index_union(ts, bw, BasisKind.COSINE)
    # 40 rows, 13 columns, lam = 0.1
    op = DesignOperator(rng.uniform(size=(40, 3)), union)
    y = rng.standard_normal(40)
    got = lsqr_solve(op, y, SolverConfig(regularization=0.1, tolerance=1e-13))
    want = normal_equations_oracle(op, y, 0.1)
    rel = np.linalg.norm(got.coefficients - want) / np.linalg.norm(want)
    assert rel < 1e-8


@pytest.mark.parametrize("kind", [BasisKind.COSINE, BasisKind.EXPONENTIAL])
def test_recovers_planted_coefficients(kind):
    rng = np.random.default_rng(33)
    op = random_instance(rng, kind)
    planted = rng.standard_normal(op.cols)
    if kind.is_complex:
        planted = planted + 1j * rng.standard_normal(op.cols)
    y = op.matvec(planted)
    got = lsqr_solve(op, y, TIGHT)
    rel = np.linalg.norm(got.coefficients - planted) / np.linalg.norm(planted)
    assert rel < 1e-8


def test_residual_history_monotone_per_iteration():
    rng = np.random.default_rng(8)
    for lam in (0.0, 0.5):
        op = random_instance(rng, BasisKind.COSINE)
        y = rng.standard_normal(op.rows)
        result = lsqr_solve(op, y, SolverConfig(regularization=lam, tolerance=1e-12))
        history = result.residual_history
        assert len(history) == result.iterations + 1
        for older, newer in zip(history, history[1:]):
            assert newer <= older * (1.0 + 1e-12)


def test_norm_shrinks_with_regularization():
    rng = np.random.default_rng(15)
    op = random_instance(rng, BasisKind.COSINE)
    y = rng.standard_normal(op.rows)
    lams = [0.0, 0.01, 0.1, 1.0, 10.0]
    norms = [
        np.linalg.norm(
            lsqr_solve(op, y, SolverConfig(regularization=lam, tolerance=1e-13)).coefficients
        )
        for lam in lams
    ]
    for bigger, smaller in zip(norms, norms[1:]):
        assert bigger >= smaller - 1e-10


def test_deterministic_repeat_is_bitwise_equal():
    rng = np.random.default_rng(40)
    op = random_instance(rng, BasisKind.COSINE)
    y = rng.standard_normal(op.rows)
    first = lsqr_solve(op, y, TIGHT)
    second = lsqr_solve(op, y, TIGHT)
    assert np.array_equal(first.coefficients, second.coefficients)
    assert first.iterations == second.iterations


def test_max_iteration_cap_reported():
    rng = np.random.default_rng(50)
    op = random_instance(rng, BasisKind.COSINE)
    y = rng.standard_normal(op.rows)
    result = lsqr_solve(op, y, SolverConfig(max_iterations=2, tolerance=1e-13))
    assert result.iterations == 2
    assert result.stop_reason == "max_iterations"


def test_default_iteration_budget_scales_with_columns():
    assert SolverConfig().iteration_limit(12) == 120
    assert SolverConfig(max_iterations=7).iteration_limit(12) == 7


def test_zero_values_give_zero_solution():
    rng = np.random.default_rng(51)
    op = random_instance(rng, BasisKind.COSINE)
    result = lsqr_solve(op, np.zeros(op.rows))
    assert np.array_equal(result.coefficients, np.zeros(op.cols))
    assert result.stop_reason == "tolerance"


def test_nonfinite_values_raise():
    rng = np.random.default_rng(52)
    op = random_instance(rng, BasisKind.COSINE)
    y = np.zeros(op.rows)
    y[0] = np.nan
    with pytest.raises(NumericalError, match="non-finite"):
        lsqr_solve(op, y)
    with pytest.raises(NumericalError, match="non-finite"):
        direct_solve(op.dense(), y, 1.0)


def test_length_mismatch_raises():
    rng = np.random.default_rng(53)
    op = random_instance(rng, BasisKind.COSINE)
    with pytest.raises(ValueError, match="shape"):
        lsqr_solve(op, np.zeros(op.rows + 1))


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(regularization=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tolerance=1.5)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)


@pytest.mark.parametrize("kind", [BasisKind.COSINE, BasisKind.EXPONENTIAL])
def test_direct_matches_dense_oracle_and_lsqr(kind):
    rng = np.random.default_rng(60)
    for lam in (0.1, 2.0):
        op = random_instance(rng, kind)
        y = rng.standard_normal(op.rows)
        if kind.is_complex:
            y = y + 1j * rng.standard_normal(op.rows)
        got = direct_solve(op.dense(), y, lam)
        want = normal_equations_oracle(op, y, lam)
        assert np.linalg.norm(got.coefficients - want) / np.linalg.norm(want) < 1e-10
        lsqr = lsqr_solve(op, y, SolverConfig(regularization=lam, tolerance=1e-13))
        rel = np.linalg.norm(got.coefficients - lsqr.coefficients) / np.linalg.norm(want)
        assert rel < 1e-8
        # LSQR's damped relative residual, from the oracle's matrix
        dense = dense_design_matrix(op.nodes, op.index_union)
        x = got.coefficients
        damped = np.sqrt(np.linalg.norm(y - dense @ x) ** 2 + lam * np.linalg.norm(x) ** 2)
        np.testing.assert_allclose(got.relative_residual, damped / np.linalg.norm(y), rtol=1e-10)
        np.testing.assert_allclose(got.relative_residual, lsqr.relative_residual, rtol=1e-6)
        assert (got.iterations, got.stop_reason) == (0, "direct")


def test_direct_solve_edge_cases():
    rng = np.random.default_rng(61)
    op = random_instance(rng, BasisKind.COSINE)
    with pytest.raises(ValueError, match="shape"):
        direct_solve(op.dense(), np.ones(op.rows + 1), 1.0)
    result = direct_solve(op.dense(), np.zeros(op.rows), 1.0)
    assert np.array_equal(result.coefficients, np.zeros(op.cols))
    assert result.relative_residual == 0.0


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from([BasisKind.EXPONENTIAL, BasisKind.COSINE, BasisKind.CHEBYSHEV]),
    termset=term_sets(),
    n1=st.sampled_from([2, 4, 6]),
    n_higher=st.sampled_from([2, 4]),
    rows=st.integers(1, 60),
    lam=st.floats(min_value=0.1, max_value=10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_direct_solve_matches_tight_lsqr(kind, termset, n1, n_higher, rows, lam, seed):
    rng = np.random.default_rng(seed)
    union = build_index_union(
        termset, BandwidthProfile.from_list([n1, n_higher, n_higher]), kind
    )
    lo, hi = kind.domain
    op = DesignOperator(rng.uniform(lo, hi, size=(rows, termset.dimension)), union)
    y = rng.standard_normal(rows)
    if kind.is_complex:
        y = y + 1j * rng.standard_normal(rows)
    direct = direct_solve(op.dense(), y, lam).coefficients
    iterative = lsqr_solve(op, y, SolverConfig(regularization=lam, tolerance=1e-12))
    assert iterative.stop_reason == "tolerance"
    gap = np.linalg.norm(direct - iterative.coefficients)
    assert gap <= 1e-8 * np.linalg.norm(direct)
