"""Tests for the matrix-free design operator against the dense oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anovafit import (
    BandwidthProfile,
    BasisKind,
    DesignOperator,
    DomainError,
    TermSet,
    build_index_union,
    dense_design_matrix,
    superposition_terms,
)
from anovafit.basis import eval_1d_table

from conftest import random_instance, term_sets


def _cosine_instance(rng, rows=20, d=3):
    ts = superposition_terms(d, 2)
    bw = BandwidthProfile.from_list([4, 2])
    union = build_index_union(ts, bw, BasisKind.COSINE)
    nodes = rng.uniform(0.0, 1.0, size=(rows, d))
    return DesignOperator(nodes, union), nodes, union


def test_constant_only_union_gives_constant_vector():
    union = build_index_union(TermSet(2, ()), BandwidthProfile(), BasisKind.COSINE)
    op = DesignOperator([[0.1, 0.9], [0.4, 0.2], [0.8, 0.5]], union)
    np.testing.assert_array_equal(op.matvec([3.5]), [3.5, 3.5, 3.5])


def test_unit_vector_extracts_matrix_column():
    rng = np.random.default_rng(1)
    op, nodes, union = _cosine_instance(rng, rows=15)
    dense = dense_design_matrix(nodes, union)
    for j in (0, 1, union.size - 1):
        e = np.zeros(union.size)
        e[j] = 1.0
        np.testing.assert_allclose(op.matvec(e), dense[:, j], rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("kind", [BasisKind.COSINE, BasisKind.EXPONENTIAL, BasisKind.CHEBYSHEV])
def test_matvec_and_adjoint_match_dense(kind):
    rng = np.random.default_rng(7)
    for _ in range(5):
        op = random_instance(rng, kind)
        dense = dense_design_matrix(op.nodes, op.index_union)
        coeffs = rng.standard_normal(op.cols)
        values = rng.standard_normal(op.rows)
        if kind.is_complex:
            coeffs = coeffs + 1j * rng.standard_normal(op.cols)
            values = values + 1j * rng.standard_normal(op.rows)
        np.testing.assert_allclose(
            op.matvec(coeffs), dense @ coeffs, rtol=1e-12, atol=1e-12
        )
        np.testing.assert_allclose(
            op.adjoint_matvec(values), dense.conj().T @ values, rtol=1e-12, atol=1e-12
        )


def _check_dense(op, rng):
    """``op.dense()`` against the oracle and against both applies."""
    F = op.dense()
    assert F.shape == op.shape and F.dtype == op.kind.dtype
    np.testing.assert_allclose(
        F, dense_design_matrix(op.nodes, op.index_union), rtol=1e-12, atol=1e-12
    )
    coeffs = rng.standard_normal(op.cols)
    values = rng.standard_normal(op.rows)
    if op.kind.is_complex:
        coeffs = coeffs + 1j * rng.standard_normal(op.cols)
        values = values + 1j * rng.standard_normal(op.rows)
    np.testing.assert_allclose(F @ coeffs, op.matvec(coeffs), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        F.conj().T @ values, op.adjoint_matvec(values), rtol=1e-12, atol=1e-12
    )


@pytest.mark.parametrize("kind", [BasisKind.EXPONENTIAL, BasisKind.COSINE, BasisKind.CHEBYSHEV])
def test_dense_matches_oracle_and_applies(kind):
    rng = np.random.default_rng(9)
    orders = set()
    for _ in range(8):
        op = random_instance(rng, kind, max_rows=60)
        orders.add(max(len(term) for term in op.index_union.terms))
        _check_dense(op, rng)
    assert orders == {1, 2, 3}


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from([BasisKind.EXPONENTIAL, BasisKind.COSINE, BasisKind.CHEBYSHEV]),
    termset=term_sets(),
    n1=st.sampled_from([2, 4, 6]),
    n_higher=st.sampled_from([2, 4]),
    rows=st.integers(1, 25),
    seed=st.integers(0, 2**32 - 1),
)
def test_dense_matches_oracle_property(kind, termset, n1, n_higher, rows, seed):
    rng = np.random.default_rng(seed)
    bandwidths = BandwidthProfile.from_list([n1, n_higher, n_higher])
    union = build_index_union(termset, bandwidths, kind)
    lo, hi = kind.domain
    op = DesignOperator(rng.uniform(lo, hi, size=(rows, termset.dimension)), union)
    _check_dense(op, rng)
    # <F c, r> == <c, F^H r>
    coeffs = rng.standard_normal(op.cols)
    values = rng.standard_normal(op.rows)
    if kind.is_complex:
        coeffs = coeffs + 1j * rng.standard_normal(op.cols)
        values = values + 1j * rng.standard_normal(op.rows)
    lhs = np.vdot(values, op.matvec(coeffs))
    rhs = np.vdot(op.adjoint_matvec(values), coeffs)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-30)


@pytest.mark.parametrize("kind", [BasisKind.EXPONENTIAL, BasisKind.COSINE, BasisKind.CHEBYSHEV])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_zero_row_operator(kind, order):
    union = build_index_union(
        superposition_terms(4, order), BandwidthProfile.from_list([4, 4, 4][:order]), kind
    )
    op = DesignOperator(np.empty((0, 4)), union)
    assert op.shape == (0, union.size)
    assert op.matvec(np.ones(op.cols)).shape == (0,)
    np.testing.assert_array_equal(op.adjoint_matvec(np.empty(0)), np.zeros(op.cols))
    F = op.dense()
    assert F.shape == (0, op.cols) and F.dtype == kind.dtype


@pytest.mark.parametrize("kind", [BasisKind.EXPONENTIAL, BasisKind.COSINE, BasisKind.CHEBYSHEV])
def test_order_tables_equal_their_own_evaluation(kind):
    """Each order's table, taken from the operator's one table, is bitwise the
    table of that order's own grid and variables."""
    rng = np.random.default_rng(13)
    whole_table = set()
    for _ in range(20):
        op = random_instance(rng, kind)
        union = op.index_union
        longest = max(map(len, union.grids.values()), default=0)
        every = np.unique(np.concatenate([union.order_block(o)[1].ravel() for o in union.grids]))
        for stack in op._stacks:
            grid = union.grids[stack.order]
            variables = np.unique(union.order_block(stack.order)[1])
            want = eval_1d_table(kind, grid, op.nodes[:, variables - 1].ravel())
            np.testing.assert_array_equal(stack.table, want.reshape(op.rows, -1))
            whole_table.add(len(grid) == longest and len(variables) == len(every))
    assert whole_table == {True, False}


def test_coerce_passes_matching_arrays_through():
    rng = np.random.default_rng(14)
    op, _, union = _cosine_instance(rng)
    c = rng.standard_normal(union.size)
    assert op._coerce(c, op.cols, "coefficient vector") is c
    np.testing.assert_array_equal(op.matvec(c.tolist()), op.matvec(c))
    np.testing.assert_array_equal(
        op.matvec(np.arange(union.size)), op.matvec(np.arange(union.size, dtype=float))
    )
    with pytest.raises(ValueError, match="shape"):
        op.matvec(c[:, None])
    with pytest.raises(ValueError, match="complex"):
        op.matvec(c + 0j)
    with pytest.raises(ValueError, match="complex"):
        op.adjoint_matvec(np.zeros(op.rows, dtype=complex))


def test_adjoint_of_zero_and_single_row():
    rng = np.random.default_rng(3)
    op, nodes, union = _cosine_instance(rng, rows=12)
    np.testing.assert_array_equal(op.adjoint_matvec(np.zeros(12)), np.zeros(union.size))

    single = DesignOperator(nodes[:1], union)
    dense = dense_design_matrix(nodes[:1], union)
    np.testing.assert_allclose(
        single.adjoint_matvec(np.ones(1)), dense[0].conj(), rtol=1e-12
    )


@pytest.mark.parametrize("kind", [BasisKind.COSINE, BasisKind.EXPONENTIAL])
def test_adjoint_inner_product_identity(kind):
    rng = np.random.default_rng(11)
    for _ in range(10):
        op = random_instance(rng, kind)
        coeffs = rng.standard_normal(op.cols)
        values = rng.standard_normal(op.rows)
        if kind.is_complex:
            coeffs = coeffs + 1j * rng.standard_normal(op.cols)
            values = values + 1j * rng.standard_normal(op.rows)
        lhs = np.vdot(values, op.matvec(coeffs))
        rhs = np.vdot(op.adjoint_matvec(values), coeffs)
        scale = max(abs(lhs), abs(rhs), 1e-30)
        assert abs(lhs - rhs) / scale < 1e-10


def test_linearity():
    rng = np.random.default_rng(5)
    op, _, union = _cosine_instance(rng)
    a, b = 2.5, -1.25
    g1 = rng.standard_normal(union.size)
    g2 = rng.standard_normal(union.size)
    np.testing.assert_allclose(
        op.matvec(a * g1 + b * g2),
        a * op.matvec(g1) + b * op.matvec(g2),
        rtol=1e-12,
        atol=1e-12,
    )


def test_oversampling_ratio_exposed():
    rng = np.random.default_rng(9)
    op, _, union = _cosine_instance(rng, rows=40)
    assert op.shape == (40, union.size)
    np.testing.assert_allclose(op.oversampling, 40 / union.size)


def test_repeated_application_is_bitwise_deterministic():
    # real basis: ndarray.conj() of a real table is the table itself, so an
    # in-place update in the adjoint would corrupt the next matvec
    rng = np.random.default_rng(13)
    op, _, union = _cosine_instance(rng)
    g = rng.standard_normal(union.size)
    r = rng.standard_normal(op.rows)
    first = op.matvec(g)
    adjoint = op.adjoint_matvec(r)
    second = op.matvec(g)
    assert np.array_equal(first, second)
    assert np.array_equal(adjoint, op.adjoint_matvec(r))
    assert np.array_equal(first, op.matvec(g))


REFINED_SETS = {
    # non-adjacent variables: order-2 table columns are not the order-1 ones
    "order2": (((1,), (2,), (1, 4), (3, 5)), [6, 4]),
    # order-3 terms with three frequencies per factor, sharing variables
    "order3": (((2,), (1, 3), (1, 2, 4), (2, 4, 5)), [4, 4, 4]),
}


@pytest.mark.parametrize("kind", [BasisKind.EXPONENTIAL, BasisKind.COSINE, BasisKind.CHEBYSHEV])
@pytest.mark.parametrize("name", sorted(REFINED_SETS))
def test_refined_set_matches_dense(kind, name):
    terms, bandwidths = REFINED_SETS[name]
    ts = TermSet(5, terms)
    union = build_index_union(ts, BandwidthProfile.from_list(bandwidths), kind)
    rng = np.random.default_rng(21)
    lo, hi = kind.domain
    nodes = rng.uniform(lo, hi, size=(40, 5))
    op = DesignOperator(nodes, union)
    dense = dense_design_matrix(nodes, union)
    coeffs = rng.standard_normal(union.size)
    values = rng.standard_normal(op.rows)
    if kind.is_complex:
        coeffs = coeffs + 1j * rng.standard_normal(union.size)
        values = values + 1j * rng.standard_normal(op.rows)
    np.testing.assert_allclose(op.matvec(coeffs), dense @ coeffs, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        op.adjoint_matvec(values), dense.conj().T @ values, rtol=1e-12, atol=1e-12
    )
    np.testing.assert_allclose(op.dense(), dense, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", [BasisKind.COSINE, BasisKind.EXPONENTIAL, BasisKind.CHEBYSHEV])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_nodes_rejected(kind, bad):
    union = build_index_union(
        superposition_terms(2, 1), BandwidthProfile.from_list([4]), kind
    )
    with pytest.raises(DomainError, match="finite"):
        DesignOperator([[0.1, 0.2], [bad, 0.3]], union)


def test_length_mismatch_raises():
    rng = np.random.default_rng(2)
    op, _, union = _cosine_instance(rng)
    with pytest.raises(ValueError, match="shape"):
        op.matvec(np.zeros(union.size + 1))
    with pytest.raises(ValueError, match="shape"):
        op.adjoint_matvec(np.zeros(op.rows - 1))


def test_nodes_outside_domain_rejected():
    union = build_index_union(
        superposition_terms(2, 1), BandwidthProfile.from_list([2]), BasisKind.COSINE
    )
    with pytest.raises(DomainError):
        DesignOperator([[0.5, 1.5]], union)


def test_complex_coefficients_rejected_on_real_basis():
    rng = np.random.default_rng(4)
    op, _, union = _cosine_instance(rng)
    with pytest.raises(ValueError, match="complex"):
        op.matvec(np.zeros(union.size, dtype=complex))


def test_periodic_nodes_wrap():
    union = build_index_union(
        superposition_terms(1, 1), BandwidthProfile.from_list([4]), BasisKind.EXPONENTIAL
    )
    inside = DesignOperator([[0.25]], union)
    outside = DesignOperator([[1.25]], union)
    g = np.array([1.0, 2.0, -1.0, 0.5], dtype=complex)
    np.testing.assert_allclose(inside.matvec(g), outside.matvec(g), rtol=1e-12)


def test_dense_oracle_size_guard():
    union = build_index_union(
        superposition_terms(6, 2), BandwidthProfile.from_list([8, 6]), BasisKind.COSINE
    )
    nodes = np.random.default_rng(0).uniform(size=(50, 6))
    with pytest.raises(ValueError, match="dense oracle"):
        dense_design_matrix(nodes, union, max_entries=100)
