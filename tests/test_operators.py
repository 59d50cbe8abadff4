"""Tests for the matrix-free design operator against the dense oracle."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anovafit import (
    BandwidthProfile,
    BasisKind,
    ConfigError,
    DesignOperator,
    DomainError,
    SolverConfig,
    TermSet,
    build_index_union,
    dense_design_matrix,
    fit,
    predict,
    superposition_terms,
)
from anovafit import errors, operators
from anovafit.basis import eval_1d_table, full_grid_1d
from anovafit.operators import DENSE_ORACLE_MAX_ENTRIES, NODE_BLOCK

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
    """``op.dense()`` against the oracle and against both structured applies."""
    coeffs = rng.standard_normal(op.cols)
    values = rng.standard_normal(op.rows)
    if op.kind.is_complex:
        coeffs = coeffs + 1j * rng.standard_normal(op.cols)
        values = values + 1j * rng.standard_normal(op.rows)
    matvec, adjoint = op.matvec(coeffs), op.adjoint_matvec(values)
    F = op.dense()
    assert F.shape == op.shape and F.dtype == op.kind.dtype
    np.testing.assert_allclose(
        F, dense_design_matrix(op.nodes, op.index_union), rtol=1e-12, atol=1e-12
    )
    np.testing.assert_allclose(F @ coeffs, matvec, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(F.conj().T @ values, adjoint, rtol=1e-12, atol=1e-12)


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
    # <F c, r> == <c, F^H r>
    coeffs = rng.standard_normal(op.cols)
    values = rng.standard_normal(op.rows)
    if kind.is_complex:
        coeffs = coeffs + 1j * rng.standard_normal(op.cols)
        values = values + 1j * rng.standard_normal(op.rows)
    lhs = np.vdot(values, op.matvec(coeffs))
    rhs = np.vdot(op.adjoint_matvec(values), coeffs)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-30)
    _check_dense(op, rng)


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
    """Each order's table is bitwise the table of that order's own grid and
    variables, is C-contiguous, and is a row range of the operator's one table
    exactly when the order uses every variable (else one gather of it)."""
    rng = np.random.default_rng(13)
    whole_table = set()
    for _ in range(20):
        op = random_instance(rng, kind)
        union = op.index_union
        grids = {order: full_grid_1d(kind, bandwidth) for order, bandwidth in union.bandwidths}
        longest = max(map(len, grids.values()), default=0)
        every = np.unique(np.concatenate([o.factors.ravel() for o in union.layout.values()]))
        for stack in op._stacks:
            grid = grids[stack.layout.order]
            variables = np.unique(union.layout[stack.layout.order].factors)
            bandwidth = dict(union.bandwidths)[stack.layout.order]
            want = eval_1d_table(kind, bandwidth, op.nodes.T[variables - 1].ravel())
            np.testing.assert_array_equal(
                stack.table, want.T.reshape(len(grid), len(variables), op.rows)
            )
            assert stack.table.flags.c_contiguous
            # the one table is the array that owns a view's memory
            one = stack.table.base
            view = (
                one is not None
                and one.shape == (longest, len(every) * op.rows)
                and np.shares_memory(stack.table, one)
            )
            whole = len(variables) == len(every)
            assert view == whole
            whole_table.add(whole)
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


def _relative_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("kind", [BasisKind.EXPONENTIAL, BasisKind.COSINE, BasisKind.CHEBYSHEV])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_node_blocks_equal_one_product(kind, order, monkeypatch):
    rows = 2 * NODE_BLOCK + 17
    union = build_index_union(
        superposition_terms(4, order), BandwidthProfile.from_list([4, 4, 4][:order]), kind
    )
    rng = np.random.default_rng(31)
    lo, hi = kind.domain
    nodes = rng.uniform(lo, hi, size=(rows, 4))
    op = DesignOperator(nodes, union)
    coeffs = rng.standard_normal(op.cols)
    values = rng.standard_normal(op.rows)
    if kind.is_complex:
        coeffs = coeffs + 1j * rng.standard_normal(op.cols)
        values = values + 1j * rng.standard_normal(op.rows)
    matvec, adjoint = op.matvec(coeffs), op.adjoint_matvec(values)
    # blocks sum in a fixed order, so a repeated apply is bitwise the same
    assert np.array_equal(matvec, op.matvec(coeffs))
    assert np.array_equal(adjoint, op.adjoint_matvec(values))
    F = op.dense()
    assert _relative_gap(matvec, F @ coeffs) <= 1e-13
    assert _relative_gap(adjoint, F.conj().T @ values) <= 1e-13
    # the same operator in one block: an order's node step is at least
    # NODE_BLOCK * n v / (rows of its prefix), and a prefix has at most op.cols rows
    monkeypatch.setattr(operators, "NODE_BLOCK", rows * op.cols)
    one = DesignOperator(nodes, union)
    assert _relative_gap(matvec, one.matvec(coeffs)) <= 1e-14
    assert _relative_gap(adjoint, one.adjoint_matvec(values)) <= 1e-14


# order 4 on six variables: four of the twenty leading triples, one of them led twice
ORDER_4_TERMS = ((1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 4, 6), (1, 3, 4, 5), (2, 3, 5, 6))


@pytest.mark.parametrize("kind", [BasisKind.EXPONENTIAL, BasisKind.COSINE, BasisKind.CHEBYSHEV])
@pytest.mark.parametrize("node_block", [NODE_BLOCK, 16])
def test_sparse_order_4_matches_dense(kind, node_block, monkeypatch):
    union = build_index_union(TermSet(6, ORDER_4_TERMS), BandwidthProfile({4: 4}), kind)
    layout = union.layout[4]
    assert len(layout.lead) == 4 and layout.q.tolist() == [0, 0, 1, 2, 3]
    monkeypatch.setattr(operators, "NODE_BLOCK", node_block)
    rng = np.random.default_rng(41)
    lo, hi = kind.domain
    op = DesignOperator(rng.uniform(lo, hi, size=(60, 6)), union)
    # the step is NODE_BLOCK * n v // (n^3 P) = NODE_BLOCK * 18 // 108 nodes
    (stack,) = op._stacks
    assert len(stack.parts) == (1 if node_block == NODE_BLOCK else 30)
    dense = dense_design_matrix(op.nodes, union)
    coeffs = rng.standard_normal(op.cols)
    values = rng.standard_normal(op.rows)
    if kind.is_complex:
        coeffs = coeffs + 1j * rng.standard_normal(op.cols)
        values = values + 1j * rng.standard_normal(op.rows)
    np.testing.assert_allclose(op.matvec(coeffs), dense @ coeffs, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        op.adjoint_matvec(values), dense.conj().T @ values, rtol=1e-12, atol=1e-12
    )


def test_operators_on_one_union_read_its_order_layouts():
    union = build_index_union(
        superposition_terms(4, 3), BandwidthProfile.from_list([4, 4, 2]), BasisKind.COSINE
    )
    rng = np.random.default_rng(42)
    first, second = (DesignOperator(rng.random((rows, 4)), union) for rows in (10, 30))
    assert len(first._stacks) == len(second._stacks) == len(union.layout)
    for layout, a, b in zip(union.layout.values(), first._stacks, second._stacks):
        assert a.layout is b.layout is layout


def test_node_blocks_bound_apply_scratch():
    # order 2 with n * v = 3 * 30 = 90 table rows
    union = build_index_union(
        superposition_terms(30, 2), BandwidthProfile.from_list([4, 4]), BasisKind.COSINE
    )
    rng = np.random.default_rng(5)
    op = DesignOperator(rng.random((3 * NODE_BLOCK + 5, 30)), union)
    coeffs, values = rng.standard_normal(op.cols), rng.standard_normal(op.rows)
    itemsize = np.dtype(np.float64).itemsize
    scratch = 90 * op.rows * itemsize

    def peak(apply, vec):
        tracemalloc.start()
        try:
            apply(vec)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(op.matvec, coeffs) < scratch / 2
    assert peak(op.adjoint_matvec, values) < scratch / 2

    # order 3 alone, n * v = 3 * 6 = 18 table rows: the 10 leading pairs give
    # a prefix of 9 * 10 = 90 rows, five times the bound below on these nodes
    union = build_index_union(
        TermSet(6, tuple(itertools.combinations(range(1, 7), 3))),
        BandwidthProfile({3: 4}), BasisKind.COSINE,
    )
    op = DesignOperator(rng.random((3 * NODE_BLOCK + 5, 6)), union)
    coeffs, values = rng.standard_normal(op.cols), rng.standard_normal(op.rows)
    # the module docstring's 3 n v NODE_BLOCK entries, two output vectors and
    # four arrays the size of B, (90, 18)
    bound = (3 * 18 * NODE_BLOCK + 2 * op.rows + 4 * 90 * 18) * itemsize
    assert peak(op.matvec, coeffs) < bound
    assert peak(op.adjoint_matvec, values) < bound


def test_nodes_are_a_read_only_view():
    union = build_index_union(
        superposition_terms(3, 2), BandwidthProfile.from_list([4, 2]), BasisKind.COSINE
    )
    X = np.random.default_rng(6).random((25, 3))
    op = DesignOperator(X, union)
    assert np.shares_memory(op.nodes, X)
    assert not op.nodes.flags.writeable
    assert X.flags.writeable


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
    rows = DENSE_ORACLE_MAX_ENTRIES // union.size + 1
    nodes = np.random.default_rng(0).uniform(size=(rows, 6))
    with pytest.raises(ValueError, match="dense oracle"):
        dense_design_matrix(nodes, union)


def _unreachable(*args):
    raise AssertionError("eval_1d_table was reached")


@pytest.mark.parametrize("kind", [BasisKind.COSINE, BasisKind.EXPONENTIAL])
def test_table_beyond_physical_memory_is_refused_before_any_table(kind, monkeypatch):
    union = build_index_union(
        TermSet(5, ((1,), (2,), (1, 3))), BandwidthProfile.from_list([6, 4]), kind
    )
    nodes = np.full((7, 5), 0.25)
    # (N - 1) v M entries: 5 frequencies of variables 1, 2 and 3 at 7 nodes
    nbytes = 5 * 3 * 7 * kind.dtype.itemsize
    monkeypatch.setattr(operators, "eval_1d_table", _unreachable)
    # at its bound the table passes, and the table with the apply's scratch is refused
    monkeypatch.setattr(errors, "physical_memory", lambda: nbytes)
    with pytest.raises(ConfigError, match="a basis table and one apply's scratch of "):
        DesignOperator(nodes, union)
    monkeypatch.setattr(errors, "physical_memory", lambda: nbytes - 1)
    with pytest.raises(ConfigError, match=f"a basis table of {nbytes} bytes exceeds"):
        DesignOperator(nodes, union)


# (terms, bandwidths, nodes, table entries, scratch entries), each count by hand:
# order 2 of (1, 3), N_2 = 4: B is (n v)^2 = 6 x 6, one block of R_b 6 x 7;
# order 3, N_3 = 4, leading pairs {(1, 2), (2, 3)}: B is n^2 P x n v = 18 x 12, R_b 18 x 5;
# order 3, N_3 = 10, four triples of 4 variables with P = 3 leading pairs: B is 243 x 36 and
# the step 4096 * 36 // 243 = 606 < 700 nodes, so the adjoint adds a product to G
APPLY_CASES = [
    (TermSet(5, ((1,), (2,), (1, 3))), [6, 4], 7, 5 * 3 * 7, 6 * (6 + 7)),
    (TermSet(4, ((1, 2, 3), (1, 2, 4), (2, 3, 4))), [2, 2, 4], 5, 3 * 4 * 5, 18 * (12 + 5)),
    (TermSet(4, tuple(itertools.combinations(range(1, 5), 3))), [2, 2, 10], 700, 9 * 4 * 700,
     243 * (2 * 36 + 606)),
]


@pytest.mark.parametrize("terms, bandwidths, rows, table, scratch", APPLY_CASES,
                         ids=["order 2", "order 3", "order 3 in two node blocks"])
def test_apply_scratch_beyond_physical_memory_is_refused_at_its_bound(
    terms, bandwidths, rows, table, scratch, monkeypatch
):
    union = build_index_union(terms, BandwidthProfile.from_list(bandwidths), BasisKind.COSINE)
    nodes = np.random.default_rng(4).random((rows, terms.dimension))
    nbytes = 8 * (table + scratch)
    monkeypatch.setattr(errors, "physical_memory", lambda: nbytes)
    op = DesignOperator(nodes, union)
    r = np.ones(rows)
    # the count is a lower bound of what the adjoint holds besides the table
    tracemalloc.start()
    try:
        op.adjoint_matvec(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 8 * scratch <= peak
    np.testing.assert_array_equal(op.matvec(op.adjoint_matvec(r)).shape, (rows,))
    monkeypatch.setattr(errors, "physical_memory", lambda: nbytes - 1)
    monkeypatch.setattr(operators, "eval_1d_table", _unreachable)
    with pytest.raises(ConfigError, match=f"a basis table and one apply's scratch of {nbytes} "
                                          "bytes exceeds"):
        DesignOperator(nodes, union)


def test_dense_matrix_beyond_physical_memory_is_refused_at_its_bound(monkeypatch):
    union = build_index_union(superposition_terms(3, 2), BandwidthProfile.from_list([4, 2]),
                              BasisKind.EXPONENTIAL)
    op = DesignOperator(np.full((5, 3), 0.25), union)
    # 5 rows of 1 + 3 * 3 + 3 * 1 columns of 16 bytes
    nbytes = 5 * 13 * 16
    monkeypatch.setattr(errors, "physical_memory", lambda: nbytes)
    np.testing.assert_array_equal(op.dense(), dense_design_matrix(op.nodes, union))
    monkeypatch.setattr(errors, "physical_memory", lambda: nbytes - 1)
    monkeypatch.setattr(operators._OrderStack, "dense_transposed", _unreachable)
    with pytest.raises(ConfigError, match=f"a 5x13 dense design matrix of {nbytes} bytes"):
        op.dense()


def test_fit_with_a_huge_bandwidth_meets_the_table_guard_before_any_grid(
    small_grids_only, monkeypatch
):
    # the union builds no grid, so 1e9 - 1 frequencies of 3 variables at 40 nodes
    # (960 GB of table) are refused by the operator's guard, not allocated
    monkeypatch.setattr(errors, "physical_memory", lambda: 2**33)
    rng = np.random.default_rng(3)
    with pytest.raises(ConfigError, match="a basis table of 959999999040 bytes exceeds"):
        fit(rng.random((40, 3)), rng.random(40), superposition_terms(3, 2),
            BandwidthProfile.from_list([10**9, 2]), BasisKind.COSINE)


def test_fit_and_predict_refuse_a_table_beyond_physical_memory(monkeypatch):
    rng = np.random.default_rng(3)
    model = fit(rng.random((40, 3)), rng.random(40), superposition_terms(3, 1),
                BandwidthProfile.from_list([4]), BasisKind.COSINE)
    monkeypatch.setattr(errors, "physical_memory", lambda: 2**20)
    monkeypatch.setattr(operators, "eval_1d_table", _unreachable)
    # 999 frequencies of 3 variables at 100 nodes take 2.4 MB
    with pytest.raises(ConfigError, match="physical memory"):
        fit(rng.random((100, 3)), rng.random(100), superposition_terms(3, 1),
            BandwidthProfile.from_list([1000]), BasisKind.COSINE)
    # predict's block operators: 3 frequencies of 3 variables at 4096 nodes take 295 kB
    monkeypatch.setattr(errors, "physical_memory", lambda: 2**18)
    with pytest.raises(ConfigError, match="physical memory"):
        predict(model, rng.random((5000, 3)))


def test_fit_refuses_a_coefficient_vector_beyond_physical_memory(monkeypatch):
    # order 1, d = 4, N = 1000 on 3 rows: LSQR's 5 vectors of 1 + 4 * 999 entries (160 kB)
    # bind, above the 96-kB table; 3 * 3997**2 > DIRECT_SOLVE_MAX_WORK, so LSQR runs
    cols = 1 + 4 * 999
    rng = np.random.default_rng(3)
    args = (rng.random((3, 4)), rng.random(3), superposition_terms(4, 1),
            BandwidthProfile.from_list([1000]), BasisKind.COSINE, SolverConfig(max_iterations=20))
    monkeypatch.setattr(errors, "physical_memory", lambda: 5 * 8 * cols)
    with pytest.warns(UserWarning, match="oversampling"):
        assert fit(*args).iterations > 0
    monkeypatch.setattr(errors, "physical_memory", lambda: 5 * 8 * cols - 1)
    monkeypatch.setattr(DesignOperator, "adjoint_matvec", _unreachable)
    with pytest.raises(ConfigError, match=f"5 LSQR vectors of {cols} entries of "
                                          f"{5 * 8 * cols} bytes exceeds"):
        fit(*args)


def _apply_case(kind, order):
    """An operator of highest order ``order`` on 60 nodes, with a coefficient and a value vector."""
    rng = np.random.default_rng(50 + order)
    union = build_index_union(
        superposition_terms(4, order), BandwidthProfile.from_list([6, 4, 4][:order]), kind
    )
    lo, hi = kind.domain
    nodes = rng.uniform(lo, hi, size=(60, 4))
    op = DesignOperator(nodes, union)
    coeffs = rng.standard_normal(op.cols)
    values = rng.standard_normal(op.rows)
    if kind.is_complex:
        coeffs = coeffs + 1j * rng.standard_normal(op.cols)
        values = values + 1j * rng.standard_normal(op.rows)
    return op, coeffs, values


@pytest.mark.parametrize("kind", [BasisKind.EXPONENTIAL, BasisKind.COSINE, BasisKind.CHEBYSHEV])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_dense_keeps_nothing(kind, order):
    op, coeffs, values = _apply_case(kind, order)
    F = op.dense()
    G = op.dense()
    assert F is not G and not np.shares_memory(F, G)
    assert np.array_equal(F, G) and not F.flags.writeable and not G.flags.writeable
    fresh = DesignOperator(op.nodes, op.index_union)
    assert np.array_equal(op.matvec(coeffs), fresh.matvec(coeffs))
    assert np.array_equal(op.adjoint_matvec(values), fresh.adjoint_matvec(values))


@pytest.mark.parametrize("kind", [BasisKind.EXPONENTIAL, BasisKind.COSINE, BasisKind.CHEBYSHEV])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_applies_after_dense_run_through_the_kept_matrix(kind, order):
    op, coeffs, values = _apply_case(kind, order)
    structured = op.matvec(coeffs), op.adjoint_matvec(values)
    F = op._apply_dense()
    assert not F.flags.writeable
    matvec, adjoint = op.matvec(coeffs), op.adjoint_matvec(values)
    np.testing.assert_array_equal(matvec, F @ coeffs)
    oracle = dense_design_matrix(op.nodes, op.index_union)
    for got, want in ((matvec, structured[0]), (matvec, oracle @ coeffs),
                      (adjoint, structured[1]), (adjoint, oracle.conj().T @ values)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
