"""Tests for the orthonormal basis families."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anovafit import BasisKind, DomainError, eval_1d, eval_tensor, full_grid_1d
from anovafit.basis import _TABLE_BLOCK, check_domain, eval_1d_table, wrap_periodic

from conftest import orthonormality_defect

ALL_KINDS = [BasisKind.EXPONENTIAL, BasisKind.COSINE, BasisKind.CHEBYSHEV]

SQRT2 = np.sqrt(2.0)


def test_cosine_values():
    assert eval_1d(BasisKind.COSINE, 0, 0.7) == 1.0
    np.testing.assert_allclose(eval_1d(BasisKind.COSINE, 1, 0.0), SQRT2, rtol=1e-15)
    np.testing.assert_allclose(
        eval_1d(BasisKind.COSINE, 3, 0.2), SQRT2 * np.cos(0.6 * np.pi), rtol=1e-15
    )


def test_exponential_quarter_turn_is_unit_imaginary():
    value = eval_1d(BasisKind.EXPONENTIAL, 1, 0.25)
    np.testing.assert_allclose(value, 1j, atol=1e-15)


def test_chebyshev_at_right_endpoint():
    # cos(2 * arccos(1)) = 1, scaled by sqrt(2)
    np.testing.assert_allclose(eval_1d(BasisKind.CHEBYSHEV, 2, 1.0), SQRT2, rtol=1e-15)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_frequency_zero_is_exactly_one(kind):
    lo, hi = kind.domain
    x = np.linspace(lo, hi - 1e-9, 17)
    values = eval_1d(kind, 0, x)
    assert np.all(values == 1.0)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_exponential_modulus_and_real_values(kind):
    rng = np.random.default_rng(0)
    lo, hi = kind.domain
    x = rng.uniform(lo, hi, 50)
    for k in range(0, 6):
        values = eval_1d(kind, k, x)
        if kind.is_complex:
            np.testing.assert_allclose(np.abs(values), 1.0, rtol=1e-14)
        else:
            assert not np.iscomplexobj(values)


def test_tensor_trivial_cases():
    assert eval_tensor(BasisKind.COSINE, (0, 0, 0), (0.1, 0.5, 0.9)) == 1.0
    np.testing.assert_allclose(
        eval_tensor(BasisKind.COSINE, (1, 2), (0.0, 0.0)), 2.0, rtol=1e-15
    )
    # periodic wrap makes x = 0.5 and x = -0.5 the same point
    np.testing.assert_allclose(
        eval_tensor(BasisKind.EXPONENTIAL, (1, 1), (0.5, -0.5)), 1.0, atol=1e-14
    )


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(ALL_KINDS),
    data=st.data(),
)
def test_tensor_matches_product_of_1d(kind, data):
    d = data.draw(st.integers(min_value=1, max_value=5))
    lo, hi = kind.domain
    x = data.draw(
        st.lists(
            st.floats(min_value=lo, max_value=hi - 1e-9, allow_nan=False),
            min_size=d,
            max_size=d,
        )
    )
    kmin = -4 if kind.is_complex else 0
    k = data.draw(
        st.lists(st.integers(min_value=kmin, max_value=4), min_size=d, max_size=d)
    )
    expected = 1.0
    for ki, xi in zip(k, x):
        expected = expected * eval_1d(kind, ki, xi)
    np.testing.assert_allclose(
        eval_tensor(kind, k, x), expected, rtol=1e-14, atol=1e-14
    )


def test_tensor_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        eval_tensor(BasisKind.COSINE, (1, 2, 3), (0.5, 0.5))


def test_negative_frequency_rejected_for_real_bases():
    for kind in (BasisKind.COSINE, BasisKind.CHEBYSHEV):
        with pytest.raises(ValueError, match="negative frequency"):
            eval_1d(kind, -1, 0.5)
    # fine for the periodic family
    eval_1d(BasisKind.EXPONENTIAL, -3, 0.25)


def test_domain_violation_raises():
    for kind in (BasisKind.COSINE, BasisKind.CHEBYSHEV):
        with pytest.raises(DomainError):
            eval_1d(kind, 1, 1.2)
        with pytest.raises(DomainError):
            eval_1d(kind, 1, -0.1)


def test_periodic_inputs_wrap_instead_of_raising():
    np.testing.assert_allclose(
        eval_1d(BasisKind.EXPONENTIAL, 2, 0.7),
        eval_1d(BasisKind.EXPONENTIAL, 2, -0.3),
        rtol=1e-14,
    )
    wrapped = wrap_periodic(np.array([-0.5, 0.5, 1.25, -0.75]))
    assert np.all(wrapped >= -0.5) and np.all(wrapped < 0.5)
    np.testing.assert_allclose(wrapped, [-0.5, -0.5, 0.25, 0.25], atol=1e-15)


def test_chebyshev_endpoints_finite():
    for k in range(0, 9):
        for x in (0.0, 1.0):
            assert np.isfinite(eval_1d(BasisKind.CHEBYSHEV, k, x))


def _assert_table_is_grid(kind, bandwidth, x, **tolerance):
    grid = full_grid_1d(kind, bandwidth)
    table = eval_1d_table(kind, bandwidth, x)
    assert table.shape == (x.size, grid.size) and table.dtype == kind.dtype
    for j, k in enumerate(grid):
        np.testing.assert_allclose(table[:, j], eval_1d(kind, int(k), x), **tolerance)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_table_matches_scalar_eval(kind):
    rng = np.random.default_rng(3)
    lo, hi = kind.domain
    _assert_table_is_grid(kind, 6, rng.uniform(lo, hi, 20), rtol=1e-14)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_table_recurrence_matches_direct_eval(kind):
    # |k| up to 11 (the largest grid in use, N = 12), the domain endpoints,
    # and more than two recurrence blocks with a partial last one
    rng = np.random.default_rng(11)
    lo, hi = kind.domain
    x = np.concatenate([[lo, hi], rng.uniform(lo, hi, 2 * _TABLE_BLOCK + 77)])
    _assert_table_is_grid(kind, 22 if kind.is_complex else 12, x, rtol=0, atol=1e-13)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_table_of_empty_inputs(kind):
    empty = eval_1d_table(kind, 4, np.empty(0))
    assert empty.shape == (0, 3) and empty.dtype == kind.dtype


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_orthonormality_under_natural_measure(kind):
    assert orthonormality_defect(kind, kmax=8) < 1e-8


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_domain_names_non_finite_coordinates(kind, bad):
    # a non-finite entry outranks an out-of-domain one, as it always has
    x = np.array([[0.25, bad], [7.0, -3.0]])
    with pytest.raises(DomainError, match=r"^node is not finite \(nan or inf\)$"):
        check_domain(kind, x, what="node")


@pytest.mark.parametrize("kind", [BasisKind.COSINE, BasisKind.CHEBYSHEV])
@pytest.mark.parametrize("bad", [-1e-12, 1.0 + 1e-12, -5.0, 5.0])
def test_check_domain_names_coordinates_outside_the_domain(kind, bad):
    x = np.array([0.0, 0.5, 1.0, bad])
    with pytest.raises(DomainError, match=rf"^node outside \[0, 1\] for basis '{kind.token}'$"):
        check_domain(kind, x, what="node")


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("shape", [(0,), (0, 3)])
def test_check_domain_accepts_an_empty_array(kind, shape):
    out = check_domain(kind, np.empty(shape))
    assert out.shape == shape and out.dtype == np.float64


def test_check_domain_wraps_periodic_coordinates():
    x = np.array([-0.5, 0.5, 1.25, -0.75, 1e6 + 0.25])
    np.testing.assert_allclose(
        check_domain(BasisKind.EXPONENTIAL, x), [-0.5, -0.5, 0.25, 0.25, 0.25], atol=1e-9
    )
    inside = np.array([0.0, 1.0])
    for kind in (BasisKind.COSINE, BasisKind.CHEBYSHEV):
        np.testing.assert_array_equal(check_domain(kind, inside), inside)
