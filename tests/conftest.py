"""Shared oracles and random-instance builders for the test suite."""

import itertools

import numpy as np
import pytest
from hypothesis import strategies as st

from anovafit import (
    BandwidthProfile,
    BasisKind,
    DesignOperator,
    TermSet,
    basis,
    build_index_union,
    eval_1d,
    superposition_terms,
    terms,
)


@pytest.fixture()
def small_grids_only(monkeypatch):
    """Make ``full_grid_1d`` refuse bandwidths above 64.

    Patched in every module that looks it up, so a test of a huge bandwidth
    fails instead of allocating that bandwidth's grid.
    """
    build = basis.full_grid_1d

    def refusing(kind, bandwidth):
        if bandwidth > 64:
            raise AssertionError(f"a grid of bandwidth {bandwidth} was requested")
        return build(kind, bandwidth)

    for module in (basis, terms):
        monkeypatch.setattr(module, "full_grid_1d", refusing)


def gauss_legendre(n: int, lo: float, hi: float):
    """Gauss-Legendre nodes and weights mapped onto [lo, hi]."""
    t, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (hi - lo)
    return lo + half * (t + 1.0), half * w


def gauss_chebyshev_unit(n: int):
    """Nodes and weights for the Chebyshev probability measure on [0, 1]."""
    j = np.arange(1, n + 1)
    x = 0.5 * (1.0 + np.cos((2.0 * j - 1.0) * np.pi / (2.0 * n)))
    return x, np.full(n, 1.0 / n)


def orthonormality_defect(kind: BasisKind, kmax: int, n_points: int = 200) -> float:
    """Largest deviation of the quadrature Gram matrix from the identity."""
    if kind is BasisKind.CHEBYSHEV:
        x, w = gauss_chebyshev_unit(n_points)
        freqs = range(0, kmax + 1)
    elif kind is BasisKind.COSINE:
        x, w = gauss_legendre(n_points, 0.0, 1.0)
        freqs = range(0, kmax + 1)
    else:
        x, w = gauss_legendre(n_points, -0.5, 0.5)
        freqs = range(-kmax, kmax + 1)
    values = np.column_stack([eval_1d(kind, k, x) for k in freqs])
    gram = values.conj().T @ (values * w[:, None])
    return float(np.max(np.abs(gram - np.eye(len(gram)))))


def random_termset(rng: np.random.Generator, dimension: int, max_order: int) -> TermSet:
    """Random subset of the order-truncated term set (empty term always kept)."""
    full = superposition_terms(dimension, max_order)
    kept = [u for u in full.nonempty_terms if rng.random() < 0.7]
    return TermSet(dimension, tuple(kept), max_order)


@st.composite
def term_sets(draw, max_dimension: int = 5, max_order: int = 3) -> TermSet:
    """Arbitrary term set, drawn order by order.

    Any order may be empty, and a pair or triple need not come with the
    lower-order terms of its variables.
    """
    dimension = draw(st.integers(1, max_dimension))
    terms = []
    for order in range(1, min(max_order, dimension) + 1):
        candidates = list(itertools.combinations(range(1, dimension + 1), order))
        terms += draw(st.lists(st.sampled_from(candidates), unique=True))
    return TermSet(dimension, tuple(terms))


def random_instance(
    rng: np.random.Generator,
    kind: BasisKind,
    *,
    max_columns: int = 50,
    max_rows: int = 200,
):
    """Random oversampled design-operator instance for solver/operator tests."""
    while True:
        dimension = int(rng.integers(2, 6))
        max_order = min(int(rng.integers(1, 4)), dimension)
        termset = random_termset(rng, dimension, max_order)
        bandwidths = BandwidthProfile.from_list(
            [int(rng.choice([2, 4, 6])), int(rng.choice([2, 4])), int(rng.choice([2, 4]))][
                : max(termset.max_order, 1)
            ]
        )
        union = build_index_union(termset, bandwidths, kind)
        if union.size <= max_columns:
            break
    rows = min(max_rows, max(3 * union.size, union.size + 20))
    lo, hi = kind.domain
    nodes = rng.uniform(lo, hi, size=(rows, dimension))
    return DesignOperator(nodes, union)
