"""Metamorphic relations: a whole fit checked against another whole fit.

``cheb`` <-> ``cos``.  With ``x = (1 - cos(pi t)) / 2``, the Chebyshev basis
function of frequency ``k`` at ``x`` is ``sqrt(2) cos(k (pi - pi t))``, that is
``(-1)^k`` times the cosine one at ``t``.  So a ``cheb`` fit on ``x`` equals
the ``cos`` fit on ``t`` with each coefficient multiplied by
``(-1)^(sum of its frequencies)``, up to the rounding of the two tables.

Measured before pinning (d=4, ds=2, N=(6, 4), 75 columns, lam=1, seeds
0-49): a largest relative coefficient gap of 5.2e-16 on the direct path
(300 rows) and 3.9e-16 on the LSQR path (2000 rows, equal iteration
counts).  Unregularized fits of 300 rows amplify the tables' rounding up to
5e-11, so the relation is pinned on regularized fits only.

Periodic shift.  A ``per`` basis function of frequency ``k`` at ``x - s`` is
``exp(-2 pi i k.s)`` times the one at ``x``, a unitary column scaling, so a
``per`` fit on ``(x - s) mod 1`` equals the fit on ``x`` with coefficient
``k`` multiplied by ``exp(2 pi i k.s)``.  Measured before pinning (same term
set and bandwidths, seeds 0-49): a largest relative coefficient gap of
1.5e-15 on the direct path and 1.0e-15 on the LSQR path, with equal
iteration counts.

Variable permutation.  Permuting the columns of the nodes and relabelling
the terms to match permutes the union's blocks and the axes within them,
so each term keeps its sensitivity index.  Measured before pinning (d=5, a
term set with gaps up to order 3, N=(6, 4, 4), seeds 0-49, ``cos`` and
``per``): a largest index gap of 6.7e-16 on the direct path and 2.2e-16 on
the LSQR path.  ``cheb`` is left out: on the LSQR path its two fits took
different iteration counts for some seeds (54 against 56).

Target scaling.  The damped objective of ``a y`` is ``a^2`` times that of
``y`` at ``a g``, so a fit of ``a y`` has the coefficients ``a g``.  Measured
before pinning (``a = 3.7``, the term set and bandwidths of the first
relation, seeds 0-49, ``cos`` and ``per``, equal iteration counts): a largest
relative coefficient gap of 1.1e-15 on the direct path (300 rows, lam=1) and
8.4e-16 on the structured LSQR path (2000 rows, lam=1); unregularized fits of
300 rows, which run LSQR through the operator's dense matrix, reach 6.1e-11
(one seed; the median is 2.8e-16).  ``cheb`` is left out: its LSQR fits took
different iteration counts for some seeds.

Variable subset.  A term set over the variables {1, 2, 4} of d=10 gives the
design matrix of the same terms over the columns 1, 2 and 4 alone, renumbered
1, 2, 3, because the operator tabulates only the variables of its terms.
Measured before pinning (a term set of orders 1-3 whose order 2 gathers two of
the three variables, N=(6, 4, 4), 52 columns, seeds 0-49, all three bases, the
dense-apply LSQR path at lam=0 and the direct path at lam=1): the
coefficients were bitwise equal.
"""

import numpy as np
import pytest

from anovafit import (
    BandwidthProfile,
    BasisKind,
    SolverConfig,
    TermSet,
    build_index_union,
    fit,
    gsi,
    superposition_terms,
)

TERMS = superposition_terms(4, 2)
BANDWIDTHS = BandwidthProfile.from_list([6, 4])
# 20x the largest gap measured over 50 seeds
BAND = 1e-14


@pytest.mark.parametrize("rows, path", [(300, "direct"), (2000, "tolerance")])
@pytest.mark.parametrize("seed", range(3))
def test_chebyshev_fit_is_the_sign_flipped_cosine_fit(rows, path, seed):
    rng = np.random.default_rng(seed)
    t = rng.random((rows, 4))
    y = np.sin(np.pi * t[:, 0] * t[:, 1]) + t[:, 2] ** 2 + 0.1 * rng.standard_normal(rows)
    x = (1.0 - np.cos(np.pi * t)) / 2.0
    config = SolverConfig(regularization=1.0)
    cos = fit(t, y, TERMS, BANDWIDTHS, BasisKind.COSINE, config)
    cheb = fit(x, y, TERMS, BANDWIDTHS, BasisKind.CHEBYSHEV, config)
    assert cos.stop_reason == cheb.stop_reason == path
    assert cos.iterations == cheb.iterations
    frequencies = build_index_union(TERMS, BANDWIDTHS, BasisKind.COSINE).frequencies_full()
    flipped = (-1.0) ** frequencies.sum(axis=1) * cos.coefficients
    gap = np.max(np.abs(cheb.coefficients - flipped)) / np.max(np.abs(cos.coefficients))
    assert gap <= BAND


# 20x the largest gaps measured over 50 seeds
SHIFT_BAND = 3e-14
PERMUTATION_BAND = 1.5e-14


@pytest.mark.parametrize("rows, path", [(300, "direct"), (2000, "tolerance")])
@pytest.mark.parametrize("seed", range(3))
def test_shifted_periodic_fit_is_the_phase_rotated_fit(rows, path, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.5, 0.5, (rows, 4))
    y = np.sin(2 * np.pi * x[:, 0]) * x[:, 1] + np.cos(2 * np.pi * x[:, 2])
    y += 0.1 * rng.standard_normal(rows)
    s = rng.random(4)
    config = SolverConfig(regularization=1.0)
    fitted = fit(x, y, TERMS, BANDWIDTHS, BasisKind.EXPONENTIAL, config)
    # the operator wraps x - s onto the torus
    shifted = fit(x - s, y, TERMS, BANDWIDTHS, BasisKind.EXPONENTIAL, config)
    assert fitted.stop_reason == shifted.stop_reason == path
    assert fitted.iterations == shifted.iterations
    frequencies = build_index_union(TERMS, BANDWIDTHS, BasisKind.EXPONENTIAL).frequencies_full()
    rotated = np.exp(2j * np.pi * (frequencies @ s)) * fitted.coefficients
    gap = np.max(np.abs(shifted.coefficients - rotated)) / np.max(np.abs(fitted.coefficients))
    assert gap <= SHIFT_BAND


GAPPED_TERMS = TermSet(
    5, ((1,), (2,), (3,), (4,), (5,), (1, 2), (1, 3), (2, 4), (3, 5), (1, 2, 3))
)
GAPPED_BANDWIDTHS = BandwidthProfile.from_list([6, 4, 4])


@pytest.mark.parametrize("kind", [BasisKind.COSINE, BasisKind.EXPONENTIAL])
@pytest.mark.parametrize("rows, path", [(300, "direct"), (2000, "tolerance")])
@pytest.mark.parametrize("seed", range(3))
def test_permuted_variables_keep_their_indices(kind, rows, path, seed):
    rng = np.random.default_rng(seed)
    lo, hi = kind.domain
    x = rng.uniform(lo, hi, (rows, 5))
    t = x - lo
    y = np.sin(np.pi * t[:, 0] * t[:, 1]) + t[:, 2] ** 2 + t[:, 4]
    y += 0.1 * rng.standard_normal(rows)
    # new column j holds old variable perm[j] + 1, so old variable i is new variable inv[i - 1] + 1
    perm = rng.permutation(5)
    inv = np.argsort(perm)
    relabel = {u: tuple(sorted(int(inv[i - 1]) + 1 for i in u)) for u in GAPPED_TERMS}
    relabelled = TermSet(5, tuple(relabel.values()))
    config = SolverConfig(regularization=1.0)
    fitted = fit(x, y, GAPPED_TERMS, GAPPED_BANDWIDTHS, kind, config)
    permuted = fit(x[:, perm], y, relabelled, GAPPED_BANDWIDTHS, kind, config)
    assert fitted.stop_reason == permuted.stop_reason == path
    assert fitted.iterations == permuted.iterations
    rho, rho_permuted = dict(gsi(fitted).indices), dict(gsi(permuted).indices)
    assert rho.keys() == set(GAPPED_TERMS.nonempty_terms)
    gap = max(abs(rho[u] - rho_permuted[relabel[u]]) for u in rho)
    assert gap <= PERMUTATION_BAND


# 20x the largest gaps measured over 50 seeds, by path
SCALE_BANDS = {"direct": 2.5e-14, "lsqr": 2e-14, "dense_lsqr": 1.5e-9}
SCALE = 3.7


@pytest.mark.parametrize("kind", [BasisKind.COSINE, BasisKind.EXPONENTIAL])
@pytest.mark.parametrize("rows, lam, path", [
    (300, 1.0, "direct"), (2000, 1.0, "lsqr"), (300, 0.0, "dense_lsqr"),
])
@pytest.mark.parametrize("seed", range(3))
def test_scaled_targets_scale_the_coefficients(kind, rows, lam, path, seed):
    rng = np.random.default_rng(seed)
    lo, hi = kind.domain
    x = rng.uniform(lo, hi, (rows, 4))
    t = x - lo
    y = np.sin(np.pi * t[:, 0] * t[:, 1]) + t[:, 2] ** 2 + 0.1 * rng.standard_normal(rows)
    config = SolverConfig(regularization=lam)
    fitted = fit(x, y, TERMS, BANDWIDTHS, kind, config)
    scaled = fit(x, SCALE * y, TERMS, BANDWIDTHS, kind, config)
    expected = "direct" if path == "direct" else "tolerance"
    assert fitted.stop_reason == scaled.stop_reason == expected
    assert fitted.iterations == scaled.iterations
    want = SCALE * fitted.coefficients
    gap = np.max(np.abs(scaled.coefficients - want)) / np.max(np.abs(want))
    assert gap <= SCALE_BANDS[path]


# order 2 holds (1, 2) alone, so it gathers two of the three variables' tables
SUBSET_TERMS = TermSet(10, ((1,), (2,), (4,), (1, 2), (1, 2, 4)))
RENUMBERED_TERMS = TermSet(3, ((1,), (2,), (3,), (1, 2), (1, 2, 3)))
# the gaps measured over 50 seeds were 0; this allows for a BLAS that rounds by address
SUBSET_BAND = 1e-14


@pytest.mark.parametrize("kind", [BasisKind.COSINE, BasisKind.EXPONENTIAL, BasisKind.CHEBYSHEV])
@pytest.mark.parametrize("lam, path", [(1.0, "direct"), (0.0, "tolerance")])
@pytest.mark.parametrize("seed", range(3))
def test_fit_on_a_variable_subset_equals_the_renumbered_fit(kind, lam, path, seed):
    rng = np.random.default_rng(seed)
    lo, hi = kind.domain
    x = rng.uniform(lo, hi, (300, 10))
    t = x - lo
    y = np.sin(np.pi * t[:, 0] * t[:, 1]) + t[:, 3] ** 2 + t[:, 5]
    y += 0.1 * rng.standard_normal(300)
    config = SolverConfig(regularization=lam)
    fitted = fit(x, y, SUBSET_TERMS, GAPPED_BANDWIDTHS, kind, config)
    renumbered = fit(x[:, [0, 1, 3]], y, RENUMBERED_TERMS, GAPPED_BANDWIDTHS, kind, config)
    assert fitted.stop_reason == renumbered.stop_reason == path
    assert fitted.iterations == renumbered.iterations
    gap = np.max(np.abs(renumbered.coefficients - fitted.coefficients))
    assert gap <= SUBSET_BAND * np.max(np.abs(fitted.coefficients))
