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
"""

import numpy as np
import pytest

from anovafit import (
    BandwidthProfile,
    BasisKind,
    SolverConfig,
    build_index_union,
    fit,
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
