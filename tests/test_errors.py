"""Bad settings and bad arrays raise typed errors where the fault is found.

``ConfigError`` and ``DataError`` are also ``ValueError`` subclasses, so
callers that catch ``ValueError`` keep working.
"""

import numpy as np
import pytest

from anovafit import (
    BandwidthProfile,
    BasisKind,
    ConfigError,
    DataError,
    DesignOperator,
    FriedmanSpec,
    SensitivityReport,
    SolverConfig,
    TermSet,
    build_index_union,
    direct_solve,
    fit,
    friedman_sample,
    lsqr_solve,
    mse,
    rng_stream,
    superposition_terms,
    threshold_active_set,
)
from anovafit.bench import Stage, run_recipe
from anovafit.model import model_from_obj, model_to_obj


def _operator():
    union = build_index_union(
        superposition_terms(3, 2), BandwidthProfile.from_list([4, 2]), BasisKind.COSINE
    )
    return DesignOperator(np.full((8, 3), 0.5), union)


def _report():
    indices = tuple((u, 1.0 / 6) for u in superposition_terms(3, 2).nonempty_terms)
    return SensitivityReport(3, 1.0, indices, ranking=np.full(3, 1.0 / 3))


def _nan_model_obj():
    rng = np.random.default_rng(0)
    model = fit(rng.random((20, 2)), rng.random(20), superposition_terms(2, 1),
                BandwidthProfile.from_list([4]), BasisKind.COSINE)
    obj = model_to_obj(model)
    obj["coefficients"][1] = float("nan")
    return obj


CASES = {
    "negative regularization": (ConfigError, lambda: SolverConfig(regularization=-1)),
    "1-d nodes": (DataError, lambda: DesignOperator(np.full(3, 0.5), _operator().index_union)),
    "wrong coordinate count": (
        DataError, lambda: DesignOperator(np.full((4, 2), 0.5), _operator().index_union)
    ),
    "matvec length": (DataError, lambda: _operator().matvec(np.ones(3))),
    "lsqr value shape": (DataError, lambda: lsqr_solve(_operator(), np.ones((8, 1)))),
    "direct value shape": (
        DataError, lambda: direct_solve(_operator().dense(), np.ones(7), 1.0)
    ),
    "duplicate term": (ConfigError, lambda: TermSet(3, ((1,), (1,)))),
    "mse lengths": (DataError, lambda: mse([1.0, 2.0], [1.0])),
    "too many thresholds": (
        ConfigError,
        lambda: threshold_active_set(_report(), superposition_terms(3, 2), (0.1, 0.1, 0.1)),
    ),
    "ranked_above range": (ConfigError, lambda: _report().ranked_above(1.0)),
    "negative seed": (ConfigError, lambda: rng_stream(-1)),
    "fractional seed": (ConfigError, lambda: rng_stream(1.5)),
    "string seed": (ConfigError, lambda: rng_stream("3")),
    "negative repetition index": (ConfigError, lambda: rng_stream(0, -1)),
    "negative sample seed": (ConfigError, lambda: friedman_sample(FriedmanSpec(1), 5, -1)),
    "fractional sample size": (ConfigError, lambda: friedman_sample(FriedmanSpec(1), 5.5, 0)),
    "string sample size": (ConfigError, lambda: friedman_sample(FriedmanSpec(1), "5", 0)),
    "non-finite coefficient": (DataError, lambda: model_from_obj(_nan_model_obj())),
    "stage with two selections": (ConfigError, lambda: Stage(2, (4, 2), 1.0, rank=0.1, gsi=0.1)),
    "empty recipe": (
        ConfigError, lambda: run_recipe((), friedman_sample(FriedmanSpec(1), 5, 0))
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_boundary_raises_typed_error(case):
    expected, call = CASES[case]
    with pytest.raises(expected) as info:
        call()
    assert isinstance(info.value, ValueError)
