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
    Dataset,
    DesignOperator,
    FriedmanSpec,
    Normalization,
    SensitivityReport,
    SolverConfig,
    SplitPlan,
    TermSet,
    apply_normalization,
    build_index_union,
    direct_solve,
    drop_variables,
    eval_1d,
    fit,
    friedman_sample,
    full_grid_1d,
    incremental_expand,
    load_termset,
    lsqr_solve,
    mse,
    rng_stream,
    superposition_terms,
    threshold_active_set,
)
from anovafit.bench import RealBenchConfig, Stage, run_real_benchmark, run_recipe
from anovafit.model import model_from_obj, model_to_obj


def _operator():
    union = build_index_union(
        superposition_terms(3, 2), BandwidthProfile.from_list([4, 2]), BasisKind.COSINE
    )
    return DesignOperator(np.full((8, 3), 0.5), union)


def _report():
    indices = tuple((u, 1.0 / 6) for u in superposition_terms(3, 2).nonempty_terms)
    return SensitivityReport(3, 1.0, indices, ranking=np.full(3, 1.0 / 3))


def _model_obj(**changes):
    rng = np.random.default_rng(0)
    model = fit(rng.random((20, 2)), rng.random(20), superposition_terms(2, 1),
                BandwidthProfile.from_list([4]), BasisKind.COSINE)
    return {**model_to_obj(model), **changes}


def _diagnostics(**changes):
    return _model_obj(diagnostics={**_model_obj()["diagnostics"], **changes})


def _extrema(lo, hi, t_lo=None, t_hi=None):
    block = {"feature_min": lo, "feature_max": hi, "target_min": t_lo, "target_max": t_hi}
    return _model_obj(normalization=block)


def _nan_model_obj():
    obj = _model_obj()
    obj["coefficients"][1] = float("nan")
    return obj


CASES = {
    "negative regularization": (ConfigError, lambda: SolverConfig(regularization=-1)),
    "infinite regularization": (ConfigError, lambda: SolverConfig(regularization=float("inf"))),
    "string regularization": (ConfigError, lambda: SolverConfig(regularization="1")),
    "string tolerance": (ConfigError, lambda: SolverConfig(tolerance="1e-8")),
    "string train fraction": (ConfigError, lambda: SplitPlan(train_fraction="0.7")),
    "string real-data gsi cutoff": (ConfigError, lambda: RealBenchConfig(0.7, gsi_cutoff="0.1")),
    "string ranking threshold": (ConfigError, lambda: _report().ranked_above("0.02")),
    "string expansion threshold": (
        ConfigError,
        lambda: incremental_expand(_report(), superposition_terms(3, 1), "0.02", 2),
    ),
    "string gsi threshold": (
        ConfigError,
        lambda: threshold_active_set(_report(), superposition_terms(3, 2), "0.02"),
    ),
    "string stage regularization": (
        ConfigError,
        lambda: run_recipe((Stage(2, (4, 2), "1.0"),), friedman_sample(FriedmanSpec(1), 5, 0)),
    ),
    "complex values with a real basis": (
        DataError, lambda: lsqr_solve(_operator(), np.ones(8, dtype=complex))
    ),
    "non-finite node": (DataError, lambda: Dataset(np.array([[np.inf]]), np.zeros(1), ("a",))),
    "normalization without target extrema": (
        ConfigError,
        lambda: apply_normalization(
            Dataset(np.zeros((2, 1)), np.zeros(2), ("a",)),
            Normalization(np.zeros(1), np.ones(1)),
            include_target=True,
        ),
    ),
    "model-file coefficient count": (
        DataError, lambda: model_from_obj(_model_obj(coefficients=[1.0, 2.0]))
    ),
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
    "fractional term index": (ConfigError, lambda: TermSet(3, ((1.5,),))),
    "string term index": (ConfigError, lambda: TermSet(3, (("1",),))),
    "fractional dimension": (ConfigError, lambda: TermSet(2.5, ((1,),))),
    "fractional superposition threshold": (ConfigError, lambda: TermSet(3, (), 1.5)),
    "fractional superposition dimension": (ConfigError, lambda: superposition_terms(2.5, 1)),
    "fractional superposition order": (ConfigError, lambda: superposition_terms(3, 1.5)),
    "fractional bandwidth": (ConfigError, lambda: BandwidthProfile({1: 6.5})),
    "fractional bandwidth order": (ConfigError, lambda: BandwidthProfile({1.5: 6})),
    "fractional bandwidth in a list": (ConfigError, lambda: BandwidthProfile.from_list([6.9])),
    "string bandwidth order": (ConfigError, lambda: BandwidthProfile({"1": 4, 2: 2})),
    "fractional kept variable": (
        ConfigError, lambda: drop_variables(superposition_terms(3, 2), [1.7, 2])
    ),
    "fractional real-data kept variable": (
        ConfigError,
        lambda: run_real_benchmark(
            friedman_sample(FriedmanSpec(1), 20, 0), RealBenchConfig(0.7, keep=(1.5,)), 1
        ),
    ),
    "empty real-data keep set": (ConfigError, lambda: RealBenchConfig(0.7, keep=())),
    "zero real-data kept variable": (ConfigError, lambda: RealBenchConfig(0.7, keep=(0,))),
    "fractional grid bandwidth": (ConfigError, lambda: full_grid_1d(BasisKind.COSINE, 4.5)),
    "fractional model-file dimension": (
        DataError, lambda: model_from_obj(_model_obj(dimension=2.9))
    ),
    "fractional model-file bandwidth": (
        DataError, lambda: model_from_obj(_model_obj(bandwidths={"1": 4.5}))
    ),
    "model-file bandwidths as a list": (
        DataError, lambda: model_from_obj(_model_obj(bandwidths=[]))
    ),
    "model-file diagnostics as a list": (
        DataError, lambda: model_from_obj(_model_obj(diagnostics=[]))
    ),
    "unknown real-data metric": (ConfigError, lambda: RealBenchConfig(0.7, metric="mae")),
    "real-data gsi cutoff of 1": (ConfigError, lambda: RealBenchConfig(0.7, gsi_cutoff=1.0)),
    "stage with two selections": (ConfigError, lambda: Stage(2, (4, 2), 1.0, rank=0.1, gsi=0.1)),
    "fractional repetitions": (
        ConfigError, lambda: SplitPlan(train_size=10, test_size=10, repetitions=2.5)
    ),
    "string repetitions": (
        ConfigError, lambda: SplitPlan(train_size=10, test_size=10, repetitions="3")
    ),
    "fractional split size": (ConfigError, lambda: SplitPlan(train_size=2.5, test_size=10)),
    "string split size": (ConfigError, lambda: SplitPlan(train_size=10, test_size="10")),
    "fractional iteration cap": (ConfigError, lambda: SolverConfig(max_iterations=2.5)),
    "string iteration cap": (ConfigError, lambda: SolverConfig(max_iterations="5")),
    "fractional expansion order": (
        ConfigError,
        lambda: incremental_expand(_report(), superposition_terms(3, 1), 0.1, 2.5),
    ),
    "integral-float expansion order": (
        ConfigError,
        lambda: incremental_expand(_report(), superposition_terms(3, 1), 0.1, 2.0),
    ),
    "fractional frequency": (ConfigError, lambda: eval_1d(BasisKind.COSINE, 1.5, 0.3)),
    "fractional model-file iteration count": (
        DataError, lambda: model_from_obj(_diagnostics(iterations=2.9))
    ),
    "inverted model-file feature extrema": (
        DataError, lambda: model_from_obj(_extrema([1, 1], [0, 0]))
    ),
    "NaN model-file feature extremum": (
        DataError, lambda: model_from_obj(_extrema([float("nan"), 0], [1, 1]))
    ),
    "infinite model-file feature extremum": (
        DataError, lambda: model_from_obj(_extrema([0, 0], [1, float("inf")]))
    ),
    "inverted model-file target extrema": (
        DataError, lambda: model_from_obj(_extrema([0, 0], [1, 1], 2.0, 1.0))
    ),
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


def test_model_file_with_a_constant_column_loads():
    stats = model_from_obj(_extrema([0.5, 0.0], [0.5, 1.0], 3.0, 3.0)).normalization
    assert stats.feature_min[0] == stats.feature_max[0] and stats.target_max == 3.0


@pytest.mark.parametrize("key", ["diagnostics", "real_output", "superposition_threshold"])
def test_model_file_without_a_required_key_is_a_data_error(key):
    obj = _model_obj()
    del obj[key]
    with pytest.raises(DataError, match=key):
        model_from_obj(obj)


def test_term_file_with_fractional_dimension_is_a_data_error(tmp_path):
    path = tmp_path / "terms.json"
    path.write_text('{"dimension": 2.9, "superposition_threshold": 1, "terms": [[1], [2]]}')
    with pytest.raises(DataError, match="dimension must be an integer"):
        load_termset(path)
