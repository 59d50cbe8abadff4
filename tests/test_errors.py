"""Bad settings and bad arrays raise typed errors where the fault is found.

``ConfigError`` and ``DataError`` are also ``ValueError`` subclasses, so
callers that catch ``ValueError`` keep working.
"""

from xml.dom.minidom import parseString

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
    dense_design_matrix,
    direct_solve,
    drop_variables,
    eval_1d,
    eval_tensor,
    fit,
    friedman_eval,
    friedman_sample,
    full_grid_1d,
    incremental_expand,
    load_model,
    load_termset,
    lsqr_solve,
    mse,
    predict,
    predict_term,
    rng_stream,
    split,
    superposition_terms,
    threshold_active_set,
)
from anovafit.bench import RealPreset, Stage, run_real_benchmark, run_recipe
from anovafit.errors import as_array
from anovafit.model import model_from_obj, model_to_obj
from anovafit.plots import svg_bar_chart


def _operator():
    union = build_index_union(
        superposition_terms(3, 2), BandwidthProfile.from_list([4, 2]), BasisKind.COSINE
    )
    return DesignOperator(np.full((8, 3), 0.5), union)


def _report():
    indices = tuple((u, 1.0 / 6) for u in superposition_terms(3, 2).nonempty_terms)
    return SensitivityReport(3, 1.0, indices, ranking=np.full(3, 1.0 / 3))


def _fit(nodes, values):
    return fit(nodes, values, superposition_terms(3, 2), BandwidthProfile.from_list([4, 2]),
               BasisKind.COSINE)


def _fit_with(**changes):
    """A valid small fit with the named record arguments replaced."""
    rng = np.random.default_rng(0)
    args = {"termset": superposition_terms(2, 1), "bandwidths": BandwidthProfile.from_list([4]),
            "kind": BasisKind.COSINE, "config": None}
    return fit(rng.random((20, 2)), rng.random(20), **{**args, **changes})


def _model():
    rng = np.random.default_rng(0)
    return fit(rng.random((20, 2)), rng.random(20), superposition_terms(2, 1),
               BandwidthProfile.from_list([4]), BasisKind.COSINE)


def _model_obj(**changes):
    return {**model_to_obj(_model()), **changes}


def _lambda(value):
    return _model_obj(**{"lambda": value})


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
    "string real-data gsi cutoff": (ConfigError, lambda: Stage(2, (4, 2), 0.0, gsi="0.1")),
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
    "normalization extrema of the wrong width": (
        DataError,
        lambda: apply_normalization(
            Dataset(np.zeros((5, 3)), np.zeros(5), ("a", "b", "c")),
            Normalization(np.zeros(2), np.ones(2)),
        ),
    ),
    "inverted normalization extrema": (DataError, lambda: Normalization(np.ones(2), np.zeros(2))),
    "NaN normalization minimum": (
        DataError, lambda: Normalization(np.array([np.nan, 0.0]), np.ones(2))
    ),
    "lone normalization target bound": (
        DataError, lambda: Normalization(np.zeros(1), np.ones(1), target_min=0.0)
    ),
    "string split repetition index": (
        ConfigError,
        lambda: split(Dataset(np.zeros((4, 1)), np.zeros(4), ("a",)),
                      SplitPlan(train_fraction=0.5), "0"),
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
    "1-d design matrix": (DataError, lambda: direct_solve(np.ones(3), np.ones(3), 1.0)),
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
    "profile bandwidth of 2**64": (ConfigError, lambda: BandwidthProfile({1: 2**64})),
    "string bandwidth order": (ConfigError, lambda: BandwidthProfile({"1": 4, 2: 2})),
    "fractional kept variable": (
        ConfigError, lambda: drop_variables(superposition_terms(3, 2), [1.7, 2])
    ),
    "fractional real-data kept variable": (
        ConfigError,
        lambda: run_real_benchmark(
            friedman_sample(FriedmanSpec(1), 20, 0), RealPreset(0.7, keep=(1.5,)), 1
        ),
    ),
    "empty real-data keep set": (
        ConfigError,
        lambda: run_real_benchmark(
            friedman_sample(FriedmanSpec(1), 20, 0), RealPreset(0.7, keep=()), 1
        ),
    ),
    "zero real-data kept variable": (
        ConfigError,
        lambda: run_real_benchmark(
            friedman_sample(FriedmanSpec(1), 20, 0), RealPreset(0.7, keep=(0,)), 1
        ),
    ),
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
    "unknown real-data metric": (ConfigError, lambda: RealPreset(0.7, metric="mae")),
    "real-data gsi cutoff of 1": (ConfigError, lambda: Stage(2, (4, 2), 0.0, gsi=1.0)),
    "real-data recipe without stages": (ConfigError, lambda: RealPreset(0.7, ())),
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
    "fractional tensor frequency": (
        ConfigError, lambda: eval_tensor(BasisKind.COSINE, [1.5, 0], [0.3, 0.5])
    ),
    "string tensor frequency": (
        ConfigError, lambda: eval_tensor(BasisKind.COSINE, ["a", "1"], [0.3, 0.5])
    ),
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
    "non-numeric normalization bound": (DataError, lambda: Normalization(["a"], [1])),
    "complex normalization bound": (DataError, lambda: Normalization([1j], [2])),
    "non-numeric node": (DataError, lambda: Dataset([["a"]], [1.0], ("x",))),
    "complex targets": (DataError, lambda: Dataset(np.eye(2), [1j, 1.0], ("a", "b"))),
    "1-d dataset nodes": (DataError, lambda: Dataset(np.zeros(3), np.zeros(3), ("a",))),
    "zero sample size": (ConfigError, lambda: friedman_sample(FriedmanSpec(1), 0, 0)),
    "repeated term variable": (ConfigError, lambda: TermSet(3, ((2, 2),))),
    "term variable below 1": (ConfigError, lambda: TermSet(3, ((0, 1),))),
    "zero dimension": (ConfigError, lambda: TermSet(0, ())),
    "superposition threshold above the dimension": (ConfigError, lambda: TermSet(3, (), 4)),
    "bandwidth for order 0": (ConfigError, lambda: BandwidthProfile({0: 4})),
    "term missing from the report": (
        ConfigError, lambda: threshold_active_set(_report(), superposition_terms(3, 3), 0.1)
    ),
    "zero-length system": (
        DataError,
        lambda: lsqr_solve(DesignOperator(np.empty((0, 3)), _operator().index_union), []),
    ),
    "mismatched chart labels": (DataError, lambda: svg_bar_chart(["a", "b"], [1.0])),
    "string chart value": (DataError, lambda: svg_bar_chart(["a", "b"], ["1", "x"])),
    "NaN chart value": (DataError, lambda: svg_bar_chart(["a", "b"], [1.0, float("nan")])),
    "string ranking": (
        DataError,
        lambda: SensitivityReport(2, 1.0, (((1,), 0.5),), ranking=["a", "b"]).ranked_above(0.1),
    ),
    "string fit node": (DataError, lambda: _fit(np.full((8, 3), "0.5"), np.ones(8))),
    "complex fit node": (DataError, lambda: _fit(np.full((8, 3), 0.5 + 1j), np.ones(8))),
    "string fit value": (DataError, lambda: _fit(np.full((8, 3), 0.5), ["1"] * 8)),
    "string predict node": (DataError, lambda: predict(_model(), [["0.5", "0.5"]])),
    "complex predict node": (DataError, lambda: predict(_model(), [[0.5j, 0.5]])),
    "string predict_term node": (DataError, lambda: predict_term(_model(), (1,), [["0.5", "0"]])),
    "complex predict_term node": (DataError, lambda: predict_term(_model(), (1,), [[0.5j, 0]])),
    "string operator node": (
        DataError, lambda: DesignOperator(np.full((4, 3), "0.5"), _operator().index_union)
    ),
    "complex operator node": (
        DataError, lambda: DesignOperator(np.full((4, 3), 0.5j), _operator().index_union)
    ),
    "string oracle node": (
        DataError, lambda: dense_design_matrix(np.full((4, 3), "0.5"), _operator().index_union)
    ),
    "complex oracle node": (
        DataError, lambda: dense_design_matrix(np.full((4, 3), 0.5j), _operator().index_union)
    ),
    "oracle nodes of the wrong width": (
        DataError, lambda: dense_design_matrix(np.full((4, 2), 0.5), _operator().index_union)
    ),
    "string coefficient": (DataError, lambda: _operator().matvec(np.full(_operator().cols, "1"))),
    "string lsqr value": (DataError, lambda: lsqr_solve(_operator(), ["1"] * 8)),
    "string design matrix": (
        DataError, lambda: direct_solve(np.full((8, 3), "1"), np.ones(8), 1.0)
    ),
    "string direct value": (DataError, lambda: direct_solve(_operator().dense(), ["1"] * 8, 1.0)),
    "string metric input": (DataError, lambda: mse(["1", "2"], [1.0, 2.0])),
    "numeric-string normalization bound": (DataError, lambda: Normalization(["0"], ["1"])),
    "object-array node": (
        DataError, lambda: Dataset(np.ones((1, 1), dtype=object), [1.0], ("a",))
    ),
    "complex friedman node": (DataError, lambda: friedman_eval(FriedmanSpec(2), [0.5j] * 4)),
    "string model-file coefficient": (
        DataError,
        lambda: model_from_obj(_model_obj(coefficients=[str(c) for c in _model().coefficients])),
    ),
    "string model-file real_output": (
        DataError, lambda: model_from_obj(_model_obj(real_output="false"))
    ),
    "string model-file lambda": (DataError, lambda: model_from_obj(_lambda("1.5"))),
    "negative model-file lambda": (DataError, lambda: model_from_obj(_lambda(-1))),
    "NaN model-file lambda": (DataError, lambda: model_from_obj(_lambda(float("nan")))),
    "bool model-file lambda": (DataError, lambda: model_from_obj(_lambda(True))),
    "bool model-file iteration count": (
        DataError, lambda: model_from_obj(_diagnostics(iterations=True))
    ),
    "string model-file relative residual": (
        DataError, lambda: model_from_obj(_diagnostics(relative_residual="0.1"))
    ),
    "string model-file oversampling": (
        DataError, lambda: model_from_obj(_diagnostics(oversampling="10"))
    ),
    "term list as a fit term set": (ConfigError, lambda: _fit_with(termset=[(1,), (2,)])),
    "bandwidth list as a fit profile": (ConfigError, lambda: _fit_with(bandwidths=[4, 2])),
    "token string as a fit basis kind": (ConfigError, lambda: _fit_with(kind="cos")),
    "dict as a fit solver config": (
        ConfigError, lambda: _fit_with(config={"regularization": 1.0})
    ),
    "integer terms of a term set": (ConfigError, lambda: TermSet(3, (1, 2))),
    "bandwidth list as a profile's orders": (ConfigError, lambda: BandwidthProfile([4, 2])),
    "bool dimension": (ConfigError, lambda: TermSet(True, ((True,),))),
    "bool term index": (ConfigError, lambda: TermSet(2, ((True,),))),
    "bool bandwidth order": (ConfigError, lambda: BandwidthProfile({True: 4})),
    "bool regularization": (ConfigError, lambda: SolverConfig(regularization=True)),
    "regularization beyond the float range": (
        ConfigError, lambda: SolverConfig(regularization=10**400)
    ),
    "model-file relative residual beyond the float range": (
        DataError, lambda: model_from_obj(_diagnostics(relative_residual=10**400))
    ),
    "bool ranking threshold": (ConfigError, lambda: _report().ranked_above(False)),
    "NaN chart threshold": (
        ConfigError, lambda: svg_bar_chart(["a"], [1.0], threshold=float("nan"))
    ),
    "infinite chart threshold": (
        ConfigError, lambda: svg_bar_chart(["a"], [1.0], threshold=float("inf"))
    ),
    "bool chart threshold": (ConfigError, lambda: svg_bar_chart(["a"], [1.0], threshold=True)),
    "string chart threshold": (
        ConfigError, lambda: svg_bar_chart(["a"], [1.0], threshold="0.5")
    ),
    "ragged tensor frequencies": (
        DataError, lambda: eval_tensor(BasisKind.COSINE, [[1], [2, 3]], [0.3, 0.5])
    ),
    "term-set object without keys": (DataError, lambda: TermSet.from_json_obj({})),
    "term-set object as a list": (DataError, lambda: TermSet.from_json_obj([])),
    "bandwidth object as a list": (DataError, lambda: BandwidthProfile.from_json_obj([])),
    "non-integer bandwidth order key": (
        DataError, lambda: BandwidthProfile.from_json_obj({"x": 4})
    ),
    "normalization object without keys": (DataError, lambda: Normalization.from_json_obj({})),
    "normalization object as a list": (DataError, lambda: Normalization.from_json_obj([])),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_boundary_raises_typed_error(case):
    expected, call = CASES[case]
    with pytest.raises(expected) as info:
        call()
    assert isinstance(info.value, ValueError)


def test_model_file_over_a_huge_variable_index_loads():
    # the union holds nothing sized by a variable index: one term over variable 10**15
    obj = _model_obj(dimension=10**15, terms=[[], [10**15]], bandwidths={"1": 2},
                     coefficients=[0.0, 1.0])
    model = model_from_obj(obj)
    assert model.coefficients.shape == (model.index_union.size,) == (2,)
    assert model.index_union.variables.tolist() == [10**15]


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
    for dimension in ("2.9", "true"):
        path.write_text(
            f'{{"dimension": {dimension}, "superposition_threshold": 1, "terms": [[1], [2]]}}'
        )
        with pytest.raises(DataError, match="dimension must be an integer"):
            load_termset(path)


def test_chart_escapes_labels_and_title():
    svg = svg_bar_chart(["a<b", "c&d"], [1.0, 0.5], title='"x" > <y>')
    texts = [node.firstChild.data for node in parseString(svg).getElementsByTagName("text")]
    assert texts[0] == '"x" > <y>' and texts[-2:] == ["a<b", "c&d"]


def test_model_file_with_an_overlong_integer_is_a_data_error(tmp_path):
    # json.load raises a plain ValueError for an integer of more than 4300 digits
    path = tmp_path / "model.json"
    path.write_text('{"dimension": ' + "1" * 5000 + "}")
    with pytest.raises(DataError):
        load_model(path)


def test_as_array_reads_numbers_only():
    for value in ([True, False], [1, 2], np.arange(2, dtype=np.float32)):
        assert as_array(value, "x").dtype == np.float64
    assert as_array([1j, 2], "x", real=False).dtype == np.complex128
    assert as_array([1.0, 2], "x", real=False).dtype == np.float64
    for value, real in ((["1"], True), ([1j], True), ([None], False), ([[1], [2, 3]], False)):
        with pytest.raises(DataError, match="^x must be"):
            as_array(value, "x", real=real)
    assert as_array([1j, 2], "x", real=False, shape=(2,)).shape == (2,)
    with pytest.raises(DataError, match=r"^x must have shape \(3,\), got \(2,\)$"):
        as_array([1.0, 2.0], "x", shape=(3,))


def test_each_moved_rule_has_one_message():
    # a bandwidth: one reader, named by the caller
    for call, message in (
        (lambda: full_grid_1d(BasisKind.COSINE, 3), "bandwidth must be even and >= 2, got 3"),
        (lambda: BandwidthProfile({2: 3}), "bandwidth for order 2 must be even and >= 2, got 3"),
        (lambda: BandwidthProfile({1: 6.5}), "bandwidth for order 1 must be an integer, got 6.5"),
        (lambda: BandwidthProfile({1: 2**64}),
         f"bandwidth for order 1 {2**64} exceeds the 64-bit frequency range"),
    ):
        with pytest.raises(ConfigError) as info:
            call()
        assert str(info.value) == message
    # a vector length: the operator and the solver read it through as_array
    for call, message in (
        (lambda: _operator().matvec(np.ones(3)),
         "coefficient vector must have shape (13,), got (3,)"),
        (lambda: _operator().adjoint_matvec(np.ones(7)),
         "value vector must have shape (8,), got (7,)"),
        (lambda: lsqr_solve(_operator(), np.ones(7)),
         "value vector must have shape (8,), got (7,)"),
    ):
        with pytest.raises(DataError) as info:
            call()
        assert str(info.value) == message
    # the width of normalization extrema, from a dataset and from a model file
    with pytest.raises(DataError) as info:
        apply_normalization(Dataset(np.zeros((5, 3)), np.zeros(5), ("a", "b", "c")),
                            Normalization(np.zeros(2), np.ones(2)))
    assert str(info.value) == "normalization extrema for 2 columns, not 3"
    with pytest.raises(DataError) as info:
        model_from_obj(_extrema([0, 0, 0], [1, 1, 1]))
    assert str(info.value) == "malformed model object: normalization extrema for 3 columns, not 2"
