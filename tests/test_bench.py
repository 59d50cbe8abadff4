"""The staged recipes: what the Friedman recipes select, and the selection edges."""

import dataclasses

import numpy as np
import pytest

from anovafit import (
    Dataset,
    FriedmanSpec,
    NumericalError,
    SplitPlan,
    TermSet,
    apply_normalization,
    drop_variables,
    friedman_eval,
    friedman_sample,
    mse,
    normalize,
    predict,
    rmse,
    rng_stream,
    superposition_terms,
)
from anovafit import bench
from anovafit.bench import (
    FRIEDMAN_RECIPES,
    REAL_PRESETS,
    Stage,
    bench_friedman,
    friedman_rep_data,
    rep_data,
    run_real_benchmark,
    run_recipe,
)

# the active sets that acceptance criteria 1-3 fit
CRITERION_ACTIVE_SETS = {
    1: TermSet(10, ((1,), (2,), (3,), (4,), (5,), (1, 2)), 2),
    2: TermSet(4, ((2,), (3,), (2, 3)), 2),
    3: drop_variables(superposition_terms(4, 2), (1, 2, 3)),
}


@pytest.mark.parametrize("which", sorted(FRIEDMAN_RECIPES))
def test_friedman_recipe_selects_the_criterion_active_set(which):
    train, _ = friedman_rep_data(which, 0, 0)
    model, reports = run_recipe(FRIEDMAN_RECIPES[which], train)
    assert model.index_union.terms == CRITERION_ACTIVE_SETS[which]
    assert len(reports) == sum(s.rank is not None or s.gsi is not None
                               for s in FRIEDMAN_RECIPES[which])


def test_rank_stage_with_nothing_above_theta_keeps_the_term_set():
    train, _ = friedman_rep_data(1, 0, 0)
    stages = (Stage(2, (4, 2), 3.0, rank=0.99), Stage(2, (4, 2), 3.0))
    model, (report,) = run_recipe(stages, train)
    assert report.ranked_above(0.99) == ()
    assert model.index_union.terms == superposition_terms(10, 2)


@pytest.mark.parametrize("seed", range(4))
def test_ranking_reduces_forty_variables_to_the_informative_five(seed):
    # Friedman-1 (5 informative, 5 inert variables) plus 30 inert columns
    rng = rng_stream(seed, 0, "train")
    base = friedman_sample(FriedmanSpec(1), 1000, rng)
    nodes = np.hstack([base.nodes, rng.uniform(0.0, 1.0, size=(1000, 30))])
    train = Dataset(nodes, base.targets, tuple(f"x{i}" for i in range(1, 41)))
    stages = (Stage(2, (4, 2), 3.0, rank=0.02), Stage(2, (6, 4), 1.0))
    model, _ = run_recipe(stages, train)
    assert tuple(sorted({i for u in model.index_union.terms for i in u})) == (1, 2, 3, 4, 5)


def test_higher_order_terms_are_dropped_before_a_lower_order_stage():
    train, _ = friedman_rep_data(3, 0, 0)
    model, _ = run_recipe((Stage(3, (4, 2, 2), 1.0), Stage(2, (4, 2), 1.0)), train)
    assert model.index_union.terms == superposition_terms(4, 2)


def test_real_protocol_fits_only_the_kept_variables(monkeypatch):
    fitted = []

    def recording_recipe(stages, train, termset=None):
        fitted.append(termset)
        return run_recipe(stages, train, termset)

    monkeypatch.setattr(bench, "run_recipe", recording_recipe)
    table = friedman_sample(FriedmanSpec(1), 200, 5)
    config = dataclasses.replace(REAL_PRESETS["enc"], keep=(1, 2, 4))
    result = run_real_benchmark(table, config, repetitions=3, seed=0)
    assert result["repetitions"] == 3 and result["failures"] == 0
    assert len(fitted) == 3
    assert all(termset == drop_variables(superposition_terms(10, 2), (1, 2, 4))
               for termset in fitted)
    assert result["median_active_terms"] <= 7


def _fail_second_call(monkeypatch):
    """Make ``bench.run_recipe`` raise a counted error on its second call, repetition 1."""
    calls = []

    def failing_recipe(stages, train, termset=None):
        calls.append(train)
        if len(calls) == 2:
            raise NumericalError("injected")
        return run_recipe(stages, train, termset)

    monkeypatch.setattr(bench, "run_recipe", failing_recipe)


def test_friedman_records_are_the_successful_repetitions(monkeypatch):
    _fail_second_call(monkeypatch)
    # seed 1: rep 0 is not the median of reps 0, 2 and 3, so a record kept
    # for the failed or a shifted repetition moves it
    result = bench_friedman(2, repetitions=4, seed=1)
    assert result["failures"] == 1
    assert result["failed_reps"] == [{"rep": 1, "type": "NumericalError", "message": "injected"}]
    errors, truth = [], []
    for rep in (0, 2, 3):
        train, test = friedman_rep_data(2, rep, 1)
        predictions = predict(run_recipe(FRIEDMAN_RECIPES[2], train)[0], test.nodes)
        errors.append(mse(test.targets, predictions))
        truth.append(mse(friedman_eval(FriedmanSpec(2), test.nodes), predictions))
    assert result["median_mse"] == np.median(errors)
    assert result["median_mse_vs_truth"] == np.median(truth)


def test_real_records_are_the_successful_repetitions(monkeypatch):
    _fail_second_call(monkeypatch)
    table = friedman_sample(FriedmanSpec(1), 200, 5)
    preset = REAL_PRESETS["enc"]
    # seed 3: the active-term counts of reps 0-3 are 33, 29, 25 and 32, so a
    # count kept for the failed or a shifted repetition moves their median
    result = run_real_benchmark(table, preset, repetitions=4, seed=3)
    assert result["failures"] == 1
    assert result["failed_reps"] == [{"rep": 1, "type": "NumericalError", "message": "injected"}]
    plan = SplitPlan(train_fraction=preset.train_fraction, repetitions=4, seed=3)
    errors, sizes = [], []
    for rep in (0, 2, 3):
        train_raw, test_raw = rep_data(table, plan, rep)
        train = normalize(train_raw)
        test = apply_normalization(test_raw, train.normalization)
        model, _ = run_recipe(preset.recipe, train, superposition_terms(10, 2))
        errors.append(rmse(test.targets, predict(model, test.nodes)))
        sizes.append(len(model.index_union.terms))
    assert result["median"] == np.median(errors)
    assert result["median_active_terms"] == np.median(sizes) == 32
