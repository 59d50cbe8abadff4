"""The staged recipes: what the Friedman recipes select, and the selection edges."""

import dataclasses

import numpy as np
import pytest

from anovafit import (
    Dataset,
    FriedmanSpec,
    TermSet,
    drop_variables,
    friedman_sample,
    rng_stream,
    superposition_terms,
)
from anovafit import bench
from anovafit.bench import (
    FRIEDMAN_RECIPES,
    REAL_PRESETS,
    Stage,
    friedman_rep_data,
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
