"""The one repetition loop, ``median_evaluate``, and the staged recipes.

A recipe is a tuple of :class:`Stage` data that :func:`run_recipe` runs on
a training set: each stage fits the running term set and may shrink it, by
attribute ranking or sensitivity thresholding, for the next stage's refit.
``median_evaluate`` keeps, per successful repetition, the record of named
numbers (the metric under ``"metric"``) that an evaluation recipe returns;
a failed repetition leaves a ``failed_reps`` entry and no record.

``bench_friedman`` runs ``FRIEDMAN_RECIPES[k]`` per seeded repetition and
records the final fit's test error.  Test targets carry observation noise
exactly like the training targets; the noise-free error against the
underlying function is recorded alongside as a diagnostic.

``run_real_benchmark`` runs a :class:`RealPreset`'s recipe on repeated
random splits of a real table, min-max normalized by training extrema.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .basis import BasisKind
from .datasets import (
    Dataset,
    FriedmanSpec,
    SplitPlan,
    apply_normalization,
    friedman_eval,
    friedman_sample,
    normalize,
    rng_stream,
    split,
)
from .errors import ConfigError, DataError, NumericalError, as_real
from .model import (
    Model,
    SensitivityReport,
    analyze,
    drop_variables,
    fit,
    gsi,
    mse,
    predict,
    relative_error,
    rmse,
    threshold_active_set,
)
from .solver import SolverConfig
from .terms import BandwidthProfile, TermSet, superposition_terms

TRAIN_SIZE = 200
TEST_SIZE = 1000

# Published reference medians (and the classical baselines quoted for
# context in benchmark output).
REFERENCE_RESULTS = {
    1: {
        "median_mse": 1.43,
        "baselines": {"svm": 4.36, "lm": 7.71, "mnet": 9.21, "rForst": 6.02},
    },
    2: {
        "median_mse": 17.21e3,
        "baselines": {"svm": 18.13e3, "lm": 36.15e3, "mnet": 19.61e3, "rForst": 21.50e3},
    },
    3: {
        "median_mse": 18.12e-3,
        "baselines": {"svm": 23.15e-3, "lm": 45.42e-3, "mnet": 18.12e-3, "rForst": 22.21e-3},
    },
}

METRICS: dict[str, Callable] = {"mse": mse, "rmse": rmse, "relative": relative_error}

# Errors that count a repetition as failed; a bad setting (ConfigError) or
# anything else propagates out of the loop.
COUNTED_ERRORS = (DataError, NumericalError, FloatingPointError, np.linalg.LinAlgError)


def rep_data(
    source: Dataset | FriedmanSpec, plan: SplitPlan, rep: int
) -> tuple[Dataset, Dataset]:
    """Training and test sets of repetition ``rep`` of ``plan``.

    A synthetic source gives fresh samples from the ``(seed, rep)`` "train"
    and "test" streams; a dataset is partitioned by :func:`split`.
    """
    if isinstance(source, FriedmanSpec):
        if not plan.generated:
            raise ConfigError("fraction splits need a concrete dataset; use M_train:M_test")
        train = friedman_sample(source, plan.train_size, rng_stream(plan.seed, rep, "train"))
        test = friedman_sample(source, plan.test_size, rng_stream(plan.seed, rep, "test"))
        return train, test
    return split(source, plan, rep)


@dataclass(frozen=True)
class EvaluationSummary:
    """The successful repetitions' records, and the failures."""

    records: tuple[dict, ...]
    repetitions: int
    failed_reps: tuple[dict, ...] = ()

    @property
    def failures(self) -> int:
        return len(self.failed_reps)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(r["metric"] for r in self.records)

    def median_of(self, key: str = "metric") -> float:
        return float(np.median([r[key] for r in self.records]))

    median = property(median_of)

    @property
    def q1(self) -> float:
        return float(np.percentile(self.values, 25))

    @property
    def q3(self) -> float:
        return float(np.percentile(self.values, 75))

    def to_json_obj(self) -> dict:
        return {"median": self.median, "q1": self.q1, "q3": self.q3,
                "repetitions": self.repetitions, "failures": self.failures,
                "failed_reps": list(self.failed_reps)}


def median_evaluate(
    recipe: Callable[[Dataset, Dataset], dict], source: Dataset | FriedmanSpec, plan: SplitPlan
) -> EvaluationSummary:
    """Records of ``recipe`` over the repetitions of ``plan``, and the failures.

    Per repetition, ``recipe`` turns the training and test sets of
    :func:`rep_data` into a record of named numbers, the metric under
    ``"metric"``, kept with its ``rep``.  A repetition whose recipe
    raises one of ``COUNTED_ERRORS`` leaves no record but a ``{rep, type,
    message}`` entry in ``failed_reps``; any other exception, and any error
    in deriving the data, propagates.  Only all repetitions failing raises
    :class:`NumericalError`.
    """
    records, failed = [], []
    for rep in range(plan.repetitions):
        train, test = rep_data(source, plan, rep)
        try:
            records.append({**recipe(train, test), "rep": rep})
        except COUNTED_ERRORS as exc:
            failed.append({"rep": rep, "type": type(exc).__name__, "message": str(exc)})
    if not records:
        raise NumericalError(f"all {plan.repetitions} repetitions failed: {failed[0]['message']}")
    return EvaluationSummary(tuple(records), plan.repetitions, tuple(failed))


@dataclass(frozen=True)
class Stage:
    """One fit of a recipe, on the running term set's terms of order <= ``order``.

    ``rank=theta`` then keeps the variables ranked above ``theta``, or every
    variable when none is; ``gsi=eps`` keeps the terms whose sensitivity
    index exceeds ``eps``.  A stage with neither is a final fit.
    """

    order: int
    bandwidths: tuple[int, ...]
    lam: float
    rank: float | None = None
    gsi: float | None = None

    def __post_init__(self):
        if self.rank is not None and self.gsi is not None:
            raise ConfigError("a stage selects by rank or by gsi, not both")
        if self.gsi is not None and not 0.0 < as_real(self.gsi, "gsi cutoff") < 1.0:
            raise ConfigError("gsi cutoff must lie in (0, 1)")


def run_recipe(
    stages, train: Dataset, termset: TermSet | None = None
) -> tuple[Model, tuple[SensitivityReport, ...]]:
    """Last model and selecting stages' reports of ``stages`` run on ``train``.

    ``termset`` defaults to all terms of order <= the first stage's order.
    """
    if not stages:
        raise ConfigError("a recipe needs at least one stage")
    if termset is None:
        termset = superposition_terms(train.dimension, stages[0].order)
    reports = []
    for stage in stages:
        if termset.max_order > stage.order:
            lower = tuple(u for u in termset if len(u) <= stage.order)
            termset = TermSet(termset.dimension, lower, stage.order)
        profile = BandwidthProfile.from_list(stage.bandwidths)
        config = SolverConfig(regularization=stage.lam)
        model = fit(train.nodes, train.targets, termset, profile, BasisKind.COSINE, config)
        if stage.rank is not None:
            reports.append(analyze(model))
            keep = reports[-1].ranked_above(stage.rank)
            termset = drop_variables(termset, keep) if keep else termset
        elif stage.gsi is not None:
            reports.append(gsi(model))
            termset = threshold_active_set(reports[-1], termset, stage.gsi)
    return model, tuple(reports)


FRIEDMAN_RECIPES = {
    1: (Stage(2, (4, 2), 3.0, rank=0.02), Stage(2, (6, 4), 1.0, gsi=0.02),
        Stage(2, (6, 4), 1.0)),
    2: (Stage(2, (4, 2), 0.0, gsi=0.02), Stage(2, (4, 2), 0.0)),
    3: (Stage(3, (10, 2, 2), 2.0, rank=0.03), Stage(2, (12, 2), 2.0)),
}


def friedman_rep_data(
    which: int, rep_index: int, seed: int
) -> tuple[Dataset, Dataset]:
    """Training and test samples for one repetition of the benchmark setting."""
    return rep_data(FriedmanSpec(which), _friedman_plan(1, seed), rep_index)


def _friedman_plan(repetitions: int, seed: int) -> SplitPlan:
    return SplitPlan(
        train_size=TRAIN_SIZE, test_size=TEST_SIZE, repetitions=repetitions, seed=seed
    )


def bench_friedman(which: int, repetitions: int = 100, seed: int = 0) -> dict:
    """Median test MSE of the staged pipeline over seeded repetitions."""
    spec = FriedmanSpec(which)

    def recipe(train: Dataset, test: Dataset) -> dict:
        predictions = predict(run_recipe(FRIEDMAN_RECIPES[spec.which], train)[0], test.nodes)
        return {"metric": mse(test.targets, predictions),
                "mse_vs_truth": mse(friedman_eval(spec, test.nodes), predictions)}

    summary = median_evaluate(recipe, spec, _friedman_plan(repetitions, seed))
    reference = REFERENCE_RESULTS[spec.which]
    return {
        "function": spec.which,
        "repetitions": repetitions,
        "seed": seed,
        "failures": summary.failures,
        "failed_reps": list(summary.failed_reps),
        "median_mse": summary.median,
        "q1_mse": summary.q1,
        "q3_mse": summary.q3,
        "median_mse_vs_truth": summary.median_of("mse_vs_truth"),
        "reference_median_mse": reference["median_mse"],
        "reference_baselines": reference["baselines"],
    }


# --- real-data protocol ----------------------------------------------------


@dataclass(frozen=True)
class RealPreset:
    """A real table's ``recipe`` and the protocol settings that a recipe does not hold."""

    train_fraction: float
    recipe: tuple[Stage, ...] = (Stage(2, (4, 2), 0.0, gsi=0.002), Stage(2, (4, 2), 0.0))
    metric: str = "rmse"
    normalize_targets: bool = False
    keep: tuple[int, ...] | None = None  # optional variable preselection, see drop_variables

    def __post_init__(self):
        if not self.recipe:
            raise ConfigError("a recipe needs at least one stage")
        if self.metric not in METRICS:
            raise ConfigError(f"unknown metric {self.metric!r}; use one of {sorted(METRICS)}")

    def override(self, **values) -> RealPreset:
        """``bench-real``'s override rule: a value that is not None sets ``order``, ``bandwidths``
        or ``lam`` on every stage, ``gsi`` on the stages that select by it, else the preset's."""
        values = {k: v for k, v in values.items() if v is not None}
        stage = {k: values.pop(k) for k in ("order", "bandwidths", "lam", "gsi") if k in values}
        recipe = tuple(
            replace(s, **{k: v for k, v in stage.items() if k != "gsi" or s.gsi is not None})
            for s in self.recipe
        )
        return replace(self, recipe=recipe, **values)


REAL_PRESETS: dict[str, RealPreset] = {
    "enc": RealPreset(0.7, (Stage(2, (4, 2), 0.0, gsi=0.002), Stage(2, (4, 2), 0.0))),
    "enh": RealPreset(0.7, (Stage(2, (4, 2), 0.0, gsi=0.001), Stage(2, (4, 2), 0.0))),
    "asn": RealPreset(0.8, (Stage(2, (4, 2), 0.0, gsi=0.001), Stage(2, (4, 2), 0.0)), "relative"),
    "ch": RealPreset(0.5, (Stage(2, (4, 2), 0.0, gsi=0.001), Stage(2, (4, 2), 0.0)),
                     normalize_targets=True),
    # the published ailerons run additionally pre-selects 11 of 40 variables
    # by a ranking pass; supply that list via ``keep``
    "ailerons": RealPreset(0.5, (Stage(2, (4, 2), 0.0, gsi=0.001), Stage(2, (4, 2), 0.0)),
                           normalize_targets=True),
}


def run_real_benchmark(
    ds: Dataset, preset: RealPreset, repetitions: int = 100, seed: int = 0
) -> dict:
    """Median metric of the split/normalize/``preset.recipe`` protocol."""
    termset = superposition_terms(ds.dimension, preset.recipe[0].order)
    if preset.keep is not None:
        termset = drop_variables(termset, preset.keep)

    def recipe(train_raw: Dataset, test_raw: Dataset) -> dict:
        train = normalize(train_raw, include_target=preset.normalize_targets)
        test = apply_normalization(test_raw, train.normalization)
        model, _ = run_recipe(preset.recipe, train, termset)
        return {"metric": METRICS[preset.metric](test.targets, predict(model, test.nodes)),
                "active_terms": len(model.index_union.terms)}

    plan = SplitPlan(train_fraction=preset.train_fraction, repetitions=repetitions, seed=seed)
    summary = median_evaluate(recipe, ds, plan)
    return {
        **summary.to_json_obj(),
        "metric": preset.metric,
        "seed": seed,
        "median_active_terms": summary.median_of("active_terms"),
    }
