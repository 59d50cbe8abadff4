"""The one repetition loop, ``median_evaluate``, and the benchmark pipelines.

``bench_friedman`` reruns, per seeded repetition, the staged recipe that
produces the published reference results on the three synthetic benchmark
functions: an initial fit on the order-truncated term set, an attribute
ranking or sensitivity thresholding step that shrinks the active set, and a
final fit whose test error is recorded.  Test targets carry observation
noise exactly like the training targets; the noise-free error against the
underlying function is reported alongside as a diagnostic.

``run_real_benchmark`` implements the generic protocol for real tables:
repeated random splits, min-max normalization by training extrema,
sensitivity thresholding at a cutoff, re-fit, and the median test metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import BasisKind
from .datasets import (
    Dataset,
    FriedmanSpec,
    SplitPlan,
    friedman_eval,
    friedman_sample,
    normalize,
    rng_stream,
    split,
)
from .errors import AnovaFitError, ConfigError, NumericalError
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

# Errors that count a repetition as failed; anything else is a bug and
# propagates out of the loop.
COUNTED_ERRORS = (AnovaFitError, FloatingPointError, np.linalg.LinAlgError)


def rep_data(
    source: Dataset | FriedmanSpec, plan: SplitPlan, rep: int
) -> tuple[Dataset, Dataset]:
    """Training and test sets of repetition ``rep`` of ``plan``.

    A synthetic source gives fresh samples from the ``(seed, rep)`` "train"
    and "test" streams; a dataset is partitioned by :func:`split`.
    """
    if isinstance(source, FriedmanSpec):
        if not plan.generated:
            raise ConfigError("synthetic sources need a generated split plan")
        train = friedman_sample(source, plan.train_size, rng_stream(plan.seed, rep, "train"))
        test = friedman_sample(source, plan.test_size, rng_stream(plan.seed, rep, "test"))
        return train, test
    return split(source, plan, rep)


@dataclass(frozen=True)
class EvaluationSummary:
    """Median and quartiles of a metric over repetitions, and the failures."""

    metric: str
    median: float
    q1: float
    q3: float
    repetitions: int
    values: tuple[float, ...]
    failed_reps: tuple[dict, ...] = ()

    @property
    def failures(self) -> int:
        return len(self.failed_reps)

    def to_json_obj(self) -> dict:
        return {
            "metric": self.metric,
            "median": self.median,
            "q1": self.q1,
            "q3": self.q3,
            "repetitions": self.repetitions,
            "failures": self.failures,
            "failed_reps": list(self.failed_reps),
        }


def median_evaluate(
    recipe: Callable[[Dataset, Dataset], float],
    source: Dataset | FriedmanSpec,
    plan: SplitPlan,
    *,
    metric_name: str = "mse",
) -> EvaluationSummary:
    """Median and quartiles of a fit metric over the repetitions of ``plan``.

    Per repetition, ``recipe`` turns the training and test sets of
    :func:`rep_data` into one metric value.  A repetition whose recipe
    raises one of ``COUNTED_ERRORS`` is recorded as ``{rep, type, message}``
    and skipped; any other exception, and any error in deriving the data,
    propagates.  Only all repetitions failing raises :class:`NumericalError`.
    """
    values = []
    failed = []
    for rep in range(plan.repetitions):
        train, test = rep_data(source, plan, rep)
        try:
            values.append(float(recipe(train, test)))
        except COUNTED_ERRORS as exc:
            failed.append({"rep": rep, "type": type(exc).__name__, "message": str(exc)})
    if not values:
        raise NumericalError(f"all {plan.repetitions} repetitions failed: {failed[0]['message']}")
    return EvaluationSummary(
        metric=metric_name,
        median=float(np.median(values)),
        q1=float(np.percentile(values, 25)),
        q3=float(np.percentile(values, 75)),
        repetitions=plan.repetitions,
        values=tuple(values),
        failed_reps=tuple(failed),
    )


def _fit_cosine(train: Dataset, termset: TermSet, bandwidths, lam: float) -> Model:
    return fit(
        train.nodes,
        train.targets,
        termset,
        BandwidthProfile.from_list(bandwidths),
        BasisKind.COSINE,
        SolverConfig(regularization=lam),
    )


def friedman1_ranking_stage(train: Dataset) -> tuple[TermSet, SensitivityReport]:
    """Initial order-2 fit of benchmark function 1 and its attribute ranking."""
    termset = superposition_terms(10, 2)
    report = analyze(_fit_cosine(train, termset, (4, 2), 3.0))
    return termset, report


def friedman2_gsi_stage(train: Dataset) -> tuple[TermSet, SensitivityReport]:
    """Initial order-2 fit of benchmark function 2 and its sensitivity indices."""
    termset = superposition_terms(4, 2)
    report = gsi(_fit_cosine(train, termset, (4, 2), 0.0))
    return termset, report


def friedman3_ranking_stage(train: Dataset) -> tuple[TermSet, SensitivityReport]:
    """Initial order-3 fit of benchmark function 3 and its attribute ranking."""
    termset = superposition_terms(4, 3)
    report = analyze(_fit_cosine(train, termset, (10, 2, 2), 2.0))
    return termset, report


def _ranked_keep(report: SensitivityReport, threshold: float) -> tuple[int, ...]:
    # degenerate ranking: fall back to keeping everything
    return report.ranked_above(threshold) or tuple(range(1, report.dimension + 1))


def _friedman1_final(train: Dataset) -> Model:
    termset, report = friedman1_ranking_stage(train)
    reduced = drop_variables(termset, _ranked_keep(report, 0.02))
    refit = _fit_cosine(train, reduced, (6, 4), 1.0)
    active = threshold_active_set(gsi(refit), reduced, 0.02)
    return _fit_cosine(train, active, (6, 4), 1.0)


def _friedman2_final(train: Dataset) -> Model:
    termset, report = friedman2_gsi_stage(train)
    active = threshold_active_set(report, termset, 0.02)
    return _fit_cosine(train, active, (4, 2), 0.0)


def _friedman3_final(train: Dataset) -> Model:
    _, report = friedman3_ranking_stage(train)
    reduced = drop_variables(superposition_terms(4, 2), _ranked_keep(report, 0.03))
    return _fit_cosine(train, reduced, (12, 2), 2.0)


_FINAL_FITS = {1: _friedman1_final, 2: _friedman2_final, 3: _friedman3_final}


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
    final_fit = _FINAL_FITS[spec.which]
    errors_truth = []

    def recipe(train: Dataset, test: Dataset) -> float:
        predictions = predict(final_fit(train), test.nodes)
        error = mse(test.targets, predictions)
        # appended last, so it holds exactly the repetitions that succeeded
        errors_truth.append(mse(friedman_eval(spec, test.nodes), predictions))
        return error

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
        "median_mse_vs_truth": float(np.median(errors_truth)),
        "reference_median_mse": reference["median_mse"],
        "reference_baselines": reference["baselines"],
    }


# --- real-data protocol ----------------------------------------------------


@dataclass(frozen=True)
class RealBenchConfig:
    """Protocol parameters for one real regression table."""

    train_fraction: float
    superposition_threshold: int = 2
    bandwidths: tuple[int, ...] = (4, 2)
    regularization: float = 0.0
    gsi_cutoff: float = 0.002
    metric: str = "rmse"
    normalize_targets: bool = False
    keep: tuple[int, ...] | None = None  # optional variable preselection

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ConfigError(f"unknown metric {self.metric!r}; use one of {sorted(METRICS)}")
        if not 0.0 < self.gsi_cutoff < 1.0:
            raise ConfigError("gsi cutoff must lie in (0, 1)")


REAL_PRESETS: dict[str, RealBenchConfig] = {
    "enc": RealBenchConfig(train_fraction=0.7, gsi_cutoff=0.002, metric="rmse"),
    "enh": RealBenchConfig(train_fraction=0.7, gsi_cutoff=0.001, metric="rmse"),
    "asn": RealBenchConfig(train_fraction=0.8, gsi_cutoff=0.001, metric="relative"),
    "ch": RealBenchConfig(
        train_fraction=0.5, gsi_cutoff=0.001, metric="rmse", normalize_targets=True
    ),
    # the published ailerons run additionally pre-selects 11 of 40 variables
    # by a ranking pass; supply that list via ``keep``
    "ailerons": RealBenchConfig(
        train_fraction=0.5, gsi_cutoff=0.001, metric="rmse", normalize_targets=True
    ),
}


def run_real_benchmark(
    ds: Dataset, cfg: RealBenchConfig, repetitions: int = 100, seed: int = 0
) -> dict:
    """Median metric of the split/normalize/threshold/refit protocol."""
    termset = superposition_terms(ds.dimension, cfg.superposition_threshold)
    if cfg.keep:
        termset = drop_variables(termset, cfg.keep)
    sizes = []

    def recipe(train_raw: Dataset, test_raw: Dataset) -> float:
        train = normalize(train_raw, include_target=cfg.normalize_targets)
        test = normalize(test_raw, reference=train, include_target=cfg.normalize_targets)
        initial = _fit_cosine(train, termset, cfg.bandwidths, cfg.regularization)
        active = threshold_active_set(gsi(initial), termset, cfg.gsi_cutoff)
        final = _fit_cosine(train, active, cfg.bandwidths, cfg.regularization)
        value = METRICS[cfg.metric](test.targets, predict(final, test.nodes))
        # appended last, so it holds exactly the repetitions that succeeded
        sizes.append(len(active))
        return value

    plan = SplitPlan(
        train_fraction=cfg.train_fraction, repetitions=repetitions, seed=seed
    )
    summary = median_evaluate(recipe, ds, plan, metric_name=cfg.metric)
    return {
        **summary.to_json_obj(),
        "seed": seed,
        "median_active_terms": float(np.median(sizes)),
    }
