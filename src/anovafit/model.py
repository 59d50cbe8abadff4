"""Fitting, evaluating, and interpreting truncated ANOVA expansions.

A fitted :class:`Model` bundles the basis kind, the active term set, the
bandwidths, the frequency enumeration, and one coefficient per frequency.
Because every frequency's support equals exactly one term, the model
decomposes exactly: the sum of the per-term evaluations reproduces the full
prediction, and each term's share of the squared coefficient mass off the
constant is its global sensitivity index.  A term's mass is its variance
only under the measure the basis is orthonormal for: uniform on [0, 1] for
``cos``, the arcsine density ``1 / (pi sqrt(x (1 - x)))`` for ``cheb``,
and for ``per`` only when the fitted function is real (a fit to real
targets has an imaginary part, which ``predict`` drops for a real-output
model).

Interpretation outputs:

* ``variance``  -- squared coefficient mass off the constant.
* ``gsi``       -- per-term shares of that mass (sum to 1).
* ``attribute_ranking`` -- per-variable scores that spread each term's
  share over its variables, down-weighted by how many same-order terms
  contain the variable, normalized to sum to 1.

:func:`fit` solves small regularized systems directly and all others by
LSQR; its docstring gives the rule.

Refinement operates purely on term sets (thresholding, variable removal,
incremental expansion); re-fitting after a refinement step is the caller's
loop, so each step stays auditable.
"""

from __future__ import annotations

import itertools
import json
import warnings
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .basis import BasisKind
from .datasets import Normalization
from .errors import ConfigError, DataError, DegenerateModelError, as_integer, as_real
from .operators import NODE_BLOCK, DesignOperator
from .solver import LsqrResult, SolverConfig, direct_solve, lsqr_solve
from .terms import (
    BandwidthProfile,
    FrequencyIndexUnion,
    Term,
    TermSet,
    build_index_union,
)


# rows * cols**2 up to which a fit may be solved directly (scripts/solver_crossover.py)
DIRECT_SOLVE_MAX_WORK = 10_000_000


@dataclass(frozen=True, eq=False)
class Model:
    """Fitted truncated expansion with its fit diagnostics.

    ``normalization`` holds the extrema that mapped the training data into
    the basis domain; :func:`predict` still takes nodes in that domain.
    """

    kind: BasisKind
    terms: TermSet
    bandwidths: BandwidthProfile
    index_union: FrequencyIndexUnion
    coefficients: np.ndarray
    regularization: float
    iterations: int
    relative_residual: float
    stop_reason: str
    oversampling: float
    real_output: bool = True
    normalization: Normalization | None = None


@dataclass(frozen=True, eq=False)
class SensitivityReport:
    """Variance, per-term sensitivity indices, and (optionally) a ranking.

    ``variance`` is the squared coefficient mass off the constant and each
    index a term's share of it: variance shares under the basis's own
    measure (see the module docstring), not under the data's distribution.
    """

    dimension: int
    variance: float
    indices: tuple[tuple[Term, float], ...]
    ranking: np.ndarray | None = None

    def ranked_above(self, threshold: float) -> tuple[int, ...]:
        """1-based variables whose ranking score exceeds ``threshold`` (in ``[0, 1)``)."""
        if self.ranking is None:
            raise ConfigError("report carries no ranking; compute attribute_ranking first")
        if not 0.0 <= as_real(threshold, "ranking threshold") < 1.0:
            raise ConfigError(f"ranking threshold must lie in [0, 1), got {threshold}")
        return tuple(int(i) + 1 for i in np.flatnonzero(self.ranking > threshold))

    def sorted_indices(self) -> tuple[tuple[Term, float], ...]:
        """Indices by descending share; ties broken by order then lexicographic."""
        return tuple(
            sorted(self.indices, key=lambda item: (-item[1], len(item[0]), item[0]))
        )

    def to_json_obj(self) -> dict:
        return {
            "variance": float(self.variance),
            "gsi": [
                {"term": list(u), "rho": float(value)}
                for u, value in self.sorted_indices()
            ],
            "ranking": None if self.ranking is None else [float(r) for r in self.ranking],
        }


def fit(
    nodes,
    values,
    termset: TermSet,
    bandwidths: BandwidthProfile,
    kind: BasisKind,
    config: SolverConfig | None = None,
) -> Model:
    """Fit expansion coefficients by damped least squares on scattered data.

    The system is solved directly (:func:`~anovafit.solver.direct_solve` on
    ``op.dense()``, reporting 0 iterations and stop reason ``"direct"``) when
    ``regularization > 0``, ``max_iterations`` is None (a cap asks for LSQR's
    truncation), ``rows * cols**2 <= DIRECT_SOLVE_MAX_WORK`` (the measured
    crossover) and ``(||F||_F^2 + lam) / lam * eps <= tolerance`` (so the
    squared condition number costs no accuracy); otherwise by LSQR.
    """
    nodes = np.asarray(nodes, dtype=np.float64)
    values = np.asarray(values)
    if nodes.size == 0 or values.size == 0:
        raise DataError("cannot fit on empty data")
    cfg = config if config is not None else SolverConfig()
    union = build_index_union(termset, bandwidths, kind)
    op = DesignOperator(nodes, union)
    if op.oversampling <= 1.0:
        warnings.warn(
            f"oversampling ratio {op.oversampling:.3f} <= 1: the least-squares "
            "system may be rank-deficient",
            stacklevel=2,
        )
    result: LsqrResult = _solve(op, values, cfg)
    return Model(
        kind=kind,
        terms=termset,
        bandwidths=bandwidths,
        index_union=union,
        coefficients=result.coefficients,
        regularization=cfg.regularization,
        iterations=result.iterations,
        relative_residual=result.relative_residual,
        stop_reason=result.stop_reason,
        oversampling=op.oversampling,
        real_output=not np.iscomplexobj(values),
    )


def _solve(op: DesignOperator, values, cfg: SolverConfig) -> LsqrResult:
    lam = cfg.regularization
    small = op.rows * op.cols**2 <= DIRECT_SOLVE_MAX_WORK
    if lam > 0.0 and cfg.max_iterations is None and small:
        F = op.dense()
        # dense() fills F^T, so F.T is contiguous and vdot reads it without a copy
        if (np.vdot(F.T, F.T).real + lam) / lam * np.finfo(np.float64).eps <= cfg.tolerance:
            return direct_solve(F, values, lam)
    return lsqr_solve(op, values, cfg)


def _evaluate(model: Model, coefficients: np.ndarray, nodes) -> np.ndarray:
    """``DesignOperator(nodes, ...).matvec(coefficients)``, one row block at a time."""
    X = np.asarray(nodes, dtype=np.float64)
    rows = len(X) if X.ndim == 2 else 0
    out = np.empty(rows, dtype=np.float64 if model.real_output else model.kind.dtype)
    # a zero-row or malformed input still builds one operator, which raises
    for start in range(0, max(rows, 1), NODE_BLOCK):
        block = X[start:start + NODE_BLOCK] if rows else X
        values = DesignOperator(block, model.index_union).matvec(coefficients)
        out[start:start + len(values)] = values.real if model.real_output else values
    return out


def predict(model: Model, nodes) -> np.ndarray:
    """Evaluate the fitted expansion at new nodes.

    The nodes are evaluated in blocks of :data:`~anovafit.operators.NODE_BLOCK`
    (4096) rows, each by its own :class:`~anovafit.operators.DesignOperator`,
    so the tables held at once are those of 4096 rows, whatever the row count
    (d=30, N=(6,4): a peak of about 8 MiB).  That is also the node block of
    an operator's applies, so each block's ``matvec`` is one product.  The
    output equals one operator's ``matvec`` over all rows up to BLAS rounding,
    which may differ with a row's position in a product.
    """
    return _evaluate(model, model.coefficients, nodes)


def predict_term(model: Model, term, nodes) -> np.ndarray:
    """Evaluate a single ANOVA term of the fitted expansion at new nodes."""
    sl = model.index_union.slice_for(term)
    coefficients = np.zeros_like(model.coefficients)
    coefficients[sl] = model.coefficients[sl]
    return _evaluate(model, coefficients, nodes)


def variance(model: Model) -> float:
    """Total variance of the expansion: squared coefficient mass off index 0."""
    c = model.coefficients
    return float(np.sum(np.abs(c[1:]) ** 2))


def gsi(model: Model) -> SensitivityReport:
    """Global sensitivity indices: each nonempty term's share of :func:`variance`.

    These are shares of the model's variance for ``cos`` under the uniform
    measure, for ``cheb`` under the arcsine density, and for ``per`` only
    when the fitted function is real.
    """
    sigma2 = variance(model)
    if sigma2 == 0.0:
        raise DegenerateModelError(
            "model variance is zero; sensitivity indices are undefined"
        )
    union = model.index_union
    # each order's block as (T_l, n_l**l): one row per term, in union order
    mass = np.concatenate([
        np.sum(np.abs(model.coefficients[block].reshape(len(factors), -1)) ** 2, axis=1)
        for block, factors in map(union.order_block, union.grids)
    ])
    indices = tuple((term, float(m) / sigma2) for term, m in zip(union.terms[1:], mass))
    return SensitivityReport(model.terms.dimension, sigma2, indices)


def attribute_ranking(report: SensitivityReport) -> np.ndarray:
    """Per-variable importance scores normalized to sum to 1.

    Each term's sensitivity index is credited to each of its variables with
    weight ``1 / #{same-order terms of the report containing that variable}``;
    the scores are then normalized.  Variables absent from every term score 0.
    """
    counts = Counter((len(u), i) for u, _ in report.indices for i in u)
    scores = np.zeros(report.dimension)
    for u, rho in report.indices:
        for i in u:
            scores[i - 1] += rho / counts[(len(u), i)]
    total = scores.sum()
    if total == 0.0:
        raise DegenerateModelError("no sensitivity mass on any variable")
    return scores / total


def analyze(model: Model) -> SensitivityReport:
    """Sensitivity report with the attribute ranking filled in."""
    report = gsi(model)
    return replace(report, ranking=attribute_ranking(report))


def threshold_active_set(
    report: SensitivityReport, termset: TermSet, thresholds
) -> TermSet:
    """Keep the empty term plus every term whose index exceeds its order's threshold.

    ``thresholds`` is one value for every order, or exactly one per order up
    to the term set's highest order (entry 0 applies to order-1 terms), each
    in ``(0, 1)``.  The result is generally not downward closed; absent
    subsets are understood as zero terms.
    """
    top = termset.max_order
    values = tuple(as_real(e, "gsi threshold") for e in np.atleast_1d(thresholds))
    if any(not 0.0 < e < 1.0 for e in values):
        raise ConfigError("gsi thresholds must lie in (0, 1)")
    if np.ndim(thresholds) == 0:
        values *= top
    elif len(values) != top:
        raise ConfigError(f"need one threshold per order up to {top}, got {len(values)}")
    rho = dict(report.indices)
    missing = [u for u in termset.nonempty_terms if u not in rho]
    if missing:
        raise ConfigError(f"term {missing[0]} not present in report")
    kept = [u for u in termset.nonempty_terms if rho[u] > values[len(u) - 1]]
    return TermSet(termset.dimension, tuple(kept), termset.superposition_threshold)


def drop_variables(termset: TermSet, keep) -> TermSet:
    """Restrict to terms whose variables all lie in ``keep``.

    The dimension is unchanged, so the result still applies to the original
    dataset.
    """
    keep = sorted({as_integer(i, "kept variable") for i in keep})
    if not keep:
        raise ConfigError("keep set must be nonempty")
    if keep[0] < 1 or keep[-1] > termset.dimension:
        raise ConfigError(f"keep set {keep} outside 1..{termset.dimension}")
    keep_set = set(keep)
    kept = [u for u in termset.terms if set(u) <= keep_set]
    return TermSet(termset.dimension, tuple(kept), termset.superposition_threshold)


def incremental_expand(
    report: SensitivityReport,
    termset: TermSet,
    ranking_threshold: float,
    expansion_order: int,
) -> TermSet:
    """Add higher-order interactions among the highly ranked variables.

    Variables whose ranking score exceeds ``ranking_threshold`` (in
    ``(0, 1)``) form a pool ``v``; all subsets of ``v`` with order between
    the current superposition threshold (exclusive) and ``expansion_order``
    (inclusive, below the dimension) are added.
    """
    if not 0.0 < as_real(ranking_threshold, "ranking threshold") < 1.0:
        raise ConfigError("ranking threshold must lie in (0, 1)")
    expansion_order = as_integer(expansion_order, "expansion order")
    pool = report.ranked_above(ranking_threshold)
    current = termset.superposition_threshold or termset.max_order
    if not current < expansion_order < termset.dimension:
        raise ConfigError(
            f"expansion order {expansion_order} must lie strictly between the current "
            f"threshold {current} and the dimension {termset.dimension}"
        )
    if not pool:
        warnings.warn(
            "no variable exceeds the ranking threshold; term set unchanged",
            stacklevel=2,
        )
        return termset
    additions = {
        u
        for order in range(current + 1, expansion_order + 1)
        for u in itertools.combinations(pool, order)
    }
    if not additions:
        return termset
    merged = set(termset.terms) | additions
    return TermSet(termset.dimension, tuple(merged), expansion_order)


# --- error metrics -------------------------------------------------------


def _paired(y_true, y_pred) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(y_true)
    b = np.asarray(y_pred)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise DataError(
            f"metric inputs must be equal-length nonempty vectors, "
            f"got {a.shape} and {b.shape}"
        )
    return a, b


def mse(y_true, y_pred) -> float:
    a, b = _paired(y_true, y_pred)
    return float(np.mean(np.abs(a - b) ** 2))


def rmse(y_true, y_pred) -> float:
    return float(np.sqrt(mse(y_true, y_pred)))


def relative_error(y_true, y_pred) -> float:
    """Energy-normalized error ``sqrt(sum |a - b|^2 / sum |a|^2)``."""
    a, b = _paired(y_true, y_pred)
    denom = float(np.sum(np.abs(a) ** 2))
    if denom == 0.0:
        raise DataError("relative error undefined for an all-zero reference")
    return float(np.sqrt(np.sum(np.abs(a - b) ** 2) / denom))


# --- serialization -------------------------------------------------------


def _coeffs_to_obj(coefficients: np.ndarray) -> list:
    if np.iscomplexobj(coefficients):
        return [[float(c.real), float(c.imag)] for c in coefficients]
    return [float(c) for c in coefficients]


def _coeffs_from_obj(obj, kind: BasisKind) -> np.ndarray:
    if kind.is_complex:
        return np.asarray([complex(re, im) for re, im in obj], dtype=np.complex128)
    return np.asarray(obj, dtype=np.float64)


def model_to_obj(model: Model) -> dict:
    obj = {
        "basis": model.kind.token,
        **model.terms.to_json_obj(),
        "bandwidths": model.bandwidths.to_json_obj(),
        "lambda": float(model.regularization),
        "coefficients": _coeffs_to_obj(model.coefficients),
        "real_output": model.real_output,
        "diagnostics": {
            "iterations": model.iterations,
            "relative_residual": float(model.relative_residual),
            "stop_reason": model.stop_reason,
            "oversampling": float(model.oversampling),
        },
    }
    stats = model.normalization
    if stats is not None:
        obj["normalization"] = {
            "feature_min": [float(v) for v in stats.feature_min],
            "feature_max": [float(v) for v in stats.feature_max],
            "target_min": stats.target_min,
            "target_max": stats.target_max,
        }
    return obj


def _normalization_from_obj(block: dict | None, dimension: int) -> Normalization | None:
    if block is None:
        return None
    lo = np.asarray(block["feature_min"], dtype=np.float64)
    hi = np.asarray(block["feature_max"], dtype=np.float64)
    if lo.shape != (dimension,) or hi.shape != (dimension,):
        raise DataError(f"normalization extrema must hold {dimension} values per bound")
    t_lo, t_hi = block.get("target_min"), block.get("target_max")
    if t_lo is not None or t_hi is not None:
        t_lo, t_hi = float(t_lo), float(t_hi)  # a lone bound raises TypeError
    extrema = [(lo, hi)] if t_lo is None else [(lo, hi), (t_lo, t_hi)]
    if not all(np.isfinite([a, b]).all() and np.all(a <= b) for a, b in extrema):
        raise DataError("normalization extrema must be finite, each min at most its max")
    return Normalization(lo, hi, t_lo, t_hi)


def model_from_obj(obj: dict) -> Model:
    try:
        kind = BasisKind.from_token(obj["basis"])
        termset = TermSet.from_json_obj(obj)
        bandwidths = BandwidthProfile.from_json_obj(obj["bandwidths"])
        coefficients = _coeffs_from_obj(obj["coefficients"], kind)
        diagnostics = obj["diagnostics"]
        stats = _normalization_from_obj(obj.get("normalization"), termset.dimension)
        model = Model(
            kind=kind,
            terms=termset,
            bandwidths=bandwidths,
            index_union=build_index_union(termset, bandwidths, kind),
            coefficients=coefficients,
            regularization=float(obj["lambda"]),
            iterations=as_integer(diagnostics["iterations"], "iterations"),
            relative_residual=float(diagnostics["relative_residual"]),
            stop_reason=str(diagnostics["stop_reason"]),
            oversampling=float(diagnostics["oversampling"]),
            real_output=bool(obj["real_output"]),
            normalization=stats,
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed model object: {exc}") from exc
    if not np.all(np.isfinite(model.coefficients)):
        raise DataError("malformed model object: non-finite coefficient")
    if len(model.coefficients) != model.index_union.size:
        raise DataError(
            f"model has {len(model.coefficients)} coefficients but the index "
            f"union holds {model.index_union.size} frequencies"
        )
    return model


def save_model(model: Model, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_obj(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> Model:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DataError(f"{path}: not a JSON file: {exc}") from None
    return model_from_obj(obj)
