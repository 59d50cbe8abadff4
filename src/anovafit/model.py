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
from .errors import (ConfigError, DataError, DegenerateModelError, as_array, as_integer,
                     as_real, check_memory)
from .operators import NODE_BLOCK, DesignOperator
from .solver import LsqrResult, SolverConfig, direct_solve, lsqr_solve
from .terms import (
    BandwidthProfile,
    FrequencyIndexUnion,
    Term,
    TermSet,
    build_index_union,
    check_subsets,
    write_json,
)


# rows * cols**2 up to which a fit may be solved directly (scripts/solver_crossover.py)
DIRECT_SOLVE_MAX_WORK = 10_000_000
# largest (||F||_F^2 + lam) / lam * eps, a bound on the accuracy that the normal
# equations' squared condition number costs, at which a fit may be solved directly
DIRECT_SOLVE_MAX_ERROR = 1e-8


@dataclass(frozen=True, eq=False)
class Model:
    """Fitted truncated expansion with its fit diagnostics.

    ``normalization`` holds the extrema that mapped the training data into
    the basis domain, its targets too exactly when it holds target extrema;
    :func:`predict` still takes nodes in that domain.
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
        ranking = as_array(self.ranking, "ranking")
        return tuple(int(i) + 1 for i in np.flatnonzero(ranking > threshold))

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

    The solve takes one of three paths:

    1. above the size rule ``rows * cols**2 <= DIRECT_SOLVE_MAX_WORK`` (the
       measured crossover), LSQR on the structured operator;
    2. otherwise, when ``regularization > 0`` and ``(||F||_F^2 + lam) / lam *
       eps <= DIRECT_SOLVE_MAX_ERROR`` (so the squared condition number costs
       no accuracy), :func:`~anovafit.solver.direct_solve` on the dense
       matrix, reporting 0 iterations and stop reason ``"direct"``;
    3. otherwise LSQR on the operator switched to that dense matrix (one GEMV
       each way, so its coefficients can differ in the last bits from LSQR's
       on the structured applies).

    ``tolerance`` and ``max_iterations`` steer LSQR alone.
    """
    cfg = config if config is not None else SolverConfig()
    union = build_index_union(termset, bandwidths, kind)
    op = DesignOperator(nodes, union)
    result: LsqrResult = _solve(op, values, cfg)
    if op.oversampling <= 1.0:
        warnings.warn(
            f"oversampling ratio {op.oversampling:.3f} <= 1: the least-squares "
            "system may be rank-deficient",
            stacklevel=2,
        )
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
    """The three paths of :func:`fit`, in order."""
    lam = cfg.regularization
    if op.rows * op.cols**2 > DIRECT_SOLVE_MAX_WORK:
        return lsqr_solve(op, values, cfg)
    F = op._apply_dense()
    # dense() fills F^T, so F.T is contiguous and vdot reads it without a copy
    eps = np.finfo(np.float64).eps
    if lam > 0.0 and (np.vdot(F.T, F.T).real + lam) / lam * eps <= DIRECT_SOLVE_MAX_ERROR:
        return direct_solve(F, values, lam)
    return lsqr_solve(op, values, cfg)


def _evaluate(model: Model, coefficients: np.ndarray, nodes) -> np.ndarray:
    """``DesignOperator(nodes, ...).matvec(coefficients)``, one row block at a time."""
    X = as_array(nodes, "node coordinate")
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
    # each order's block as (T_l, n_l**l): one row per term, in union order
    mass = np.concatenate([
        np.sum(np.abs(model.coefficients[o.block].reshape(len(o.factors), -1)) ** 2, axis=1)
        for o in model.index_union.layout.values()
    ])
    indices = tuple((u, float(m) / sigma2) for u, m in zip(model.index_union.terms[1:], mass))
    return SensitivityReport(model.terms.dimension, sigma2, indices)


def attribute_ranking(report: SensitivityReport) -> np.ndarray:
    """Per-variable importance scores normalized to sum to 1.

    Each term's sensitivity index is credited to each of its variables with
    weight ``1 / #{same-order terms of the report containing that variable}``;
    the scores are then normalized.  Variables absent from every term score 0.
    The scores pass :func:`~anovafit.errors.check_memory` as a
    :class:`~anovafit.errors.DataError` before they are allocated.
    """
    check_memory(report.dimension * np.dtype(np.float64).itemsize,
                 f"a ranking of {report.dimension} variables", DataError)
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
    """Restrict to terms whose variables all lie in ``keep``, nonempty integers within ``1..d``.

    The dimension is unchanged, so the result still applies to the original
    dataset.
    """
    keep, d = tuple(keep), termset.dimension
    if not keep or not all(not isinstance(i, bool) and hasattr(type(i), "__index__")
                           and 1 <= i <= d for i in keep):
        raise ConfigError(f"keep set must be nonempty integers within 1..{d}, got {keep}")
    keep_set = set(map(int, keep))
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
    ``[0, 1)``, see :meth:`SensitivityReport.ranked_above`) form a pool
    ``v``; all subsets of ``v`` with order between the current superposition
    threshold (exclusive) and ``expansion_order`` (inclusive, below the
    dimension) are added, after :func:`~anovafit.terms.check_subsets`.
    """
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
    check_subsets(len(pool), range(current + 1, expansion_order + 1), "an expansion")
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
    a = as_array(y_true, "reference values", real=False)
    b = as_array(y_pred, "predicted values", real=False)
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
    c = as_array(obj, "coefficients")
    if kind.is_complex:
        return np.asarray([complex(re, im) for re, im in c], dtype=np.complex128)
    return c


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
    if model.normalization is not None:
        obj["normalization"] = model.normalization.to_json_obj()
    return obj


def model_from_obj(obj: dict) -> Model:
    try:
        kind = BasisKind.from_token(obj["basis"])
        termset = TermSet.from_json_obj(obj)
        bandwidths = BandwidthProfile.from_json_obj(obj["bandwidths"])
        coefficients = _coeffs_from_obj(obj["coefficients"], kind)
        union = build_index_union(termset, bandwidths, kind)
        if coefficients.shape != (union.size,):
            raise DataError(
                f"model has coefficients of shape {coefficients.shape} but the index "
                f"union holds {union.size} frequencies"
            )
        diagnostics = obj["diagnostics"]
        real_output = obj["real_output"]
        if not isinstance(real_output, bool):
            raise DataError(f"real_output must be true or false, got {real_output!r}")
        block = obj.get("normalization")
        stats = None if block is None else Normalization.from_json_obj(block)
        if stats is not None:
            stats.check_width(termset.dimension)
        model = Model(
            kind=kind,
            terms=termset,
            bandwidths=bandwidths,
            index_union=union,
            coefficients=coefficients,
            regularization=SolverConfig(regularization=obj["lambda"]).regularization,
            iterations=as_integer(diagnostics["iterations"], "iterations"),
            relative_residual=as_real(diagnostics["relative_residual"], "relative_residual"),
            stop_reason=str(diagnostics["stop_reason"]),
            oversampling=as_real(diagnostics["oversampling"], "oversampling"),
            real_output=real_output,
            normalization=stats,
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed model object: {exc}") from exc
    if not np.all(np.isfinite(model.coefficients)):
        raise DataError("malformed model object: non-finite coefficient")
    return model


def save_model(model: Model, path) -> None:
    write_json(model_to_obj(model), path)


def load_model(path) -> Model:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (RecursionError, ValueError) as exc:  # bad JSON, a too-long integer, deep nesting
            raise DataError(f"{path}: not a JSON file: {exc}") from None
    return model_from_obj(obj)
