"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

The synthetic benchmark criteria follow the published protocol: 200 noisy
training points, 1000 test points whose targets carry the same observation
noise, and the median test MSE over 100 seeded repetitions.  Reference
medians and acceptance bands are fixed here, not tuned at run time.
"""

import csv
import os
import time
from pathlib import Path

import numpy as np
import pytest

from anovafit import (
    BandwidthProfile,
    BasisKind,
    SolverConfig,
    TermSet,
    analyze,
    dense_design_matrix,
    drop_variables,
    fit,
    gsi,
    lsqr_solve,
    mse,
    predict,
    predict_term,
    superposition_terms,
    threshold_active_set,
)
from anovafit.bench import (
    FRIEDMAN_RECIPES,
    REAL_PRESETS,
    TEST_SIZE,
    TRAIN_SIZE,
    friedman_rep_data,
    run_real_benchmark,
    run_recipe,
)
from anovafit import FriedmanSpec, SplitPlan, load_csv, median_evaluate

from conftest import orthonormality_defect, random_instance

REPS = 100
SEED = 2026


def check(number: int, description: str, ok: bool, detail: str) -> None:
    line = f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {description}: {detail}"
    print(line)
    assert ok, line


def _median_final_mse(which: int, termset: TermSet, bandwidths, lam: float) -> float:
    profile = BandwidthProfile.from_list(bandwidths)
    config = SolverConfig(regularization=lam)

    def recipe(train, test):
        model = fit(train.nodes, train.targets, termset, profile,
                    BasisKind.COSINE, config)
        return {"metric": mse(test.targets, predict(model, test.nodes))}

    plan = SplitPlan(train_size=TRAIN_SIZE, test_size=TEST_SIZE,
                     repetitions=REPS, seed=SEED)
    summary = median_evaluate(recipe, FriedmanSpec(which), plan)
    assert summary.failures == 0
    return summary.median


def test_criterion_1_friedman1_reproduction():
    start = time.time()
    active = TermSet(10, ((1,), (2,), (3,), (4,), (5,), (1, 2)), 2)
    median = _median_final_mse(1, active, (6, 4), 1.0)
    elapsed = time.time() - start
    ok = 1.1 <= median <= 1.9 and elapsed < 120.0
    check(
        1,
        "friedman-1 median MSE in [1.1, 1.9] within 2 minutes",
        ok,
        f"median={median:.4f} (reference 1.43), elapsed={elapsed:.1f}s",
    )


def test_criterion_2_friedman2_reproduction():
    active = TermSet(4, ((2,), (3,), (2, 3)), 2)
    median = _median_final_mse(2, active, (4, 2), 0.0)
    ok = 14e3 <= median <= 21e3
    check(
        2,
        "friedman-2 median MSE in [14e3, 21e3]",
        ok,
        f"median={median:.1f} (reference 17210)",
    )


def test_criterion_3_friedman3_reproduction():
    active = drop_variables(superposition_terms(4, 2), (1, 2, 3))
    median = _median_final_mse(3, active, (12, 2), 2.0)
    ok = 15e-3 <= median <= 24e-3
    check(
        3,
        "friedman-3 median MSE in [15e-3, 24e-3]",
        ok,
        f"median={median:.5f} (reference 0.01812)",
    )


def test_criterion_4_attribute_ranking_discrimination():
    hits = 0
    for rep in range(REPS):
        train, _ = friedman_rep_data(1, rep, SEED)
        _, (report,) = run_recipe(FRIEDMAN_RECIPES[1][:1], train)
        ranking = report.ranking
        if min(ranking[:5]) > max(ranking[5:]):
            hits += 1
    ok = hits >= 95
    check(
        4,
        "friedman-1 informative variables outrank the inert ones in >= 95/100 runs",
        ok,
        f"separated in {hits}/100 repetitions",
    )


def test_criterion_5_gsi_active_set_recovery():
    expected = ((), (2,), (3,), (2, 3))
    hits = 0
    for rep in range(REPS):
        train, _ = friedman_rep_data(2, rep, SEED)
        model, (report,) = run_recipe(FRIEDMAN_RECIPES[2][:1], train)
        active = threshold_active_set(report, model.index_union.terms, (0.02, 0.02))
        if active.terms == expected:
            hits += 1
    ok = hits >= 95
    check(
        5,
        "friedman-2 thresholding at 0.02 recovers {{},{2},{3},{2,3}} in >= 95/100 runs",
        ok,
        f"recovered in {hits}/100 repetitions",
    )


def test_criterion_6_solver_matches_dense_oracle():
    rng = np.random.default_rng(SEED)
    kinds = [BasisKind.COSINE, BasisKind.EXPONENTIAL, BasisKind.CHEBYSHEV]
    lams = [0.0, 0.1, 1.0]
    worst = 0.0
    for i in range(50):
        op = random_instance(rng, kinds[i % 3])
        lam = lams[i % 3]
        y = rng.standard_normal(op.rows)
        got = lsqr_solve(op, y, SolverConfig(regularization=lam, tolerance=1e-13))
        dense = dense_design_matrix(op.nodes, op.index_union)
        gram = dense.conj().T @ dense + lam * np.eye(op.cols)
        want = np.linalg.solve(gram, dense.conj().T @ y.astype(gram.dtype))
        rel = float(np.linalg.norm(got.coefficients - want) / np.linalg.norm(want))
        worst = max(worst, rel)
    ok = worst < 1e-8
    check(
        6,
        "LSQR matches the dense normal-equations oracle on 50 instances",
        ok,
        f"worst relative error {worst:.2e} (tolerance 1e-8)",
    )


def test_criterion_7_operator_matches_dense_matrix():
    rng = np.random.default_rng(SEED + 1)
    kinds = [BasisKind.COSINE, BasisKind.EXPONENTIAL, BasisKind.CHEBYSHEV]
    worst_apply = 0.0
    worst_adjoint_identity = 0.0
    for i in range(50):
        kind = kinds[i % 3]
        op = random_instance(rng, kind)
        dense = dense_design_matrix(op.nodes, op.index_union)
        coeffs = rng.standard_normal(op.cols)
        values = rng.standard_normal(op.rows)
        if kind.is_complex:
            coeffs = coeffs + 1j * rng.standard_normal(op.cols)
            values = values + 1j * rng.standard_normal(op.rows)
        forward = op.matvec(coeffs)
        backward = op.adjoint_matvec(values)
        scale_f = max(float(np.max(np.abs(dense @ coeffs))), 1.0)
        scale_b = max(float(np.max(np.abs(dense.conj().T @ values))), 1.0)
        worst_apply = max(
            worst_apply,
            float(np.max(np.abs(forward - dense @ coeffs))) / scale_f,
            float(np.max(np.abs(backward - dense.conj().T @ values))) / scale_b,
        )
        lhs = np.vdot(values, forward)
        rhs = np.vdot(backward, coeffs)
        worst_adjoint_identity = max(
            worst_adjoint_identity, abs(lhs - rhs) / max(abs(lhs), 1e-30)
        )
    ok = worst_apply < 1e-12 and worst_adjoint_identity < 1e-10
    check(
        7,
        "operator applications match the dense matrix on 50 instances",
        ok,
        f"worst apply error {worst_apply:.2e} (tol 1e-12), "
        f"worst adjoint-identity error {worst_adjoint_identity:.2e} (tol 1e-10)",
    )


def test_criterion_8_basis_orthonormality():
    defects = {
        kind.token: orthonormality_defect(kind, kmax=8)
        for kind in (BasisKind.EXPONENTIAL, BasisKind.COSINE, BasisKind.CHEBYSHEV)
    }
    worst = max(defects.values())
    ok = worst < 1e-8
    check(
        8,
        "quadrature orthonormality of all three systems up to |k| = 8",
        ok,
        ", ".join(f"{token}: {value:.2e}" for token, value in defects.items())
        + " (tolerance 1e-8)",
    )


def test_criterion_9_interpretation_invariants():
    rng = np.random.default_rng(SEED + 2)
    worst_gsi = 0.0
    worst_rank = 0.0
    worst_decomp = 0.0
    for i in range(25):
        kind = (BasisKind.COSINE, BasisKind.EXPONENTIAL)[i % 2]
        dimension = int(rng.integers(2, 6))
        order = int(rng.integers(1, min(dimension, 2) + 1))
        termset = superposition_terms(dimension, order)
        bandwidths = BandwidthProfile.from_list([4, 2][: order])
        lo, hi = kind.domain
        nodes = rng.uniform(lo, hi, size=(120, dimension))
        values = rng.standard_normal(120)
        model = fit(nodes, values, termset, bandwidths, kind,
                    SolverConfig(regularization=0.01))
        report = analyze(model)
        worst_gsi = max(worst_gsi, abs(sum(v for _, v in report.indices) - 1.0))
        worst_rank = max(worst_rank, abs(report.ranking.sum() - 1.0))
        probe = rng.uniform(lo, hi, size=(30, dimension))
        total = sum(predict_term(model, u, probe) for u in termset)
        full = predict(model, probe)
        scale = max(float(np.max(np.abs(full))), 1.0)
        worst_decomp = max(
            worst_decomp, float(np.max(np.abs(total - full))) / scale
        )
    ok = worst_gsi < 1e-10 and worst_rank < 1e-10 and worst_decomp < 1e-12
    check(
        9,
        "GSI and ranking sum to 1, term decomposition reproduces predictions",
        ok,
        f"gsi {worst_gsi:.2e} (tol 1e-10), ranking {worst_rank:.2e} (tol 1e-10), "
        f"decomposition {worst_decomp:.2e} (tol 1e-12)",
    )


def _real_dataset_path(name: str) -> Path | None:
    data_dir = os.environ.get("ANOVA_DATA_DIR")
    if not data_dir:
        return None
    path = Path(data_dir) / f"{name}.csv"
    return path if path.exists() else None


@pytest.mark.parametrize(
    "name,bound,bound_kind",
    [("asn", 0.025, "relative error"), ("enc", 1.8, "RMSE")],
)
def test_criterion_10_real_data_optional(name, bound, bound_kind):
    path = _real_dataset_path(name)
    if path is None:
        pytest.skip(
            f"optional criterion: supply {name}.csv under ANOVA_DATA_DIR to enable"
        )
    with open(path, encoding="utf-8", newline="") as fh:
        target = next(csv.reader(fh))[-1].strip()
    ds = load_csv(path, target)
    result = run_real_benchmark(ds, REAL_PRESETS[name], repetitions=100, seed=SEED)
    ok = result["median"] <= bound
    check(
        10,
        f"{name} median {bound_kind} within published bound",
        ok,
        f"median={result['median']:.4f} (bound {bound})",
    )
