#!/usr/bin/env python3
"""Print fingerprints of the numerical outputs, to show a refactor is bitwise neutral.

Each output line is ``name value``: a sha256 of the raw bytes of an output
array, a ``float.hex`` of a scalar, or an exact count.  The script covers

* ``matvec``, ``adjoint_matvec`` and ``dense()`` of seeded random design
  operators (term orders 1-3, orders skipped, all three bases), hashed
  apart for instances of highest order <= 2 and of order 3;
* the ``bench_friedman(k, 100, 0)`` medians for k = 1, 2, 3;
* a d=30 cosine fit (4066 columns, 4000 rows, lam=1) on the LSQR path,
  with its ``predict`` (2000 rows, and 3 * 4096 + 5 rows, which ``predict``
  evaluates in several row blocks) and ``analyze`` output;
* refinement of that fit's term set from its report: the terms kept by
  ``threshold_active_set`` at ``(t, t)`` for t = 1e-3, 1e-2, the variables
  ranked above theta = 0.02, 0.05 with the size of ``drop_variables`` on
  each, and the terms of ``incremental_expand(..., 0.05, 3)``;
* ``run_real_benchmark`` (10 repetitions, seed 0) on a seeded 400-row
  Friedman-1 table: median, quartiles and median active-term count for the
  ``enc`` and ``ch`` presets, ``asn`` restricted by ``keep=(1, ..., 5)``,
  and ``enc`` at superposition threshold 3 with bandwidths (4, 2, 2).

The script imports ``anovafit`` from the ``src/`` directory of its own
checkout.  To check a change, run it in the parent's checkout and in the
change's, on the same machine, and diff the two outputs:

    python3 scripts/fingerprint_outputs.py > after.txt
    diff before.txt after.txt

BLAS results depend on the thread count, so both runs need the same
thread count (for example ``OPENBLAS_NUM_THREADS=1`` on both sides).
A run takes a few seconds on two cores.
"""

import hashlib
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from anovafit import (  # noqa: E402
    BandwidthProfile,
    BasisKind,
    DesignOperator,
    FriedmanSpec,
    SolverConfig,
    TermSet,
    analyze,
    build_index_union,
    drop_variables,
    fit,
    friedman_sample,
    incremental_expand,
    predict,
    superposition_terms,
    threshold_active_set,
)
from anovafit.bench import REAL_PRESETS, bench_friedman, run_real_benchmark  # noqa: E402

INSTANCES_PER_BASIS = 46
MAX_COLUMNS = 400


def sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def random_operator(rng: np.random.Generator, kind: BasisKind) -> DesignOperator:
    """Operator on a random term set: d <= 7, orders 1-3, each order possibly absent."""
    while True:
        d = int(rng.integers(1, 8))
        max_order = min(int(rng.integers(1, 4)), d)
        full = superposition_terms(d, max_order).nonempty_terms
        keep = rng.random() * 0.8 + 0.1
        terms = tuple(u for u in full if rng.random() < keep)
        bandwidths = BandwidthProfile.from_list(
            [int(rng.choice([2, 4, 6])) for _ in range(max_order)]
        )
        union = build_index_union(TermSet(d, terms), bandwidths, kind)
        if union.size <= MAX_COLUMNS:
            break
    lo, hi = kind.domain
    rows = int(rng.integers(1, 60))
    return DesignOperator(rng.uniform(lo, hi, size=(rows, d)), union)


def operator_lines() -> list[str]:
    """Hashes per basis, split by the instance's highest term order (<= 2 or 3).

    Only order-3 terms take the per-term path of ``matvec`` and
    ``adjoint_matvec``, so a change to that path shows on the ``order3`` lines
    alone.
    """
    lines = []
    for kind in (BasisKind.EXPONENTIAL, BasisKind.COSINE, BasisKind.CHEBYSHEV):
        rng = np.random.default_rng(20101019)
        outputs = {group: ([], [], []) for group in ("order12", "order3")}
        for _ in range(INSTANCES_PER_BASIS):
            op = random_operator(rng, kind)
            c = rng.standard_normal(op.cols)
            r = rng.standard_normal(op.rows)
            if kind.is_complex:
                c = c + 1j * rng.standard_normal(op.cols)
                r = r + 1j * rng.standard_normal(op.rows)
            top = max(len(term) for term in op.index_union.terms)
            matvecs, adjoints, denses = outputs["order3" if top >= 3 else "order12"]
            matvecs.append(op.matvec(c))
            adjoints.append(op.adjoint_matvec(r))
            denses.append(op.dense())
        for group, (matvecs, adjoints, denses) in outputs.items():
            name = f"operator.{kind.value}.{group}"
            lines.append(f"{name}.matvec {sha(*matvecs)}")
            lines.append(f"{name}.adjoint {sha(*adjoints)}")
            lines.append(f"{name}.dense {sha(*denses)}")
    return lines


def friedman_lines() -> list[str]:
    return [
        f"bench_friedman.f{k}.median_mse {bench_friedman(k, 100, 0)['median_mse'].hex()}"
        for k in (1, 2, 3)
    ]


def terms_line(name: str, termset: TermSet) -> str:
    text = repr(termset.terms).encode()
    return f"{name} {len(termset)} {hashlib.sha256(text).hexdigest()}"


def refine_lines(report, termset: TermSet) -> list[str]:
    """Refinement steps on the d=30 report.

    Written with the per-order tuple and the explicit ranking selection, so
    the script runs unchanged against older checkouts.
    """
    lines = [
        terms_line(f"refine.d30.threshold.{t:g}", threshold_active_set(report, termset, (t, t)))
        for t in (1e-3, 1e-2)
    ]
    for theta in (0.02, 0.05):
        keep = [i for i in range(1, termset.dimension + 1) if report.ranking[i - 1] > theta]
        lines.append(
            f"refine.d30.ranked.{theta:g} {','.join(map(str, keep))} "
            f"terms={len(drop_variables(termset, keep))}"
        )
    lines.append(terms_line("refine.d30.expand", incremental_expand(report, termset, 0.05, 3)))
    return lines


def wide_fit_lines() -> list[str]:
    rng = np.random.default_rng(30)
    d, rows = 30, 4000
    x = rng.random((rows, d))
    y = (
        10.0 * np.sin(np.pi * x[:, 0] * x[:, 1])
        + 20.0 * (x[:, 2] - 0.5) ** 2
        + 10.0 * x[:, 3]
        + 5.0 * x[:, 4]
        + rng.standard_normal(rows)
    )
    termset = superposition_terms(d, 2)
    with warnings.catch_warnings():
        # 4000 rows for 4066 columns: the regularization makes up for it
        warnings.simplefilter("ignore", UserWarning)
        model = fit(
            x, y, termset, BandwidthProfile.from_list([6, 4]),
            BasisKind.COSINE, SolverConfig(regularization=1.0),
        )
    report = analyze(model)
    rho = np.array([value for _, value in report.indices])
    return [
        f"fit.d30.columns {model.coefficients.size}",
        f"fit.d30.stop {model.stop_reason}:{model.iterations}",
        f"fit.d30.coefficients {sha(model.coefficients)}",
        f"fit.d30.relative_residual {model.relative_residual.hex()}",
        f"fit.d30.predict {sha(predict(model, rng.random((2000, d))))}",
        f"fit.d30.analyze {sha(np.array([report.variance]), rho, report.ranking)}",
        f"fit.d30.predict_blocks {sha(predict(model, rng.random((3 * 4096 + 5, d))))}",
    ] + refine_lines(report, termset)


def real_lines() -> list[str]:
    table = friedman_sample(FriedmanSpec(1), 400, 11)
    configs = {
        "enc": REAL_PRESETS["enc"],
        "ch": REAL_PRESETS["ch"],
        "asn_keep5": replace(REAL_PRESETS["asn"], keep=(1, 2, 3, 4, 5)),
        "enc_ds3": replace(REAL_PRESETS["enc"], superposition_threshold=3, bandwidths=(4, 2, 2)),
    }
    lines = []
    for name, cfg in configs.items():
        result = run_real_benchmark(table, cfg, repetitions=10, seed=0)
        lines += [
            f"real.{name}.{key} {float(result[key]).hex()}"
            for key in ("median", "q1", "q3", "median_active_terms")
        ]
    return lines


def main() -> int:
    for line in operator_lines() + friedman_lines() + wide_fit_lines() + real_lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
