#!/usr/bin/env python3
"""Print fingerprints of the numerical outputs, to show a refactor is bitwise neutral.

Each output line is ``name value``: a sha256 of the raw bytes of an output
array, a ``float.hex`` of a scalar, or an exact count.  The script covers

* ``matvec``, ``adjoint_matvec`` and ``dense()`` of seeded random design
  operators (term orders 1-3, orders skipped, all three bases);
* the ``bench_friedman(k, 100, 0)`` medians for k = 1, 2, 3;
* a d=30 cosine fit (4066 columns, 4000 rows, lam=1) on the LSQR path,
  with its ``predict`` and ``analyze`` output.

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
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from anovafit import (  # noqa: E402
    BandwidthProfile,
    BasisKind,
    DesignOperator,
    SolverConfig,
    TermSet,
    analyze,
    build_index_union,
    fit,
    predict,
    superposition_terms,
)
from anovafit.bench import bench_friedman  # noqa: E402

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
    lines = []
    for kind in (BasisKind.EXPONENTIAL, BasisKind.COSINE, BasisKind.CHEBYSHEV):
        rng = np.random.default_rng(20101019)
        matvecs, adjoints, denses = [], [], []
        for _ in range(INSTANCES_PER_BASIS):
            op = random_operator(rng, kind)
            c = rng.standard_normal(op.cols)
            r = rng.standard_normal(op.rows)
            if kind.is_complex:
                c = c + 1j * rng.standard_normal(op.cols)
                r = r + 1j * rng.standard_normal(op.rows)
            matvecs.append(op.matvec(c))
            adjoints.append(op.adjoint_matvec(r))
            denses.append(op.dense())
        token = kind.value
        lines.append(f"operator.{token}.matvec {sha(*matvecs)}")
        lines.append(f"operator.{token}.adjoint {sha(*adjoints)}")
        lines.append(f"operator.{token}.dense {sha(*denses)}")
    return lines


def friedman_lines() -> list[str]:
    return [
        f"bench_friedman.f{k}.median_mse {bench_friedman(k, 100, 0)['median_mse'].hex()}"
        for k in (1, 2, 3)
    ]


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
    with warnings.catch_warnings():
        # 4000 rows for 4066 columns: the regularization makes up for it
        warnings.simplefilter("ignore", UserWarning)
        model = fit(
            x, y, superposition_terms(d, 2), BandwidthProfile.from_list([6, 4]),
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
    ]


def main() -> int:
    for line in operator_lines() + friedman_lines() + wide_fit_lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
