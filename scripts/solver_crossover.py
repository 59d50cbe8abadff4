#!/usr/bin/env python3
"""Time LSQR against the direct damped solve over a ladder of system sizes.

For each cosine term set (13 to 1000 columns) and each row count, fits a
noisy Friedman-1-like target with ``lam > 0`` three ways, the paths of
:func:`anovafit.fit`: ``lsqr_solve(op, y)`` on the structured operator,
``lsqr_solve`` on a fresh operator after ``_apply_dense()`` (one GEMV
each way), and ``direct_solve(op.dense(), y)``.  The dense gather is
charged to both dense paths.  Prints one table with the median time and
LSQR iterations of each path, the fastest one, ``rows * cols**2``, the
path that fit's size rule picks (its accuracy guard, which small ``--lam``
can fail, is not applied here), and the relative coefficient difference
``||g_direct - g_lsqr|| / ||g_direct||`` of the structured LSQR.  The
crossover sets ``anovafit.model.DIRECT_SOLVE_MAX_WORK``.

Usage:
    python3 scripts/solver_crossover.py --lam 1 --seed 0
"""

import argparse
import time

import numpy as np

from anovafit import (
    BandwidthProfile,
    BasisKind,
    DesignOperator,
    SolverConfig,
    build_index_union,
    direct_solve,
    lsqr_solve,
    superposition_terms,
)
from anovafit.model import DIRECT_SOLVE_MAX_WORK

ROWS = (200, 1_000, 4_000, 10_000)
# (dimension, bandwidths) of order-2 cosine term sets: 13, 26, 76, 225, 456, 1000 columns
TERM_SETS = ((3, (4, 2)), (5, (4, 2)), (10, (4, 2)), (7, (6, 4)), (10, (6, 4)), (9, (12, 6)))
NOISE = 1.0


def friedman1_like(u: np.ndarray) -> np.ndarray:
    """Friedman-1 on the first five columns of ``u``."""
    return (
        10.0 * np.sin(np.pi * u[:, 0] * u[:, 1])
        + 20.0 * (u[:, 2] - 0.5) ** 2
        + 10.0 * u[:, 3]
        + 5.0 * u[:, 4]
    )


def median_time(func, budget_s: float = 0.3, min_runs: int = 3):
    """Median wall time of repeated calls, and the last call's result."""
    times = []
    start = time.perf_counter()
    while len(times) < min_runs or time.perf_counter() - start < budget_s:
        t0 = time.perf_counter()
        result = func()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)), result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--lam", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    config = SolverConfig(regularization=args.lam)
    rng = np.random.default_rng(args.seed)

    print(
        f"{'cols':>5} {'rows':>6} {'lsqr_ms':>9} {'iters':>5} {'dense_lsqr_ms':>13} "
        f"{'iters':>5} {'direct_ms':>9} {'fastest':>10} {'rows*cols^2':>11} "
        f"{'size_rule':>9} {'rel_diff':>8}"
    )
    for dimension, bandwidths in TERM_SETS:
        union = build_index_union(
            superposition_terms(dimension, 2),
            BandwidthProfile.from_list(list(bandwidths)),
            BasisKind.COSINE,
        )
        for rows in ROWS:
            # the target reads five columns; a smaller term set sees the rest as noise
            u = rng.random((rows, max(dimension, 5)))
            y = friedman1_like(u) + NOISE * rng.standard_normal(rows)
            op = DesignOperator(u[:, :dimension], union)
            switched = DesignOperator(u[:, :dimension], union)
            switched._apply_dense()
            t_lsqr, lsqr = median_time(lambda: lsqr_solve(op, y, config))
            t_gather, _ = median_time(op.dense)
            t_dense, dense = median_time(lambda: lsqr_solve(switched, y, config))
            t_dense += t_gather
            t_direct, direct = median_time(lambda: direct_solve(op.dense(), y, args.lam))
            times = {"lsqr": t_lsqr, "dense_lsqr": t_dense, "direct": t_direct}
            work = rows * op.cols**2
            diff = np.linalg.norm(direct.coefficients - lsqr.coefficients)
            print(
                f"{op.cols:>5} {rows:>6} {1e3 * t_lsqr:>9.2f} {lsqr.iterations:>5} "
                f"{1e3 * t_dense:>13.2f} {dense.iterations:>5} {1e3 * t_direct:>9.2f} "
                f"{min(times, key=times.get):>10} {work:>11.2e} "
                f"{'direct' if work <= DIRECT_SOLVE_MAX_WORK else 'lsqr':>9} "
                f"{diff / np.linalg.norm(direct.coefficients):>8.1e}"
            )


if __name__ == "__main__":
    main()
