#!/usr/bin/env python3
"""Sweep LSQR's stopping tolerance over large fits: iterations, time and held-out MSE.

Each fit point is one seeded fit on the LSQR path, to a Friedman-1 target on
the first five of ``d`` uniform columns plus unit Gaussian noise, scored on
2e4 fresh noisy rows:

* ``wide``: d=30, ds=2, N=(6,4), cosine, 1e4 rows (4066 columns), lam=1;
* ``order3``: d=10, ds=3, N=(6,4,4), cosine, 1e4 rows (3696 columns), lam=1;
* ``near_square``: d=30, ds=2, N=(6,4), cosine, 4000 rows, lam=1;
* ``per``: d=8, ds=2, N=(8,4), exponential basis, real targets, 14000 rows, lam=1;
* ``d40``: d=40, ds=2, N=(6,4), cosine, 1e4 rows (7221 columns), lam=1;
* ``real_shape``: d=8, ds=2, N=(4,2), cosine, 540 rows (53 columns), lam=0,
  the real-data protocol's fit within the direct-solve size rule;
* ``wide_lam0``: ``wide`` at lam=0, the command line's default.

Each protocol point runs :func:`~anovafit.bench.run_real_benchmark` (100
repetitions) of one ``REAL_PRESETS`` entry, all at lam=0, on a seeded
400-row Friedman-1 table, with ``SolverConfig``'s tolerance set for the
run; its ``test_mse`` is the square of the median held-out RMSE.

For each point and tolerance the script prints the iterations of every
seed, the median seconds, the median test MSE, and the largest relative
change of a seed's test MSE against its run at the tightest tolerance
(positive is worse).

Usage (the protocol points over 10 tables):
    OPENBLAS_NUM_THREADS=1 python3 scripts/tolerance_sweep.py --seeds 3 \
        --points wide,order3,near_square,per,d40,real_shape,wide_lam0
    OPENBLAS_NUM_THREADS=1 python3 scripts/tolerance_sweep.py --seeds 10 \
        --points protocol_enc,protocol_ch
"""

import argparse
import functools
import os
import time
import warnings
from unittest import mock

import numpy as np

from anovafit import BandwidthProfile, BasisKind, SolverConfig, fit, predict, superposition_terms
from anovafit.bench import REAL_PRESETS, run_real_benchmark
from anovafit.datasets import FriedmanSpec, friedman_sample

TOLERANCES = (1e-8, 1e-7, 1e-6, 1e-5, 1e-4)
TEST_ROWS = 20_000
# name: (dimension, superposition threshold, bandwidths, basis, training rows, lam)
POINTS = {
    "wide": (30, 2, (6, 4), BasisKind.COSINE, 10_000, 1.0),
    "order3": (10, 3, (6, 4, 4), BasisKind.COSINE, 10_000, 1.0),
    "near_square": (30, 2, (6, 4), BasisKind.COSINE, 4_000, 1.0),
    "per": (8, 2, (8, 4), BasisKind.EXPONENTIAL, 14_000, 1.0),
    "d40": (40, 2, (6, 4), BasisKind.COSINE, 10_000, 1.0),
    "real_shape": (8, 2, (4, 2), BasisKind.COSINE, 540, 0.0),
    "wide_lam0": (30, 2, (6, 4), BasisKind.COSINE, 10_000, 0.0),
}
PROTOCOLS = {"protocol_enc": "enc", "protocol_ch": "ch"}


def sample(rng: np.random.Generator, rows: int, dimension: int, kind: BasisKind):
    """Nodes in the basis domain and a noisy Friedman-1 target on the first five columns."""
    u = rng.random((rows, dimension))
    y = (
        10.0 * np.sin(np.pi * u[:, 0] * u[:, 1])
        + 20.0 * (u[:, 2] - 0.5) ** 2
        + 10.0 * u[:, 3]
        + 5.0 * u[:, 4]
        + rng.standard_normal(rows)
    )
    return (u - 0.5 if kind.is_complex else u), y


def fit_runs(name: str, seeds: int):
    """For each seed, a function of the tolerance giving (iterations, test MSE)."""
    dimension, ds, bandwidths, kind, rows, lam = POINTS[name]
    terms = superposition_terms(dimension, ds)
    profile = BandwidthProfile.from_list(list(bandwidths))

    def run(data, tolerance):
        (x, y), (x_test, y_test) = data
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # near_square's oversampling
            model = fit(x, y, terms, profile, kind, SolverConfig(lam, tolerance=tolerance))
        return model.iterations, float(np.mean((predict(model, x_test) - y_test) ** 2))

    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        data = (sample(rng, rows, dimension, kind), sample(rng, TEST_ROWS, dimension, kind))
        yield functools.partial(run, data)


def protocol_runs(name: str, seeds: int):
    """For each seed, a function of the tolerance giving (None, squared median RMSE)."""
    preset = REAL_PRESETS[PROTOCOLS[name]]

    def run(table, tolerance):
        config = functools.partial(SolverConfig, tolerance=tolerance)
        with mock.patch("anovafit.bench.SolverConfig", config):
            return None, float(run_real_benchmark(table, preset, repetitions=100)["median"]) ** 2

    for seed in range(seeds):
        yield functools.partial(run, friedman_sample(FriedmanSpec(1), 400, seed))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--points", default=",".join([*POINTS, *PROTOCOLS]))
    args = parser.parse_args()
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    print(f"# OPENBLAS_NUM_THREADS={threads} cpu_count={os.cpu_count()} seeds={args.seeds}")
    print(f"{'point':<14} {'tol':>6} {'iterations':>14} {'time_s':>7} {'test_mse':>11} "
          f"{'worst_rel_mse':>13}")
    for name in args.points.split(","):
        runs = list((protocol_runs if name in PROTOCOLS else fit_runs)(name, args.seeds))
        for tolerance in TOLERANCES:
            iterations, seconds, mses = [], [], []
            for run in runs:
                t0 = time.perf_counter()
                count, mse = run(tolerance)
                seconds.append(time.perf_counter() - t0)
                iterations.append(count)
                mses.append(mse)
            mses = np.array(mses)
            if tolerance == TOLERANCES[0]:
                reference = mses
            worst = np.max((mses - reference) / reference)
            counts = "-" if name in PROTOCOLS else "/".join(map(str, iterations))
            print(f"{name:<14} {tolerance:>6.0e} {counts:>14} "
                  f"{np.median(seconds):>7.3f} {np.median(mses):>11.7f} {worst:>+13.1e}")


if __name__ == "__main__":
    main()
