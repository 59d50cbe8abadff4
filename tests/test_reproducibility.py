"""The determinism contract across BLAS thread counts.

At a fixed numpy, BLAS and BLAS thread count every output is bitwise
repeatable.  Across thread counts a fit agrees up to rounding, and its
rankings and active sets are equal.  Each thread count runs in its own
interpreter, because BLAS reads the thread count once, when numpy loads.

How far "up to rounding" reaches depends on the fit's conditioning:

* ``well``: a 1e4-row Friedman-1 fit, d=10, ds=2, N=(6,4), 456 columns,
  oversampling 22, on the LSQR path.  Its coefficients agree to 1e-12.
* ``near_square``: a cosine fit, d=30, ds=2, N=(6,4), 4000 rows for 4066
  columns (oversampling 0.98), lam=1, Friedman-1 on the first five
  variables, on the structured LSQR path.  Nearly square and damped, it
  needs about 480 iterations to reach the 1e-6 default tolerance, and a
  rounding difference between thread counts can move the stop by one
  iteration.  Measured over seeds 0-19 (1 against 2 threads): 7 seeds
  stopped one iteration apart, with relative coefficient gaps of 2.0e-6 to
  2.8e-6; the other 13 stopped together, with gaps of 4.2e-8 to 5.2e-7.
  Rankings and active sets were equal on all 20.  The band is 2.5 times
  the widest gap.  Equal iteration counts are not asserted.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import anovafit

FIT_SCRIPT = """
import json, warnings
import numpy as np
from anovafit import (BandwidthProfile, BasisKind, FriedmanSpec, SolverConfig, analyze,
                      fit, friedman_sample, superposition_terms, threshold_active_set)

def friedman1_on_30(seed):
    rng = np.random.default_rng(seed)
    x = rng.random((4000, 30))
    y = (10.0 * np.sin(np.pi * x[:, 0] * x[:, 1]) + 20.0 * (x[:, 2] - 0.5) ** 2
         + 10.0 * x[:, 3] + 5.0 * x[:, 4] + rng.standard_normal(4000))
    return x, y

well = friedman_sample(FriedmanSpec(1), 10_000, 0)
fits = {"well": (well.nodes, well.targets, 10), "near_square": (*friedman1_on_30(0), 30)}
out = {}
for name, (x, y, d) in fits.items():
    terms = superposition_terms(d, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # near_square's oversampling below 1
        model = fit(x, y, terms, BandwidthProfile.from_list([6, 4]), BasisKind.COSINE,
                    SolverConfig(regularization=1.0))
    report = analyze(model)
    out[name] = {
        "stop_reason": model.stop_reason,
        "coefficients": [c.hex() for c in model.coefficients.tolist()],
        "ranked_above": {theta: report.ranked_above(theta) for theta in (0.01, 0.02, 0.05)},
        "active_sets": {eps: threshold_active_set(report, terms, eps).terms
                        for eps in (1e-3, 1e-2)},
    }
print(json.dumps(out))
"""

# fit: (columns, band on the relative coefficient gap between 1 and 2 threads)
BANDS = {"well": (456, 1e-12), "near_square": (4066, 7e-6)}

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fit_with_threads(threads: int) -> dict:
    src = str(Path(anovafit.__file__).resolve().parents[1])
    env = {**os.environ, **{name: str(threads) for name in THREAD_VARIABLES}}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", FIT_SCRIPT], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def thread_runs():
    return _fit_with_threads(1), _fit_with_threads(2)


def _check_agreement(thread_runs, name):
    one, two = (run[name] for run in thread_runs)
    columns, band = BANDS[name]
    assert one["stop_reason"] == two["stop_reason"] != "direct"
    a, b = (np.array([float.fromhex(c) for c in run["coefficients"]]) for run in (one, two))
    assert a.size == columns
    assert np.linalg.norm(a - b) <= band * np.linalg.norm(a)
    assert one["ranked_above"] == two["ranked_above"]
    assert one["active_sets"] == two["active_sets"]


def test_fit_agrees_across_blas_thread_counts(thread_runs):
    _check_agreement(thread_runs, "well")


def test_near_square_fit_agrees_across_blas_thread_counts(thread_runs):
    _check_agreement(thread_runs, "near_square")
