"""The determinism contract across BLAS thread counts.

At a fixed numpy, BLAS and BLAS thread count every output is bitwise
repeatable.  Across thread counts a fit agrees up to rounding, and its
rankings and active sets are equal.  Each fit runs in its own interpreter,
because BLAS reads the thread count once, when numpy loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import anovafit

# a 1e4-row Friedman-1 fit, d=10, ds=2, N=(6,4): 456 columns, on the LSQR path
FIT_SCRIPT = """
import json
from anovafit import (BandwidthProfile, BasisKind, FriedmanSpec, SolverConfig, analyze,
                      fit, friedman_sample, superposition_terms, threshold_active_set)
data = friedman_sample(FriedmanSpec(1), 10_000, 0)
terms = superposition_terms(10, 2)
model = fit(data.nodes, data.targets, terms, BandwidthProfile.from_list([6, 4]),
            BasisKind.COSINE, SolverConfig(regularization=1.0))
report = analyze(model)
print(json.dumps({
    "stop_reason": model.stop_reason,
    "coefficients": [c.hex() for c in model.coefficients.tolist()],
    "ranked_above": {theta: report.ranked_above(theta) for theta in (0.01, 0.02, 0.05)},
    "active_sets": {eps: threshold_active_set(report, terms, eps).terms
                    for eps in (1e-3, 1e-2)},
}))
"""

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fit_with_threads(threads: int) -> dict:
    src = str(Path(anovafit.__file__).resolve().parents[1])
    env = {**os.environ, **{name: str(threads) for name in THREAD_VARIABLES}}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", FIT_SCRIPT], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return json.loads(done.stdout)


def test_fit_agrees_across_blas_thread_counts():
    one, two = _fit_with_threads(1), _fit_with_threads(2)
    assert one["stop_reason"] == two["stop_reason"] != "direct"
    a, b = (np.array([float.fromhex(c) for c in run["coefficients"]]) for run in (one, two))
    assert a.size == 456
    assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(a)
    assert one["ranked_above"] == two["ranked_above"]
    assert one["active_sets"] == two["active_sets"]
