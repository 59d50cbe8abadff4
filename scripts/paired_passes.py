#!/usr/bin/env python3
"""Compare two checkouts on in-process ``friedman`` passes, in alternating pairs.

A pass is the benchmark's ``friedman`` pass: ``bench_friedman(k, 100,
seed)`` for k = 1, 2, 3, that is 300 repetitions.  Each round starts one
subprocess per checkout, one after the other (``A`` first in even rounds,
``B`` first in odd ones), which imports ``anovafit`` from that checkout's
``src/`` and runs ``--passes`` passes; its result is the median
repetitions per second over those passes.  The script prints each round's
two medians and their ratio ``B / A``, then the median paired ratio, the
rounds that ``B`` won, and the two-sided sign-test p-value of that count
(ties left out), from ``math.comb``.

Usage:
    python3 scripts/paired_passes.py PARENT_CHECKOUT CHANGE_CHECKOUT --rounds 10 --passes 5

Both sides inherit the environment, so a BLAS thread count set for the
script (``OPENBLAS_NUM_THREADS=1``) holds for both.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

# one subprocess: PASSES friedman passes of the checkout whose src/ is on its path
CHILD = """
import json, statistics, sys, time
sys.path.insert(0, sys.argv[1])
from anovafit.bench import bench_friedman
seed, passes = int(sys.argv[2]), int(sys.argv[3])
rates = []
for _ in range(passes):
    t0 = time.perf_counter()
    for k in (1, 2, 3):
        bench_friedman(k, 100, seed)
    rates.append(300 / (time.perf_counter() - t0))
print(json.dumps(statistics.median(rates)))
"""


def median_rate(checkout: Path, seed: int, passes: int) -> float:
    """Median repetitions per second of ``passes`` passes, in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(checkout / "src"), str(seed), str(passes)],
        check=True, capture_output=True, text=True,
    ).stdout
    return float(json.loads(out.splitlines()[-1]))


def sign_test(wins: int, losses: int) -> float:
    """Two-sided sign-test p-value of ``wins`` against ``losses``."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="the reference checkout")
    parser.add_argument("b", type=Path, help="the checkout compared with it")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    for checkout in (args.a, args.b):
        if not (checkout / "src" / "anovafit").is_dir():
            parser.error(f"{checkout} holds no src/anovafit")

    print(f"{'round':>5} {'A_reps_s':>9} {'B_reps_s':>9} {'B/A':>6}", flush=True)
    ratios = []
    for r in range(args.rounds):
        # keyed by side, so that a checkout may be compared with itself
        order = ("A", "B") if r % 2 == 0 else ("B", "A")
        checkouts = {"A": args.a, "B": args.b}
        rate = {side: median_rate(checkouts[side], args.seed, args.passes) for side in order}
        ratios.append(rate["B"] / rate["A"])
        print(f"{r:>5} {rate['A']:>9.1f} {rate['B']:>9.1f} {ratios[-1]:>6.3f}", flush=True)
    wins = sum(q > 1.0 for q in ratios)
    losses = sum(q < 1.0 for q in ratios)
    print(f"median paired ratio B/A {statistics.median(ratios):.3f}")
    print(f"B won {wins} of {len(ratios)} rounds ({losses} lost)")
    print(f"two-sided sign-test p {sign_test(wins, losses):.3g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
