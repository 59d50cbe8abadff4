#!/usr/bin/env python3
"""Bandwidth sweep tables for the synthetic benchmark functions.

Re-runs the final stage of each benchmark's recipe over a grid of
order-1/order-2 bandwidths and prints the median test MSE and the number of
failed repetitions per configuration, mirroring the layout of the published
sweep tables.

Usage:
    python3 scripts/friedman_tables.py --function 1 --reps 10 --seed 0
"""

import argparse
from dataclasses import replace

from anovafit import (
    BandwidthProfile,
    BasisKind,
    FriedmanSpec,
    SplitPlan,
    TermSet,
    build_index_union,
    drop_variables,
    median_evaluate,
    mse,
    predict,
    superposition_terms,
)
from anovafit.bench import FRIEDMAN_RECIPES, TEST_SIZE, TRAIN_SIZE, run_recipe

# the active set of each benchmark's final fit, and its bandwidth grid
SWEEPS = {
    1: (
        TermSet(10, ((1,), (2,), (3,), (4,), (5,), (1, 2)), 2),
        [(4, 2), (6, 2), (8, 2), (4, 4), (6, 4), (8, 4)],
    ),
    2: (
        TermSet(4, ((2,), (3,), (2, 3)), 2),
        [(2, 2), (4, 2), (6, 2), (8, 2), (4, 4), (6, 4), (8, 4)],
    ),
    3: (
        drop_variables(superposition_terms(4, 2), (1, 2, 3)),
        [(10, 2), (12, 2), (14, 2), (10, 4), (12, 4), (14, 4)],
    ),
}


def sweep(which: int, reps: int, seed: int) -> None:
    active, grid = SWEEPS[which]
    final = FRIEDMAN_RECIPES[which][-1]
    plan = SplitPlan(train_size=TRAIN_SIZE, test_size=TEST_SIZE, repetitions=reps, seed=seed)
    print(f"friedman {which}  (lambda = {final.lam}, reps = {reps})")
    print(f"{'N1':>4} {'N2':>4} {'|I(U)|':>7} {'median MSE':>14} {'failed':>6}")
    for n1, n2 in grid:
        stage = replace(final, bandwidths=(n1, n2))

        def recipe(train, test):
            model, _ = run_recipe((stage,), train, active)
            return mse(test.targets, predict(model, test.nodes))

        summary = median_evaluate(recipe, FriedmanSpec(which), plan)
        profile = BandwidthProfile.from_list([n1, n2])
        size = build_index_union(active, profile, BasisKind.COSINE).size
        print(f"{n1:>4} {n2:>4} {size:>7} {summary.median:>14.6g} {summary.failures:>6}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--function", type=int, choices=(1, 2, 3), default=1)
    parser.add_argument("--reps", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    sweep(args.function, args.reps, args.seed)


if __name__ == "__main__":
    main()
