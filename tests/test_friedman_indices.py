"""The Friedman recipes' sensitivity indices against the functions' own Sobol indices.

The truth comes from Gauss-Legendre tensor quadrature over each function's
active variables (24 nodes per axis for Friedman-1, 40 for Friedman-2 and -3):
the closed indices ``Var E[f | x_u]`` of every variable set ``u``, then the
Sobol indices by Moebius inversion (Sobol, *Global sensitivity indices for
nonlinear mathematical models and their Monte Carlo estimates*, 2001).

Each recipe runs on 100 repetitions at seed 0.  The bands below were measured
first over the seeds 0-9 (100 repetitions each): ``sum_u |median rho_u -
truth_u|`` over every term of the truth or of some final model (a term that a
model lacks counts 0) lay in 0.0036-0.0143 (f1), 0.0029-0.0214 (f2) and
0.078-0.095 (f3), at seed 0 0.0050, 0.0126 and 0.0953.  The final term set
equalled the truth's terms above 0.02 in 95-99, 100 and 97-100 of the 100
repetitions, at seed 0 in 97, 100 and 100.  The recipes are not tuned to these
numbers.
"""

import functools
import itertools

import numpy as np
import pytest

from anovafit import FriedmanSpec, SensitivityReport, attribute_ranking, friedman_eval, gsi
from anovafit.bench import FRIEDMAN_RECIPES, friedman_rep_data, run_recipe

from conftest import gauss_legendre

REPETITIONS = 100
# function -> (active variables 1..a, quadrature nodes per axis)
QUADRATURE = {1: (5, 24), 2: (4, 40), 3: (4, 40)}
# the largest sum_u |median rho_u - truth_u| allowed, above the seeds' 0.0143, 0.0214, 0.095
SUM_BOUND = {1: 0.02, 2: 0.03, 3: 0.12}
# the fewest repetitions whose final terms are the truth's terms above 0.02 (seeds 0-9: 95, 100, 97)
RECOVERED = {1: 95, 2: 100, 3: 97}
TRUTH_CUTOFF = 0.02


@functools.lru_cache(maxsize=None)
def sobol_truth(which: int) -> dict[tuple[int, ...], float]:
    """Sobol index of every nonempty set of the active variables, by tensor quadrature."""
    spec = FriedmanSpec(which)
    active, n = QUADRATURE[which]
    x, w = gauss_legendre(n, 0.0, 1.0)
    # f on the tensor grid, one slice of the first axis at a time (inert variables at 0.5)
    rest = np.stack(np.meshgrid(*[x] * (active - 1), indexing="ij"), axis=-1)
    nodes = np.full((n ** (active - 1), spec.dimension), 0.5)
    nodes[:, 1:active] = rest.reshape(-1, active - 1)
    f = np.empty((n,) * active)
    for i, xi in enumerate(x):
        nodes[:, 0] = xi
        f[i] = friedman_eval(spec, nodes).reshape(f.shape[1:])

    def integrate(g, axes):
        for axis in sorted(axes, reverse=True):
            g = np.tensordot(g, w, axes=([axis], [0]))
        return g

    mean = integrate(f, range(active))
    closed = {}  # Var E[f | x_u], u as 1-based variables
    for size in range(active + 1):
        for u in itertools.combinations(range(1, active + 1), size):
            conditional = integrate(f, [a for a in range(active) if a + 1 not in u])
            closed[u] = float(integrate((conditional - mean) ** 2, range(size)))
    total = closed[tuple(range(1, active + 1))]
    return {
        u: sum((-1) ** (len(u) - len(v)) * closed[v]
               for k in range(len(u) + 1) for v in itertools.combinations(u, k)) / total
        for u in closed if u
    }


@functools.lru_cache(maxsize=None)
def recipe_runs(which: int):
    """Per repetition: the final model's indices, its nonempty terms, the first report."""
    runs = []
    for rep in range(REPETITIONS):
        train, _ = friedman_rep_data(which, rep, 0)
        model, reports = run_recipe(FRIEDMAN_RECIPES[which], train)
        runs.append((dict(gsi(model).indices), set(model.terms.nonempty_terms), reports[0]))
    return runs


def test_truth_sums_to_one_and_matches_the_known_decomposition():
    truth = sobol_truth(1)
    assert sum(truth.values()) == pytest.approx(1.0, abs=1e-12)
    # f1 = 10 sin(pi x1 x2) + 20 (x3 - 1/2)^2 + 10 x4 + 5 x5: additive but for {1, 2}
    assert {u for u, rho in truth.items() if abs(rho) > 1e-12} == {
        (1,), (2,), (3,), (4,), (5,), (1, 2)
    }
    # Var(10 x4) = 100 / 12 and Var(5 x5) = 25 / 12: their ratio is exact
    assert truth[(4,)] / truth[(5,)] == pytest.approx(4.0, rel=1e-12)


@pytest.mark.parametrize("which", sorted(FRIEDMAN_RECIPES))
def test_median_indices_approach_the_truth(which):
    truth = sobol_truth(which)
    runs = recipe_runs(which)
    terms = set(truth).union(*(indices for indices, _, _ in runs))
    median = {u: np.median([indices.get(u, 0.0) for indices, _, _ in runs]) for u in terms}
    assert sum(abs(median[u] - truth.get(u, 0.0)) for u in terms) < SUM_BOUND[which]


@pytest.mark.parametrize("which", sorted(FRIEDMAN_RECIPES))
def test_final_terms_are_the_truths_terms(which):
    large = {u for u, rho in sobol_truth(which).items() if rho > TRUTH_CUTOFF}
    recovered = sum(terms == large for _, terms, _ in recipe_runs(which))
    assert recovered >= RECOVERED[which]


def test_friedman1_ranking_order():
    # the ranking stage orders the variables as the truth does: 4, then 1 and 2,
    # then 3 and 5 (their truth scores differ by 0.006; the ranking stage's
    # N = 4 fit puts 5 above 3 at 8 of the seeds 0-9), then the five inert ones
    groups = [{4}, {1, 2}, {3, 5}, {6, 7, 8, 9, 10}]
    truth = SensitivityReport(10, 1.0, tuple(
        (u, rho) for u, rho in sobol_truth(1).items() if rho > TRUTH_CUTOFF
    ))

    def grouped(ranking):
        order = list(np.argsort(-ranking, kind="stable") + 1)
        return [set(order[:1]), set(order[1:3]), set(order[3:5]), set(order[5:])]

    assert grouped(attribute_ranking(truth)) == groups
    rankings = np.array([report.ranking for _, _, report in recipe_runs(1)])
    assert grouped(np.median(rankings, axis=0)) == groups
    # per repetition: the five active variables always rank above the inert five,
    # and variable 4 first in 99 of 100 (seeds 0-9: 99-100)
    assert all(grouped(r)[3] == groups[3] for r in rankings)
    assert sum(int(np.argmax(r)) + 1 == 4 for r in rankings) >= 99
