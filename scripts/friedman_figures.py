#!/usr/bin/env python3
"""Attribute-ranking and sensitivity bar charts for the benchmark functions.

Writes four SVG figures into the output directory: the initial attribute
ranking of function 1, the sensitivity indices of its reduced refit, the
sensitivity indices of function 2, and the initial ranking of function 3.
Each chart is the report of a selecting stage of
``anovafit.bench.FRIEDMAN_RECIPES``, with that stage's threshold drawn in.

Usage:
    python3 scripts/friedman_figures.py --out-dir figures --seed 0
"""

import argparse
from pathlib import Path

from anovafit.bench import FRIEDMAN_RECIPES, friedman_rep_data, run_recipe
from anovafit.plots import svg_bar_chart, write_svg


def term_labels(report):
    return ["{" + ",".join(map(str, u)) + "}" for u, _ in report.indices]


def ranking_chart(report, title, threshold):
    labels = [f"x{i + 1}" for i in range(report.dimension)]
    values = [float(v) for v in report.ranking]
    return svg_bar_chart(labels, values, title=title, threshold=threshold)


def gsi_chart(report, title, threshold):
    values = [float(v) for _, v in report.indices]
    return svg_bar_chart(term_labels(report), values, title=title, threshold=threshold)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="figures")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    f1, f2, f3 = (FRIEDMAN_RECIPES[k] for k in (1, 2, 3))
    _, (rank1, gsi1) = run_recipe(f1[:2], friedman_rep_data(1, 0, args.seed)[0])
    write_svg(
        out / "friedman1_ranking.svg",
        ranking_chart(rank1, "friedman 1: attribute ranking (N=4,2, lambda=3)", f1[0].rank),
    )
    write_svg(
        out / "friedman1_gsi.svg",
        gsi_chart(gsi1, "friedman 1: sensitivity indices after variable removal", f1[1].gsi),
    )

    _, (report2,) = run_recipe(f2[:1], friedman_rep_data(2, 0, args.seed)[0])
    write_svg(
        out / "friedman2_gsi.svg",
        gsi_chart(report2, "friedman 2: sensitivity indices (N=4,2, lambda=0)", f2[0].gsi),
    )

    _, (report3,) = run_recipe(f3[:1], friedman_rep_data(3, 0, args.seed)[0])
    write_svg(
        out / "friedman3_ranking.svg",
        ranking_chart(report3, "friedman 3: attribute ranking (N=10,2,2, lambda=2)", f3[0].rank),
    )
    print(f"wrote 4 figures to {out}/")


if __name__ == "__main__":
    main()
