"""Summarize the run records in ``perfbench/out``.

For each workload, prints every end-to-end metric's median over the
untraced runs found (one per seed) and its spread, the distance between
the first and third quartile as a share of the median, next to the bound
that ``BENCHMARK.json`` fixes.  With ``--baseline FILE`` it also writes
those medians, the machine record and the per-layer numbers of the traced
runs to FILE.

    python3 perfbench/summarize.py [--baseline perfbench/baseline.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent


def quartile_spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", help="write medians and per-layer numbers here")
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    records = [json.loads(p.read_text()) for p in sorted((HERE / "out").glob("*-trace*.json"))]
    baseline = {"workloads": {}}
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        runs = [r for r in records if r["workload"] == name and r["trace"] == 0]
        traced = [r for r in records if r["workload"] == name and r["trace"] == 1]
        if not runs:
            print(f"{name}: no untraced runs")
            continue
        print(f"{name}: {len(runs)} runs, seeds {sorted(r['seed'] for r in runs)}, "
              f"all correct: {all(r['correct'] for r in runs)}")
        entry = {"seeds": sorted(r["seed"] for r in runs), "end_to_end": {}, "workload": {}}
        for metric in bounds:
            values = [r["workload_metrics"][metric]["value"] for r in runs]
            unit = runs[0]["workload_metrics"][metric]["unit"]
            spread = quartile_spread(values) if len(values) > 1 else 0.0
            flag = "ok" if spread < bounds[metric] / 3 else "WIDE"
            if metric != "setup_s" and spread > bounds[metric]:
                flag, ok = "OVER", False
            print(f"  {metric:<16} median {statistics.median(values):>12.6g} {unit:<6} "
                  f"spread {spread:7.2%}  bound {bounds[metric]:.0%}  {flag}")
            entry["end_to_end"][metric] = {
                "median": statistics.median(values), "unit": unit, "spread": spread}
        for metric, v in runs[0]["workload_metrics"].items():
            if metric not in bounds:
                values = [r["workload_metrics"][metric]["value"] for r in runs
                          if metric in r["workload_metrics"]]
                entry["workload"][metric] = {
                    "median": statistics.median(values), "unit": v["unit"]}
        if traced:
            entry["per_layer"] = {
                "seed": traced[0]["seed"],
                "metrics": traced[0]["per_layer"],
                "tail_levels": traced[0]["tail_levels"],
            }
        baseline["workloads"][name] = entry
        baseline["machine"] = runs[0]["machine"]
        baseline["seconds"] = runs[0]["seconds"]
    if args.baseline:
        Path(args.baseline).write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
