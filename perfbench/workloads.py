"""The benchmark's three workloads.

Each workload turns ``--seed`` into its inputs in :meth:`prepare` (the
part that the set-up time measures), runs one closed-loop *pass* over those
inputs in :meth:`run_pass` (the timed part), and checks its outputs in
:meth:`checks`, outside the timed region.  Every pass over the same inputs
must produce bitwise-identical outputs.  ``recorded_peak_mib`` is the
workload's peak RSS as measured on 2 cores with numpy 2.4 / OpenBLAS; a run
needs twice that in ``MemAvailable`` before it starts.

* ``friedman``: the paper pipeline, ``bench_friedman(k, 100, seed)`` for
  k = 1, 2, 3.  About 700 tiny fits per pass, so Python per-term overhead
  in ``operators`` and the scalar LSQR loop dominate.
* ``wide``: one cosine fit with d=30, ds=2, N=(6,4) (4066 columns) on 1e4
  rows, then ``predict`` on 2e4 held-out rows.  Operator bytes dominate.
* ``cli_pipeline``: ``anovafit.cli.main`` in-process, fit -> rank -> refine
  -> fit -> predict on generated CSV files.  CSV parsing, normalization,
  model JSON and SVG output dominate; the operator runs complex arithmetic.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import anovafit as af
from anovafit import bench, cli
from anovafit.operators import DENSE_ORACLE_MAX_ENTRIES, dense_design_matrix

# Failures a workload counts instead of propagating: the library's typed
# errors and numpy's numerical ones.  Anything else is a programming error
# and ends the run with a traceback.
COUNTED_ERRORS = (af.AnovaFitError, FloatingPointError, np.linalg.LinAlgError)


@dataclass
class PassResult:
    wall_s: float
    units: int  # repetitions, fits or commands attempted in the pass
    failed: int
    fingerprint: bytes  # digest of every output; equal across passes
    outputs: dict = field(default_factory=dict)


def _digest(*parts) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.digest()


def _rng(seed: int, code: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(code,)))


def friedman1_like(u: np.ndarray) -> np.ndarray:
    """Friedman-1 on the first five columns of ``u``; the others are inert."""
    return (
        10.0 * np.sin(np.pi * u[:, 0] * u[:, 1])
        + 20.0 * (u[:, 2] - 0.5) ** 2
        + 10.0 * u[:, 3]
        + 5.0 * u[:, 4]
    )


class Friedman:
    name = "friedman"
    recorded_peak_mib = 41
    reps = 100
    # (lo, hi) acceptance bands of the median test MSE, as in tests/test_acceptance.py
    bands = {1: (1.1, 1.9), 2: (14e3, 21e3), 3: (15e-3, 24e-3)}
    spans = (
        "bench.f1", "bench.f2", "bench.f3", "datasets.sample", "model.fit",
        "model.predict", "model.analyze", "model.refine", "terms.union",
        "operators.build", "basis.table", "operators.matvec",
        "operators.adjoint", "solver.solve",
    )

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed

    def prepare(self) -> None:
        """Nothing to build: ``bench_friedman`` samples its data from the seed."""

    def run_pass(self, tracer) -> PassResult:
        results = {}
        failed = 0
        t0 = time.perf_counter()
        for k in (1, 2, 3):
            tracer.rep += 1
            try:
                with tracer.span(f"bench.f{k}"):
                    results[k] = bench.bench_friedman(k, self.reps, self.seed)
            except COUNTED_ERRORS:
                failed += self.reps
                continue
            failed += results[k]["failures"]
        wall = time.perf_counter() - t0
        return PassResult(wall, 3 * self.reps, failed, _digest(results), outputs=results)

    def checks(self, first: PassResult) -> list[tuple[str, bool, str]]:
        out = []
        for k, (lo, hi) in self.bands.items():
            r = first.outputs.get(k)
            value = r["median_mse"] if r else math.nan
            out.append((f"median_mse.f{k} in [{lo:g}, {hi:g}]", lo <= value <= hi, f"{value:.6g}"))
        return out

    def report(self, passes: list[PassResult]) -> dict:
        first = passes[0].outputs
        medians = {k: first[k]["median_mse"] for k in (1, 2, 3) if k in first}
        metrics = {
            "reps_per_s": (statistics.median(p.units / p.wall_s for p in passes), "1/s"),
        }
        for k, value in medians.items():
            metrics[f"median_mse.f{k}"] = (value, "mse")
        if len(medians) == 3:
            ratios = [medians[k] / af.FriedmanSpec(k).noise_scale ** 2 for k in (1, 2, 3)]
            metrics["mse_over_noise"] = (math.prod(ratios) ** (1 / 3), "ratio")
        return metrics


class Wide:
    name = "wide"
    dimension = 30
    train_rows = 10_000
    test_rows = 20_000
    noise = 1.0
    oracle_rows = 2  # dense oracle cost grows with rows x 4066 columns
    recorded_peak_mib = 1293
    spans = (
        "model.fit", "model.predict", "terms.union", "operators.build",
        "basis.table", "operators.matvec", "operators.adjoint", "solver.solve",
    )

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed

    def prepare(self) -> None:
        rng = _rng(self.seed, 1)
        self.x = rng.random((self.train_rows, self.dimension))
        self.y = friedman1_like(self.x) + self.noise * rng.standard_normal(self.train_rows)
        self.x_test = rng.random((self.test_rows, self.dimension))
        self.y_test = friedman1_like(self.x_test) + self.noise * rng.standard_normal(
            self.test_rows
        )
        self.terms = af.superposition_terms(self.dimension, 2)
        self.bandwidths = af.BandwidthProfile.from_list([6, 4])
        self.config = af.SolverConfig(regularization=1.0)

    def run_pass(self, tracer) -> PassResult:
        tracer.rep += 1
        t0 = time.perf_counter()
        try:
            model = af.fit(
                self.x, self.y, self.terms, self.bandwidths, af.BasisKind.COSINE, self.config
            )
            t1 = time.perf_counter()
            pred = af.predict(model, self.x_test)
        except COUNTED_ERRORS:
            return PassResult(time.perf_counter() - t0, 1, 1, b"failed")
        t2 = time.perf_counter()
        fingerprint = _digest(model.coefficients.tobytes(), pred.tobytes(), model.iterations)
        return PassResult(
            t2 - t0, 1, 0, fingerprint,
            outputs={"model": model, "pred": pred, "fit_s": t1 - t0, "predict_s": t2 - t1},
        )

    def checks(self, first: PassResult) -> list[tuple[str, bool, str]]:
        if "model" not in first.outputs:
            return [("dense oracle", False, "the fit failed")]
        model = first.outputs["model"]
        rows = _rng(self.seed, 2).choice(self.test_rows, self.oracle_rows, replace=False)
        nodes = self.x_test[np.sort(rows)]
        if len(rows) * model.index_union.size > DENSE_ORACLE_MAX_ENTRIES:
            return [("dense oracle", False, "subsample above DENSE_ORACLE_MAX_ENTRIES")]
        dense = dense_design_matrix(nodes, model.index_union) @ model.coefficients
        err = float(np.max(np.abs(af.predict(model, nodes) - dense)) / np.max(np.abs(dense)))
        return [(f"predict == dense oracle on {len(rows)} rows (rel 1e-9)", err <= 1e-9, f"{err:.2e}")]

    def report(self, passes: list[PassResult]) -> dict:
        ok = [p.outputs for p in passes if p.outputs]
        metrics = {"reps_per_s": (statistics.median(1.0 / p.wall_s for p in passes), "1/s")}
        if ok:
            model = ok[0]["model"]
            test_mse = af.mse(self.y_test, ok[0]["pred"])
            metrics.update(
                fit_s=(statistics.median(o["fit_s"] for o in ok), "s"),
                predict_rows_per_s=(
                    statistics.median(self.test_rows / o["predict_s"] for o in ok), "rows/s"
                ),
                test_mse=(test_mse, "mse"),
                mse_over_noise=(test_mse / self.noise**2, "ratio"),
                iterations=(model.iterations, "count"),
                cols=(model.index_union.size, "count"),
            )
        return metrics


class CliPipeline:
    name = "cli_pipeline"
    recorded_peak_mib = 189
    dimension = 8
    rows = 20_000
    new_rows = 10_000
    noise = 0.5
    spans = (
        "cli.fit", "cli.rank", "cli.refine", "cli.predict", "datasets.load_csv",
        "datasets.normalize", "model.fit", "model.predict", "model.analyze",
        "model.refine", "model.save", "model.load", "plots.svg", "terms.union",
        "operators.build", "basis.table", "operators.matvec",
        "operators.adjoint", "solver.solve",
    )

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.dir = work_dir
        d = str(work_dir)
        data = ["--csv", f"{d}/train.csv", "--target", "y", "--basis", "per",
                "--split", "0.7", "--normalize", "--lambda", "1"]
        self.steps = (
            ["fit", *data, "--ds", "2", "--bandwidths", "8,4", "--out", f"{d}/initial.json"],
            ["rank", "--model", f"{d}/initial.json", "--out", f"{d}/report.json",
             "--plot-ranking", f"{d}/ranking.svg", "--plot-gsi", f"{d}/gsi.svg"],
            ["refine", "--model", f"{d}/initial.json", "--gsi-threshold", "0.01",
             "--out", f"{d}/terms.json"],
            ["fit", *data, "--terms", f"{d}/terms.json", "--bandwidths", "12,6",
             "--out", f"{d}/final.json"],
            ["predict", "--model", f"{d}/final.json", "--csv", f"{d}/new.csv", "--target", "y"],
        )
        self.outputs = ("initial.json", "report.json", "ranking.svg", "gsi.svg",
                        "terms.json", "final.json")

    def _write_csv(self, path: Path, rng: np.random.Generator, rows: int) -> None:
        u = rng.random((rows, self.dimension))
        y = friedman1_like(u) + self.noise * rng.standard_normal(rows)
        raw = 2.0 + 3.0 * u  # off the unit cube, so --normalize has work to do
        lines = [",".join([f"x{i}" for i in range(1, self.dimension + 1)] + ["y"])]
        lines += [",".join(map(repr, row)) for row in np.column_stack([raw, y]).tolist()]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def prepare(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        rng = _rng(self.seed, 3)
        self._write_csv(self.dir / "train.csv", rng, self.rows)
        self._write_csv(self.dir / "new.csv", rng, self.new_rows)

    def run_pass(self, tracer) -> PassResult:
        tracer.rep += 1
        codes, stdout = [], []
        t0 = time.perf_counter()
        for argv in self.steps:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                codes.append(cli.main(argv))
            stdout.append(out.getvalue())
        wall = time.perf_counter() - t0
        files = [(self.dir / name).read_bytes() for name in self.outputs]
        return PassResult(
            wall, len(self.steps), sum(code != 0 for code in codes),
            _digest(codes, stdout, *files),
            outputs={"codes": codes, "predict": stdout[-1]},
        )

    def checks(self, first: PassResult) -> list[tuple[str, bool, str]]:
        """The final model file gives back the coefficients of a library fit."""
        if any(first.outputs["codes"]):
            return [("final model round trip", False, f"exit codes {first.outputs['codes']}")]
        train, _ = af.split(
            af.load_csv(self.dir / "train.csv", "y"), af.SplitPlan(train_fraction=0.7), 0
        )
        model = af.fit(
            af.normalize(train).nodes, train.targets, af.load_termset(self.dir / "terms.json"),
            af.BandwidthProfile.from_list([12, 6]), af.BasisKind.EXPONENTIAL,
            af.SolverConfig(regularization=1.0),
        )
        loaded = af.load_model(self.dir / "final.json")
        same = np.array_equal(loaded.coefficients, model.coefficients)
        return [("load_model(final) == library fit coefficients", same,
                 f"{len(model.coefficients)} coefficients")]

    def report(self, passes: list[PassResult]) -> dict:
        metrics = {
            "reps_per_s": (statistics.median(1.0 / p.wall_s for p in passes), "1/s"),
            "pipeline_s": (statistics.median(p.wall_s for p in passes), "s"),
        }
        if not any(passes[0].outputs["codes"]):
            test_mse = json.loads(passes[0].outputs["predict"])["metrics"]["mse"]
            metrics["test_mse"] = (test_mse, "mse")
            metrics["mse_over_noise"] = (test_mse / self.noise**2, "ratio")
        return metrics


WORKLOADS = {w.name: w for w in (Friedman, Wide, CliPipeline)}
