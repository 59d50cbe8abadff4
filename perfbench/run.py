"""anovafit benchmark: one workload per run, closed loop, one caller.

Run from the repository root::

    python3 perfbench/run.py --workload friedman --seed 1 --seconds 20 --trace 0

The run builds the workload's inputs from ``--seed``, repeats passes over
them until ``--seconds`` have elapsed, checks the outputs, prints a
human-readable report and, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are its per-layer metrics, taken from a run that
alternates untraced and traced passes.  The full record (machine, every
workload metric, checks, per-layer numbers) goes to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``, and a traced run's
spans to ``perfbench/out/<workload>-seed<seed>-spans.json``.

The library is imported from ``src/`` next to this directory; without it
the run exits with code 2.  No threads or worker processes are started;
set-up probes run one at a time as child interpreters and are waited for.
The BLAS thread count is the library default and is recorded.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 4  # before the timed loop, and as many again after it


def _fail(message: str, code: int) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_library() -> None:
    """Import ``anovafit`` from the checkout's ``src/``, never from elsewhere."""
    if not (SRC / "anovafit" / "__init__.py").is_file():
        _fail(f"no library sources at {SRC}/anovafit; run from a full checkout", 2)
    sys.path.insert(0, str(SRC))
    import anovafit

    if Path(anovafit.__file__).resolve().parent != (SRC / "anovafit").resolve():
        _fail(f"anovafit imported from {anovafit.__file__}, not from {SRC}", 2)


def meminfo_mib(key: str) -> float:
    with open("/proc/meminfo", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"{key} missing from /proc/meminfo")


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "mem_total_mib": round(meminfo_mib("MemTotal")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "blas_thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "seed": seed,
    }


def measure_setup(args) -> list[float]:
    """Wall time of a fresh interpreter importing anovafit and building the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # no timeout: with one, wait() polls in sleeps of up to 50 ms, which
        # would quantize the measurement
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


def probe_dir(args) -> Path:
    return OUT / f"{args.workload}-seed{args.seed}-setup"


def run_passes(workload, seconds: float) -> list:
    """Closed loop: start the next pass until ``seconds`` have elapsed."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(workload.run_pass(spans.NullTracer()))
    return passes


def run_traced(workload, tracer, seconds: float) -> tuple[list, list]:
    """Alternate untraced and traced passes, at least two of each.

    Alternating keeps warm-up and drift in the machine's load out of the
    tracing-overhead ratio, and every traced pass has an untraced twin to
    agree with.
    """
    plain, traced = [], []
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        plain.append(workload.run_pass(spans.NullTracer()))
        tracer.begin_pass()
        tracer.install()
        try:
            traced.append(workload.run_pass(tracer))
        finally:
            tracer.uninstall()
    return plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", 2)
    cls = WORKLOADS[args.workload]
    if args.setup_probe:
        cls(args.seed, probe_dir(args)).prepare()
        return 0

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record(args.seed)}
    available = meminfo_mib("MemAvailable")
    if available < 2 * cls.recorded_peak_mib:
        _fail(f"MemAvailable {available:.0f} MiB is below twice the {args.workload} "
              f"workload's recorded peak of {cls.recorded_peak_mib} MiB; not starting it", 3)

    setup = [] if args.trace else measure_setup(args)
    workload = cls(args.seed, OUT / f"{args.workload}-seed{args.seed}")
    workload.prepare()

    tracer = spans.Tracer() if args.trace else None
    if tracer is None:
        plain = passes = run_passes(workload, args.seconds)
    else:
        plain, passes = run_traced(workload, tracer, args.seconds)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not args.trace:
        # probes on both sides of the loop sample the machine's state over the run
        setup += measure_setup(args)
        shutil.rmtree(probe_dir(args), ignore_errors=True)

    every = plain + passes if tracer else passes
    checks = list(workload.checks(plain[0]))
    same = all(p.fingerprint == every[0].fingerprint for p in every)
    checks.append((f"{len(every)} passes ({len(every) - len(plain)} traced) "
                   "give bitwise-equal outputs", same, ""))
    if tracer is not None:
        checks += trace_checks(tracer, workload)

    failed = sum(p.failed for p in every) + sum(not ok for _, ok, _ in checks)
    attempted = sum(p.units for p in every) + len(checks)
    details = workload.report(plain)
    walls = [p.wall_s for p in plain]
    level, tail = spans.tail(walls)
    details["pass_s"] = (statistics.median(walls), "s")
    details["pass_s_tail"] = (tail, "s")
    details["pass_s_tail_level"] = (level, "percentile")
    details["passes"] = (len(plain), "count")
    details["peak_mem_mib"] = (peak_mib, "MiB")
    details["failed_share"] = (failed / attempted, "ratio")
    if setup:
        details["setup_s"] = (statistics.median(setup), "s")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["per_layer" if tracer else "end_to_end"]]
    if tracer is None:
        values = details
    else:
        values = tracer.layer_metrics()
        traced_walls = [p.wall_s for p in passes]
        values["trace.overhead"] = (statistics.median(traced_walls) / statistics.median(walls),
                                    "ratio")
        record["tail_levels"] = tracer.tail_levels()
        record["traced_pass_wall_s"] = traced_walls
        unlisted = sorted(set(values) - set(names))
        if unlisted:
            _fail(f"per-layer metrics {unlisted} are missing from BENCHMARK.json", 1)
    missing = [n for n in names if n not in values]
    if missing:
        _fail(f"cannot report {missing}: the workload failed before producing them", 1)

    correct = all(ok for _, ok, _ in checks) and failed == 0
    record.update(
        correct=correct, attempted=attempted, failed=failed,
        checks=[{"check": c, "ok": ok, "detail": d} for c, ok, d in checks],
        workload_metrics={k: {"value": v, "unit": u} for k, (v, u) in details.items()},
        setup_probe_s=setup,
        pass_wall_s=walls,
    )
    if tracer is not None:
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}"
    Path(f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        Path(f"{stem}-spans.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "rep", "payload"],
                        "pass_marks": tracer.pass_marks, "spans": tracer.spans}) + "\n"
        )

    print_report(record, details, checks, values if tracer else None)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n][0], "unit": values[n][1]} for n in names},
    }
    print(json.dumps(result))
    return 0


def trace_checks(tracer, workload) -> list[tuple[str, bool, str]]:
    """Exact counts, and a span for every layer expected on the workload."""
    counts = [tracer.counts(p) for p in tracer.passes()]
    missing = [name for name in workload.spans if counts[0][name] == 0]
    return [
        (f"counts repeat exactly over {len(counts)} traced passes",
         all(c == counts[0] for c in counts), ""),
        ("every layer expected on this workload recorded spans", not missing,
         f"missing {missing}" if missing else ""),
    ]


def print_report(record, details, checks, layers) -> None:
    m = record["machine"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"seconds {record['seconds']:g}  trace {record['trace']}")
    print(f"machine  cpus {m['cpu_count']} affinity {m['cpu_affinity']}  "
          f"mem {m['mem_total_mib']} MiB  python {m['python']}  numpy {m['numpy']}  "
          f"blas {m['blas']} threads {m['blas_threads']}")
    for name, (value, unit) in details.items():
        print(f"  {name:<24} {value:>14.6g} {unit}")
    for name, ok, detail in checks:
        print(f"  [{'ok' if ok else 'FAIL'}] {name} {detail}".rstrip())
    if layers:
        for name, (value, unit) in layers.items():
            print(f"  {name:<32} {value:>14.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
