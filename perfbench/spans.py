"""Spans recorded from the benchmark's side of the library boundary.

The traced run replaces public library functions, at the module attribute
under which their callers look them up, with wrappers that record a span
``[name, start, end, parent, rep, payload]`` in memory.  Nothing under
``src/`` changes: the wrappers sit in the caller's namespace, and the
design operator that ``fit``/``predict`` build is handed on as a proxy
whose ``matvec``/``adjoint_matvec`` are timed, so the solver receives a
counting, timing operator.  A name that no longer exists fails the run
instead of reporting zeros.
"""

from __future__ import annotations

import collections
import contextlib
import importlib
import statistics
import time
import tracemalloc

NAME, START, END, PARENT, REP, PAYLOAD = range(6)

# (module, attribute, span).  The module is the caller whose lookup is
# replaced, so e.g. ``anovafit.bench.fit`` times the fits that the Friedman
# pipeline makes, and ``anovafit.model.lsqr_solve`` the solves that ``fit``
# makes.
PATCHES = (
    ("anovafit", "fit", "model.fit"),
    ("anovafit", "predict", "model.predict"),
    ("anovafit.bench", "fit", "model.fit"),
    ("anovafit.bench", "predict", "model.predict"),
    ("anovafit.bench", "gsi", "model.analyze"),
    ("anovafit.bench", "analyze", "model.analyze"),
    ("anovafit.bench", "drop_variables", "model.refine"),
    ("anovafit.bench", "threshold_active_set", "model.refine"),
    ("anovafit.bench", "friedman_sample", "datasets.sample"),
    ("anovafit.cli", "cmd_fit", "cli.fit"),
    ("anovafit.cli", "cmd_rank", "cli.rank"),
    ("anovafit.cli", "cmd_refine", "cli.refine"),
    ("anovafit.cli", "cmd_predict", "cli.predict"),
    ("anovafit.cli", "fit", "model.fit"),
    ("anovafit.cli", "predict", "model.predict"),
    ("anovafit.cli", "analyze", "model.analyze"),
    ("anovafit.cli", "threshold_active_set", "model.refine"),
    ("anovafit.cli", "drop_variables", "model.refine"),
    ("anovafit.cli", "incremental_expand", "model.refine"),
    ("anovafit.cli", "model_to_obj", "model.save"),
    ("anovafit.cli", "load_model", "model.load"),
    ("anovafit.cli", "model_from_obj", "model.load"),
    ("anovafit.cli", "load_csv", "datasets.load_csv"),
    ("anovafit.cli", "normalize", "datasets.normalize"),
    ("anovafit.cli", "apply_normalization", "datasets.normalize"),
    ("anovafit.cli", "svg_bar_chart", "plots.svg"),
    ("anovafit.cli", "write_svg", "plots.svg"),
    ("anovafit.model", "build_index_union", "terms.union"),
    ("anovafit.model", "DesignOperator", "operators.build"),
    ("anovafit.model", "lsqr_solve", "solver.solve"),
    ("anovafit.operators", "eval_1d_table", "basis.table"),
)

# What a span keeps of its call's result, for the exact per-pass counts.
PAYLOADS = {
    "terms.union": lambda union: union.size,
    "solver.solve": lambda result: (result.iterations, result.stop_reason),
}

LAYERS = ("basis", "terms", "operators", "solver", "model", "datasets", "bench", "cli", "plots")

# Every timed span; each gives a median, a tail and a per-pass call count.
SPAN_NAMES = (
    "basis.table",
    "terms.union",
    "operators.build",
    "operators.matvec",
    "operators.adjoint",
    "solver.solve",
    "model.fit",
    "model.predict",
    "model.analyze",
    "model.refine",
    "model.save",
    "model.load",
    "datasets.sample",
    "datasets.load_csv",
    "datasets.normalize",
    "plots.svg",
    "cli.fit",
    "cli.rank",
    "cli.refine",
    "cli.predict",
    "bench.f1",
    "bench.f2",
    "bench.f3",
)


def tail_level(n: int) -> float:
    """Percentile level of :func:`tail` for ``n`` samples."""
    return 50.0 if n < 20 else 100.0 * (n - 10) / n


def tail(samples) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value.

    Returns ``(level, value)``: the ``n - 10``-th smallest sample sits at
    level ``100 * (n - 10) / n``.  Below 20 samples that level would fall
    under the median, so the median (level 50) is returned instead.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 20:
        return tail_level(n), statistics.median(xs)
    return tail_level(n), xs[n - 11]


class NullTracer:
    """Stand-in used by the untraced run: spans cost one no-op context."""

    rep = -1

    def span(self, name):
        return contextlib.nullcontext()


class TracedOperator:
    """Design operator proxy that times and counts its applications."""

    def __init__(self, op, tracer: "Tracer"):
        self._op = op
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._op, name)

    def matvec(self, coeffs):
        idx = self._tracer.open("operators.matvec")
        try:
            return self._op.matvec(coeffs)
        finally:
            self._tracer.close(idx)

    def adjoint_matvec(self, values):
        idx = self._tracer.open("operators.adjoint")
        try:
            return self._op.adjoint_matvec(values)
        finally:
            self._tracer.close(idx)


class Tracer:
    """In-memory span recorder with patch install/uninstall."""

    def __init__(self):
        self.spans: list[list] = []
        self.pass_marks: list[int] = []  # span index where each pass starts
        self.rep = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.rep, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def begin_pass(self) -> None:
        self.pass_marks.append(len(self.spans))

    # --- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name):
        payload = PAYLOADS.get(name)

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if payload is not None:
                    rec[PAYLOAD] = payload(result)
            return result

        return traced

    def _wrap_build(self, cls, name):
        """Time the build, record its tracemalloc peak, hand on a timing proxy."""

        def traced(*args, **kwargs):
            tracemalloc.start()
            try:
                with self.span(name) as rec:
                    op = cls(*args, **kwargs)
                rec[PAYLOAD] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return TracedOperator(op, self)

        return traced

    def install(self) -> None:
        try:
            for module_name, attr, name in PATCHES:
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    raise RuntimeError(
                        f"traced name {module_name}.{attr} no longer exists; "
                        "update the patch table in perfbench/spans.py"
                    )
                original = getattr(module, attr)
                wrap = self._wrap_build if name == "operators.build" else self._wrap
                wrapper = wrap(original, name)
                self._undo.append((module, attr, original))
                setattr(module, attr, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    # --- summaries --------------------------------------------------------

    def passes(self) -> list[list[list]]:
        bounds = self.pass_marks + [len(self.spans)]
        return [self.spans[a:b] for a, b in zip(bounds, bounds[1:])]

    def counts(self, spans) -> dict:
        """Exact per-pass counts: calls per span, solver iterations, columns."""
        out = {name: 0 for name in SPAN_NAMES}
        iterations = cols = 0
        for s in spans:
            out[s[NAME]] += 1
            if s[NAME] == "solver.solve":
                iterations += s[PAYLOAD][0]
            elif s[NAME] == "terms.union":
                cols += s[PAYLOAD]
        out["solver.iterations"] = iterations
        out["terms.cols"] = cols
        return out

    def self_times(self, spans, offset: int) -> dict:
        """Per-layer self time of one pass: span time not covered by child spans."""
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= offset:
                child[s[PARENT] - offset] += s[END] - s[START]
        out = {layer: 0.0 for layer in LAYERS}
        for i, s in enumerate(spans):
            out[s[NAME].split(".")[0]] += s[END] - s[START] - child[i]
        return out

    def layer_metrics(self) -> dict:
        """Per-layer metrics: timings pooled over all traced passes, counts of the first.

        That the counts repeat in every pass is checked by the caller.
        """
        durations = {name: [] for name in SPAN_NAMES}
        solves = not_tol = 0
        peak = 0
        for s in self.spans:
            durations[s[NAME]].append(s[END] - s[START])
            if s[NAME] == "solver.solve":
                solves += 1
                not_tol += s[PAYLOAD][1] != "tolerance"
            elif s[NAME] == "operators.build":
                peak = max(peak, s[PAYLOAD])
        passes = self.passes()
        first = self.counts(passes[0])
        metrics = {}
        for name in SPAN_NAMES:
            d = durations[name]
            metrics[f"{name}_s"] = (statistics.median(d) if d else 0.0, "s")
            metrics[f"{name}_tail_s"] = (tail(d)[1] if d else 0.0, "s")
            metrics[f"{name}.calls"] = (first[name], "count")
        metrics["operators.build_peak_mib"] = (peak / 2**20, "MiB")
        metrics["solver.iterations"] = (first["solver.iterations"], "count")
        metrics["solver.not_tolerance"] = (not_tol / solves if solves else 0.0, "ratio")
        metrics["terms.cols"] = (first["terms.cols"], "count")
        selfs = [self.self_times(p, mark) for p, mark in zip(passes, self.pass_marks)]
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = (statistics.median(t[layer] for t in selfs), "s")
        return metrics

    def tail_levels(self) -> dict:
        """Percentile level of each reported tail, for the run record."""
        counts = collections.Counter(s[NAME] for s in self.spans)
        return {name: tail_level(n) for name, n in counts.items()}
