#!/usr/bin/env python3
"""Print fingerprints of the numerical outputs, to show a refactor is bitwise neutral.

Each output line is ``name value``: a sha256 of the raw bytes of an output
array, a ``float.hex`` of a scalar, or an exact count.  The script covers

* ``eval_1d_table`` of each basis on more than ``_TABLE_BLOCK`` points (the
  domain endpoints included), on the grid of N = 22 for ``per`` and N = 12
  otherwise, so that every ``|k| <= 11`` is covered;
* the index unions of a d=6 term set with gaps, of highest order 1, 2 and 3,
  in each basis: ``frequencies_full()`` and the ``slice_for`` bounds of the
  empty term and of the first and last term of each order;
* ``matvec``, ``adjoint_matvec`` and ``dense()`` of seeded random design
  operators (term orders 1-3, orders skipped, all three bases), hashed
  apart for instances of highest order <= 2 and of order 3;
* ``matvec`` and ``adjoint_matvec`` of three seeded operators per basis, of
  highest order 1, 2 and 3, on 2 * 4096 + 5 nodes, which an apply takes in
  several node blocks;
* the ``bench_friedman(k, 100, 0)`` medians for k = 1, 2, 3;
* the distinct table bytes that a d=30 cosine operator (4066 columns, 4000
  rows) holds: the bytes of the arrays that own its order tables' memory;
* a fit with that operator's nodes and terms (lam=1) on the LSQR path,
  with its ``predict`` (2000 rows, and 3 * 4096 + 5 rows, which ``predict``
  evaluates in several row blocks) and ``analyze`` output;
* refinement of that fit's term set from its report: the terms kept by
  ``threshold_active_set`` at ``(t, t)`` for t = 1e-3, 1e-2, the variables
  ranked above theta = 0.02, 0.05 with the size of ``drop_variables`` on
  each, and the terms of ``incremental_expand(..., 0.05, 3)``;
* a d=6, ds=3, N=(4, 4, 4) cosine fit (lam=1, 2000 rows) on the LSQR path:
  its stop reason, iteration count and coefficients, so a change to the
  order-3 apply shows as LSQR amplifies it;
* the Friedman-1 ranking-stage fit (200 rows, 76 columns, lam=3) with
  ``max_iterations=5``: its stop reason, iteration count and coefficients,
  which show whether an iteration cap chooses the solver;
* the Friedman-2 first-stage fit (200 rows, 19 columns, lam=0), which
  runs LSQR through the operator's dense matrix: its stop reason,
  iteration count and coefficients;
* ``run_real_benchmark`` (10 repetitions, seed 0) on a seeded 400-row
  Friedman-1 table: median, quartiles and median active-term count for the
  ``enc`` and ``ch`` presets, ``asn`` restricted by ``keep=(1, ..., 5)``,
  and ``enc`` set to order 3 and bandwidths (4, 2, 2) by ``RealPreset.override``;
* the command line, run in-process in a temporary directory: the stdout,
  stderr and both SVG charts of ``anovafit rank`` on a Friedman-1 model,
  and the JSON of ``anovafit bench-real custom`` with every protocol flag
  set, on a generated CSV with ``--reps 2``;
* ``anovafit fit --csv`` with ``--normalize`` and with ``--normalize-target``,
  in ``cos`` and ``per``, on a generated CSV whose features lie off the unit
  cube: the model file, and the output (temporary paths stripped) of the
  fit, of ``predict --target`` through that model, and of ``predict``
  without ``--target`` on a features-only CSV.
* the type and message of the error that one fixed bad input raises, per
  rule that the library states once: a bandwidth (3 in a grid; 6.5 and
  2**64 in a profile), a vector length (a coefficient vector and a value
  vector of the wrong length) and the width of normalization extrema (in
  ``apply_normalization`` and in a model file); ``accepted`` if none;
* the same for hostile sizes and thresholds: a Friedman-1 fit at
  bandwidths (1e9, 2), with every lookup of ``full_grid_1d`` refusing a
  bandwidth above 64 so that no run allocates a bandwidth-sized grid; a
  model object with one term over variable 10**15, loaded, then given to
  ``anovafit predict`` (its exit code and stderr); ``direct_solve`` of a 1-d
  matrix; ``incremental_expand`` at ranking threshold 0;
* sha256 of the help text of ``anovafit fit`` and ``anovafit refine``, at
  80 columns.

The first line records the BLAS thread variables (or ``unset``) and
``os.cpu_count()``.

The script imports ``anovafit`` from the ``src/`` directory of its own
checkout.  ``tests/test_fingerprint.py`` runs it at one BLAS thread and
compares its output with ``tests/data/fingerprint.txt`` line by line.  To
compare two checkouts by hand, run it in each, on the same machine, and
diff the two outputs:

    python3 scripts/fingerprint_outputs.py > after.txt
    diff before.txt after.txt

BLAS results depend on the thread count, so both runs need the same
thread count (for example ``OPENBLAS_NUM_THREADS=1`` on both sides).
A run takes about ten seconds on two cores.

A hash shows that an array changed, not by how much.  ``--save DIR``
writes each hashed array to ``DIR/<name>.npy`` (the arrays of one line
raveled and joined); ``--against DIR`` prints to stderr, for each hashed
array, ``name max|a - ref| / max|ref|`` (a ``float.hex``) against the
arrays saved there.  To size a change, run ``--save`` in the parent's
checkout and ``--against`` in the change's:

    python3 scripts/fingerprint_outputs.py --save ref > before.txt
    python3 scripts/fingerprint_outputs.py --against ref > after.txt 2> sizes.txt
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from dataclasses import replace
from unittest import mock
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from anovafit import (  # noqa: E402
    BandwidthProfile,
    BasisKind,
    Dataset,
    DesignOperator,
    FriedmanSpec,
    Normalization,
    SensitivityReport,
    SolverConfig,
    TermSet,
    analyze,
    apply_normalization,
    build_index_union,
    direct_solve,
    drop_variables,
    fit,
    friedman_sample,
    full_grid_1d,
    incremental_expand,
    lsqr_solve,
    predict,
    superposition_terms,
    threshold_active_set,
)
from anovafit.basis import _TABLE_BLOCK, eval_1d_table  # noqa: E402
from anovafit.bench import REAL_PRESETS, bench_friedman, run_real_benchmark  # noqa: E402
from anovafit.cli import main as cli_main  # noqa: E402
from anovafit.model import model_from_obj, model_to_obj  # noqa: E402

INSTANCES_PER_BASIS = 46
MAX_COLUMNS = 400


# name -> the raveled arrays of that line, for --save and --against
HASHED: dict[str, np.ndarray] = {}
# node count of the ``blocks`` operators: two blocks of 4096 nodes and a few more
BLOCK_ROWS = 2 * 4096 + 5


def sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def hashed(name: str, *arrays) -> str:
    """The line ``name sha``; also keeps the arrays under ``name``."""
    HASHED[name] = np.concatenate([np.ravel(a) for a in arrays])
    return f"{name} {sha(*arrays)}"


def table_lines() -> list[str]:
    rng = np.random.default_rng(8)
    lines = []
    for kind in (BasisKind.EXPONENTIAL, BasisKind.COSINE, BasisKind.CHEBYSHEV):
        lo, hi = kind.domain
        x = np.concatenate([[lo, hi], rng.uniform(lo, hi, 2 * _TABLE_BLOCK + 77)])
        bandwidth = 22 if kind.is_complex else 12
        lines.append(hashed(f"basis.{kind.value}.table", eval_1d_table(kind, bandwidth, x)))
    return lines


def union_lines() -> list[str]:
    lines = []
    for kind in (BasisKind.EXPONENTIAL, BasisKind.COSINE, BasisKind.CHEBYSHEV):
        for top in (1, 2, 3):
            terms = [u for u in superposition_terms(6, top).terms if sum(u) % 3 != 1]
            union = build_index_union(
                TermSet(6, tuple(terms)), BandwidthProfile.from_list([6, 4, 4][:top]), kind
            )
            name = f"union.{kind.value}.order{top}"
            lines.append(hashed(f"{name}.frequencies", union.frequencies_full()))
            ends = [()] + [
                [u for u in union.terms if len(u) == order][end]
                for order in range(1, top + 1) for end in (0, -1)
            ]
            bounds = (union.slice_for(u) for u in ends)
            lines.append(f"{name}.slices " + " ".join(
                f"{','.join(map(str, u)) or '-'}={sl.start}:{sl.stop}" for u, sl in zip(ends, bounds)
            ))
    return lines


def held_table_bytes(op: DesignOperator) -> int:
    """Bytes of the distinct arrays that own the memory of the operator's order tables."""
    owners = {}
    for stack in op._stacks:
        owner = stack.table if stack.table.base is None else stack.table.base
        owners[id(owner)] = owner.nbytes
    return sum(owners.values())


def random_operator(rng: np.random.Generator, kind: BasisKind) -> DesignOperator:
    """Operator on a random term set: d <= 7, orders 1-3, each order possibly absent."""
    while True:
        d = int(rng.integers(1, 8))
        max_order = min(int(rng.integers(1, 4)), d)
        full = superposition_terms(d, max_order).nonempty_terms
        keep = rng.random() * 0.8 + 0.1
        terms = tuple(u for u in full if rng.random() < keep)
        bandwidths = BandwidthProfile.from_list(
            [int(rng.choice([2, 4, 6])) for _ in range(max_order)]
        )
        union = build_index_union(TermSet(d, terms), bandwidths, kind)
        if union.size <= MAX_COLUMNS:
            break
    lo, hi = kind.domain
    rows = int(rng.integers(1, 60))
    return DesignOperator(rng.uniform(lo, hi, size=(rows, d)), union)


def operator_lines() -> list[str]:
    """Hashes per basis, split by the instance's highest term order (<= 2 or 3).

    Only order-3 terms build the leading rows of ``matvec`` and
    ``adjoint_matvec`` from products of factors, so a change to that path
    shows on the ``order3`` lines alone.
    """
    lines = []
    for kind in (BasisKind.EXPONENTIAL, BasisKind.COSINE, BasisKind.CHEBYSHEV):
        rng = np.random.default_rng(20101019)
        outputs = {group: ([], [], []) for group in ("order12", "order3")}
        for _ in range(INSTANCES_PER_BASIS):
            op = random_operator(rng, kind)
            c = rng.standard_normal(op.cols)
            r = rng.standard_normal(op.rows)
            if kind.is_complex:
                c = c + 1j * rng.standard_normal(op.cols)
                r = r + 1j * rng.standard_normal(op.rows)
            top = max(len(term) for term in op.index_union.terms)
            matvecs, adjoints, denses = outputs["order3" if top >= 3 else "order12"]
            matvecs.append(op.matvec(c))
            adjoints.append(op.adjoint_matvec(r))
            denses.append(op.dense())
        for group, (matvecs, adjoints, denses) in outputs.items():
            name = f"operator.{kind.value}.{group}"
            lines.append(hashed(f"{name}.matvec", *matvecs))
            lines.append(hashed(f"{name}.adjoint", *adjoints))
            lines.append(hashed(f"{name}.dense", *denses))
    return lines


def block_lines() -> list[str]:
    """Applies on ``BLOCK_ROWS`` nodes, of highest order 1, 2 and 3, per basis."""
    lines = []
    for kind in (BasisKind.EXPONENTIAL, BasisKind.COSINE, BasisKind.CHEBYSHEV):
        rng = np.random.default_rng(4096)
        lo, hi = kind.domain
        matvecs, adjoints = [], []
        for order in (1, 2, 3):
            union = build_index_union(
                superposition_terms(5, order), BandwidthProfile.from_list([6, 4, 4][:order]), kind
            )
            op = DesignOperator(rng.uniform(lo, hi, size=(BLOCK_ROWS, 5)), union)
            c = rng.standard_normal(op.cols)
            r = rng.standard_normal(op.rows)
            if kind.is_complex:
                c = c + 1j * rng.standard_normal(op.cols)
                r = r + 1j * rng.standard_normal(op.rows)
            matvecs.append(op.matvec(c))
            adjoints.append(op.adjoint_matvec(r))
        lines.append(hashed(f"operator.{kind.value}.blocks.matvec", *matvecs))
        lines.append(hashed(f"operator.{kind.value}.blocks.adjoint", *adjoints))
    return lines


def friedman_lines() -> list[str]:
    return [
        f"bench_friedman.f{k}.median_mse {bench_friedman(k, 100, 0)['median_mse'].hex()}"
        for k in (1, 2, 3)
    ]


def terms_line(name: str, termset: TermSet) -> str:
    text = repr(termset.terms).encode()
    return f"{name} {len(termset)} {hashlib.sha256(text).hexdigest()}"


def refine_lines(report, termset: TermSet) -> list[str]:
    """Refinement steps on the d=30 report.

    Written with the per-order tuple and the explicit ranking selection, so
    the script runs unchanged against older checkouts.
    """
    lines = [
        terms_line(f"refine.d30.threshold.{t:g}", threshold_active_set(report, termset, (t, t)))
        for t in (1e-3, 1e-2)
    ]
    for theta in (0.02, 0.05):
        keep = [i for i in range(1, termset.dimension + 1) if report.ranking[i - 1] > theta]
        lines.append(
            f"refine.d30.ranked.{theta:g} {','.join(map(str, keep))} "
            f"terms={len(drop_variables(termset, keep))}"
        )
    lines.append(terms_line("refine.d30.expand", incremental_expand(report, termset, 0.05, 3)))
    return lines


def wide_fit_lines() -> list[str]:
    rng = np.random.default_rng(30)
    d, rows = 30, 4000
    x = rng.random((rows, d))
    y = (
        10.0 * np.sin(np.pi * x[:, 0] * x[:, 1])
        + 20.0 * (x[:, 2] - 0.5) ** 2
        + 10.0 * x[:, 3]
        + 5.0 * x[:, 4]
        + rng.standard_normal(rows)
    )
    termset = superposition_terms(d, 2)
    union = build_index_union(termset, BandwidthProfile.from_list([6, 4]), BasisKind.COSINE)
    table_bytes = held_table_bytes(DesignOperator(x, union))
    with warnings.catch_warnings():
        # 4000 rows for 4066 columns: the regularization makes up for it
        warnings.simplefilter("ignore", UserWarning)
        model = fit(
            x, y, termset, BandwidthProfile.from_list([6, 4]),
            BasisKind.COSINE, SolverConfig(regularization=1.0),
        )
    report = analyze(model)
    rho = np.array([value for _, value in report.indices])
    return [
        f"operator.d30.table_bytes {table_bytes}",
        f"fit.d30.columns {model.coefficients.size}",
        f"fit.d30.stop {model.stop_reason}:{model.iterations}",
        hashed("fit.d30.coefficients", model.coefficients),
        f"fit.d30.relative_residual {model.relative_residual.hex()}",
        hashed("fit.d30.predict", predict(model, rng.random((2000, d)))),
        hashed("fit.d30.analyze", np.array([report.variance]), rho, report.ranking),
        hashed("fit.d30.predict_blocks", predict(model, rng.random((3 * 4096 + 5, d)))),
    ] + refine_lines(report, termset)


def order3_fit_lines() -> list[str]:
    """A d=6, ds=3, N=(4, 4, 4) cosine fit (694 columns, 2000 rows, lam=1) on the LSQR path."""
    rng = np.random.default_rng(6)
    x = rng.random((2000, 6))
    y = np.sin(2 * np.pi * x[:, 0] * x[:, 1] * x[:, 2]) + x[:, 3] + 0.1 * rng.standard_normal(2000)
    model = fit(
        x, y, superposition_terms(6, 3), BandwidthProfile.from_list([4, 4, 4]),
        BasisKind.COSINE, SolverConfig(regularization=1.0),
    )
    return [
        f"fit.order3.stop {model.stop_reason}:{model.iterations}",
        hashed("fit.order3.coefficients", model.coefficients),
    ]


def capped_fit_lines() -> list[str]:
    """The Friedman-1 ranking-stage fit (200 x 76, lam=3) with an iteration cap of 5."""
    train = friedman_sample(FriedmanSpec(1), 200, 0)
    model = fit(
        train.nodes, train.targets, superposition_terms(10, 2), BandwidthProfile.from_list([4, 2]),
        BasisKind.COSINE, SolverConfig(regularization=3.0, max_iterations=5),
    )
    return [
        f"fit.capped.stop {model.stop_reason}:{model.iterations}",
        hashed("fit.capped.coefficients", model.coefficients),
    ]


def small_lsqr_fit_lines() -> list[str]:
    """The Friedman-2 first-stage fit (200 x 19, lam=0): LSQR within the direct-size rule."""
    train = friedman_sample(FriedmanSpec(2), 200, 0)
    model = fit(
        train.nodes, train.targets, superposition_terms(4, 2), BandwidthProfile.from_list([4, 2]),
        BasisKind.COSINE, SolverConfig(),
    )
    return [
        f"fit.small_lsqr.stop {model.stop_reason}:{model.iterations}",
        hashed("fit.small_lsqr.coefficients", model.coefficients),
    ]


def real_lines() -> list[str]:
    table = friedman_sample(FriedmanSpec(1), 400, 11)
    presets = {
        "enc": REAL_PRESETS["enc"],
        "ch": REAL_PRESETS["ch"],
        "asn_keep5": replace(REAL_PRESETS["asn"], keep=(1, 2, 3, 4, 5)),
        "enc_ds3": REAL_PRESETS["enc"].override(order=3, bandwidths=(4, 2, 2)),
    }
    lines = []
    for name, preset in presets.items():
        result = run_real_benchmark(table, preset, repetitions=10, seed=0)
        lines += [
            f"real.{name}.{key} {float(result[key]).hex()}"
            for key in ("median", "q1", "q3", "median_active_terms")
        ]
    return lines


def machine_line() -> str:
    threads = " ".join(
        f"{name}={os.environ.get(name, 'unset')}"
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    )
    return f"machine {threads} cpu_count={os.cpu_count()}"


def sha_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


def write_csv(path: Path, header, rows: np.ndarray) -> str:
    """A headered CSV of ``rows``, each value written by ``repr``; returns the path."""
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def cli_lines() -> list[str]:
    """``rank`` and ``bench-real`` output, with only flags that older checkouts have."""
    with tempfile.TemporaryDirectory() as tmp:
        model, ranking, gsi = (str(Path(tmp, name)) for name in ("m.json", "r.svg", "g.svg"))
        run_cli("fit", "--friedman", "1", "--ds", "2", "--bandwidths", "4,2",
                "--lambda", "1", "--seed", "3", "--out", model)
        code, out, err = run_cli("rank", "--model", model,
                                 "--plot-ranking", ranking, "--plot-gsi", gsi)
        lines = [
            f"cli.rank.exit {code}",
            f"cli.rank.stdout {sha_bytes(out.encode())}",
            f"cli.rank.stderr {sha_bytes(err.encode())}",
            f"cli.rank.plot_ranking {sha_bytes(Path(ranking).read_bytes())}",
            f"cli.rank.plot_gsi {sha_bytes(Path(gsi).read_bytes())}",
        ]
        table = friedman_sample(FriedmanSpec(1), 300, 21)
        csv_path, real = Path(tmp, "table.csv"), Path(tmp, "real.json")
        write_csv(csv_path, table.columns + ("y",), np.column_stack([table.nodes, table.targets]))
        code, _, _ = run_cli(
            "bench-real", "custom", "--csv", str(csv_path), "--target", "y",
            "--split", "0.6", "--ds", "2", "--bandwidths", "4,2", "--lambda", "0.5",
            "--gsi-threshold", "0.005", "--metric", "mse", "--normalize-target",
            "--keep", "1,2,3,4,5,6", "--reps", "2", "--seed", "1", "--out", str(real),
        )
        lines.append(f"cli.bench_real.custom {code} {sha_bytes(real.read_bytes())}")
    return lines


def normalized_lines() -> list[str]:
    """``fit --csv`` with each normalization flag, and ``predict`` through its model.

    The temporary directory is stripped from the output before it is hashed.
    """
    table = friedman_sample(FriedmanSpec(1), 300, 22)
    nodes = 2.0 + 3.0 * table.nodes  # off the unit cube, so the map has work to do
    lines = []
    with tempfile.TemporaryDirectory() as tmp:

        def digest(out: str, err: str) -> str:
            return sha_bytes((out + err).replace(tmp, "").encode())

        data = write_csv(Path(tmp, "data.csv"), table.columns + ("y",),
                         np.column_stack([nodes, table.targets]))
        features = write_csv(Path(tmp, "features.csv"), table.columns, nodes[:40])
        model = str(Path(tmp, "model.json"))
        for basis in ("cos", "per"):
            for flag in ("--normalize", "--normalize-target"):
                name = f"cli.normalized.{basis}.{flag[2:].replace('-', '_')}"
                code, out, err = run_cli(
                    "fit", "--csv", data, "--target", "y", "--basis", basis, "--ds", "2",
                    "--bandwidths", "4,2", "--split", "0.7", "--lambda", "1", "--seed", "2",
                    flag, "--out", model,
                )
                lines += [
                    f"{name}.model {sha_bytes(Path(model).read_bytes())}",
                    f"{name}.fit {code} {digest(out, err)}",
                ]
                code, out, err = run_cli("predict", "--model", model, "--csv", data,
                                         "--target", "y")
                lines.append(f"{name}.predict_target {code} {digest(out, err)}")
                code, out, err = run_cli("predict", "--model", model, "--csv", features)
                lines.append(f"{name}.predict_features {code} {digest(out, err)}")
    return lines


def error_line(name: str, call) -> str:
    """``errors.<name>`` with the type and message of what ``call()`` raises,
    else what it returns if that is a string, else ``accepted``."""
    try:
        result = call()
    except Exception as exc:  # any type: the line records which
        return f"errors.{name} {type(exc).__name__}: {exc}"
    return f"errors.{name} {result if isinstance(result, str) else 'accepted'}"


def refusing_large_grids():
    """Patch every lookup of ``full_grid_1d`` to raise for a bandwidth above 64."""

    def refusing(kind, bandwidth):
        if bandwidth > 64:
            raise AssertionError(f"a grid of bandwidth {bandwidth} was requested")
        return full_grid_1d(kind, bandwidth)

    stack = contextlib.ExitStack()
    for module in ("basis", "terms"):
        stack.enter_context(mock.patch(f"anovafit.{module}.full_grid_1d", refusing))
    return stack


def huge_index_predict(obj: dict) -> str:
    """``anovafit predict`` of the model object ``obj`` on a 2-column CSV: exit code and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        model, data = Path(tmp, "m.json"), Path(tmp, "x.csv")
        model.write_text(json.dumps(obj), encoding="utf-8")
        data.write_text("a,b\n0.1,0.2\n", encoding="utf-8")
        code, _, err = run_cli("predict", "--model", str(model), "--csv", str(data))
        return f"exit {code}: {err.replace(tmp, '').strip()}"


def error_lines() -> list[str]:
    union = build_index_union(
        superposition_terms(3, 2), BandwidthProfile.from_list([4, 2]), BasisKind.COSINE
    )
    op = DesignOperator(np.full((8, 3), 0.5), union)
    rng = np.random.default_rng(5)
    model = fit(rng.random((20, 2)), rng.random(20), superposition_terms(2, 1),
                BandwidthProfile.from_list([4]), BasisKind.COSINE)
    block = {"feature_min": [0, 0, 0], "feature_max": [1, 1, 1],
             "target_min": None, "target_max": None}
    cases = {
        "grid_bandwidth_3": lambda: full_grid_1d(BasisKind.COSINE, 3),
        "profile_bandwidth_6.5": lambda: BandwidthProfile({1: 6.5}),
        "profile_bandwidth_2**64": lambda: BandwidthProfile({1: 2**64}),
        "coefficient_vector_length": lambda: op.matvec(np.ones(3)),
        "value_vector_length": lambda: lsqr_solve(op, np.ones(7)),
        "apply_normalization_width": lambda: apply_normalization(
            Dataset(np.zeros((5, 3)), np.zeros(5), ("a", "b", "c")),
            Normalization(np.zeros(2), np.ones(2)),
        ),
        "model_file_normalization_width": lambda: model_from_obj(
            {**model_to_obj(model), "normalization": block}
        ),
    }
    train = friedman_sample(FriedmanSpec(1), 200, 0)
    huge = {**model_to_obj(model), "dimension": 10**15, "terms": [[], [10**15]],
            "bandwidths": {"1": 2}, "coefficients": [0.0, 1.0]}
    ranking = SensitivityReport(3, 1.0, (), ranking=np.array([0.5, 0.0, 0.5]))
    with refusing_large_grids():
        huge_bandwidth = error_line("fit_bandwidth_1e9", lambda: fit(
            train.nodes, train.targets, superposition_terms(10, 2),
            BandwidthProfile.from_list([10**9, 2]), BasisKind.COSINE,
        ))
    return [error_line(name, call) for name, call in cases.items()] + [
        huge_bandwidth,
        error_line("model_file_variable_1e15_load", lambda: model_from_obj(huge)),
        error_line("model_file_variable_1e15_predict", lambda: huge_index_predict(huge)),
        error_line("direct_solve_1d", lambda: direct_solve(np.ones(3), np.ones(3), 1.0)),
        error_line("expand_threshold_0", lambda: incremental_expand(
            ranking, superposition_terms(3, 1), 0.0, 2
        )),
    ]


def help_lines() -> list[str]:
    """sha256 of each subcommand's ``--help`` text, formatted at 80 columns."""
    lines = []
    for command in ("fit", "refine"):
        out = io.StringIO()
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}), contextlib.redirect_stdout(out), \
                contextlib.suppress(SystemExit):
            cli_main([command, "--help"])
        lines.append(f"cli.help.{command} {sha_bytes(out.getvalue().encode())}")
    return lines


def compare(directory: Path) -> None:
    """Print each kept array's largest difference to its saved reference, to stderr."""
    for name, a in HASHED.items():
        path = directory / f"{name}.npy"
        if not path.exists():
            print(f"{name} no reference", file=sys.stderr)
            continue
        ref = np.load(path)
        if ref.shape != a.shape:
            print(f"{name} shape {a.shape} against {ref.shape}", file=sys.stderr)
            continue
        scale = np.max(np.abs(ref), initial=0.0)
        gap = np.max(np.abs(a - ref), initial=0.0)
        print(f"{name} {float(gap / scale if scale else gap).hex()}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", type=Path, metavar="DIR", help="write each hashed array to DIR/<name>.npy")
    parser.add_argument("--against", type=Path, metavar="DIR", help="compare each hashed array to DIR")
    args = parser.parse_args()
    print(machine_line(), flush=True)
    lines = (
        table_lines() + union_lines() + operator_lines() + block_lines() + friedman_lines()
        + wide_fit_lines() + order3_fit_lines() + capped_fit_lines() + small_lsqr_fit_lines()
        + real_lines()
    )
    for line in lines + cli_lines() + normalized_lines() + error_lines() + help_lines():
        print(line, flush=True)
    if args.save is not None:
        args.save.mkdir(parents=True, exist_ok=True)
        for name, a in HASHED.items():
            np.save(args.save / f"{name}.npy", a)
    if args.against is not None:
        compare(args.against)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
