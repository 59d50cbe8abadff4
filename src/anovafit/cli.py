"""Command-line surface.

Subcommands: ``fit``, ``predict``, ``rank``, ``refine``, ``bench-friedman``,
``bench-real``.  Machine-readable JSON goes to ``--out`` when given and to
stdout otherwise; human-readable summaries go to stderr so stdout stays
parseable.  Identical configuration and seed produce byte-identical JSON.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import bench
from .basis import BasisKind
from .datasets import (
    Dataset,
    FriedmanSpec,
    SplitPlan,
    _csv_cell,
    apply_normalization,
    load_csv,
    normalize,
)
from .errors import ConfigError, DataError, NumericalError
from .model import (
    _coeffs_to_obj,
    analyze,
    drop_variables,
    fit,
    incremental_expand,
    load_model,
    model_from_obj,  # noqa: F401 - perfbench/spans.py patches this name
    model_to_obj,
    mse,
    predict,
    relative_error,
    rmse,
    threshold_active_set,
)
from .plots import svg_bar_chart, write_svg
from .solver import SolverConfig
from .terms import (
    BandwidthProfile,
    load_termset,
    save_termset,
    superposition_terms,
    term_sort_key,
    write_json,
)


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _number(cast):
    """``cast`` as an argparse ``type`` under the rule of :func:`~anovafit.datasets._csv_cell`."""
    def read(text: str):
        return _csv_cell(text, cast)
    read.__name__ = cast.__name__  # argparse reports "invalid int value: ..."
    return read


def _parse_list(text: str, flag: str, cast) -> list:
    parts = text.split(",")
    if any(part.strip() == "" for part in parts):
        raise ConfigError(f"{flag} has an empty item, got {text!r}")
    try:
        return [_csv_cell(part, cast) for part in parts]
    except ValueError:
        what = "integers" if cast is int else "numbers"
        raise ConfigError(f"{flag} expects comma-separated {what}, got {text!r}") from None


def _split_plan(text: str | None, *, synthetic: bool, seed: int) -> SplitPlan:
    """Parse ``--split``: a fraction like ``0.7`` or sizes like ``200:1000``."""
    if text is None:
        text = f"{bench.TRAIN_SIZE}:{bench.TEST_SIZE}" if synthetic else "0.7"
    if ":" in text:
        try:
            train_size, test_size = (_csv_cell(part, int) for part in text.split(":"))
        except ValueError:
            raise ConfigError(f"--split sizes must be M_train:M_test, got {text!r}") from None
        return SplitPlan(train_size=train_size, test_size=test_size, seed=seed)
    try:
        fraction = _csv_cell(text, float)
    except ValueError:
        raise ConfigError(f"--split expects a fraction or M_train:M_test, got {text!r}") from None
    return SplitPlan(train_fraction=fraction, seed=seed)


def _load_train_test(args) -> tuple[Dataset, Dataset]:
    if args.friedman is not None:
        if args.normalize or args.normalize_target:
            raise ConfigError("--normalize and --normalize-target need --csv data")
        plan = _split_plan(args.split, synthetic=True, seed=args.seed)
        return bench.rep_data(FriedmanSpec(args.friedman), plan, 0)
    if args.target is None:
        raise ConfigError("--csv needs --target naming the target column")
    ds = load_csv(args.csv, args.target)
    plan = _split_plan(args.split, synthetic=False, seed=args.seed)
    train, test = bench.rep_data(ds, plan, 0)
    if args.normalize or args.normalize_target:
        train = normalize(train, include_target=args.normalize_target)
        test = apply_normalization(test, train.normalization)
    return train, test


def _metrics(y_true: np.ndarray, y_pred: np.ndarray) -> dict:
    out = {"mse": mse(y_true, y_pred), "rmse": rmse(y_true, y_pred)}
    if float(np.sum(np.abs(y_true) ** 2)) > 0.0:
        out["relative_error"] = relative_error(y_true, y_pred)
    return out


# --- subcommands -----------------------------------------------------------


def cmd_fit(args) -> int:
    kind = BasisKind.from_token(args.basis)
    config = SolverConfig(
        regularization=args.lam, max_iterations=args.max_iter, tolerance=args.tol
    )
    train, test = _load_train_test(args)
    if args.terms is not None:
        termset = load_termset(args.terms)
        if termset.dimension != train.dimension:
            raise ConfigError(
                f"term set is over {termset.dimension} variables but the data "
                f"has {train.dimension}"
            )
    else:
        termset = superposition_terms(train.dimension, args.superposition)
    bandwidths = BandwidthProfile.from_list(_parse_list(args.bandwidths, "--bandwidths", int))
    model = fit(train.nodes, train.targets, termset, bandwidths, kind, config)
    model = dataclasses.replace(model, normalization=train.normalization)
    write_json(model_to_obj(model), args.out)

    report = {
        "model": args.out,
        "coefficients": len(model.coefficients),
        "train_size": train.size,
        "test_size": test.size,
        "oversampling": model.oversampling,
        "iterations": model.iterations,
        "stop_reason": model.stop_reason,
        "metrics": _metrics(test.targets, predict(model, test.nodes)),
    }
    write_json(report, args.metrics_out)
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    ds = load_csv(args.csv, args.target)
    if ds.dimension != model.index_union.terms.dimension:
        raise DataError(
            f"{args.csv}: {ds.dimension} feature columns, but the model is over "
            f"{model.index_union.terms.dimension} variables"
        )
    stats = model.normalization
    if stats is not None:
        ds = apply_normalization(ds, stats)
    target_normalized = stats is not None and stats.target_min is not None
    predictions = predict(model, ds.nodes)
    out = {"predictions": _coeffs_to_obj(predictions)}
    if args.target is not None:
        out["metrics"] = _metrics(ds.targets, predictions)
        out["target_normalized"] = target_normalized
    write_json(out, args.out)
    return 0


def cmd_rank(args) -> int:
    model = load_model(args.model)
    report = analyze(model)
    write_json(report.to_json_obj(), args.out)

    ranking = [(f"x{i + 1}", float(score)) for i, score in enumerate(report.ranking)]
    indices = [("{" + ",".join(map(str, u)) + "}", rho) for u, rho in report.sorted_indices()]
    _note("\n".join(
        ["variable  ranking", *(f"{label:<8s} {v:>10.6f}" for label, v in ranking),
         "", "term            gsi", *(f"{label:<15s} {v:>10.6f}" for label, v in indices)]
    ))
    for path, rows, title in ((args.plot_ranking, ranking, "attribute ranking"),
                              (args.plot_gsi, indices, "global sensitivity indices")):
        if path:
            labels, values = (list(column) for column in zip(*rows))
            write_svg(path, svg_bar_chart(labels, values, title=title))
    return 0


def cmd_refine(args) -> int:
    if args.gsi_threshold is None and args.drop_below is None and args.expand is None:
        raise ConfigError(
            "nothing to do: give --gsi-threshold, --drop-below and/or --expand"
        )
    if args.expand is not None and args.theta is None:
        raise ConfigError("--expand needs --theta for the ranking threshold")
    model = load_model(args.model)
    report = analyze(model)
    termset = model.index_union.terms
    before = set(termset.terms)

    if args.gsi_threshold is not None:
        eps = _parse_list(args.gsi_threshold, "--gsi-threshold", float)
        termset = threshold_active_set(report, termset, eps[0] if len(eps) == 1 else eps)
    if args.drop_below is not None:
        keep = report.ranked_above(args.drop_below)
        if keep:
            termset = drop_variables(termset, keep)
        else:
            _note("notice: no variable exceeds --drop-below; variables unchanged")
    if args.expand is not None:
        termset = incremental_expand(report, termset, args.theta, args.expand)

    after = set(termset.terms)
    if before == after:
        _note("notice: refinement left the term set unchanged")
    save_termset(termset, args.out)
    diff = {
        "terms_file": args.out,
        "kept": len(after),
        "added": [list(u) for u in sorted(after - before, key=term_sort_key)],
        "removed": [list(u) for u in sorted(before - after, key=term_sort_key)],
    }
    write_json(diff, None)
    return 0


def cmd_bench_friedman(args) -> int:
    result = bench.bench_friedman(args.which, args.reps, args.seed)
    baselines = ", ".join(
        f"{name}={value:.4g}" for name, value in result["reference_baselines"].items()
    )
    _note(
        f"friedman {args.which}: median MSE {result['median_mse']:.4g} over "
        f"{args.reps} repetitions (reference {result['reference_median_mse']:.4g}; "
        f"baselines {baselines})"
    )
    write_json(result, args.out)
    return 0


def cmd_bench_real(args) -> int:
    if args.name not in bench.REAL_PRESETS and args.train_fraction is None:
        raise ConfigError(
            f"unknown dataset {args.name!r}: give --split (and other protocol "
            f"flags) or use one of {sorted(bench.REAL_PRESETS)}"
        )
    preset = bench.REAL_PRESETS.get(args.name) or bench.RealPreset(args.train_fraction)
    lists = {name: tuple(_parse_list(getattr(args, name), f"--{name}", int))
             for name in ("bandwidths", "keep") if getattr(args, name) is not None}
    preset = preset.override(train_fraction=args.train_fraction, order=args.order, lam=args.lam,
                             gsi=args.gsi, metric=args.metric,
                             normalize_targets=args.normalize_targets, **lists)

    csv_path = args.csv
    if csv_path is None:
        data_dir = os.environ.get("ANOVA_DATA_DIR")
        if not data_dir:
            raise DataError(
                "no --csv given and ANOVA_DATA_DIR is not set; real datasets are "
                "user-supplied"
            )
        csv_path = str(Path(data_dir) / f"{args.name}.csv")
    ds = load_csv(csv_path, args.target)
    if args.target is None:  # the last column is the target
        ds = Dataset(ds.nodes[:, :-1], ds.nodes[:, -1], ds.columns[:-1], ds.columns[-1])

    result = bench.run_real_benchmark(ds, preset, args.reps, args.seed)
    result["dataset"] = args.name
    result["target"] = ds.target_name
    _note(
        f"{args.name}: median {preset.metric} {result['median']:.5g} over "
        f"{args.reps} splits ({result['failures']} failures)"
    )
    write_json(result, args.out)
    return 0


# --- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anovafit",
        description="Interpretable ANOVA approximation of scattered data",
    )
    sub = parser.add_subparsers(dest="command")

    p_fit = sub.add_parser("fit", help="fit a model and report test metrics")
    source = p_fit.add_mutually_exclusive_group(required=True)
    source.add_argument("--csv", help="CSV data file (with --target)")
    source.add_argument("--friedman", type=_number(int), choices=(1, 2, 3),
                        help="use a synthetic benchmark generator")
    p_fit.add_argument("--target", help="target column name")
    terms = p_fit.add_mutually_exclusive_group(required=True)
    terms.add_argument("--terms", help="term set JSON file (from refine)")
    terms.add_argument("--ds", dest="superposition", type=_number(int),
                       help="superposition threshold for the initial term set")
    p_fit.add_argument("--basis", default="cos", choices=("per", "cos", "cheb"))
    p_fit.add_argument("--bandwidths", required=True,
                       help="comma-separated N per order, e.g. 6,4")
    p_fit.add_argument("--split", help="train fraction (csv) or M_train:M_test (friedman)")
    p_fit.add_argument("--seed", type=_number(int), default=0)
    p_fit.add_argument("--normalize", action="store_true",
                       help="min-max normalize features by training extrema")
    p_fit.add_argument("--normalize-target", action="store_true",
                       help="also normalize the target into [0,1]")
    p_fit.add_argument("--out", required=True, help="model JSON output path")
    p_fit.add_argument("--metrics-out", help="metrics JSON path (default stdout)")
    p_fit.add_argument("--lambda", dest="lam", type=_number(float),
                       default=SolverConfig.regularization,
                       help="l2 regularization weight (default %(default)s)")
    p_fit.add_argument("--max-iter", dest="max_iter", type=_number(int),
                       default=SolverConfig.max_iterations,
                       help="LSQR iteration cap (default %(default)s: 10x columns); it "
                            "limits LSQR iterations and does not choose the solver")
    p_fit.add_argument("--tol", type=_number(float), default=SolverConfig.tolerance,
                       help="LSQR relative tolerance; pass 1e-8 for noise-free data; "
                            "less than 1e-8 does not tighten a small fit with --lambda "
                            "> 0, which is solved directly (default %(default)s)")
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="evaluate a saved model on a CSV")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--csv", required=True)
    p_pred.add_argument("--target", help="optional target column for metrics")
    p_pred.add_argument("--out", help="predictions JSON path (default stdout)")
    p_pred.set_defaults(func=cmd_predict)

    p_rank = sub.add_parser("rank", help="sensitivity indices and attribute ranking")
    p_rank.add_argument("--model", required=True)
    p_rank.add_argument("--out", help="report JSON path (default stdout)")
    p_rank.add_argument("--plot-ranking", help="SVG bar chart of the ranking")
    p_rank.add_argument("--plot-gsi", help="SVG bar chart of the indices")
    p_rank.set_defaults(func=cmd_rank)

    p_ref = sub.add_parser("refine", help="derive a refined term set from a model")
    p_ref.add_argument("--model", required=True)
    p_ref.add_argument("--gsi-threshold",
                       help="keep terms with index above this: one value, or one per order")
    p_ref.add_argument("--drop-below", type=_number(float),
                       help="drop variables ranked at or below this, in [0, 1)")
    p_ref.add_argument("--expand", type=_number(int),
                       help="add interactions of highly ranked variables up to this order")
    p_ref.add_argument("--theta", type=_number(float),
                       help="ranking threshold selecting variables for --expand")
    p_ref.add_argument("--out", required=True, help="term set JSON output path")
    p_ref.set_defaults(func=cmd_refine)

    p_bf = sub.add_parser("bench-friedman", help="reproduce a synthetic benchmark")
    p_bf.add_argument("which", type=_number(int), choices=(1, 2, 3))
    p_bf.add_argument("--reps", type=_number(int), default=100)
    p_bf.add_argument("--seed", type=_number(int), default=0)
    p_bf.add_argument("--out", help="summary JSON path (default stdout)")
    p_bf.set_defaults(func=cmd_bench_friedman)

    p_br = sub.add_parser("bench-real", help="repeated-split protocol on a real table")
    p_br.add_argument("name", help=f"dataset name ({', '.join(sorted(bench.REAL_PRESETS))}) or custom")
    p_br.add_argument("--csv", help="CSV path (default $ANOVA_DATA_DIR/<name>.csv)")
    p_br.add_argument("--target", help="target column (default: last column)")
    p_br.add_argument("--reps", type=_number(int), default=100)
    p_br.add_argument("--seed", type=_number(int), default=0)
    # each protocol flag's dest is the name RealPreset.override sets
    p_br.add_argument("--split", dest="train_fraction", metavar="SPLIT", type=_number(float),
                      help="train fraction override")
    p_br.add_argument("--ds", dest="order", metavar="SUPERPOSITION", type=_number(int))
    p_br.add_argument("--bandwidths")
    p_br.add_argument("--lambda", dest="lam", type=_number(float))
    p_br.add_argument("--gsi-threshold", dest="gsi", metavar="GSI_THRESHOLD", type=_number(float))
    p_br.add_argument("--metric", choices=sorted(bench.METRICS))
    p_br.add_argument("--normalize-target", dest="normalize_targets", action="store_true",
                      default=None)
    p_br.add_argument("--keep", help="comma-separated variable preselection")
    p_br.add_argument("--out", help="summary JSON path (default stdout)")
    p_br.set_defaults(func=cmd_bench_real)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return 2
    try:
        return args.func(args)
    except ConfigError as exc:
        _note(f"configuration error: {exc}")
        return 2
    except DataError as exc:
        _note(f"data error: {exc}")
        return 3
    except NumericalError as exc:
        _note(f"numerical failure: {exc}")
        return 4
    except OSError as exc:
        _note(f"data error: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
