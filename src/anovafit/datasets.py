"""Data handling: synthetic benchmark generators, CSV ingestion,
min-max normalization and splitting.

Random streams
--------------
Everything random is driven by ``numpy``'s PCG64 through
:func:`rng_stream`, which derives an independent, platform-stable stream
from ``(seed, repetition index, purpose)`` via ``SeedSequence`` spawn keys.
Purposes are fixed names ("train", "test", "split") so repetitions and
stages never share or reorder draws, and any repetition can be regenerated
in isolation.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .errors import (ConfigError, DataError, as_array, as_integer, as_real, check_memory,
                     json_reader)

_PURPOSE_CODES = {"train": 0, "test": 1, "split": 2}


def _seed(value) -> int:
    seed = as_integer(value, "a seed or repetition index")
    if seed < 0:
        raise ConfigError(f"seeds and repetition indices must be non-negative, got {value}")
    return seed


def rng_stream(seed: int, rep_index: int = 0, purpose: str = "train") -> np.random.Generator:
    """Independent generator for one (seed, repetition, purpose) triple."""
    try:
        code = _PURPOSE_CODES[purpose]
    except KeyError:
        raise ConfigError(f"unknown rng purpose {purpose!r}") from None
    seq = np.random.SeedSequence(_seed(seed), spawn_key=(_seed(rep_index), code))
    return np.random.default_rng(seq)


@dataclass(frozen=True, eq=False)
class Normalization:
    """Per-column extrema recorded when a dataset was normalized.

    Every bound is finite and each min at most its max; the target bounds
    are both set or both None.
    """

    feature_min: np.ndarray
    feature_max: np.ndarray
    target_min: float | None = None
    target_max: float | None = None

    def __post_init__(self):
        lo = as_array(self.feature_min, "feature_min")
        hi = as_array(self.feature_max, "feature_max")
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise DataError(
                f"normalization extrema must be two 1-d bounds of one length, "
                f"got shapes {lo.shape} and {hi.shape}"
            )
        if (self.target_min is None) != (self.target_max is None):
            raise DataError("normalization extrema must set both target bounds or neither")
        extrema = [(lo, hi)]
        if self.target_min is not None:
            object.__setattr__(self, "target_min", as_real(self.target_min, "target_min"))
            object.__setattr__(self, "target_max", as_real(self.target_max, "target_max"))
            extrema.append((self.target_min, self.target_max))
        if not all(np.isfinite([a, b]).all() and np.all(a <= b) for a, b in extrema):
            raise DataError("normalization extrema must be finite, each min at most its max")
        object.__setattr__(self, "feature_min", lo)
        object.__setattr__(self, "feature_max", hi)

    def to_json_obj(self) -> dict:
        """Wire format, the ``normalization`` block of a model file."""
        return {
            "feature_min": self.feature_min.tolist(),
            "feature_max": self.feature_max.tolist(),
            "target_min": self.target_min,
            "target_max": self.target_max,
        }

    @classmethod
    def from_json_obj(cls, obj) -> "Normalization":
        with json_reader():
            return cls(
                obj["feature_min"], obj["feature_max"], obj["target_min"], obj["target_max"]
            )

    def check_width(self, columns: int) -> None:
        """Raise a :class:`DataError` unless the extrema hold one value per column."""
        if self.feature_min.size != columns:
            raise DataError(f"normalization extrema for {self.feature_min.size} columns, not {columns}")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Scattered nodes with target values and optional normalization state."""

    nodes: np.ndarray  # (M, d)
    targets: np.ndarray  # (M,)
    columns: tuple[str, ...]
    target_name: str = "y"
    normalization: Normalization | None = None

    def __post_init__(self):
        nodes = as_array(self.nodes, "node matrix")
        targets = as_array(self.targets, "target vector")
        if nodes.ndim != 2 or nodes.shape[0] < 1 or nodes.shape[1] < 1:
            raise DataError(f"node matrix must be (M, d) with M, d >= 1, got {nodes.shape}")
        if targets.shape != (nodes.shape[0],):
            raise DataError(
                f"target vector shape {targets.shape} does not match {nodes.shape[0]} rows"
            )
        if not np.all(np.isfinite(nodes)):
            raise DataError("node matrix contains non-finite entries")
        if not np.all(np.isfinite(targets)):
            raise DataError("target vector contains non-finite entries")
        if len(self.columns) != nodes.shape[1]:
            raise DataError("column name count does not match dimension")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "columns", tuple(self.columns))

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    @property
    def dimension(self) -> int:
        return self.nodes.shape[1]

    def take(self, rows) -> "Dataset":
        return replace(self, nodes=self.nodes[rows], targets=self.targets[rows])


# --- synthetic benchmark functions ---------------------------------------

_FRIEDMAN_DIMENSION = {1: 10, 2: 4, 3: 4}
# Gaussian noise scale (standard deviation) per function
_FRIEDMAN_NOISE = {1: 1.0, 2: 125.0, 3: 0.1}


@dataclass(frozen=True)
class FriedmanSpec:
    """One of the three synthetic benchmark regression functions on [0,1]^d."""

    which: int

    def __post_init__(self):
        if self.which not in (1, 2, 3):
            raise ConfigError(f"friedman function must be 1, 2 or 3, got {self.which}")

    @property
    def dimension(self) -> int:
        return _FRIEDMAN_DIMENSION[self.which]

    @property
    def noise_scale(self) -> float:
        return _FRIEDMAN_NOISE[self.which]


def _scale_1(x):
    return 100.0 * x


def _scale_2(x):
    return 520.0 * np.pi * x + 40.0 * np.pi


def _scale_4(x):
    return 10.0 * x + 1.0


def friedman_eval(spec: FriedmanSpec, x) -> Union[float, np.ndarray]:
    """Noise-free function value(s); ``x`` is one node or a matrix of nodes."""
    x = as_array(x, "friedman node")
    single = x.ndim == 1
    pts = x[None, :] if single else x
    if pts.ndim != 2 or pts.shape[1] != spec.dimension:
        raise DataError(
            f"friedman {spec.which} expects dimension {spec.dimension}, got shape {x.shape}"
        )
    if spec.which == 1:
        out = (
            10.0 * np.sin(np.pi * pts[:, 0] * pts[:, 1])
            + 20.0 * (pts[:, 2] - 0.5) ** 2
            + 10.0 * pts[:, 3]
            + 5.0 * pts[:, 4]
        )
    else:
        product = _scale_2(pts[:, 1]) * pts[:, 2]
        inverse = 1.0 / (_scale_2(pts[:, 1]) * _scale_4(pts[:, 3]))
        if spec.which == 2:
            out = np.sqrt(_scale_1(pts[:, 0]) ** 2 + (product - inverse) ** 2)
        else:
            # arctan2 realizes the arctan limit +-pi/2 when the denominator is 0
            out = np.arctan2(product - inverse, _scale_1(pts[:, 0]))
    return float(out[0]) if single else out


def friedman_sample(
    spec: FriedmanSpec, size: int, rng: Union[int, np.random.Generator]
) -> Dataset:
    """Uniform i.i.d. nodes on [0,1]^d with noisy evaluations.

    The noise is drawn from the same generator after the nodes.  The
    sample's ``(d + 1) size`` floats pass :func:`~anovafit.errors.check_memory` first.
    """
    size = as_integer(size, "sample size")
    if size < 1:
        raise ConfigError("sample size must be >= 1")
    check_memory((spec.dimension + 1) * size * 8, f"a sample of {size} rows")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(_seed(rng))
    nodes = gen.uniform(0.0, 1.0, size=(size, spec.dimension))
    targets = friedman_eval(spec, nodes) + spec.noise_scale * gen.standard_normal(size)
    columns = tuple(f"x{i}" for i in range(1, spec.dimension + 1))
    return Dataset(nodes, targets, columns)


# --- CSV ingestion --------------------------------------------------------


def load_csv(path, target_column: str | None) -> Dataset:
    """Load a UTF-8, comma-separated, headered table of numeric columns.

    With ``target_column=None`` every column is a feature and the targets
    are zeros (useful for prediction-only inputs).

    The header is read with :mod:`csv`; the body is parsed in one
    :func:`numpy.loadtxt` call, so a cell must follow numpy's float grammar
    (ASCII, optionally quoted and padded, no ``_`` digit separators).  Blank
    lines are skipped.  A repeated column name, a malformed row or a
    non-numeric or non-finite cell raises :class:`DataError` naming the
    column or the line and, for a cell, its column.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: {exc}") from None
        except csv.Error as exc:  # such as a cell beyond csv.field_size_limit()
            raise DataError(f"{path}:{reader.line_num}: {exc}") from None
        header = [name.strip() for name in header]
        repeated = [name for i, name in enumerate(header) if name in header[:i]]
        if repeated:
            raise DataError(f"{path}: header repeats column {repeated[0]!r}")
        if target_column is None:
            target_idx = None
        elif target_column not in header:
            raise DataError(
                f"{path}: target column {target_column!r} not in header {header}"
            )
        else:
            target_idx = header.index(target_column)
        try:
            with warnings.catch_warnings():
                # an empty body is reported below as "no data rows"
                warnings.filterwarnings(
                    "ignore", "loadtxt: input contained no data", UserWarning
                )
                table = np.loadtxt(
                    fh, delimiter=",", comments=None, quotechar='"', ndmin=2,
                    dtype=np.float64,
                )
        except ValueError as exc:
            raise _diagnose_csv(path, header, str(exc)) from None
    if table.shape[0] == 0:
        raise DataError(f"{path}: no data rows")
    if table.shape[1] != len(header) or not np.all(np.isfinite(table)):
        raise _diagnose_csv(
            path, header, "a row does not match the header or holds a non-finite cell"
        )
    feature_idx = [i for i in range(len(header)) if i != target_idx]
    if not feature_idx:
        raise DataError(f"{path}: no feature columns besides the target")
    if target_idx is None:
        targets = np.zeros(table.shape[0])
        target_name = ""
    else:
        targets = table[:, target_idx]
        target_name = target_column
    return Dataset(
        table[:, feature_idx],
        targets,
        tuple(header[i] for i in feature_idx),
        target_name=target_name,
    )


def _csv_cell(cell: str) -> float:
    """``float(cell)`` restricted to what :func:`numpy.loadtxt` parses."""
    if not cell.isascii() or "_" in cell:
        raise ValueError(cell)
    return float(cell)


def _diagnose_csv(path, header, problem: str) -> DataError:
    """Locate the first bad row or cell of a body that failed to load.

    Rescans the body row by row; falls back to ``problem`` (the parser's
    own message) if no row or cell is found at fault.
    """
    # an undecodable byte becomes U+FFFD, which is reported as a non-numeric cell
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
        reader = csv.reader(fh)
        next(reader)
        try:
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    return DataError(
                        f"{path}:{line_no}: expected {len(header)} cells, got {len(row)}"
                    )
                for name, cell in zip(header, row):
                    try:
                        value = _csv_cell(cell)
                    except ValueError:
                        return DataError(
                            f"{path}:{line_no}: column {name!r}: non-numeric cell {cell!r}"
                        )
                    if not math.isfinite(value):
                        return DataError(
                            f"{path}:{line_no}: column {name!r}: non-finite cell {cell!r}"
                        )
        except csv.Error as exc:  # such as a cell beyond csv.field_size_limit()
            return DataError(f"{path}:{reader.line_num}: {exc}")
    return DataError(f"{path}: {problem}")


# --- normalization -------------------------------------------------------


def _affine_to_unit(values, lo, hi):
    span = hi - lo
    out = np.where(span > 0.0, (values - lo) / np.where(span > 0.0, span, 1.0), 0.5)
    return np.clip(out, 0.0, 1.0)


def apply_normalization(ds: Dataset, stats: Normalization) -> Dataset:
    """Map a raw dataset through recorded min-max extrema, such as its training set's.

    The targets are mapped exactly when ``stats`` holds target extrema.
    Values outside the extrema clamp to [0, 1]; constant columns map to 0.5.
    """
    if ds.normalization is not None:
        raise ConfigError("dataset is already normalized")
    stats.check_width(ds.dimension)
    nodes = _affine_to_unit(ds.nodes, stats.feature_min, stats.feature_max)
    targets = ds.targets
    if stats.target_min is not None:
        targets = _affine_to_unit(ds.targets, stats.target_min, stats.target_max)
    return replace(ds, nodes=nodes, targets=targets, normalization=stats)


def normalize(ds: Dataset, *, include_target: bool = False) -> Dataset:
    """Min-max normalize features (and optionally the target) into [0, 1] by ``ds``'s extrema.

    An already-normalized dataset comes back as it is.
    """
    if ds.normalization is not None:
        return ds
    target_bounds = (float(ds.targets.min()), float(ds.targets.max())) if include_target else ()
    stats = Normalization(ds.nodes.min(axis=0), ds.nodes.max(axis=0), *target_bounds)
    return apply_normalization(ds, stats)


# --- splitting -----------------------------------------------------------


@dataclass(frozen=True)
class SplitPlan:
    """Either a random fraction split of given data or freshly generated sets.

    Exactly one of ``train_fraction`` (fraction mode, for concrete datasets)
    or ``train_size``/``test_size`` (generated mode, for synthetic
    generators) must be set.
    """

    train_fraction: float | None = None
    train_size: int | None = None
    test_size: int | None = None
    repetitions: int = 1
    seed: int = 0

    def __post_init__(self):
        fraction_mode = self.train_fraction is not None
        generated_mode = self.train_size is not None or self.test_size is not None
        if fraction_mode == generated_mode:
            raise ConfigError(
                "set either train_fraction or train_size/test_size, not both"
            )
        if fraction_mode and not 0.0 < as_real(self.train_fraction, "train_fraction") < 1.0:
            raise ConfigError("train_fraction must lie in (0, 1)")
        sizes = (self.train_size, self.test_size)
        if generated_mode and any(n is None or as_integer(n, "split size") < 1 for n in sizes):
            raise ConfigError("train_size and test_size must both be >= 1")
        object.__setattr__(self, "repetitions", as_integer(self.repetitions, "repetitions"))
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")

    @property
    def generated(self) -> bool:
        return self.train_fraction is None


def split(ds: Dataset, plan: SplitPlan, rep_index: int) -> tuple[Dataset, Dataset]:
    """Disjoint random train/test partition, deterministic in (seed, rep_index)."""
    if plan.generated:
        raise ConfigError("size-based splits only apply to synthetic generators")
    rep_index = as_integer(rep_index, "rep_index")
    if not 0 <= rep_index < plan.repetitions:
        raise ConfigError(f"rep_index {rep_index} outside 0..{plan.repetitions - 1}")
    n_train = int(round(plan.train_fraction * ds.size))
    if n_train < 1 or n_train >= ds.size:
        raise DataError(
            f"fraction {plan.train_fraction} leaves an empty side for {ds.size} rows"
        )
    perm = rng_stream(plan.seed, rep_index, "split").permutation(ds.size)
    return ds.take(np.sort(perm[:n_train])), ds.take(np.sort(perm[n_train:]))
