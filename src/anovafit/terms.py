"""ANOVA term sets and their full-grid frequency index sets.

A *term* is a subset of the variable indices ``{1, ..., d}`` (1-based,
stored sorted).  A :class:`TermSet` is an ordered collection of distinct
terms that always contains the empty term; ordering is (order,
lexicographic), so the empty term comes first and enumeration positions
are reproducible.

Each term of order ``l > 0`` carries the full-grid frequency set
``grid(N_l)^l`` embedded into ``Z^d`` on its own coordinates, where the 1-d
grid :func:`~anovafit.basis.full_grid_1d` holds ``N - 1`` nonzero frequencies.
The empty term carries the single zero frequency.  Supports are therefore
pairwise disjoint across terms and the union of all embedded grids has

    1 + sum_{u != empty} (N_{|u|} - 1)^{|u|}

elements, with no duplicates.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import types
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .basis import BasisKind, as_bandwidth, full_grid_1d
from .errors import ConfigError, DataError, as_integer, check_memory, json_reader

Term = tuple[int, ...]
# distinct arguments whose term set or index union is kept (each a few small arrays)
_CACHE_SIZE = 128


def normalize_term(u) -> Term:
    """Sort and validate a single variable subset (1-based indices)."""
    t = tuple(sorted(as_integer(i, "a term's variable index") for i in u))
    if len(set(t)) != len(t):
        raise ConfigError(f"term {t} repeats a variable")
    if t and t[0] < 1:
        raise ConfigError(f"term {t} uses a variable index below 1")
    return t


def term_sort_key(u: Term) -> tuple[int, Term]:
    return (len(u), u)


@dataclass(frozen=True)
class TermSet:
    """Ordered, duplicate-free collection of ANOVA terms over ``dimension`` variables."""

    dimension: int
    terms: tuple[Term, ...]
    superposition_threshold: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "dimension", as_integer(self.dimension, "dimension"))
        if self.dimension < 1:
            raise ConfigError("dimension must be positive")
        normalized = [normalize_term(u) for u in self.terms]
        if len(set(normalized)) != len(normalized):
            raise ConfigError("duplicate terms in term set")
        if () not in normalized:
            normalized.append(())
        normalized.sort(key=term_sort_key)
        for u in normalized:
            if u and u[-1] > self.dimension:
                raise ConfigError(f"term {u} exceeds dimension {self.dimension}")
        ds = self.superposition_threshold
        if ds is not None:
            ds = as_integer(ds, "superposition threshold")
            if not 1 <= ds <= self.dimension:
                raise ConfigError(f"superposition threshold {ds} out of range")
        object.__setattr__(self, "terms", tuple(normalized))
        object.__setattr__(self, "superposition_threshold", ds)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __contains__(self, u) -> bool:
        return normalize_term(u) in set(self.terms)

    @property
    def nonempty_terms(self) -> tuple[Term, ...]:
        return self.terms[1:]

    @property
    def max_order(self) -> int:
        return max((len(u) for u in self.terms), default=0)

    def to_json_obj(self) -> dict:
        """Wire format, also embedded in model files; terms are 1-based index arrays."""
        return {
            "dimension": self.dimension,
            "superposition_threshold": self.superposition_threshold,
            "terms": [list(u) for u in self.terms],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "TermSet":
        with json_reader():
            terms = tuple(tuple(u) for u in obj["terms"])
            return cls(obj["dimension"], terms, obj["superposition_threshold"])


def check_subsets(n: int, orders: range, what: str) -> None:
    """Refuse to list the subsets of ``orders`` of ``n`` variables if they cannot fit in memory.

    Counted with :func:`math.comb`, each subset as ``sys.getsizeof`` of a
    tuple of its order: a lower bound of what a list of them holds, so only
    what cannot fit is refused (by :func:`~anovafit.errors.check_memory`).
    The running total is checked order by order, so a hostile count stops
    at the first order past the limit.
    """
    count = nbytes = 0
    for order in orders:
        subsets = math.comb(n, order)
        count += subsets
        nbytes += subsets * sys.getsizeof(tuple(range(order)))
        check_memory(nbytes, f"{what} of {count} terms up to order {order}")


def superposition_terms(dimension: int, threshold: int) -> TermSet:
    """All variable subsets of order at most ``threshold``; equal arguments share one term set."""
    return _superposition_terms(
        as_integer(dimension, "dimension"), as_integer(threshold, "superposition threshold")
    )


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _superposition_terms(dimension: int, threshold: int) -> TermSet:
    if not 1 <= threshold <= dimension:
        raise ConfigError(
            f"superposition threshold {threshold} out of range [1, {dimension}]"
        )
    check_subsets(dimension, range(threshold + 1), "a term set")
    terms = [
        u
        for order in range(threshold + 1)
        for u in itertools.combinations(range(1, dimension + 1), order)
    ]
    return TermSet(dimension, tuple(terms), threshold)


@dataclass(frozen=True)
class BandwidthProfile:
    """Order-dependent bandwidths: every term of order ``l`` shares ``N_l``.

    Each bandwidth passes :func:`~anovafit.basis.as_bandwidth`.  Orders
    missing from the profile are an error rather than a default, so
    misconfiguration cannot pass silently.
    """

    by_order: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        orders = {as_integer(order, "bandwidth order"): n for order, n in self.by_order.items()}
        for order, n in sorted(orders.items()):
            if order < 1:
                raise ConfigError(f"bandwidth given for invalid order {order}")
            clean[order] = as_bandwidth(n, f"bandwidth for order {order}")
        object.__setattr__(self, "by_order", clean)

    @classmethod
    def from_list(cls, bandwidths) -> "BandwidthProfile":
        """Build from ``[N_1, N_2, ...]`` listed by ascending order."""
        return cls({i + 1: n for i, n in enumerate(bandwidths)})

    def for_order(self, order: int) -> int:
        try:
            return self.by_order[order]
        except KeyError:
            raise ConfigError(f"no bandwidth configured for term order {order}") from None

    def term_size(self, order: int) -> int:
        """Frequencies of one term of order ``order``: ``(N_l - 1)^l``, 1 for the empty term."""
        return (self.for_order(order) - 1) ** order if order else 1

    def to_json_obj(self) -> dict[str, int]:
        return {str(order): n for order, n in self.by_order.items()}

    @classmethod
    def from_json_obj(cls, obj) -> "BandwidthProfile":
        with json_reader():
            return cls({int(order): n for order, n in obj.items()})  # JSON keys are strings


@dataclass(frozen=True)
class FrequencyIndexUnion:
    """Union of the per-term embedded frequency grids, enumerated by term.

    Every term of order ``l`` carries the ``(N_l - 1) ** l`` frequencies of
    ``itertools.product(full_grid_1d(kind, N_l), repeat=l)`` on its own
    coordinates, all off-term coordinates being zero, so the support of each
    frequency equals its owning term.  The union is a layout only and builds
    no grid.  ``terms`` follow :class:`TermSet` order: the empty term (the
    zero frequency) is index 0, and the ``T_l`` terms of order ``l`` own the
    range ``block`` of ``layout[l] = (block, factors, own, pos)``, a C-ordered
    ``(T_l, n_l, ..., n_l)`` array (terms, then one axis per factor over that
    grid); ``factors`` holds their ``(T_l, l)`` variables, ``own`` the
    positions of the order's variables in ``variables`` (all terms',
    ascending) and ``pos`` the position of each factor among those.  Equality
    and hashing leave out the fields after ``size``, which follow from the
    others; ``bandwidths`` holds ``(l, N_l)``.
    """

    dimension: int
    kind: BasisKind
    terms: tuple[Term, ...]
    bandwidths: tuple[tuple[int, int], ...]
    size: int
    variables: np.ndarray = field(compare=False)
    layout: Mapping[int, tuple[slice, np.ndarray, np.ndarray, np.ndarray]] = field(compare=False)

    def slice_for(self, term) -> slice:
        term = normalize_term(term)
        if term not in self.terms:
            raise ConfigError(f"term {term} is not part of the index union")
        if not term:
            return slice(0, 1)
        block, factors, _, _ = self.layout[len(term)]
        width = (block.stop - block.start) // len(factors)
        start = block.start + width * factors.tolist().index(list(term))
        return slice(start, start + width)

    def frequencies_full(self) -> np.ndarray:
        """All frequencies as ``(size, dimension)`` integer vectors in ``Z^d``."""
        full = np.zeros((self.size, self.dimension), dtype=np.int64)
        for (order, n), (block, factors, _, _) in zip(self.bandwidths, self.layout.values()):
            grid = list(itertools.product(full_grid_1d(self.kind, n), repeat=order))
            for rows, term in zip(full[block].reshape(len(factors), -1, self.dimension), factors):
                rows[:, term - 1] = grid
        return full


def build_index_union(
    termset: TermSet, bandwidths: BandwidthProfile, kind: BasisKind
) -> FrequencyIndexUnion:
    """The layout of every order; no frequency grid is built.

    Equal arguments give the same union, kept in a bounded cache, so its
    layout and arrays are read-only.
    """
    return _index_union(termset, tuple(bandwidths.by_order.items()), kind)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _index_union(termset: TermSet, by_order, kind: BasisKind) -> FrequencyIndexUnion:
    bandwidths = BandwidthProfile(dict(by_order))
    variables = np.array(sorted({i for u in termset for i in u}), dtype=np.intp)
    layout, size = {}, 1
    for order, group in itertools.groupby(termset.nonempty_terms, key=len):
        factors = np.array(list(group), dtype=np.intp)
        own = np.searchsorted(variables, np.unique(factors))
        block = slice(size, size + len(factors) * bandwidths.term_size(order))
        layout[order] = (block, factors, own, np.searchsorted(variables[own], factors))
        size = block.stop
    pairs = tuple((order, bandwidths.for_order(order)) for order in layout)
    for array in (variables, *(a for _, *arrays in layout.values() for a in arrays)):
        array.setflags(write=False)
    return FrequencyIndexUnion(
        termset.dimension, kind, termset.terms, pairs, size, variables,
        types.MappingProxyType(layout),
    )


def write_json(obj, path) -> None:
    """Write ``obj`` to the file ``path``, or to stdout if None, in the one JSON format
    of model, term set and CLI output (sorted keys, indent 2, final newline, UTF-8)."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def save_termset(termset: TermSet, path) -> None:
    write_json(termset.to_json_obj(), path)


def load_termset(path) -> TermSet:
    try:
        with open(path, encoding="utf-8") as fh:
            return TermSet.from_json_obj(json.load(fh))
    except (RecursionError, ValueError) as exc:  # RecursionError: JSON nested too deep
        raise DataError(f"{path}: malformed term set file: {exc}") from exc
