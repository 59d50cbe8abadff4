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
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisKind, as_bandwidth, full_grid_1d
from .errors import ConfigError, DataError, as_integer, check_memory, check_type, json_reader

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
        try:
            normalized = [normalize_term(u) for u in self.terms]
        except TypeError:
            raise ConfigError("terms must each be a collection of variable indices") from None
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
        check_type(self.by_order, Mapping, "bandwidths by order")
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


@dataclass(frozen=True, eq=False)
class OrderLayout:
    """One term order ``l``'s coefficient layout: read-only arrays, none sized by ``N_l``."""

    order: int
    bandwidth: int  # N_l
    block: slice  # the T_l terms' coefficients, C-ordered (T_l, n_l, ..., n_l), n_l = N_l - 1
    factors: np.ndarray  # (T_l, l): each term's variables
    own: np.ndarray  # the positions of the order's variables in the union's ``variables``
    pos: np.ndarray  # (T_l, l): the position of each factor among ``own``
    lead: np.ndarray  # the distinct leading (l - 1)-tuples of pos: order 2 all v_l, order 1 none
    q: np.ndarray  # each term's row in lead, so that lead[q] == pos[:, :-1]


@dataclass(frozen=True, eq=False)
class FrequencyIndexUnion:
    """Union of the per-term embedded frequency grids, enumerated by term.

    Every term of order ``l`` carries the ``(N_l - 1) ** l`` frequencies of
    ``itertools.product(full_grid_1d(kind, N_l), repeat=l)`` on its own
    coordinates, all others zero, so the support of each frequency equals its
    owning term.  The union is a layout only and builds no grid: it holds the
    :class:`TermSet` it lays out, whose order it follows, so the empty term
    (the zero frequency) is index 0; ``layout[l]`` is order ``l``'s
    :class:`OrderLayout`, with its bandwidth ``N_l``, over ``variables`` (all
    terms', ascending).
    """

    terms: TermSet
    kind: BasisKind
    size: int
    variables: np.ndarray
    layout: Mapping[int, OrderLayout]

    def slice_for(self, term) -> slice:
        term = normalize_term(term)
        if term not in self.terms:
            raise ConfigError(f"term {term} is not part of the index union")
        if not term:
            return slice(0, 1)
        o = self.layout[len(term)]
        width = (o.block.stop - o.block.start) // len(o.factors)
        start = o.block.start + width * o.factors.tolist().index(list(term))
        return slice(start, start + width)

    def frequencies_full(self) -> np.ndarray:
        """All frequencies as ``(size, dimension)`` integer vectors in ``Z^d``."""
        d = self.terms.dimension
        full = np.zeros((self.size, d), dtype=np.int64)
        for o in self.layout.values():
            grid = list(itertools.product(full_grid_1d(self.kind, o.bandwidth), repeat=o.order))
            for rows, term in zip(full[o.block].reshape(len(o.factors), -1, d), o.factors):
                rows[:, term - 1] = grid
        return full


def build_index_union(
    termset: TermSet, bandwidths: BandwidthProfile, kind: BasisKind
) -> FrequencyIndexUnion:
    """The layout of every order; no frequency grid is built.

    Equal arguments give the same union, kept in a bounded cache, so its
    layout and arrays are read-only.
    """
    check_type(termset, TermSet, "term set")
    check_type(bandwidths, BandwidthProfile, "bandwidth profile")
    check_type(kind, BasisKind, "basis kind")
    return _index_union(termset, tuple(bandwidths.by_order.items()), kind)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _index_union(termset: TermSet, by_order, kind: BasisKind) -> FrequencyIndexUnion:
    bandwidths = BandwidthProfile(dict(by_order))
    variables = np.array(sorted({i for u in termset for i in u}), dtype=np.intp)
    layout, size = {}, 1
    for order, group in itertools.groupby(termset.nonempty_terms, key=len):
        factors = np.array(list(group), dtype=np.intp)
        own = np.searchsorted(variables, np.unique(factors))
        pos = np.searchsorted(variables[own], factors)
        if order > 2:
            lead, q = np.unique(pos[:, :-1], axis=0, return_inverse=True)
        else:  # order 2 leads with every variable of the order, order 1 with none
            lead, q = np.arange(len(own))[:, None][:, :order - 1], pos[:, 0]
        block = slice(size, size + len(factors) * bandwidths.term_size(order))
        arrays = factors, own, pos, lead, q.reshape(-1)  # q's shape varies with numpy 2.0.x
        for array in arrays:
            array.setflags(write=False)
        layout[order] = OrderLayout(order, bandwidths.for_order(order), block, *arrays)
        size = block.stop
    variables.setflags(write=False)
    return FrequencyIndexUnion(termset, kind, size, variables, types.MappingProxyType(layout))


def write_json(obj, path) -> None:
    """Write ``obj`` to the file ``path``, or to stdout if None, in the one JSON format
    of model, term set and CLI output (sorted keys, indent 2, final newline, UTF-8)."""
    with nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_termset(termset: TermSet, path) -> None:
    write_json(termset.to_json_obj(), path)


def load_termset(path) -> TermSet:
    try:
        with open(path, encoding="utf-8") as fh:
            return TermSet.from_json_obj(json.load(fh))
    except (RecursionError, ValueError) as exc:  # RecursionError: JSON nested too deep
        raise DataError(f"{path}: malformed term set file: {exc}") from exc
