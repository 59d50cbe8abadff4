"""ANOVA term sets and their full-grid frequency index sets.

A *term* is a subset of the variable indices ``{1, ..., d}`` (1-based,
stored sorted).  A :class:`TermSet` is an ordered collection of distinct
terms that always contains the empty term; ordering is (order,
lexicographic), so the empty term comes first and enumeration positions
are reproducible.

Each term of order ``l > 0`` carries the full-grid frequency set
``grid(N_l)^l`` embedded into ``Z^d`` on its own coordinates, where the 1-d
grid excludes zero: ``{-N/2, ..., -1, 1, ..., N/2 - 1}`` for the periodic
basis and ``{1, ..., N - 1}`` otherwise (``N - 1`` elements either way).
The empty term carries the single zero frequency.  Supports are therefore
pairwise disjoint across terms and the union of all embedded grids has

    1 + sum_{u != empty} (N_{|u|} - 1)^{|u|}

elements, with no duplicates.
"""

from __future__ import annotations

import bisect
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisKind
from .errors import ConfigError, DataError

Term = tuple[int, ...]


def normalize_term(u) -> Term:
    """Sort and validate a single variable subset (1-based indices)."""
    t = tuple(sorted(int(i) for i in u))
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
        if ds is not None and not 1 <= ds <= self.dimension:
            raise ConfigError(f"superposition threshold {ds} out of range")
        object.__setattr__(self, "terms", tuple(normalized))

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

    def orders(self) -> tuple[int, ...]:
        """Distinct nonzero term orders present, ascending."""
        return tuple(sorted({len(u) for u in self.terms if u}))

    def variables(self) -> tuple[int, ...]:
        """Variables appearing in at least one term, ascending."""
        used: set[int] = set()
        for u in self.terms:
            used.update(u)
        return tuple(sorted(used))

    def to_json_obj(self) -> dict:
        """Wire format, also embedded in model files; terms are 1-based index arrays."""
        return {
            "dimension": self.dimension,
            "superposition_threshold": self.superposition_threshold,
            "terms": [list(u) for u in self.terms],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "TermSet":
        terms = tuple(tuple(u) for u in obj["terms"])
        return cls(int(obj["dimension"]), terms, obj.get("superposition_threshold"))


def superposition_terms(dimension: int, threshold: int) -> TermSet:
    """All variable subsets of order at most ``threshold``."""
    if not 1 <= threshold <= dimension:
        raise ConfigError(
            f"superposition threshold {threshold} out of range [1, {dimension}]"
        )
    terms = [
        u
        for order in range(threshold + 1)
        for u in itertools.combinations(range(1, dimension + 1), order)
    ]
    return TermSet(dimension, tuple(terms), threshold)


def closure(termset: TermSet) -> TermSet:
    """Minimal downward-closed superset: add every subset of every member."""
    closed: set[Term] = set()
    for u in termset.terms:
        for order in range(len(u) + 1):
            closed.update(itertools.combinations(u, order))
    return TermSet(
        termset.dimension, tuple(closed), termset.superposition_threshold
    )


def is_downward_closed(termset: TermSet) -> bool:
    present = set(termset.terms)
    return all(
        v in present
        for u in termset.terms
        if u
        for v in itertools.combinations(u, len(u) - 1)
    )


@dataclass(frozen=True)
class BandwidthProfile:
    """Order-dependent bandwidths: every term of order ``l`` shares ``N_l``.

    Bandwidths must be even and at least 2.  Orders missing from the profile
    are an error rather than a default, so misconfiguration cannot pass
    silently.
    """

    by_order: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for order, n in sorted(self.by_order.items()):
            order, n = int(order), int(n)
            if order < 1:
                raise ConfigError(f"bandwidth given for invalid order {order}")
            if n < 2 or n % 2 != 0:
                raise ConfigError(
                    f"bandwidth for order {order} must be even and >= 2, got {n}"
                )
            clean[order] = n
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

    def to_json_obj(self) -> dict[str, int]:
        return {str(order): n for order, n in self.by_order.items()}

    @classmethod
    def from_json_obj(cls, obj) -> "BandwidthProfile":
        return cls({int(order): int(n) for order, n in obj.items()})


def full_grid_1d(kind: BasisKind, bandwidth: int) -> np.ndarray:
    """The 1-d frequency grid for one coordinate of a term; zero is excluded."""
    n = int(bandwidth)
    if n < 2 or n % 2 != 0:
        raise ConfigError(f"bandwidth must be even and >= 2, got {n}")
    if kind.is_complex:
        grid = list(range(-n // 2, 0)) + list(range(1, n // 2))
    else:
        grid = list(range(1, n))
    return np.asarray(grid, dtype=np.int64)


@dataclass(frozen=True)
class FrequencyIndexUnion:
    """Union of the per-term embedded frequency grids, enumerated by term.

    ``grids[l]`` is the 1-d grid shared by every term of order ``l``; such
    a term carries the ``len(grids[l]) ** l`` frequencies of
    ``itertools.product(grids[l], repeat=l)`` on its own coordinates, all
    off-term coordinates being zero, so the support of each frequency
    equals its owning term.  ``terms`` follow :class:`TermSet` order, so
    the empty term, with the single zero frequency, is index 0; term ``i``
    owns the contiguous index range starting at ``offsets[i]``, and the terms
    of one order own one (:meth:`order_block`).  ``grids`` follow from the
    other fields, so equality and hashing leave them out.
    """

    dimension: int
    kind: BasisKind
    terms: tuple[Term, ...]
    grids: dict[int, np.ndarray] = field(compare=False)
    offsets: tuple[int, ...]
    size: int

    def group_slice(self, i: int) -> slice:
        stop = self.offsets[i + 1] if i + 1 < len(self.offsets) else self.size
        return slice(self.offsets[i], stop)

    def slice_for(self, term) -> slice:
        term = normalize_term(term)
        if term not in self.terms:
            raise ConfigError(f"term {term} is not part of the index union")
        return self.group_slice(self.terms.index(term))

    def order_block(self, order: int) -> tuple[slice, np.ndarray]:
        """Index range of the ``T_l`` terms of order ``l`` and their ``(T_l, l)`` variables.

        The range holds a C-ordered ``(T_l, n_l, ..., n_l)`` array: one axis
        over the terms in union order, then one per factor over ``grids[l]``.
        """
        lo = bisect.bisect_left(self.terms, order, key=len)
        hi = bisect.bisect_right(self.terms, order, key=len)
        if order < 1 or lo == hi:
            raise ConfigError(f"the index union has no term of order {order}")
        block = slice(self.offsets[lo], self.group_slice(hi - 1).stop)
        return block, np.array(self.terms[lo:hi], dtype=np.intp)

    def frequencies_full(self) -> np.ndarray:
        """All frequencies as ``(size, dimension)`` integer vectors in ``Z^d``."""
        full = np.zeros((self.size, self.dimension), dtype=np.int64)
        for i, term in enumerate(self.terms[1:], start=1):
            block = list(itertools.product(self.grids[len(term)], repeat=len(term)))
            full[self.group_slice(i), np.asarray(term) - 1] = block
        return full


def build_index_union(
    termset: TermSet, bandwidths: BandwidthProfile, kind: BasisKind
) -> FrequencyIndexUnion:
    """The full grid of every order and the index range of every term."""
    grids = {
        order: full_grid_1d(kind, bandwidths.for_order(order))
        for order in termset.orders()
    }
    counts = [len(grids[len(u)]) ** len(u) if u else 1 for u in termset.terms]
    offsets = tuple(itertools.accumulate(counts[:-1], initial=0))
    return FrequencyIndexUnion(
        termset.dimension, kind, termset.terms, grids, offsets, sum(counts)
    )


def expected_index_count(termset: TermSet, bandwidths: BandwidthProfile) -> int:
    """Closed-form size of the index union: ``1 + sum (N_l - 1)^l``."""
    return 1 + sum(
        (bandwidths.for_order(len(u)) - 1) ** len(u)
        for u in termset.nonempty_terms
    )


def save_termset(termset: TermSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(termset.to_json_obj(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_termset(path) -> TermSet:
    try:
        with open(path, encoding="utf-8") as fh:
            return TermSet.from_json_obj(json.load(fh))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed term set file: {exc}") from exc
