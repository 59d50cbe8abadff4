"""Matrix-free action of the scattered-data design matrix.

The design matrix has one row per node and one column per frequency of a
:class:`~anovafit.terms.FrequencyIndexUnion`; the entry is the tensor basis
function of that frequency at that node.  Each term's column block is a
tensor product of 1-d basis tables, so the operator never forms it (the
grouped transformations of Bartel, Potts & Schmischke, arXiv 2010.10199).

The union states each order's 1-d grid ``g_l`` of ``n_l = N_l - 1``
frequencies once (``index_union.grids``), and every order-``l`` term
carries ``g_l^l`` in :func:`itertools.product` order, so the operator
reads the grids and term slices off the union and checks nothing about
them.  The empty term is index 0 and contributes the constant column.

**Tables.**  For each order ``l`` the operator stores one read-only stacked
table ``T_l`` of shape ``(M, n_l * v_l)``, where ``v_l`` counts the
variables that appear in some order-``l`` term: variable number ``p`` (in
ascending order) owns the column block ``[p * n_l, (p + 1) * n_l)``,
holding its 1-d basis functions over ``g_l`` at all ``M`` nodes.  That is
``M * n_l * v_l`` entries per order, independent of the number of terms.

**Apply.**  Orders 1 and 2 scatter their coefficients into a zero-padded
array indexed by table columns and are applied with one BLAS call each:

* order 1: one GEMV, ``T_1 @ w``; the adjoint is ``T_1^H r``;
* order 2: one quadratic form, ``rowsum((T_2 @ B) * T_2)`` (the row sum
  by one :func:`numpy.einsum`, with no product temporary), where the
  ``(p, q)`` block of the ``(n v x n v)`` matrix ``B`` is term ``(p, q)``'s
  coefficients reshaped ``n x n``; the adjoint ``G = T_2^H (conj(T_2) * r)``
  holds every term's block at the same place.  Both cost
  ``O(M * (n_2 v_2)^2)`` in one GEMM;
* order 3 and up: per term, successive contraction of the coefficient
  tensor with the term's column blocks of ``T_l``.

**Determinism.**  An apply runs a fixed sequence of numpy operations on
fixed shapes, writes only to freshly allocated scratch arrays, and never
modifies a table (they are read-only, so a stray in-place update raises
instead of corrupting the cache).  For a fixed BLAS thread count, repeated
applications of the same operator are therefore bitwise-identical.
"""

from __future__ import annotations

import numpy as np

from .basis import check_domain, eval_1d_table, eval_tensor
from .errors import ConfigError, DataError
from .terms import FrequencyIndexUnion

# matrix entries allowed for the dense test oracle
DENSE_ORACLE_MAX_ENTRIES = 2_000_000


class _OrderStack:
    """Stacked 1-d table of one term order and the coefficient maps into it."""

    def __init__(self, order, grid, terms, kind, X):
        variables = sorted({var for term, _ in terms for var in term})
        n = len(grid)
        width = n * len(variables)
        block = {var: p * n for p, var in enumerate(variables)}
        # rows of the (M * v, n) table run over (node, variable) pairs, so the
        # reshape puts variable p's basis functions in columns p*n .. p*n+n-1
        x = X[:, np.asarray(variables) - 1].ravel()
        table = eval_1d_table(kind, grid, x).reshape(X.shape[0], width)
        table.setflags(write=False)
        self.order = order
        self.n = n
        self.table = table
        self.conj = kind.is_complex
        # per term: coefficient slice and the first table column of each factor
        self.terms = [(sl, [block[var] for var in term]) for term, sl in terms]
        if order <= 2:
            # src[i] is a coefficient index, dst[i] its flat position in the
            # order-dimensional array over table columns (w or B)
            local = np.indices((n,) * order).reshape(order, -1)
            self.src = np.concatenate(
                [np.arange(sl.start, sl.stop) for sl, _ in self.terms]
            )
            self.dst = np.concatenate([
                np.ravel_multi_index(
                    tuple(s + local[k] for k, s in enumerate(starts)),
                    (width,) * order,
                )
                for _, starts in self.terms
            ])

    def _scatter(self, c):
        width = self.table.shape[1]
        packed = np.zeros(width**self.order, dtype=self.table.dtype)
        packed[self.dst] = c[self.src]
        return packed.reshape((width,) * self.order)

    def matvec(self, c):
        T = self.table
        if self.order == 1:
            return T @ self._scatter(c)
        if self.order == 2:
            return np.einsum("ij,ij->i", T @ self._scatter(c), T)
        rows, n = T.shape[0], self.n
        out = np.zeros(rows, dtype=T.dtype)
        for sl, starts in self.terms:
            P = T[:, starts[0]:starts[0] + n] @ c[sl].reshape(n, -1)
            for s in starts[1:]:
                P = (P.reshape(rows, n, -1) * T[:, s:s + n, None]).sum(axis=1)
            out += P[:, 0]
        return out

    def dense_transposed(self, out):
        """Write the rows of ``F^T`` of every term of this order into ``out``."""
        Tt = np.ascontiguousarray(self.table.T)
        if self.order == 1:
            out[self.src] = Tt[self.dst]
        elif self.order == 2:
            width = Tt.shape[0]
            out[self.src] = Tt[self.dst // width] * Tt[self.dst % width]
        else:
            n = self.n
            for sl, starts in self.terms:
                block = Tt[starts[0]:starts[0] + n]
                for s in starts[1:]:
                    block = (block[:, None] * Tt[None, s:s + n]).reshape(-1, Tt.shape[1])
                out[sl] = block

    def adjoint_matvec(self, r, out):
        """Write ``conj(block)^T r`` of every term of this order into ``out``."""
        T = self.table
        # conj(T)^H r == conj(T^T conj(r)): conjugate the vector, not the table
        rc = r.conj() if self.conj else r
        if self.order <= 2:
            G = T.T @ (rc if self.order == 1 else T * rc[:, None])
            G = G.ravel()[self.dst]
            out[self.src] = G.conj() if self.conj else G
            return
        rows, n = T.shape[0], self.n
        for sl, starts in self.terms:
            W = rc[:, None]
            for s in reversed(starts[1:]):
                W = (T[:, s:s + n, None] * W[:, None, :]).reshape(rows, -1)
            G = (T[:, starts[0]:starts[0] + n].T @ W).ravel()
            out[sl] = G.conj() if self.conj else G


class DesignOperator:
    """Evaluation map from basis coefficients to values at fixed nodes."""

    def __init__(self, nodes, index_union: FrequencyIndexUnion):
        X = np.asarray(nodes, dtype=np.float64)
        if X.ndim != 2:
            raise DataError(f"nodes must be a 2-d array, got shape {X.shape}")
        if X.shape[1] != index_union.dimension:
            raise DataError(
                f"nodes have {X.shape[1]} coordinates but the index union "
                f"expects {index_union.dimension}"
            )
        kind = index_union.kind
        by_order: dict[int, list] = {}
        for i, term in enumerate(index_union.terms[1:], start=1):
            by_order.setdefault(len(term), []).append((term, index_union.group_slice(i)))
        X = np.array(check_domain(kind, X, what="node coordinate"), order="C")
        X.setflags(write=False)

        self.kind = kind
        self.index_union = index_union
        self.nodes = X
        self.rows = X.shape[0]
        self.cols = index_union.size
        self.shape = (self.rows, self.cols)
        self._stacks = [
            _OrderStack(order, index_union.grids[order], terms, kind, X)
            for order, terms in by_order.items()
        ]

    @property
    def oversampling(self) -> float:
        """Row/column ratio; values above 1 support the full-rank assumption."""
        return self.rows / self.cols

    def _coerce(self, vec, length: int, what: str) -> np.ndarray:
        v = np.asarray(vec)
        if v.shape != (length,):
            raise DataError(f"{what} must have shape ({length},), got {v.shape}")
        if np.iscomplexobj(v) and not self.kind.is_complex:
            raise DataError(f"{what} is complex but the basis is real")
        return v.astype(self.kind.dtype, copy=False)

    def matvec(self, coeffs) -> np.ndarray:
        """Values ``sum_k coeffs[k] * phi_k(x_m)`` at every node."""
        c = self._coerce(coeffs, self.cols, "coefficient vector")
        out = np.full(self.rows, c[0], dtype=self.kind.dtype)
        for stack in self._stacks:
            out += stack.matvec(c)
        return out

    def dense(self) -> np.ndarray:
        """Dense design matrix from the tables; the oracle is :func:`dense_design_matrix`."""
        # filled as F^T, so that every write is a copy of contiguous rows
        out = np.empty((self.cols, self.rows), dtype=self.kind.dtype)
        out[0] = 1.0
        for stack in self._stacks:
            stack.dense_transposed(out)
        return out.T

    def adjoint_matvec(self, values) -> np.ndarray:
        """Adjoint application ``sum_m conj(phi_k(x_m)) * values[m]`` per frequency."""
        r = self._coerce(values, self.rows, "value vector")
        out = np.empty(self.cols, dtype=self.kind.dtype)
        out[0] = r.sum()
        for stack in self._stacks:
            stack.adjoint_matvec(r, out)
        return out


def dense_design_matrix(
    nodes, index_union: FrequencyIndexUnion, *, max_entries: int = DENSE_ORACLE_MAX_ENTRIES
) -> np.ndarray:
    """Entry-by-entry dense design matrix, as an independent test oracle.

    Built directly from :func:`eval_tensor` per (node, frequency) pair, so it
    shares no code path with the grouped operator.  Restricted to small
    instances; production code must use :class:`DesignOperator`.
    """
    kind = index_union.kind
    X = check_domain(kind, np.asarray(nodes, dtype=np.float64))
    full = index_union.frequencies_full()
    if X.shape[0] * len(full) > max_entries:
        raise ConfigError(
            f"dense oracle limited to {max_entries} entries, "
            f"requested {X.shape[0] * len(full)}"
        )
    out = np.empty((X.shape[0], len(full)), dtype=kind.dtype)
    for m in range(X.shape[0]):
        for j, k in enumerate(full):
            out[m, j] = eval_tensor(kind, k, X[m])
    return out
