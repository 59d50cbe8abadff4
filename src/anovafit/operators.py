"""Matrix-free action of the scattered-data design matrix.

The design matrix has one row per node and one column per frequency of a
:class:`~anovafit.terms.FrequencyIndexUnion`; the entry is the tensor basis
function of that frequency at that node.  Each term's column block is a
tensor product of 1-d basis tables, so the operator never forms it (the
grouped transformations of Bartel, Potts & Schmischke, arXiv 2010.10199).

The union states each order's 1-d grid ``g_l`` of ``n_l = N_l - 1``
frequencies once (``index_union.grids``), and every order-``l`` term
carries ``g_l^l`` in :func:`itertools.product` order.  Terms are sorted by
(order, lex), so the ``T_l`` terms of order ``l`` own one contiguous
coefficient block of shape ``(T_l, n_l, ..., n_l)``; the operator takes
that block and the ``(T_l, l)`` array of the terms' variables from
:meth:`~anovafit.terms.FrequencyIndexUnion.order_block` and checks nothing
about them.  The empty term is index 0 and contributes the constant column.

**Tables.**  The operator calls :func:`~anovafit.basis.eval_1d_table` once,
on the ``v`` variables of all terms and the longest grid ``g``: each
``cos``/``cheb`` grid is a prefix ``1 .. N_l - 1`` of ``g`` and each ``per``
grid a contiguous run of it.  Order ``l`` keeps a read-only table ``T_l`` of
shape ``(M, n_l * v_l)`` over its ``v_l`` variables: variable number ``p``
(ascending) owns columns ``[p * n_l, (p + 1) * n_l)``, its 1-d basis
functions over ``g_l`` at all ``M`` nodes.  ``T_l`` is that one table when
order ``l`` uses every variable and all of ``g``, else one gather of it: at
most ``M * (v |g| + sum_l n_l v_l)`` entries, whatever the number of terms.
``pos[t, k]`` is the position ``p`` of term ``t``'s ``k``-th variable, so
``T_l`` viewed as ``(M, v_l, n_l)`` gives every factor of every term.

**Apply.**  Orders 1 and 2 take one BLAS call each:

* order 1: the order-1 terms are the sorted variables, so the block is
  already ordered like the table columns: one GEMV ``T_1 @ c_1``; the
  adjoint writes ``T_1^H r`` into the block;
* order 2: one quadratic form, ``rowsum((T_2 @ B) * T_2)`` (the row sum
  by one :func:`numpy.einsum`, with no product temporary), where ``B``
  viewed as ``(v, n, v, n)`` holds term ``t``'s ``n x n`` coefficients at
  ``[pos[t, 0], :, pos[t, 1], :]`` and zeros elsewhere; the adjoint
  ``G = T_2^H (conj(T_2) * r)`` holds every term's block at the same
  index.  Both cost ``O(M * (n_2 v_2)^2)`` in one GEMM;
* order 3 and up: one term at a time, its ``n_l^l`` rows of ``F^T`` from
  the tensor-product kernel that :meth:`DesignOperator.dense` runs on all
  terms at once, then ``c_t @ rows`` (adjoint: ``rows @ r``); the scratch is
  ``M * n_l^l`` entries plus the table transposed to ``(v_l, n_l, M)``.

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
    """Stacked 1-d table of one term order and that order's coefficient block."""

    def __init__(self, order, block, pos, v, table, conj):
        self.order = order
        self.block = block
        self.pos = pos
        self.v, self.n = v, table.shape[1] // v
        self.table = table
        self.table.setflags(write=False)
        self.conj = conj

    def transposed(self):
        """The table as ``(v, n, M)``: ``[p, j]`` is variable ``p``'s ``j``-th basis row."""
        return np.ascontiguousarray(self.table.T).reshape(self.v, self.n, self.table.shape[0])

    def term_rows(self, Tt, pos):
        """Rows of ``F^T`` of the terms at ``pos``, as ``(len(pos), n**order, M)``.

        ``Tt`` is :meth:`transposed`, so every product runs over contiguous node rows.
        """
        n, M = self.n, Tt.shape[2]
        rows = Tt[pos[:, 0]]
        for k in range(1, self.order):
            rows = (rows[:, :, None] * Tt[pos[:, k], None]).reshape(len(pos), n ** (k + 1), M)
        return rows

    def matvec(self, c):
        T, n, pos = self.table, self.n, self.pos
        if self.order == 1:
            return T @ c[self.block]
        if self.order == 2:
            B = np.zeros((self.v, n, self.v, n), dtype=T.dtype)
            B[pos[:, 0], :, pos[:, 1], :] = c[self.block].reshape(-1, n, n)
            return np.einsum("ij,ij->i", T @ B.reshape(T.shape[1], -1), T)
        # one term at a time: pos[:, None] yields (1, order) position arrays
        Tt, C = self.transposed(), c[self.block].reshape(len(pos), -1)
        return sum(c_t @ self.term_rows(Tt, p)[0] for p, c_t in zip(pos[:, None], C))

    def dense_transposed(self, out):
        """Write this order's rows of ``F^T`` into ``out``."""
        rows = self.term_rows(self.transposed(), self.pos)
        out[self.block] = rows.reshape(len(self.pos) * self.n**self.order, self.table.shape[0])

    def adjoint_matvec(self, r, out):
        """Write ``F_l^H r`` into this order's coefficient block of ``out``."""
        T, n, pos = self.table, self.n, self.pos
        # conj(T)^H r == conj(T^T conj(r)): conjugate the vector, not the table
        rc = r.conj() if self.conj else r
        if self.order <= 2:
            G = T.T @ (rc if self.order == 1 else T * rc[:, None])
            if self.order == 2:
                G = G.reshape(self.v, n, self.v, n)[pos[:, 0], :, pos[:, 1], :]
        else:
            Tt = self.transposed()
            G = np.array([self.term_rows(Tt, p)[0] @ rc for p in pos[:, None]])
        out[self.block] = (G.conj() if self.conj else G).ravel()


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
        X = np.array(check_domain(kind, X, what="node coordinate"), order="C")
        X.setflags(write=False)

        self.kind = kind
        self.index_union = index_union
        self.nodes = X
        self.rows = X.shape[0]
        self.cols = index_union.size
        self.shape = (self.rows, self.cols)
        # one table over every order's variables and frequencies (see Tables)
        blocks = {order: index_union.order_block(order) for order in index_union.grids}
        # masks over 0..d of the variables that appear in each order's terms
        used = [np.bincount(f.ravel(), minlength=X.shape[1] + 1) > 0 for _, f in blocks.values()]
        variables = np.flatnonzero(np.any(used, axis=0))
        grid = max(index_union.grids.values(), key=len, default=np.empty(0, np.int64))
        table = eval_1d_table(kind, grid, X[:, variables - 1].ravel())
        # rows of the (M * v, |g|) table run over (node, variable) pairs
        table = table.reshape(self.rows, len(variables) * len(grid))
        self._stacks = []
        for mask, (order, (block, factors)) in zip(used, blocks.items()):
            g, own = index_union.grids[order], np.flatnonzero(mask[variables])
            start = int(np.searchsorted(grid, g[0]))
            cols = (own[:, None] * len(grid) + np.arange(start, start + len(g))).ravel()
            sub = table if len(cols) == table.shape[1] else np.take(table, cols, axis=1)
            pos = (np.cumsum(mask) - 1)[factors]
            self._stacks.append(_OrderStack(order, block, pos, len(own), sub, kind.is_complex))

    @property
    def oversampling(self) -> float:
        """Row/column ratio; values above 1 support the full-rank assumption."""
        return self.rows / self.cols

    def _coerce(self, vec, length: int, what: str) -> np.ndarray:
        if isinstance(vec, np.ndarray) and vec.dtype == self.kind.dtype and vec.shape == (length,):
            return vec
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
