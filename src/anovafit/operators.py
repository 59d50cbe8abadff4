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

**Tables.**  ``nodes`` is a read-only view of the checked nodes (a copy
only where :func:`~anovafit.basis.check_domain` makes one: a conversion to
float64, or the wrapping of ``per`` nodes), and the tables below are fixed
at construction, so a later change to the caller's array changes no apply.
The operator calls :func:`~anovafit.basis.eval_1d_table` once,
on the ``v`` variables of all terms (points in (variable, node) order) and
the longest grid ``g``: each ``cos``/``cheb`` grid is a prefix
``1 .. N_l - 1`` of ``g`` and each ``per`` grid a contiguous run of it.  The
result's transpose is the operator's one table, C-contiguous and read-only,
of shape ``(|g|, v, M)``: ``[j, p]`` is frequency ``g[j]`` of variable
number ``p`` (ascending) at all ``M`` nodes.  Order ``l`` reads its
``(n_l, v_l, M)`` table ``T_l`` from it as the row range of ``g_l``, a view,
when it uses all ``v`` variables, else as one gather of that range: at most
``M * (v |g| + sum_l n_l v_l)`` entries, whatever the number of terms.
``pos[t, k]`` is the position ``p`` of term ``t``'s ``k``-th variable, so
``T_l[:, pos[t, k]]`` is that factor of term ``t``; row ``j v_l + p`` of
``T_l`` viewed as ``(n_l v_l, M)`` is frequency ``j`` of variable ``p``.

**Apply.**  Each order works on ``T_l`` viewed as ``(n_l v_l, M)``.  Order 1
takes one BLAS call each way; orders 2 and up run over node blocks, the
column ranges ``s:s + NODE_BLOCK`` of ``T_l`` (strided views that BLAS
reads without a copy), so no apply holds scratch of more than one block:

* order 1: the order-1 terms are the sorted variables, so the block viewed
  as ``(v, n)`` and transposed is ordered like the table rows: one GEMV
  ``c_1 @ T_1``; the adjoint writes ``T_1 r``, transposed back, into the
  block.  Neither holds node-sized scratch beyond the output;
* order 2: per node block ``b``, the quadratic form
  ``colsum((B^T T_2[:, b]) * T_2[:, b])`` (the column sum by one
  :func:`numpy.einsum` into the output, with no product temporary), where
  ``B`` viewed as ``(n, v, n, v)`` holds term ``t``'s ``n x n`` coefficients
  at ``[:, pos[t, 0], :, pos[t, 1]]`` and zeros elsewhere; the adjoint sums
  ``(T_2[:, b] * r_b) T_2[:, b]^T`` over the blocks into ``G``, which holds
  every term's block at the same index.  Both cost ``O(M * (n_2 v_2)^2)``,
  with ``NODE_BLOCK * n_2 v_2`` entries of scratch;
* order 3 and up: one term and one node block at a time, the term's
  ``n_l^l`` rows of ``F^T`` on the block from the tensor-product kernel that
  :meth:`DesignOperator.dense` runs on all terms and nodes at once, then
  ``c_t @ rows`` (adjoint: ``rows @ r_b``, summed over the blocks); the
  scratch is ``NODE_BLOCK * n_l^l`` entries and one ``(n_l, NODE_BLOCK)``
  gather per factor.

**Determinism.**  An apply runs a fixed sequence of numpy operations on
fixed shapes, writes only to freshly allocated scratch arrays, and never
modifies a table (they are read-only, so a stray in-place update raises
instead of corrupting the cache).  The node blocks are summed in a fixed
order, the first one taken as is.  For a fixed BLAS thread count, repeated
applications of the same operator are therefore bitwise-identical.  An
operator of at most ``NODE_BLOCK`` nodes applies in exactly one product per
step, as if there were no blocks; one of more nodes differs from that
single product only in the last bits.
"""

from __future__ import annotations

import operator
from functools import reduce

import numpy as np

from .basis import check_domain, eval_1d_table, eval_tensor
from .errors import ConfigError, DataError
from .terms import FrequencyIndexUnion

# matrix entries allowed for the dense test oracle
DENSE_ORACLE_MAX_ENTRIES = 2_000_000
# nodes per block of an order >= 2 apply, and per operator in model.predict
NODE_BLOCK = 4096


class _OrderStack:
    """One term order's ``(n, v, M)`` table and that order's coefficient block."""

    def __init__(self, order, block, pos, table, conj):
        self.order = order
        self.block = block
        self.pos = pos
        self.n, self.v, M = table.shape
        table.setflags(write=False)
        self.table = table
        self.flat = table.reshape(self.n * self.v, M)
        # the node blocks as (slice, view of flat); one empty block for no nodes
        self.parts = [
            (slice(s, s + NODE_BLOCK), self.flat[:, s:s + NODE_BLOCK])
            for s in range(0, max(M, 1), NODE_BLOCK)
        ]
        self.conj = conj

    def term_rows(self, pos, nodes=slice(None)):
        """Rows of ``F^T`` of the terms at ``pos`` on ``nodes``, as ``(len(pos), n**order, m)``."""
        n = self.n
        rows = self.table[:, pos[:, 0], nodes].swapaxes(0, 1)
        M = rows.shape[2]
        for k in range(1, self.order):
            factor = self.table[:, pos[:, k], nodes].swapaxes(0, 1)
            rows = (rows[:, :, None] * factor[:, None]).reshape(len(pos), n ** (k + 1), M)
        return rows

    def matvec(self, c):
        T, n, v, pos = self.flat, self.n, self.v, self.pos
        C = c[self.block]
        if self.order == 1:
            return C.reshape(v, n).T.ravel() @ T
        out = np.empty(T.shape[1], dtype=T.dtype)
        if self.order == 2:
            B = np.zeros((n, v, n, v), dtype=T.dtype)
            B[:, pos[:, 0], :, pos[:, 1]] = C.reshape(len(pos), n, n)
            Bt = B.reshape(n * v, n * v).T
            for b, Tb in self.parts:
                np.einsum("ij,ij->j", Bt @ Tb, Tb, out=out[b])
            return out
        # one term at a time: pos[:, None] yields (1, order) position arrays
        C = C.reshape(len(pos), n**self.order)
        for b, _ in self.parts:
            out[b] = sum(c_t @ self.term_rows(p, b)[0] for p, c_t in zip(pos[:, None], C))
        return out

    def dense_transposed(self, out):
        """Write this order's rows of ``F^T`` into ``out``."""
        rows = self.term_rows(self.pos)
        out[self.block] = rows.reshape(len(self.pos) * self.n**self.order, self.table.shape[2])

    def adjoint_matvec(self, r, out):
        """Write ``F_l^H r`` into this order's coefficient block of ``out``."""
        T, n, v, pos = self.flat, self.n, self.v, self.pos
        # conj(T)^H r == conj(T^T conj(r)): conjugate the vector, not the table
        rc = r.conj() if self.conj else r
        if self.order == 1:
            G = (T @ rc).reshape(n, v).T
        elif self.order == 2:
            # the first block's product is the sum's start, in place of zeros
            G = reduce(operator.iadd, ((Tb * rc[b]) @ Tb.T for b, Tb in self.parts))
            G = G.reshape(n, v, n, v)[:, pos[:, 0], :, pos[:, 1]]
        else:
            G = np.array([
                reduce(operator.iadd, (self.term_rows(p, b)[0] @ rc[b] for b, _ in self.parts))
                for p in pos[:, None]
            ])
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
        # a read-only view: the caller's array stays writable, and the tables
        # below are fixed here whatever happens to it later
        X = check_domain(kind, X, what="node coordinate").view()
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
        # points over (variable, node) pairs: the transposed table is (|g|, v, M)
        table = eval_1d_table(kind, grid, X.T[variables - 1].ravel()).T
        table = table.reshape(len(grid), len(variables), self.rows)
        self._stacks = []
        for mask, (order, (block, factors)) in zip(used, blocks.items()):
            g, own = index_union.grids[order], np.flatnonzero(mask[variables])
            start = int(np.searchsorted(grid, g[0]))
            sub = table[start:start + len(g)]
            if len(own) < len(variables):
                sub = np.take(sub, own, axis=1)
            pos = (np.cumsum(mask) - 1)[factors]
            self._stacks.append(_OrderStack(order, block, pos, sub, kind.is_complex))

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


def dense_design_matrix(nodes, index_union: FrequencyIndexUnion) -> np.ndarray:
    """Entry-by-entry dense design matrix, as an independent test oracle.

    Built directly from :func:`eval_tensor` per (node, frequency) pair, so it
    shares no code path with the grouped operator.  Restricted to
    ``DENSE_ORACLE_MAX_ENTRIES`` entries; production code must use
    :class:`DesignOperator`.
    """
    kind = index_union.kind
    X = check_domain(kind, np.asarray(nodes, dtype=np.float64))
    full = index_union.frequencies_full()
    if X.shape[0] * len(full) > DENSE_ORACLE_MAX_ENTRIES:
        raise ConfigError(
            f"dense oracle limited to {DENSE_ORACLE_MAX_ENTRIES} entries, "
            f"requested {X.shape[0] * len(full)}"
        )
    out = np.empty((X.shape[0], len(full)), dtype=kind.dtype)
    for m in range(X.shape[0]):
        for j, k in enumerate(full):
            out[m, j] = eval_tensor(kind, k, X[m])
    return out
