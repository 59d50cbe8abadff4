"""Matrix-free action of the scattered-data design matrix.

The design matrix has one row per node and one column per frequency of a
:class:`~anovafit.terms.FrequencyIndexUnion`; the entry is the tensor basis
function of that frequency at that node.  Each term's column block is a
tensor product of 1-d basis tables, so the operator never forms it (the
grouped transformations of Bartel, Potts & Schmischke, arXiv 2010.10199).

Each order-``l`` term carries the ``l``-fold product of the ``n_l = N_l - 1``
frequencies of ``full_grid_1d(kind, N_l)`` in :func:`itertools.product`
order, yet no grid is built (see Tables).  The union lays out each order once,
in the :class:`~anovafit.terms.OrderLayout` ``index_union.layout[l]`` whose
fields are read below; the operator checks nothing about it.  Index 0 is the
constant column.

**Tables.**  ``nodes`` is a read-only view of the checked nodes (a copy
only where :func:`~anovafit.basis.check_domain` makes one: a conversion to
float64, or the wrapping of ``per`` nodes), and the tables below are fixed
at construction, so a later change to the caller's array changes no apply.
The operator calls :func:`~anovafit.basis.eval_1d_table` once, on the
``v`` variables of all terms (points in (variable, node) order) and the
largest bandwidth ``N``.  The result's transpose is the operator's one
table, C-contiguous and read-only, of shape ``(N - 1, v, M)``: ``[j, p]`` is
frequency ``full_grid_1d(kind, N)[j]`` of variable number ``p`` (ascending)
at all ``M`` nodes.  Order ``l``'s grid is the run of ``n_l`` rows that starts
at row ``(N - N_l) / 2`` for ``per`` and at row 0 for ``cos`` and ``cheb``,
so order ``l`` reads its ``(n_l, v_l, M)`` table ``T_l`` as that run, a view,
when it uses all ``v`` variables, else as one gather of it at ``own``: at most
``M * (v (N - 1) + sum_l n_l v_l)`` entries, whatever the number of terms;
``T_l[:, pos[t, k]]`` is the ``k``-th factor of term ``t``.  The node step and
scratch of an order's apply are the operator's (``_apply_plan``, from the
record, ``M`` and ``NODE_BLOCK``); before the table is built, it alone and
then with the largest scratch pass :func:`~anovafit.errors.check_memory`.

**Apply.**  Each order works on ``T_l`` viewed as ``(n_l v_l, M)``:

* order 1: the order-1 terms are the sorted variables, so the block viewed
  as ``(v, n)`` and transposed is ordered like the table rows: one GEMV
  ``c_1 @ T_1``; the adjoint writes ``T_1 r``, transposed back, into the block;
* order ``l >= 2``, over node blocks ``b`` (column ranges of ``T_l``, strided
  views that BLAS reads without a copy): the bilinear form
  ``colsum((B^T R_b) * T_l[:, b])``, its column sum by one :func:`numpy.einsum`
  into the output, between the *leading rows* ``R_b`` and the table: the
  products of the ``P`` tuples ``lead``, from the tensor-product kernel that
  :meth:`DesignOperator.dense` runs on all terms at once (order 2's ``R_b``
  is ``T_2[:, b]`` itself).  ``B``, of shape ``(n^(l-1) P, n v)``, holds term
  ``t``'s coefficient ``(a, k)`` at row ``a P + q_t``, column
  ``k v + pos[t, -1]``, and zeros elsewhere: its view ``(n^(l-1), P, n, v)``
  at ``[:, q, :, pos[:, -1]]`` is the block read as ``(T_l, n^(l-1), n)``.
  The adjoint sums ``(R_b * r_b) T_l[:, b]^T`` over the blocks and gathers
  the coefficients through the same view.  The node
  step is ``NODE_BLOCK n v // (n^(l-1) P)``, clipped to ``[1, NODE_BLOCK]``,
  so ``R_b`` is never larger than the ``(n v, NODE_BLOCK)`` table block, and
  the apply holds at most ``3 n_l v_l NODE_BLOCK`` entries of scratch that
  grow with the nodes, beyond its output and a few arrays of ``B``'s size.

**Determinism.**  An apply runs a fixed sequence of numpy operations on
fixed shapes, writes only to freshly allocated scratch arrays, and never
modifies a table (they are read-only, so a stray in-place update raises
instead of corrupting the cache).  The node blocks are summed in a fixed
order, the first one taken as is.  For a fixed BLAS thread count, repeated
applications of the same operator are therefore bitwise-identical.  An
operator whose nodes fit in each order's node step applies in exactly one
product per step, as if there were no blocks; one of more nodes differs from
that single product only in the last bits.  After ``DesignOperator._apply_dense``
each apply is one GEMV on the dense matrix, which differs from the structured
apply in the last bits; :meth:`DesignOperator.dense` keeps nothing.
"""

from __future__ import annotations

import operator
from functools import reduce

import numpy as np

from .basis import check_domain, eval_1d, eval_1d_table
from .errors import ConfigError, DataError, as_array, check_memory
from .terms import FrequencyIndexUnion, OrderLayout

# matrix entries allowed for the dense test oracle
DENSE_ORACLE_MAX_ENTRIES = 2_000_000
# nodes per block of an order-2 apply (higher orders take fewer), and per operator in model.predict
NODE_BLOCK = 4096


def _apply_plan(layout: OrderLayout, M: int) -> tuple[tuple[int, int], int, int]:
    """``B``'s shape, the node step and the scratch entries of an order's apply on ``M`` nodes."""
    n, v = layout.bandwidth - 1, len(layout.own)
    h, w = n ** (layout.order - 1) * len(layout.lead), n * v
    step = min(NODE_BLOCK, max(1, NODE_BLOCK * w // h))
    # an order-2+ adjoint holds G, one block of R_b and, past one block, the product added to G
    return (h, w), step, (layout.order > 1) * h * ((1 + (M > step)) * w + min(step, M))


class _OrderStack:
    """One term order's read-only ``(n, v, M)`` table and node blocks, on the union's layout."""

    def __init__(self, layout: OrderLayout, table: np.ndarray):
        table.setflags(write=False)
        self.layout, self.table = layout, table
        n, v, M = table.shape
        T = self.flat = table.reshape(n * v, M)
        self.shape, step, _ = _apply_plan(layout, M)  # B's
        # B viewed as (a, q, k, p) and read at ``at`` is the (T, n^(l-1), n) block (see Apply)
        self.view = (n ** (layout.order - 1), len(layout.lead), n, v)
        self.at = (slice(None), layout.q, slice(None), layout.pos[:, -1])
        # the node blocks as (slice, view of flat); one empty block for no nodes
        self.parts = [(slice(s, s + step), T[:, s:s + step]) for s in range(0, max(M, 1), step)]

    def term_rows(self, pos, nodes=slice(None)):
        """Rows of ``F^T`` of ``k``-factor terms ``pos`` on ``nodes``, ``(n**k, len(pos), m)``."""
        # take gathers in C order, unlike a mixed index, so that each reshape is a view
        table = self.table[:, :, nodes]
        rows = table.take(pos[:, 0], axis=1)
        for k in range(1, pos.shape[1]):
            factor = table.take(pos[:, k], axis=1)
            rows = (rows[:, None] * factor).reshape(len(rows) * len(factor), *factor.shape[1:])
        return rows

    def _leading_rows(self, b, Tb, weights=None):
        """The leading rows ``R_b``, each node's column times ``weights`` if given."""
        if self.layout.order == 2:
            return Tb if weights is None else Tb * weights
        R = self.term_rows(self.layout.lead, b).reshape(self.shape[0], Tb.shape[1])
        if weights is not None:
            R *= weights  # in place: a second block-sized temporary maps fresh pages per block
        return R

    def matvec(self, c):
        T, (n, v) = self.flat, self.table.shape[:2]
        C = c[self.layout.block]
        if self.layout.order == 1:
            return C.reshape(v, n).T.ravel() @ T
        B = np.zeros(self.shape, dtype=T.dtype)
        B.reshape(self.view)[self.at] = C.reshape(len(self.layout.q), -1, n)
        out = np.empty(T.shape[1], dtype=T.dtype)
        for b, Tb in self.parts:
            np.einsum("ij,ij->j", B.T @ self._leading_rows(b, Tb), Tb, out=out[b])
        return out

    def dense_transposed(self, out):
        """Write this order's rows of ``F^T`` into ``out``."""
        rows = self.term_rows(self.layout.pos).swapaxes(0, 1)
        out[self.layout.block].reshape(rows.shape)[:] = rows

    def adjoint_matvec(self, r, out):
        """Write ``F_l^T r`` into this order's coefficient block of ``out``."""
        T, (n, v) = self.flat, self.table.shape[:2]
        if self.layout.order == 1:
            G = (T @ r).reshape(n, v).T.ravel()
        else:
            # the first block's product is the sum's start, in place of zeros
            G = reduce(operator.iadd, (
                self._leading_rows(b, Tb, r[b]) @ Tb.T for b, Tb in self.parts
            ))
            G = G.reshape(self.view)[self.at].ravel()
        out[self.layout.block] = G


class DesignOperator:
    """Evaluation map from basis coefficients to values at fixed nodes."""

    def __init__(self, nodes, index_union: FrequencyIndexUnion):
        kind = index_union.kind
        # a read-only view: the caller's array stays writable, and the tables
        # below are fixed here whatever happens to it later
        X = check_domain(kind, nodes, what="node coordinate").view()
        X.setflags(write=False)
        if X.ndim != 2:
            raise DataError(f"nodes must be a 2-d array, got shape {X.shape}")
        d = index_union.terms.dimension
        if X.shape[1] != d:
            raise DataError(f"nodes have {X.shape[1]} coordinates but the index union expects {d}")

        self.kind = kind
        self.index_union = index_union
        self.nodes = X
        self.rows = X.shape[0]
        self.cols = index_union.size
        self.shape = (self.rows, self.cols)
        # one table over every order's variables and frequencies (see Tables)
        variables, layouts = index_union.variables, index_union.layout.values()
        bandwidth = max((o.bandwidth for o in layouts), default=2)
        # the table holds N - 1 frequencies of v variables at M nodes; an apply adds its scratch
        itemsize = kind.dtype.itemsize
        nbytes = (bandwidth - 1) * len(variables) * self.rows * itemsize
        check_memory(nbytes, "a basis table")
        nbytes += max((_apply_plan(o, self.rows)[2] for o in layouts), default=0) * itemsize
        check_memory(nbytes, "a basis table and one apply's scratch")
        # points over (variable, node) pairs: the transposed table is (N - 1, v, M)
        table = eval_1d_table(kind, bandwidth, X.T[variables - 1].ravel()).T
        table = table.reshape(bandwidth - 1, len(variables), self.rows)
        self._stacks = []
        for o in layouts:
            start = (bandwidth - o.bandwidth) // 2 if kind.is_complex else 0
            sub = table[start:start + o.bandwidth - 1]
            whole = len(o.own) == len(variables)
            self._stacks.append(_OrderStack(o, sub if whole else np.take(sub, o.own, axis=1)))
        self._dense = None  # set by _apply_dense(): the applies then read it

    @property
    def oversampling(self) -> float:
        """Row/column ratio; values above 1 support the full-rank assumption."""
        return self.rows / self.cols

    def _coerce(self, vec, length: int, what: str) -> np.ndarray:
        v = as_array(vec, what, real=not self.kind.is_complex, shape=(length,))
        return v.astype(self.kind.dtype, copy=False)

    def matvec(self, coeffs) -> np.ndarray:
        """Values ``sum_k coeffs[k] * phi_k(x_m)`` at every node."""
        c = self._coerce(coeffs, self.cols, "coefficient vector")
        if self._dense is not None:
            return self._dense @ c
        out = np.full(self.rows, c[0], dtype=self.kind.dtype)
        for stack in self._stacks:
            out += stack.matvec(c)
        return out

    def dense(self) -> np.ndarray:
        """A fresh read-only dense design matrix from the tables; the operator keeps nothing.

        The oracle is :func:`dense_design_matrix`.
        """
        check_memory(self.rows * self.cols * self.kind.dtype.itemsize,
                     f"a {self.rows}x{self.cols} dense design matrix")
        # filled as F^T, so that every write is a copy of contiguous rows
        out = np.empty((self.cols, self.rows), dtype=self.kind.dtype)
        out[0] = 1.0
        for stack in self._stacks:
            stack.dense_transposed(out)
        out.setflags(write=False)
        return out.T

    def _apply_dense(self) -> np.ndarray:
        """Build :meth:`dense`, make each later apply one GEMV on it, and return it."""
        self._dense = self.dense()
        return self._dense

    def adjoint_matvec(self, values) -> np.ndarray:
        """Adjoint application ``sum_m conj(phi_k(x_m)) * values[m]`` per frequency."""
        r = self._coerce(values, self.rows, "value vector")
        # conj(F)^T r == conj(F^T conj(r)): conjugate the vector and the result, not F
        r = r.conj() if self.kind.is_complex else r
        if self._dense is not None:
            out = self._dense.T @ r
        else:
            out = np.empty(self.cols, dtype=self.kind.dtype)
            out[0] = r.sum()
            for stack in self._stacks:
                stack.adjoint_matvec(r, out)
        return np.conjugate(out, out=out) if self.kind.is_complex else out


def dense_design_matrix(nodes, index_union: FrequencyIndexUnion) -> np.ndarray:
    """Column-by-column dense design matrix, as an independent test oracle.

    Column ``j`` is the product, over the nonzero coordinates ``i`` of
    frequency ``j``, of :func:`eval_1d` of that frequency at all nodes'
    coordinate ``i``: direct evaluation, sharing no code path with the
    grouped operator.  Restricted to ``DENSE_ORACLE_MAX_ENTRIES`` entries;
    production code must use :class:`DesignOperator`.
    """
    kind = index_union.kind
    X = check_domain(kind, nodes)
    d = index_union.terms.dimension
    if X.ndim != 2 or X.shape[1] != d:
        raise DataError(f"nodes must have shape (M, {d}), got {X.shape}")
    full = index_union.frequencies_full()
    if X.shape[0] * len(full) > DENSE_ORACLE_MAX_ENTRIES:
        raise ConfigError(
            f"dense oracle limited to {DENSE_ORACLE_MAX_ENTRIES} entries, "
            f"requested {X.shape[0] * len(full)}"
        )
    out = np.ones((X.shape[0], len(full)), dtype=kind.dtype)
    for j, k in enumerate(full):
        for i in np.flatnonzero(k):
            out[:, j] *= eval_1d(kind, int(k[i]), X[:, i])
    return out
