"""One-dimensional orthonormal function systems and their tensor products.

Three families are supported, selected by :class:`BasisKind`:

* ``EXPONENTIAL`` (token ``"per"``): complex exponentials ``e^{2 pi i k x}``
  on the torus, identified with ``[-0.5, 0.5)``.  Any integer frequency.
* ``COSINE`` (token ``"cos"``): ``1`` for ``k = 0`` and
  ``sqrt(2) cos(pi k x)`` for ``k >= 1`` on ``[0, 1]``.
* ``CHEBYSHEV`` (token ``"cheb"``): ``1`` for ``k = 0`` and
  ``sqrt(2) cos(k arccos(2x - 1))`` for ``k >= 1`` on ``[0, 1]``.
  Orthonormal with respect to the Chebyshev measure on ``[0, 1]``, not the
  uniform one; for uniformly scattered nodes the cosine family is usually
  the better choice.

Multivariate basis functions are plain tensor products of the 1-d family;
frequency ``0`` contributes the constant factor ``1`` in every coordinate.

:func:`eval_1d` and :func:`eval_tensor` evaluate each function directly
(one ``cos``/``exp`` per value) and serve as the reference.  The table
builder :func:`eval_1d_table`, which the design operator uses, spends one
transcendental per point and fills all degrees by recurrence: the
Chebyshev three-term recurrence ``T_k = 2c T_{k-1} - T_{k-2}`` for the
real kinds (with ``c = cos(pi x)`` or ``c = 2x - 1``) and repeated
multiplication by ``z = e^{2 pi i x}`` for the exponentials (Mason &
Handscomb, *Chebyshev Polynomials*, 2003).  It runs in fixed blocks of
points and agrees with direct evaluation to about ``k^2 eps``.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import ConfigError, DataError, DomainError

SQRT2 = float(np.sqrt(2.0))
# points per recurrence block of eval_1d_table; keeps its scratch in cache
_TABLE_BLOCK = 8192


class BasisKind(enum.Enum):
    """Basis family tag; values double as the CLI/config tokens."""

    EXPONENTIAL = "per"
    COSINE = "cos"
    CHEBYSHEV = "cheb"

    @classmethod
    def from_token(cls, token: str) -> "BasisKind":
        try:
            return cls(token)
        except ValueError:
            raise ConfigError(
                f"unknown basis token {token!r}; expected 'per', 'cos' or 'cheb'"
            ) from None

    @property
    def token(self) -> str:
        return self.value

    @property
    def is_complex(self) -> bool:
        return self is BasisKind.EXPONENTIAL

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.complex128 if self.is_complex else np.float64)

    @property
    def domain(self) -> tuple[float, float]:
        """Domain bounds: half-open for the torus, closed unit interval otherwise."""
        if self is BasisKind.EXPONENTIAL:
            return (-0.5, 0.5)
        return (0.0, 1.0)


def wrap_periodic(x):
    """Map coordinates onto the torus representative interval [-0.5, 0.5)."""
    x = np.asarray(x, dtype=np.float64)
    return x - np.floor(x + 0.5)


def check_domain(kind: BasisKind, x, *, what: str = "coordinate") -> np.ndarray:
    """Validate coordinates against the basis domain.

    Non-finite coordinates raise :class:`DomainError` for every kind.
    Exponential coordinates are then wrapped by periodicity instead of
    rejected (the torus identification makes wrapping exact); the other
    kinds raise :class:`DomainError` outside [0, 1].
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise DomainError(f"{what} is not finite (nan or inf)")
    if kind.is_complex:
        return wrap_periodic(x)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise DomainError(f"{what} outside [0, 1] for basis {kind.token!r}")
    return x


def _validate_frequency(kind: BasisKind, k: int) -> int:
    k = int(k)
    if not kind.is_complex and k < 0:
        raise ConfigError(f"negative frequency {k} is invalid for basis {kind.token!r}")
    return k


def eval_1d(kind: BasisKind, k: int, x):
    """Evaluate the 1-d basis function of frequency ``k`` at ``x``.

    ``x`` may be a scalar or an ndarray; the return matches its shape.
    Frequency 0 is the constant function 1 for every kind.
    """
    k = _validate_frequency(kind, k)
    x = check_domain(kind, x)
    if kind is BasisKind.EXPONENTIAL:
        out = np.exp(2j * np.pi * k * x)
    elif k == 0:
        out = np.ones_like(x)
    elif kind is BasisKind.COSINE:
        out = SQRT2 * np.cos(np.pi * k * x)
    else:  # Chebyshev; clamp absorbs rounding at the endpoints
        t = np.clip(2.0 * x - 1.0, -1.0, 1.0)
        out = SQRT2 * np.cos(k * np.arccos(t))
    return out if out.ndim else out[()]


def eval_tensor(kind: BasisKind, freqs, x):
    """Evaluate the tensor-product basis function ``prod_i eta_{k_i}(x_i)``.

    Only coordinates with nonzero frequency contribute; the rest multiply by
    the exact constant 1.
    """
    freqs = np.asarray(freqs, dtype=np.int64)
    x = np.asarray(x, dtype=np.float64)
    if freqs.ndim != 1 or x.ndim != 1 or freqs.shape != x.shape:
        raise DataError(
            f"frequency/node dimension mismatch: {freqs.shape} vs {x.shape}"
        )
    out = kind.dtype.type(1.0)
    for k, xi in zip(freqs, x):
        if k != 0:
            out = out * eval_1d(kind, int(k), float(xi))
        else:
            check_domain(kind, xi)
    return out


def eval_1d_table(kind: BasisKind, freqs, x) -> np.ndarray:
    """Evaluate many 1-d basis functions at many points.

    Returns an array of shape ``(len(x), len(freqs))`` with column ``j``
    holding ``eta_{freqs[j]}`` at all points.  Used by the design operator
    to build its stacked per-order tables, from nodes that already passed
    :func:`check_domain`: ``x`` must lie in the basis domain.

    Each point costs one transcendental: ``c = cos(pi x)`` (cosine), none
    (Chebyshev, ``c = 2x - 1`` clipped to [-1, 1]) or ``z = exp(2 pi i x)``
    (exponential).  Degrees ``k = 0 .. max|freqs|`` then follow from the
    recurrence ``T_k = 2c T_{k-1} - T_{k-2}`` (``T_k(c)`` is ``cos(k pi x)``,
    respectively ``cos(k arccos(2x - 1))``), or from ``z^k = z^{k-1} z``
    with ``conj(z^|k|)`` for negative ``k``; the real kinds scale every
    ``k != 0`` by ``sqrt(2)``.  The recurrence runs over blocks of
    ``_TABLE_BLOCK`` points, so its scratch stays in cache and the only
    large allocation is the returned table.  Its error grows like
    ``k^2 eps`` (about ``3e-14`` at ``|k| = 11``) against direct evaluation,
    which :func:`eval_1d` keeps as the reference.
    """
    freqs = np.asarray(freqs, dtype=np.int64)
    if not kind.is_complex and np.any(freqs < 0):
        raise ConfigError(f"negative frequency is invalid for basis {kind.token!r}")
    x = np.asarray(x, dtype=np.float64).ravel()
    top = int(np.abs(freqs).max(initial=0))
    table = np.empty((x.size, freqs.size), dtype=kind.dtype)
    # powers[k] holds degree k at the points of the current block
    powers = np.empty((top + 1, min(x.size, _TABLE_BLOCK)), dtype=kind.dtype)
    powers[0] = 1.0
    for start in range(0, x.size, _TABLE_BLOCK):
        xb = x[start:start + _TABLE_BLOCK]
        p = powers[:, :xb.size]
        if top:
            if kind is BasisKind.EXPONENTIAL:
                np.exp(2j * np.pi * xb, out=p[1])
                for k in range(2, top + 1):
                    np.multiply(p[k - 1], p[1], out=p[k])
            else:
                if kind is BasisKind.COSINE:
                    np.cos(np.pi * xb, out=p[1])
                else:
                    np.clip(2.0 * xb - 1.0, -1.0, 1.0, out=p[1])
                twice = 2.0 * p[1]
                for k in range(2, top + 1):
                    np.multiply(twice, p[k - 1], out=p[k])
                    np.subtract(p[k], p[k - 2], out=p[k])
        block = table[start:start + xb.size]
        for j, k in enumerate(freqs.tolist()):
            if k < 0:
                np.conjugate(p[-k], out=block[:, j])
            elif k and not kind.is_complex:
                np.multiply(p[k], SQRT2, out=block[:, j])
            else:
                block[:, j] = p[k]
    return table
