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
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import ConfigError, DomainError

SQRT2 = float(np.sqrt(2.0))


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
        raise ValueError(f"negative frequency {k} is invalid for basis {kind.token!r}")
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
        raise ValueError(
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
    to build its stacked per-order tables.
    """
    freqs = np.asarray(freqs, dtype=np.int64)
    if not kind.is_complex and np.any(freqs < 0):
        raise ValueError(f"negative frequency is invalid for basis {kind.token!r}")
    x = check_domain(kind, np.asarray(x, dtype=np.float64))
    # in-place ufuncs keep the peak at about two tables for large ``x``
    if kind is BasisKind.EXPONENTIAL:
        table = 2j * np.pi * np.outer(x, freqs)
        return np.exp(table, out=table)
    if kind is BasisKind.COSINE:
        table = np.outer(x, freqs)
        table *= np.pi
    else:
        theta = np.arccos(np.clip(2.0 * x - 1.0, -1.0, 1.0))
        table = np.outer(theta, freqs)
    np.cos(table, out=table)
    table *= np.where(freqs != 0, SQRT2, 1.0)
    return table
