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
Each term coordinate carries the grid of its bandwidth (:func:`full_grid_1d`).

:func:`eval_1d` and :func:`eval_tensor` evaluate each function directly
(one ``cos``/``exp`` per value) and serve as the reference.  The table
builder :func:`eval_1d_table`, which the design operator uses, spends one
transcendental per point and fills one grid by recurrence: the
Chebyshev three-term recurrence ``T_k = 2c T_{k-1} - T_{k-2}`` for the
real kinds (with ``c = cos(pi x)`` or ``c = 2x - 1``) and repeated
multiplication by ``z = e^{2 pi i x}`` for the exponentials (Mason &
Handscomb, *Chebyshev Polynomials*, 2003).  It runs in fixed blocks of
points and agrees with direct evaluation to about ``k^2 eps``.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import ConfigError, DataError, DomainError, as_array, as_integer

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


def wrap_periodic(x: np.ndarray) -> np.ndarray:
    """Map a float array of coordinates onto the torus representative interval [-0.5, 0.5)."""
    return x - np.floor(x + 0.5)


def check_domain(kind: BasisKind, x, *, what: str = "coordinate") -> np.ndarray:
    """Validate coordinates against the basis domain.

    Coordinates that are not real numbers raise :class:`DataError` and
    non-finite ones :class:`DomainError`, for every kind.  Exponential
    coordinates are then wrapped by periodicity instead of rejected (the torus
    identification makes wrapping exact); other kinds raise :class:`DomainError` outside
    their closed :attr:`BasisKind.domain`.
    """
    x = as_array(x, what)
    if not np.all(np.isfinite(x)):
        raise DomainError(f"{what} is not finite (nan or inf)")
    if kind.is_complex:
        return wrap_periodic(x)
    lo, hi = kind.domain
    if np.any(x < lo) or np.any(x > hi):
        raise DomainError(f"{what} outside [{lo:g}, {hi:g}] for basis {kind.token!r}")
    return x


def eval_1d(kind: BasisKind, k: int, x):
    """Evaluate the 1-d basis function of frequency ``k`` at ``x``.

    ``x`` may be a scalar or an ndarray; the return matches its shape.
    Frequency 0 is the constant function 1 for every kind.
    """
    k = as_integer(k, "frequency")
    if not kind.is_complex and k < 0:
        raise ConfigError(f"negative frequency {k} is invalid for basis {kind.token!r}")
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

    Every coordinate passes :func:`check_domain`; only coordinates with
    nonzero frequency contribute, the rest multiply by the exact constant 1.
    """
    x = check_domain(kind, x)
    try:
        shape = np.shape(freqs)
    except ValueError:  # a ragged list
        raise DataError(f"frequencies must be one flat list, got {freqs!r}") from None
    if x.ndim != 1 or shape != x.shape:
        raise DataError(f"frequency/node dimension mismatch: {shape} vs {x.shape}")
    out = kind.dtype.type(1.0)
    for k, xi in zip(freqs, x):
        k = as_integer(k, "frequency")
        if k != 0:
            out = out * eval_1d(kind, k, float(xi))
    return out


def as_bandwidth(value, what: str = "bandwidth") -> int:
    """``value`` as a bandwidth: an even integer >= 2 whose grid fits in 64-bit frequencies."""
    n = as_integer(value, what)
    if n < 2 or n % 2 != 0:
        raise ConfigError(f"{what} must be even and >= 2, got {n}")
    if n > np.iinfo(np.int64).max:
        raise ConfigError(f"{what} {n} exceeds the 64-bit frequency range")
    return n


def full_grid_1d(kind: BasisKind, bandwidth: int) -> np.ndarray:
    """The 1-d frequency grid for one coordinate of a term; zero is excluded."""
    n = as_bandwidth(bandwidth)
    if kind.is_complex:
        grid = np.arange(-n // 2, n // 2, dtype=np.int64)
        return grid[grid != 0]
    return np.arange(1, n, dtype=np.int64)


def eval_1d_table(kind: BasisKind, bandwidth: int, x: np.ndarray) -> np.ndarray:
    """Evaluate the basis functions of the grid ``g = full_grid_1d(kind, N)`` at many points.

    Returns the ``(len(x), N - 1)`` table whose column ``j`` holds
    ``eta_{g[j]}``; ``x`` is a 1-d float64 array that passed :func:`check_domain`.
    The grid of every even ``N' < N`` is one run of its ``N' - 1`` columns,
    from column ``(N - N') / 2`` for ``per`` and from column 0 otherwise.

    Each point costs one transcendental: ``c = cos(pi x)`` (cosine), none
    (Chebyshev, ``c = 2x - 1`` clipped to [-1, 1]) or ``z = exp(2 pi i x)``
    (exponential).  Degrees ``k = 1 .. max|g|`` then follow from the
    recurrence ``T_k = 2c T_{k-1} - T_{k-2}`` (``T_k(c)`` is ``cos(k pi x)``,
    respectively ``cos(k arccos(2x - 1))``, and ``T_0 = 1``), or from
    ``z^k = z^{k-1} z``, each written straight into its own row of the
    table.  The real kinds hold degree ``j + 1`` in row ``j`` and are scaled
    by ``sqrt(2)`` once the recurrence is done.  The exponential grid
    ``-h .. -1, 1 .. h - 1`` (``h = N / 2``) holds ``z^1 .. z^{h-1}`` in its
    positive rows and ``z^h`` in its first row; the negative rows are then the
    conjugates of the positive ones, and the first row is conjugated in place.
    The recurrence runs over blocks of ``_TABLE_BLOCK`` points, so that its
    rows stay in cache, and it needs no scratch beyond ``2c`` of one block:
    the only large allocation is the returned table, written frequency-major
    (its ``.T`` is C-contiguous, one contiguous run per frequency and block).
    Its error grows like ``k^2 eps`` (about ``3e-14`` at ``|k| = 11``)
    against direct evaluation, which :func:`eval_1d` keeps as the reference.
    """
    n = as_bandwidth(bandwidth)
    table = np.empty((n - 1, x.size), dtype=kind.dtype)
    h = n // 2
    for start in range(0, x.size, _TABLE_BLOCK):
        xb = x[start:start + _TABLE_BLOCK]
        block = table[:, start:start + xb.size]
        if kind is BasisKind.EXPONENTIAL:
            # degree k in rows[k - 1]: the positive rows, then the first row
            rows = [*block[h:], block[0]]
            np.exp(2j * np.pi * xb, out=rows[0])
            for k in range(1, h):
                np.multiply(rows[k - 1], rows[0], out=rows[k])
            np.conjugate(block[h:][::-1], out=block[1:h])
            np.conjugate(block[0], out=block[0])
        else:
            if kind is BasisKind.COSINE:
                np.cos(np.pi * xb, out=block[0])
            else:
                np.clip(2.0 * xb - 1.0, -1.0, 1.0, out=block[0])
            twice = 2.0 * block[0]
            for k in range(1, len(block)):
                np.multiply(twice, block[k - 1], out=block[k])
                np.subtract(block[k], block[k - 2] if k > 1 else 1.0, out=block[k])
            block *= SQRT2
    return table.T
