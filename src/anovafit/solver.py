"""Least-squares solvers for the coefficient fit.

Both minimize the damped objective

    || y - F g ||_2^2  +  lam * || g ||_2^2

:func:`lsqr_solve` runs the LSQR recurrence (Golub-Kahan bidiagonalization
plus plane rotations, damping parameter ``sqrt(lam)``), using only ``matvec``
and ``adjoint_matvec`` applications of the design operator.  Works unchanged in
real and complex arithmetic; all rotation scalars stay real.

The damped residual norm is available per iteration and is non-increasing,
which the test suite asserts.  Stopping follows the two standard tests:
the damped residual dropping below ``tolerance`` relative to ``||y||``
(consistent systems), or the normal-equation residual
``||F* r - lam g||`` dropping below ``tolerance`` relative to its natural
scale (incompatible systems).  ``tolerance`` defaults to 1e-6: Paige &
Saunders (*LSQR*, ACM TOMS 8(1), 1982, section 6) advise the relative
accuracy of the data, and on noisy regression data
``scripts/tolerance_sweep.py`` measured 24-34% fewer iterations at 1e-6
than at 1e-8.  1e-5 saved more but cost the real-data protocol (lam = 0)
up to 1.4e-5 relative held-out MSE.  Fitting a noise-free function
closely needs a tighter tolerance, such as 1e-8.

:func:`direct_solve` solves the damped normal equations of a dense ``F``
by one LU factorization; for ``lam > 0`` their matrix is at least ``lam I``.
Before allocating, both solvers pass :func:`~anovafit.errors.check_memory`: LSQR its
``LSQR_VECTORS`` coefficient-length vectors, the direct solve its Gram matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DataError, NumericalError, as_array, as_integer, as_real,
                     check_memory)

LSQR_VECTORS = 5  # coefficient-length vectors in an LSQR step: x, v, w, two update temporaries


@dataclass(frozen=True)
class SolverConfig:
    """Regularization weight and the stopping controls of :func:`lsqr_solve`.

    ``max_iterations`` and ``tolerance`` steer LSQR and nothing else: neither
    chooses between LSQR and ``fit``'s direct solve.  ``tolerance`` defaults
    to 1e-6, near the data's relative accuracy rather than the arithmetic's,
    as Paige & Saunders (1982, section 6) advise; the module docstring gives
    the measurement.  Pass 1e-8 to fit noise-free data closely.  A tolerance
    below ``model.DIRECT_SOLVE_MAX_ERROR`` (1e-8) does not tighten a small
    regularized fit: ``fit`` solves that directly, to an error bound of up
    to 1e-8.
    """

    regularization: float = 0.0
    max_iterations: int | None = None  # default: 10 * number of columns
    tolerance: float = 1e-6

    def __post_init__(self):
        if not 0.0 <= as_real(self.regularization, "regularization") < math.inf:
            raise ConfigError("regularization must be finite and >= 0")
        if not 0.0 < as_real(self.tolerance, "tolerance") < 1.0:
            raise ConfigError("tolerance must lie in (0, 1)")
        if self.max_iterations is not None:
            cap = as_integer(self.max_iterations, "max_iterations")
            if cap < 1:
                raise ConfigError("max_iterations must be >= 1")
            object.__setattr__(self, "max_iterations", cap)

    def iteration_limit(self, n_columns: int) -> int:
        if self.max_iterations is not None:
            return self.max_iterations
        return 10 * n_columns


@dataclass(frozen=True, eq=False)
class LsqrResult:
    coefficients: np.ndarray
    iterations: int
    relative_residual: float  # damped residual norm / ||y||
    stop_reason: str  # "tolerance", "max_iterations" or "direct"
    residual_history: np.ndarray  # damped residual norm, entry per iteration


def _check_system(shape, y, is_complex: bool) -> np.ndarray:
    m, n = shape
    if m < 1 or n < 1:
        raise DataError(f"zero-length system: operator shape {shape}")
    y = as_array(y, "value vector", real=not is_complex, shape=(m,))
    if not np.all(np.isfinite(y)):
        raise NumericalError("value vector contains non-finite entries")
    return y


def direct_solve(F: np.ndarray, y, regularization: float) -> LsqrResult:
    """Solve ``(F* F + lam I) g = F* y`` for a dense ``F`` and ``lam > 0``.

    Reports 0 iterations, stop reason ``"direct"`` and LSQR's relative
    residual ``sqrt(||y - F g||^2 + lam ||g||^2) / ||y||``.
    """
    F = as_array(F, "design matrix", real=False)
    if F.ndim != 2:
        raise DataError(f"design matrix must be a 2-d array, got shape {F.shape}")
    y = _check_system(F.shape, y, np.iscomplexobj(F)).astype(F.dtype, copy=False)
    check_memory(F.shape[1] ** 2 * F.itemsize, f"a {F.shape[1]}x{F.shape[1]} Gram matrix")
    Fh = F.conj().T  # a real array's conj() is the array itself, not a copy
    gram = Fh @ F
    gram.flat[:: gram.shape[0] + 1] += regularization
    x = np.linalg.solve(gram, Fh @ y)
    bnorm = np.linalg.norm(y)
    rnorm = math.sqrt(np.linalg.norm(y - F @ x) ** 2 + regularization * np.linalg.norm(x) ** 2)
    relative = rnorm / bnorm if bnorm > 0.0 else 0.0
    return LsqrResult(x, 0, relative, "direct", np.asarray([rnorm]))


def lsqr_solve(op, y, config: SolverConfig | None = None) -> LsqrResult:
    """Solve the damped least-squares problem for the operator ``op``."""
    cfg = config if config is not None else SolverConfig()
    m, n = op.shape
    y = _check_system(op.shape, y, op.kind.is_complex)

    dtype = op.kind.dtype
    check_memory(LSQR_VECTORS * n * dtype.itemsize, f"{LSQR_VECTORS} LSQR vectors of {n} entries")
    damp = math.sqrt(cfg.regularization)
    eps = np.finfo(np.float64).eps
    limit = cfg.iteration_limit(n)

    x = np.zeros(n, dtype=dtype)
    u = y.astype(dtype, copy=True)
    bnorm = np.linalg.norm(u)
    if bnorm == 0.0:
        return LsqrResult(x, 0, 0.0, "tolerance", np.zeros(1))

    beta = bnorm
    u /= beta
    v = op.adjoint_matvec(u)
    alpha = np.linalg.norm(v)
    if alpha > 0.0:
        v /= alpha
    w = v.copy()

    rhobar = alpha
    phibar = beta
    anorm = 0.0
    res2 = 0.0
    rnorm = beta
    arnorm = alpha * beta
    history = [rnorm]

    if arnorm == 0.0:  # y orthogonal to the range: x = 0 is optimal
        return LsqrResult(x, 0, 1.0, "tolerance", np.asarray(history))

    itn = 0
    reason = "max_iterations"
    while itn < limit:
        itn += 1

        # next bidiagonalization step
        u = op.matvec(v) - alpha * u
        beta = np.linalg.norm(u)
        if beta > 0.0:
            u /= beta
            anorm = math.sqrt(anorm**2 + alpha**2 + beta**2 + damp**2)
            v = op.adjoint_matvec(u) - beta * v
            alpha = np.linalg.norm(v)
            if alpha > 0.0:
                v /= alpha

        # rotation absorbing the damping row
        if damp > 0.0:
            rhobar1 = math.sqrt(rhobar**2 + damp**2)
            cs1 = rhobar / rhobar1
            sn1 = damp / rhobar1
            psi = sn1 * phibar
            phibar = cs1 * phibar
        else:
            rhobar1 = rhobar
            psi = 0.0

        # rotation eliminating the subdiagonal
        rho = math.sqrt(rhobar1**2 + beta**2)
        cs = rhobar1 / rho
        sn = beta / rho
        theta = sn * alpha
        rhobar = -cs * alpha
        phi = cs * phibar
        phibar = sn * phibar
        tau = sn * phi

        x += (phi / rho) * w
        w = v - (theta / rho) * w

        res2 += psi * psi
        rnorm = math.sqrt(res2 + phibar * phibar)
        arnorm = alpha * abs(tau)
        history.append(rnorm)

        xnorm = np.linalg.norm(x)
        test1 = rnorm / bnorm
        test2 = arnorm / (anorm * rnorm + eps)
        rtol = cfg.tolerance + cfg.tolerance * anorm * xnorm / bnorm
        if test1 <= rtol or test2 <= cfg.tolerance:
            reason = "tolerance"
            break

    return LsqrResult(x, itn, rnorm / bnorm, reason, np.asarray(history))
