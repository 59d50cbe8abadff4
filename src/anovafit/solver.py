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
scale (incompatible systems).

:func:`direct_solve` solves the damped normal equations of a dense ``F``
by one LU factorization; for ``lam > 0`` their matrix is at least ``lam I``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericalError, as_integer, as_real


@dataclass(frozen=True)
class SolverConfig:
    """Regularization weight and the stopping controls of :func:`lsqr_solve`.

    An explicit ``max_iterations`` forces LSQR where ``fit`` would solve directly.
    """

    regularization: float = 0.0
    max_iterations: int | None = None  # default: 10 * number of columns
    tolerance: float = 1e-8

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


def _norm(v: np.ndarray) -> float:
    """Euclidean norm, bitwise equal to ``np.linalg.norm(v)`` for 1-d ``v``.

    Uses numpy's own formula without its per-call dispatch, which costs
    more than the dot products on the short vectors of a small fit.
    """
    if v.dtype.kind == "c":
        re, im = v.real, v.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(v.dot(v))


def _check_system(shape, y, is_complex: bool) -> np.ndarray:
    m, n = shape
    if m < 1 or n < 1:
        raise DataError(f"zero-length system: operator shape {shape}")
    y = np.asarray(y)
    if y.shape != (m,):
        raise DataError(f"value vector must have shape ({m},), got {y.shape}")
    if not np.all(np.isfinite(y)):
        raise NumericalError("value vector contains non-finite entries")
    if np.iscomplexobj(y) and not is_complex:
        raise DataError("complex values with a real basis")
    return y


def direct_solve(F: np.ndarray, y, regularization: float) -> LsqrResult:
    """Solve ``(F* F + lam I) g = F* y`` for a dense ``F`` and ``lam > 0``.

    Reports 0 iterations, stop reason ``"direct"`` and LSQR's relative
    residual ``sqrt(||y - F g||^2 + lam ||g||^2) / ||y||``.
    """
    y = _check_system(F.shape, y, np.iscomplexobj(F)).astype(F.dtype, copy=False)
    Fh = F.conj().T
    gram = Fh @ F
    gram.flat[:: gram.shape[0] + 1] += regularization
    x = np.linalg.solve(gram, Fh @ y)
    bnorm = _norm(y)
    rnorm = math.sqrt(_norm(y - F @ x) ** 2 + regularization * _norm(x) ** 2)
    relative = rnorm / bnorm if bnorm > 0.0 else 0.0
    return LsqrResult(x, 0, relative, "direct", np.asarray([rnorm]))


def lsqr_solve(op, y, config: SolverConfig | None = None) -> LsqrResult:
    """Solve the damped least-squares problem for the operator ``op``."""
    cfg = config if config is not None else SolverConfig()
    m, n = op.shape
    y = _check_system(op.shape, y, op.kind.is_complex)

    dtype = op.kind.dtype
    damp = math.sqrt(cfg.regularization)
    eps = np.finfo(np.float64).eps
    limit = cfg.iteration_limit(n)

    x = np.zeros(n, dtype=dtype)
    u = y.astype(dtype, copy=True)
    bnorm = _norm(u)
    if bnorm == 0.0:
        return LsqrResult(x, 0, 0.0, "tolerance", np.zeros(1))

    beta = bnorm
    u /= beta
    v = op.adjoint_matvec(u)
    alpha = _norm(v)
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
        beta = _norm(u)
        if beta > 0.0:
            u /= beta
            anorm = math.sqrt(anorm**2 + alpha**2 + beta**2 + damp**2)
            v = op.adjoint_matvec(u) - beta * v
            alpha = _norm(v)
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

        xnorm = _norm(x)
        test1 = rnorm / bnorm
        test2 = arnorm / (anorm * rnorm + eps)
        rtol = cfg.tolerance + cfg.tolerance * anorm * xnorm / bnorm
        if test1 <= rtol or test2 <= cfg.tolerance:
            reason = "tolerance"
            break

    return LsqrResult(x, itn, rnorm / bnorm, reason, np.asarray(history))
