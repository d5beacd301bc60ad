"""Linear stability of the single-lane ring with a reaction delay.

The linearized dynamics about the equal-spacing equilibrium reduce, after
diagonalizing the (N-1)x(N-1) interaction matrix, to independent scalar delay
equations whose characteristic roots are Lambert-W values.  The closed-form
eigenvalues make the analysis cheap for any fleet size; the dense matrix and
every branch's characteristic roots are kept only as brute-force cross-checks,
in ``tests/oracles.py``.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import lambertw as _scipy_lambertw

from .core import ModelParams
from .errors import NumericalError, ParameterError

_RESIDUAL_TOL = 1e-10
_HALLEY_TOL = 1e-13
_HALLEY_MAX_ITER = 100


def scale_constant(n_vehicles: int, p: ModelParams) -> float:
    """Common (negative) sensitivity of the linearized coupling, 1/s; checks
    that the fleet size is an integer (not a bool) of at least 2."""
    integral = isinstance(n_vehicles, numbers.Integral) and not isinstance(n_vehicles, bool)
    if not (integral and n_vehicles >= 2):
        raise ParameterError(f"need an integer of at least 2 vehicles, got {n_vehicles!r}")
    h_eq = p.track_length / n_vehicles
    return -p.lambda_rate * math.exp(-(p.lambda_rate / p.v_max) * (h_eq - p.d_min))


def closed_form_eigenvalues(n_vehicles: int, p: ModelParams) -> np.ndarray:
    """The N-1 distinct eigenvalues ``c * (1 - exp(2*pi*i*k/N))``, k = 1..N-1.

    For even N the half-ring mode k = N/2 is exactly real, ``2c``.
    """
    c = scale_constant(n_vehicles, p)
    k = np.arange(1, n_vehicles)
    eigs = c * (1.0 - np.exp(2j * np.pi * k / n_vehicles))
    if n_vehicles % 2 == 0:
        eigs[n_vehicles // 2 - 1] = 2.0 * c  # exp(i pi) rounds to -1 + 1.2e-16i
    return eigs


@dataclass(frozen=True)
class StabilityVerdict:
    """Maximal real part over all characteristic roots."""

    max_real_part: float
    stable: bool


def _halley(w: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Halley iteration for ``w * exp(w) = z`` from the given seeds."""
    active = np.abs(w * np.exp(w) - z) > 0.0
    for _ in range(_HALLEY_MAX_ITER):
        if not np.any(active):
            break
        wa = w[active]
        za = z[active]
        ew = np.exp(wa)
        f = wa * ew - za
        wp1 = wa + 1.0
        wp1 = np.where(wp1 == 0, 1e-300, wp1)  # exact branch-point hit
        dw = f / (ew * wp1 - (wa + 2.0) * f / (2.0 * wp1))
        wa = wa - dw
        w[active] = wa
        idx = np.flatnonzero(active)
        active[idx] = np.abs(dw) > _HALLEY_TOL * (1.0 + np.abs(wa))
    return w


def lambert_w(z, branch: int = 0):
    """Branch ``branch`` of the complex Lambert W function, ``w * exp(w) = z``.

    ``scipy.special.lambertw`` picks the sheet; a Halley polish then brings
    every element to the defining equation.  The polish is needed at and just
    above the branch point -1/e, where scipy returns NaN (seeded here as the
    branch-point value -1) or, on branch -1, is off by up to about 1e-4.  Every
    element is verified against the defining equation before being returned;
    a NaN fails the check.  Scalars in, scalar out.
    """
    scalar = np.ndim(z) == 0
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    if branch != 0 and np.any(z_arr == 0):
        raise ParameterError(f"Lambert W branch {branch} is undefined at z=0")
    w = _scipy_lambertw(z_arr, branch)
    w[np.isnan(w)] = -1.0
    w = _halley(w, z_arr)
    _verify(np.abs(w * np.exp(w) - z_arr), z_arr, f"Lambert W branch {branch}")
    return complex(w[0]) if scalar else w


def _verify(residual: np.ndarray, inputs, what: str) -> None:
    """Raise unless every residual is below the relative tolerance; a NaN fails."""
    inputs = np.broadcast_to(inputs, residual.shape)
    if not np.all(residual <= _RESIDUAL_TOL * np.maximum(1.0, np.abs(inputs))):
        worst = int(np.argmax(residual))  # the first NaN, if any
        raise NumericalError(
            f"{what} failed at {complex(inputs[worst])!r} (residual {residual[worst]:.3e})"
        )


def rightmost_roots(n_vehicles: int, delay: float, p: ModelParams) -> np.ndarray:
    """Rightmost characteristic root of each ring mode k = 1..N-1, in mode order.

    The principal Lambert-W branch holds the rightmost root of every mode
    (Shinozaki & Mori, Automatica 42, 2006), so one verified branch call
    suffices; for zero delay the roots are the eigenvalues themselves.
    """
    if not (math.isfinite(delay) and delay >= 0):
        raise ParameterError(f"delay must be nonnegative, got {delay!r}")
    eigs = closed_form_eigenvalues(n_vehicles, p)
    if delay == 0:
        return eigs
    lam = lambert_w(eigs * delay, 0) / delay
    _verify(np.abs(lam - eigs * np.exp(-lam * delay)), eigs, "characteristic root")
    return lam


def max_growth_rate(n_vehicles: int, delay: float, p: ModelParams) -> StabilityVerdict:
    """Maximal real part of the characteristic roots over all modes."""
    best = float(np.max(rightmost_roots(n_vehicles, delay, p).real))
    return StabilityVerdict(max_real_part=best, stable=best < 0)


def critical_reaction_time(n_vehicles: int, p: ModelParams) -> float:
    """Delay at which the maximal characteristic real part crosses zero.

    The slowest ring mode (k = 1, eigenvalue ``c * (1 - exp(i theta))`` with
    ``theta = 2 pi / N``) reaches the imaginary axis first.  A root ``i w``
    requires ``w = |d|`` and ``w * delay = theta / 2`` with
    ``|d| = 2 |c| sin(theta / 2)``, so ``tau_c = (pi/N) / (2 |c| sin(pi/N))``.
    """
    c = scale_constant(n_vehicles, p)
    half_theta = math.pi / n_vehicles
    return half_theta / (2.0 * abs(c) * math.sin(half_theta))
