"""Linear stability of the single-lane ring with a reaction delay.

The linearized dynamics about the equal-spacing equilibrium reduce, after
diagonalizing the (N-1)x(N-1) interaction matrix, to independent scalar delay
equations whose characteristic roots are Lambert-W values.  The closed-form
eigenvalues make the analysis cheap for any fleet size; the dense matrix is
kept only as a brute-force cross-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import lambertw as _scipy_lambertw

from .core import ModelParams
from .errors import NumericalError, ParameterError

# Branches listed by characteristic_roots; the principal one holds the rightmost root.
BRANCHES = tuple(range(-8, 9))
_RESIDUAL_TOL = 1e-10
_HALLEY_TOL = 1e-13
_HALLEY_MAX_ITER = 100


def scale_constant(n_vehicles: int, p: ModelParams) -> float:
    """Common (negative) sensitivity of the linearized coupling, 1/s."""
    if n_vehicles < 2:
        raise ParameterError(f"need at least 2 vehicles, got {n_vehicles!r}")
    h_eq = p.track_length / n_vehicles
    return -p.lambda_rate * math.exp(-(p.lambda_rate / p.v_max) * (h_eq - p.d_min))


def closed_form_eigenvalues(n_vehicles: int, p: ModelParams) -> np.ndarray:
    """The N-1 distinct eigenvalues ``c * (1 - exp(2*pi*i*k/N))``, k = 1..N-1."""
    c = scale_constant(n_vehicles, p)
    k = np.arange(1, n_vehicles)
    return c * (1.0 - np.exp(2j * np.pi * k / n_vehicles))


def build_jacobian_dense(n_vehicles: int, p: ModelParams) -> np.ndarray:
    """Dense relative-coordinate Jacobian; cross-check path, capped at N=64."""
    if n_vehicles < 2:
        raise ParameterError(f"need at least 2 vehicles, got {n_vehicles!r}")
    if n_vehicles > 64:
        raise ParameterError("dense Jacobian is a verification path; use the closed form beyond N=64")
    c = scale_constant(n_vehicles, p)
    m = n_vehicles - 1
    jac = np.eye(m)
    jac -= np.eye(m, k=1)  # each vehicle is pulled by its leader
    jac[:, 0] += 1.0  # wrap coupling through the reference vehicle
    return c * jac


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


def _check_delay(delay: float) -> None:
    if not (math.isfinite(delay) and delay >= 0):
        raise ParameterError(f"delay must be nonnegative, got {delay!r}")


def characteristic_roots(eigenvalue: complex, delay: float) -> np.ndarray:
    """Roots of ``lam = d * exp(-lam * delay)`` for one Jacobian eigenvalue ``d``.

    For zero delay the single root is ``d`` itself; otherwise one root per
    Lambert-W branch in :data:`BRANCHES` is returned, each verified to satisfy
    the defining equation to a relative residual below 1e-10.
    """
    _check_delay(delay)
    d = complex(eigenvalue)
    if delay == 0:
        return np.array([d])
    roots = np.array([lambert_w(d * delay, b) for b in BRANCHES]) / delay
    _verify(np.abs(roots - d * np.exp(-roots * delay)), d, "characteristic root")
    return roots


def max_growth_rate(n_vehicles: int, delay: float, p: ModelParams) -> StabilityVerdict:
    """Maximal real part of the characteristic roots over all modes.

    The principal Lambert-W branch holds the rightmost root of every mode
    (Shinozaki & Mori, Automatica 42, 2006), so one branch suffices.
    """
    _check_delay(delay)
    eigs = closed_form_eigenvalues(n_vehicles, p)
    if delay == 0:
        best = float(np.max(eigs.real))
        return StabilityVerdict(max_real_part=best, stable=best < 0)
    lam = lambert_w(eigs * delay, 0) / delay
    _verify(np.abs(lam - eigs * np.exp(-lam * delay)), eigs, "characteristic root")
    best = float(np.max(lam.real))
    return StabilityVerdict(max_real_part=best, stable=best < 0)


def critical_reaction_time(n_vehicles: int, p: ModelParams) -> float:
    """Delay at which the maximal characteristic real part crosses zero.

    The slowest ring mode (k = 1, eigenvalue ``c * (1 - exp(i theta))`` with
    ``theta = 2 pi / N``) reaches the imaginary axis first.  A root ``i w``
    requires ``w = |d|`` and ``w * delay = theta / 2`` with
    ``|d| = 2 |c| sin(theta / 2)``, so ``tau_c = (pi/N) / (2 |c| sin(pi/N))``.
    """
    half_theta = math.pi / n_vehicles
    return half_theta / (2.0 * abs(scale_constant(n_vehicles, p)) * math.sin(half_theta))
