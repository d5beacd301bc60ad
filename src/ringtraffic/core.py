"""Physical parameters, the headway-velocity law, and equilibrium flow.

All quantities are SI internally (meters, seconds, vehicles); per-kilometer
and per-hour units appear only at I/O boundaries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the velocity law and the ring track.

    Attributes
    ----------
    lambda_rate : velocity change rate at the minimal headway, 1/s.
    v_max : maximal velocity, m/s.
    d_min : minimal headway for nonzero velocity, m.
    car_size : vehicle length used by the collision rule, m.
    track_length : length of the periodic track, m.
    """

    lambda_rate: float = 1.0
    v_max: float = 40.0
    d_min: float = 7.5
    car_size: float = 5.0
    track_length: float = 1000.0

    def __post_init__(self):
        for name in ("lambda_rate", "v_max", "car_size", "track_length"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ParameterError(f"{name} must be finite and positive, got {value!r}")
        if not math.isfinite(self.d_min) or self.d_min <= self.car_size:
            # A vehicle must be able to stop before touching its leader.
            raise ParameterError(
                f"d_min must exceed car_size ({self.car_size}), got {self.d_min!r}"
            )

    @property
    def rho_jam(self) -> float:
        """Smallest positive density with zero equilibrium flow, vehicles/m."""
        return 1.0 / self.d_min


@dataclass(frozen=True)
class FundamentalDiagramSummary:
    """Peak of the equilibrium flow curve and the jam density (SI units)."""

    q_star: float  # maximal equilibrium flow, vehicles/s
    rho_star: float  # density at q_star, vehicles/m
    rho_jam: float  # 1/d_min exactly, vehicles/m

    def __post_init__(self):
        if not (0.0 < self.rho_star < self.rho_jam):
            raise ParameterError(
                f"rho_star {self.rho_star!r} must lie in (0, rho_jam={self.rho_jam!r})"
            )


def _velocity(headway, lambda_rate, p: ModelParams):
    """Velocity law without argument validation; hot path for the simulators.

    ``headway`` and ``lambda_rate`` may be scalars or arrays (broadcast).
    """
    v = p.v_max * (1.0 - np.exp(-(lambda_rate / p.v_max) * (headway - p.d_min)))
    return np.maximum(v, 0.0)


def velocity_from_headway(headway, p: ModelParams):
    """Driving velocity for a given headway.

    Increases from 0 at ``d_min`` toward ``v_max`` as the headway opens;
    clamped to zero for headways at or below ``d_min``. Accepts a scalar or
    an array of headways.
    """
    h = np.asarray(headway, dtype=float)
    if not np.all(np.isfinite(h)) or np.any(h < 0):
        raise ParameterError(f"headway must be finite and nonnegative, got {headway!r}")
    v = _velocity(h, p.lambda_rate, p)
    if np.isscalar(headway) or np.ndim(headway) == 0:
        return float(v)
    return v


def fundamental_diagram_curve(p: ModelParams, rho):
    """Equilibrium velocity and flow on a density grid.

    Returns ``(v_eq, q)`` arrays for the given densities (vehicles/m).
    """
    r = np.asarray(rho, dtype=float)
    if not np.all(np.isfinite(r)) or np.any(r <= 0):
        raise ParameterError("density grid must be finite and positive")
    v_eq = _velocity(1.0 / r, p.lambda_rate, p)
    return v_eq, r * v_eq


def fundamental_diagram_summary(p: ModelParams) -> FundamentalDiagramSummary:
    """Peak of the equilibrium flow in closed form.

    With ``a = lambda_rate / v_max`` and headway ``h = 1/rho``, the flow
    ``v_max * (1 - exp(-a (h - d_min))) / h`` is stationary where
    ``(1 + a h) exp(-a (h - d_min)) = 1``.  Its root is ``1 + a h* = s`` with
    ``s = -W_{-1}(-exp(-(1 + a d_min)))``, so ``rho* = a / (s - 1)`` and
    ``q* = lambda_rate / s``.  The jam density is exactly ``1/d_min``.
    """
    a = p.lambda_rate / p.v_max
    s = -_lambert_w_minus1(-math.exp(-(1.0 + a * p.d_min)))
    return FundamentalDiagramSummary(
        q_star=p.lambda_rate / s, rho_star=a / (s - 1.0), rho_jam=p.rho_jam
    )


def _lambert_w_minus1(x: float) -> float:
    """Lower real branch W_-1 of ``x`` in (-1/e, 0): the root of ``w exp(w) = x``
    below -1.

    Halley steps from the branch-point series ``-1 - p - p^2/3 - 11 p^3/72``,
    ``p = sqrt(2 (1 + e x))``, until a step is below 1e-8 of ``w``; convergence
    is cubic, so the last step leaves an error far below the rounding.  An
    ``x`` that is not inside the interval after rounding raises
    ``ParameterError``.
    """
    p_squared = 2.0 * (1.0 + math.e * x)
    if not (p_squared > 0.0 and x < 0.0):
        raise ParameterError(f"W_-1 needs x in (-1/e, 0), got {x!r}")
    p = math.sqrt(p_squared)
    w = -1.0 - p * (1.0 + p * (1.0 / 3.0 + p * (11.0 / 72.0)))
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        step = f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * (w + 1.0)))
        w -= step
        if abs(step) <= 1e-8 * abs(w):
            return w
    raise NumericalError(f"Lambert W_-1 failed to converge at {x!r}")
