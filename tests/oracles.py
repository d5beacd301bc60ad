"""Brute-force references that the package's kernels are checked against.

None of these run in a simulation or an artifact: the dense Jacobian and
the all-branch characteristic roots cross-check the closed-form stability
analysis, the pass count between two states wraps the step's counting
kernel, and the frustration law is written out one vehicle at a time.
"""
import math

import numpy as np

from ringtraffic.errors import NumericalError, ParameterError
from ringtraffic.lane_change import _count_passes
from ringtraffic.stability import lambert_w, scale_constant

# Lambert-W branches whose characteristic roots are listed; the principal one
# holds the rightmost root.
BRANCHES = tuple(range(-8, 9))


def build_jacobian_dense(n_vehicles, p):
    """Dense relative-coordinate Jacobian; cross-check path, capped at N=64."""
    if n_vehicles > 64:
        raise ParameterError("dense Jacobian is a verification path; use the closed form beyond N=64")
    c = scale_constant(n_vehicles, p)
    m = n_vehicles - 1
    jac = np.eye(m)
    jac -= np.eye(m, k=1)  # each vehicle is pulled by its leader
    jac[:, 0] += 1.0  # wrap coupling through the reference vehicle
    return c * jac


def characteristic_roots(eigenvalue, delay):
    """Roots of ``lam = d * exp(-lam * delay)`` for one Jacobian eigenvalue ``d``.

    For zero delay the single root is ``d`` itself; otherwise one root per
    Lambert-W branch in :data:`BRANCHES`, each verified to satisfy the
    defining equation to a relative residual below 1e-10 (a NaN fails).
    """
    d = complex(eigenvalue)
    if delay == 0:
        return np.array([d])
    roots = np.array([lambert_w(d * delay, b) for b in BRANCHES]) / delay
    residual = np.abs(roots - d * np.exp(-roots * delay))
    if not np.all(residual <= 1e-10 * max(1.0, abs(d))):
        raise NumericalError(f"characteristic root failed at {d!r} (residual {residual.max():.3e})")
    return roots


def detect_passes(prev_state, new_state, p):
    """Pass counts between two consecutive two-lane states.

    Vehicles whose lane differs between the states changed lanes during the
    step; their lane identity is ambiguous, so they are left out entirely.
    """
    excluded = prev_state.lanes != new_state.lanes
    return _count_passes(
        prev_state.positions, new_state.positions, new_state.lanes, excluded, p.track_length
    )


def frustration_law(phi, own, adj, passes, r, p, dt):
    """One frustration step per vehicle, and its attempt probability per step:
    ``max(0, phi +- r dt + p passes)``, ``1 - (1 - (2/pi) atan(phi))**dt``."""
    phis, probs = [], []
    for f, o, a, k in zip(phi, own, adj, passes):
        f = max(0.0, f + (r if o < a else -r) * dt + p * k)
        phis.append(f)
        probs.append(1.0 - (1.0 - 2.0 / math.pi * math.atan(f)) ** dt)
    return np.array(phis), np.array(probs)
