"""Brute-force references that the package's kernels are checked against.

None of these run in a simulation or an artifact: the dense Jacobian and
the all-branch characteristic roots cross-check the closed-form stability
analysis, the pass count between two states wraps the step's counting
kernel, the frustration law is written out one vehicle at a time, and the
two-lane step is written out from the standalone kernels.
"""
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import lambertw

from ringtraffic.core import _velocity
from ringtraffic.errors import NumericalError, ParameterError
from ringtraffic.lane_change import (
    TwoLaneState,
    _count_passes,
    _frustration,
    _Ring,
    adjacent_headways,
    own_headways,
)
from ringtraffic.records import LaneEvent
from ringtraffic.single_lane import closed, find_collisions
from ringtraffic.stability import scale_constant

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
    ``scipy.special.lambertw`` branch in :data:`BRANCHES`, each verified to
    satisfy the defining equation to a relative residual below 1e-10 (a NaN
    fails).
    """
    d = complex(eigenvalue)
    if delay == 0:
        return np.array([d])
    roots = np.array([lambertw(d * delay, b) for b in BRANCHES]) / delay
    residual = np.abs(roots - d * np.exp(-roots * delay))
    if not np.all(residual <= 1e-10 * max(1.0, abs(d))):
        raise NumericalError(f"characteristic root failed at {d!r} (residual {residual.max():.3e})")
    return roots


def ring_of(positions, length):
    """The ring of ``(N,)`` or ``(R, N)`` unwrapped positions, one row per run."""
    return _Ring.of(positions.reshape(-1, positions.shape[-1]), length)


def gap_arguments(state, vehicle, p):
    """What the step hands :func:`safety_gap_check` for ``vehicle`` of a
    one-row state: the ring of its positions, the vehicle's column in it and
    the lanes in ring order."""
    ring = ring_of(state.positions, p.track_length)
    column = int(np.flatnonzero(ring.order[0] == vehicle)[0])
    return ring, column, ring.sort(state.lanes)[0]


def one_run(state):
    """Row 0 of a batch as the state of one run, ``(N,)`` copies, as
    :func:`reference_step` takes it."""
    arrays = (state.positions, state.lanes, state.phis, state.lambdas)
    return TwoLaneState(*(a[0].copy() for a in arrays))


def detect_passes(prev_state, new_state, p):
    """Pass counts between two consecutive two-lane states, ``(N,)`` arrays
    or ``(R, N)`` rows, in their shape.

    Vehicles whose lane differs between the states changed lanes during the
    step; their lane identity is ambiguous, so they are left out entirely.
    """
    shape = prev_state.positions.shape
    excluded = prev_state.lanes != new_state.lanes
    prev_pos, new_pos, lanes, excluded = (
        a.reshape(-1, shape[-1])
        for a in (prev_state.positions, new_state.positions, new_state.lanes, excluded)
    )
    ring = ring_of(prev_pos, p.track_length)
    return _count_passes(prev_pos, new_pos, lanes, excluded, p.track_length, ring).reshape(shape)


def frustration_law(phi, own, adj, passes, r, p, dt):
    """One frustration step per vehicle, and its attempt probability per step:
    ``max(0, phi +- r dt + p passes)``, ``1 - (1 - (2/pi) atan(phi))**dt``."""
    phis, probs = [], []
    for f, o, a, k in zip(phi, own, adj, passes):
        f = max(0.0, f + (r if o < a else -r) * dt + p * k)
        phis.append(f)
        probs.append(1.0 - (1.0 - 2.0 / math.pi * math.atan(f)) ** dt)
    return np.array(phis), np.array(probs)


def full_lane_gap_is_clear(positions, lanes, vehicle, p):
    """The safety rule over every vehicle of the other lane: none within the
    closed interval ``[x - d_min, x + d_min]`` around ``vehicle``."""
    length = p.track_length
    x = positions[vehicle] % length
    others = positions[lanes == 1 - lanes[vehicle]] % length
    forward = (others - x) % length
    backward = (x - others) % length
    return not np.any((forward <= p.d_min) | (backward <= p.d_min))


@dataclass
class ReferenceStep:
    """What one reference step produced: the state after it, the velocities
    of the move, and its events, collisions, changes and attempts."""

    state: TwoLaneState
    velocities: np.ndarray
    events: list
    collisions: list
    changed: np.ndarray
    attempts: int


def scan_order(state, p):
    """The step's scan order of a state of one run, in vehicles: lane 0 by
    ascending wrapped position, then lane 1."""
    return np.lexsort((state.positions % p.track_length, state.lanes))


def perceive(state, lanes, ref_positions, lp, p, dt):
    """In-lane headway, frustration and attempt probability of every vehicle
    of a state of one run, in the given lanes, on the perceived positions."""
    own = own_headways(ref_positions, lanes, p.track_length)
    adj = adjacent_headways(ref_positions, lanes, p.track_length)
    return (own, *_frustration(state.phis, own, adj, state.pending_passes, lp, dt))


def reference_step(state, ref_positions, lp, p, dt, variates):
    """One two-lane step of one run (``(N,)`` arrays), written vehicle by
    vehicle from the standalone kernels, each sorting on its own: the
    ``variates`` handed out in :func:`scan_order`, a full perception after
    every executed change, the safety rule over the whole other lane and the
    pass count of the two states (:func:`detect_passes`).  ``ref_positions`` are the perceived
    (delayed) positions.  ``state`` is left as it was.
    """
    length = p.track_length
    positions, lanes = state.positions, state.lanes.copy()
    n = len(positions)
    scan = scan_order(state, p)
    u = np.empty(n)
    u[scan] = variates

    own, phis, prob = perceive(state, lanes, ref_positions, lp, p, dt)
    committed = np.empty(n)
    changed = np.zeros(n, dtype=bool)
    events = []
    attempts = 0
    for vehicle in scan:
        committed[vehicle] = phis[vehicle]
        if not u[vehicle] < prob[vehicle]:
            continue
        attempts += 1
        if not full_lane_gap_is_clear(positions, lanes, vehicle, p):
            continue
        origin = int(lanes[vehicle])
        events.append(
            LaneEvent(state.time, int(vehicle), "lane_change", origin, 1 - origin, float(phis[vehicle]))
        )
        lanes[vehicle] = 1 - origin
        changed[vehicle] = True
        committed[vehicle] = 0.0
        own, phis, prob = perceive(state, lanes, ref_positions, lp, p, dt)

    velocities = _velocity(own, state.lambdas, p)
    true_h = own_headways(positions, lanes, length)
    after = TwoLaneState(
        positions=positions.copy(), lanes=lanes, phis=committed, lambdas=state.lambdas,
        time=state.time,
    )
    collisions = []
    if closed(true_h, p).any():
        collisions = find_collisions(true_h, state.time, p)
        for report in collisions:
            lane = int(lanes[report.follower_index])
            events.append(
                LaneEvent(
                    state.time, report.follower_index, "collision", lane, lane,
                    float(committed[report.follower_index]),
                )
            )
        return ReferenceStep(after, velocities, events, collisions, changed, attempts)

    after.positions = positions + dt * velocities
    after.time = round(state.time + dt, 12)
    after.pending_passes = detect_passes(state, after, p)  # the changers are left out
    for vehicle in np.flatnonzero(after.pending_passes):
        lane = int(lanes[vehicle])
        events.append(
            LaneEvent(after.time, int(vehicle), "pass", lane, lane, float(committed[vehicle]))
        )
    return ReferenceStep(after, velocities, events, collisions, changed, attempts)
