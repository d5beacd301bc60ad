"""Single-lane ring-road simulation with a driver reaction delay.

Positions are stored unwrapped; vehicle ``j + 1`` leads vehicle ``j`` and the
first vehicle leads the last one across the periodic wrap.  The reaction delay
must be an integer multiple ``m`` of the time step.  The single-lane run uses
the method of steps for delay equations: the velocities of the next ``m``
steps depend only on headways that are already known, so each iteration
advances one reaction delay at once.
"""
from __future__ import annotations

import math
import warnings

import numpy as np

from .core import ModelParams, _velocity
from .errors import ConfigurationError, ParameterError
from .records import (
    TERMINATED_COLLISION,
    TERMINATED_COMPLETED,
    CollisionReport,
    TrajectoryRecord,
)


def ring_headways(positions: np.ndarray, track_length: float) -> np.ndarray:
    """Headway of each vehicle to its leader along the last axis; the last
    vehicle wraps to the first.  ``positions`` is ``(N,)`` or ``(..., N)``."""
    h = np.empty_like(positions)
    h[..., :-1] = positions[..., 1:] - positions[..., :-1]
    h[..., -1] = positions[..., 0] + track_length - positions[..., -1]
    return h


def ring_crossings(start, end, track_length: float):
    """Number of multiples of ``track_length`` in each unwrapped interval
    ``(start, end]``, negative when ``end < start``; exact for any number of laps."""
    return np.floor(end / track_length) - np.floor(start / track_length)


def delay_steps(delay: float, dt: float) -> int:
    """Number of steps spanned by the delay; errors unless it is an integer."""
    if not (math.isfinite(dt) and dt > 0):
        raise ConfigurationError(f"dt must be positive, got {dt!r}")
    if not (math.isfinite(delay) and delay >= 0):
        raise ConfigurationError(f"delay must be nonnegative, got {delay!r}")
    ratio = delay / dt
    m = round(ratio)
    if abs(ratio - m) > 1e-9 * max(1.0, abs(ratio)):
        raise ConfigurationError(
            f"delay {delay!r} is not an integer multiple of dt {dt!r}"
        )
    return int(m)


def run_grid(delay: float, dt: float, t_end: float, record_stride) -> tuple[int, int, int]:
    """The delay steps, the step count and the most samples of a run to
    ``t_end`` that records every ``record_stride``-th step plus its final or
    colliding state; errors on a grid that cannot be run."""
    if not (math.isfinite(t_end) and t_end > 0):
        raise ConfigurationError(f"t_end must be positive, got {t_end!r}")
    if isinstance(record_stride, (bool, np.bool_)) or not isinstance(record_stride, (int, np.integer)):
        raise ConfigurationError(f"record_stride must be an integer, got {record_stride!r}")
    if record_stride < 1:
        raise ConfigurationError(f"record_stride must be >= 1, got {record_stride!r}")
    m = delay_steps(delay, dt)
    steps = int(round(t_end / dt))
    if steps < 1:
        raise ConfigurationError("t_end shorter than one step")
    return m, steps, -(-steps // record_stride) + 1


def init_ring_equilibrium(n_vehicles: int, p: ModelParams) -> np.ndarray:
    """Positions of equally spaced vehicles, ``x_j = j * L / N`` for ``j = 0..N-1``."""
    if n_vehicles < 2:
        raise ConfigurationError(f"need at least 2 vehicles, got {n_vehicles!r}")
    spacing = p.track_length / n_vehicles
    if spacing <= p.car_size:
        raise ConfigurationError(
            f"spacing {spacing} m does not exceed the vehicle size {p.car_size} m"
        )
    if spacing <= p.d_min:
        warnings.warn(
            f"density at or above jam: spacing {spacing} m <= minimal headway "
            f"{p.d_min} m; vehicles will be stationary",
            stacklevel=2,
        )
    return spacing * np.arange(n_vehicles, dtype=float)


def perturb(
    positions: np.ndarray, vehicle_index: int, displacement: float, track_length: float
) -> np.ndarray:
    """A copy of the positions with one vehicle displaced downstream
    (positive) or upstream (negative).

    Rejects displacements that would close either neighboring headway.
    """
    n = len(positions)
    if not 0 <= vehicle_index < n:
        raise ParameterError(f"vehicle_index {vehicle_index!r} out of range 0..{n - 1}")
    if not math.isfinite(displacement):
        raise ParameterError(f"displacement must be finite, got {displacement!r}")
    positions = positions.copy()
    positions[vehicle_index] += displacement
    h = ring_headways(positions, track_length)
    if np.min(h) <= 0:
        raise ParameterError(
            f"displacement {displacement!r} would close a headway to {np.min(h):.6g} m"
        )
    return positions


def closed(headways: np.ndarray, p: ModelParams) -> np.ndarray:
    """The collision rule on ``(..., N)`` true headways: a follower has collided
    when its headway is at most one vehicle length (inclusive)."""
    return headways <= p.car_size


def find_collisions(headways: np.ndarray, time: float, p: ModelParams) -> list[CollisionReport]:
    """Followers whose true headway closed under the collision rule."""
    return [
        CollisionReport(time=time, follower_index=int(j), headway_at_collision=float(headways[j]))
        for j in np.flatnonzero(closed(headways, p))
    ]


def advance(positions: np.ndarray, delayed_headways: np.ndarray, lambda_rates, dt: float, p: ModelParams):
    """Explicit Euler steps of ``dt`` under the delayed velocity law, one per
    row of the ``(B, N)`` headways that the drivers perceive at those steps.

    Returns the ``(B, N)`` velocities and the ``(B + 1, N)`` positions that
    start at ``positions``.  ``np.cumsum`` adds the rows in sequence, so row
    ``b + 1`` is exactly ``x_b + dt * v_b``, as ``B`` single steps give it.
    """
    v = _velocity(delayed_headways, lambda_rates, p)
    return v, np.concatenate((positions[None], dt * v)).cumsum(axis=0)


def run_single_lane(
    p: ModelParams,
    n_vehicles: int,
    delay: float,
    dt: float,
    t_end: float,
    perturbation: tuple[int, float] | None = None,
    record_stride: int = 1,
) -> TrajectoryRecord:
    """Run the perturbation experiment on a single-lane ring.

    The run starts from the equal-spacing equilibrium, optionally displaces one
    vehicle, and integrates until ``t_end`` or the first collision, whichever
    comes first.  Per-step positions and velocities are recorded every
    ``record_stride`` steps (the colliding and final states are always kept).

    With ``m`` delay steps, each iteration advances ``B = max(m, 1)`` steps
    through one ``advance`` call: the headways those steps perceive belong to
    rows at least ``m`` steps back, already computed.  Only a rolling window
    of ``2 B + 1`` headway rows is kept.
    """
    m, steps, size = run_grid(delay, dt, t_end, record_stride)
    t_end = steps * dt

    positions = init_ring_equilibrium(n_vehicles, p)
    if perturbation is not None:
        vehicle, displacement = perturbation
        if displacement != 0.0:
            positions = perturb(positions, vehicle, displacement, p.track_length)

    block = max(m, 1)
    # Row i holds the headways of step s0 - block + i, for the block of steps
    # starting at s0; before t = 0 the vehicles held their initial spacing.
    hist = np.empty((2 * block + 1, n_vehicles))
    hist[: block + 1] = ring_headways(positions, p.track_length)
    times = np.empty(size)
    pos_samples = np.empty((size, n_vehicles))
    vel_samples = np.empty((size, n_vehicles))
    k = 0
    reason = TERMINATED_COMPLETED
    termination_time = t_end
    collisions = []

    for s0 in range(0, steps + 1, block):
        b = min(block, steps + 1 - s0)
        v, x = advance(positions, hist[block - m : block - m + b], p.lambda_rate, dt, p)
        hist[block + 1 : block + 1 + b] = ring_headways(x[1:], p.track_length)
        hit = closed(hist[block : block + b], p)
        crashed = hit.any()
        if crashed:
            # A collision discards the moves from its step on.
            b = int(hit.any(axis=1).argmax()) + 1
        first = -s0 % record_stride
        rows = range(first, b, record_stride)
        n = len(rows)
        times[k : k + n] = [round((s0 + i) * dt, 12) for i in rows]
        pos_samples[k : k + n] = x[first:b:record_stride]
        vel_samples[k : k + n] = v[first:b:record_stride]
        k += n
        last = s0 + b - 1
        if crashed or last == steps:
            if last % record_stride:
                times[k], pos_samples[k], vel_samples[k] = round(last * dt, 12), x[b - 1], v[b - 1]
                k += 1
            if crashed:
                reason = TERMINATED_COLLISION
                termination_time = round(last * dt, 12)
                collisions = find_collisions(hist[block + b - 1], termination_time, p)
            break
        positions = x[b]
        hist[: block + 1] = hist[block:]

    return TrajectoryRecord(
        times=times[:k],
        positions=pos_samples[:k],
        velocities=vel_samples[:k],
        params=p,
        delay=delay,
        dt=dt,
        termination_reason=reason,
        termination_time=termination_time,
        collisions=collisions,
    )
