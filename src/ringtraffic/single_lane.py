"""Single-lane ring-road simulation with a driver reaction delay.

Positions are stored unwrapped; vehicle ``j + 1`` leads vehicle ``j`` and the
first vehicle leads the last one across the periodic wrap.  The reaction delay
is handled exactly by a ring buffer of past position snapshots, which requires
the delay to be an integer multiple of the time step.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, _velocity
from .errors import ConfigurationError, InternalError, ParameterError
from .records import (
    TERMINATED_COLLISION,
    TERMINATED_COMPLETED,
    CollisionReport,
    TrajectoryRecord,
)


@dataclass
class RingState:
    """Unwrapped vehicle positions on the ring at one instant."""

    positions: np.ndarray
    time: float = 0.0

    @property
    def n_vehicles(self) -> int:
        return len(self.positions)


def ring_headways(positions: np.ndarray, track_length: float) -> np.ndarray:
    """Headway of each vehicle to its leader; the last wraps to the first."""
    h = np.empty_like(positions)
    h[:-1] = positions[1:] - positions[:-1]
    h[-1] = positions[0] + track_length - positions[-1]
    return h


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


class HistoryBuffer:
    """Ring of past position snapshots covering exactly the reaction delay.

    Construction pre-fills the whole buffer with the initial positions, i.e.
    vehicles are treated as having held their initial configuration for all
    earlier times.
    """

    def __init__(self, initial_positions: np.ndarray, delay: float, dt: float):
        m = delay_steps(delay, dt)
        self.delay = float(delay)
        self.dt = float(dt)
        self.delay_steps = m
        self._buf = np.tile(np.asarray(initial_positions, dtype=float), (m + 1, 1))
        self._head = 0  # slot of the newest snapshot
        self.time = 0.0  # time of the newest snapshot

    def push(self, positions: np.ndarray) -> None:
        self._head = (self._head + 1) % (self.delay_steps + 1)
        self._buf[self._head] = positions
        self.time += self.dt

    def positions_at_delay(self) -> np.ndarray:
        """Snapshot recorded ``delay_steps`` pushes ago (the current one for zero delay)."""
        if self._buf.shape[0] != self.delay_steps + 1:
            raise InternalError("history buffer no longer covers the delay")
        return self._buf[(self._head + 1) % (self.delay_steps + 1)]


def init_ring_equilibrium(n_vehicles: int, p: ModelParams) -> RingState:
    """Equally spaced vehicles, ``x_j = j * L / N`` for ``j = 0..N-1``."""
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
    return RingState(positions=spacing * np.arange(n_vehicles, dtype=float), time=0.0)


def perturb(
    state: RingState, vehicle_index: int, displacement: float, track_length: float
) -> RingState:
    """Displace one vehicle downstream (positive) or upstream (negative).

    Rejects displacements that would close either neighboring headway.
    """
    n = state.n_vehicles
    if not 0 <= vehicle_index < n:
        raise ParameterError(f"vehicle_index {vehicle_index!r} out of range 0..{n - 1}")
    if not math.isfinite(displacement):
        raise ParameterError(f"displacement must be finite, got {displacement!r}")
    positions = state.positions.copy()
    positions[vehicle_index] += displacement
    h = ring_headways(positions, track_length)
    if np.min(h) <= 0:
        raise ParameterError(
            f"displacement {displacement!r} would close a headway to {np.min(h):.6g} m"
        )
    return RingState(positions=positions, time=state.time)


def find_collisions(headways: np.ndarray, time: float, p: ModelParams) -> list[CollisionReport]:
    """Followers whose true headway is at most one vehicle length (inclusive)."""
    return [
        CollisionReport(time=time, follower_index=int(j), headway_at_collision=float(headways[j]))
        for j in np.flatnonzero(headways <= p.car_size)
    ]


def advance(positions: np.ndarray, hist: HistoryBuffer, lambda_rates, p: ModelParams):
    """One explicit Euler step of ``hist.dt`` under the delayed velocity law.

    Returns the velocities, set by the headways one reaction delay ago, and
    the advanced positions, which are pushed onto the history.
    """
    v = _velocity(ring_headways(hist.positions_at_delay(), p.track_length), lambda_rates, p)
    new_positions = positions + hist.dt * v
    hist.push(new_positions)
    return v, new_positions


def run_single_lane(
    p: ModelParams,
    n_vehicles: int,
    delay: float,
    dt: float,
    t_end: float,
    perturbation: tuple[int, float] | None = None,
    record_stride: int = 1,
    lambda_rates=None,
) -> TrajectoryRecord:
    """Run the perturbation experiment on a single-lane ring.

    The run starts from the equal-spacing equilibrium, optionally displaces one
    vehicle, and integrates until ``t_end`` or the first collision, whichever
    comes first.  Per-step positions and velocities are recorded every
    ``record_stride`` steps (the colliding and final states are always kept).
    """
    if not (math.isfinite(t_end) and t_end > 0):
        raise ConfigurationError(f"t_end must be positive, got {t_end!r}")
    if record_stride < 1:
        raise ConfigurationError(f"record_stride must be >= 1, got {record_stride!r}")
    steps = int(round(t_end / dt))
    if steps < 1:
        raise ConfigurationError("t_end shorter than one step")
    t_end = steps * dt

    state = init_ring_equilibrium(n_vehicles, p)
    if perturbation is not None:
        vehicle, displacement = perturbation
        if displacement != 0.0:
            state = perturb(state, vehicle, displacement, p.track_length)
    hist = HistoryBuffer(state.positions, delay, dt)
    lam = p.lambda_rate if lambda_rates is None else np.asarray(lambda_rates, dtype=float)

    positions = state.positions
    t = 0.0
    times, pos_samples, vel_samples = [], [], []
    reason = TERMINATED_COMPLETED
    termination_time = t_end

    for s in range(steps + 1):
        collisions = find_collisions(ring_headways(positions, p.track_length), t, p)
        # A collision or the final sample discards this step's move.
        v, next_positions = advance(positions, hist, lam, p)
        last = s == steps
        if collisions or last or s % record_stride == 0:
            times.append(t)
            pos_samples.append(positions)
            vel_samples.append(v)
        if collisions:
            reason = TERMINATED_COLLISION
            termination_time = t
            break
        if last:
            break
        positions = next_positions
        t = round((s + 1) * dt, 12)

    return TrajectoryRecord(
        times=np.asarray(times),
        positions=np.stack(pos_samples),
        velocities=np.stack(vel_samples),
        params=p,
        delay=delay,
        dt=dt,
        termination_reason=reason,
        termination_time=termination_time,
        collisions=collisions,
    )
