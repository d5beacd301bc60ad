"""Two-lane ring simulation with frustration-driven stochastic lane changes.

Each step runs three stages in order: lane changing, collision detection, and
the forward move.  Frustration grows while the adjacent lane looks better and
jumps when the driver is passed; it maps to a per-second attempt probability
through a bounded arctan law, rescaled to the step size so the attempt rate is
independent of the integrator resolution.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import ModelParams, _velocity
from .errors import ConfigurationError, ParameterError
from .records import (
    TERMINATED_COLLISION,
    TERMINATED_COMPLETED,
    CollisionReport,
    LaneEvent,
    TrajectoryRecord,
)
from .single_lane import HistoryBuffer, find_collisions

TWO_OVER_PI = 2.0 / math.pi


@dataclass(frozen=True)
class LaneChangeParams:
    """Frustration dynamics constants and the run seed."""

    r: float  # frustration ramp rate, 1/s
    p: float  # frustration jump when passed, dimensionless
    rng_seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r >= 0):
            raise ParameterError(f"r must be nonnegative, got {self.r!r}")
        if not (math.isfinite(self.p) and self.p >= 0):
            raise ParameterError(f"p must be nonnegative, got {self.p!r}")


@dataclass
class TwoLaneState:
    """Positions, lane assignments, and driver state for every vehicle."""

    positions: np.ndarray  # unwrapped, m
    lanes: np.ndarray  # 0 or 1
    phis: np.ndarray  # frustration levels
    lambdas: np.ndarray  # per-driver velocity change rate, 1/s
    lane_change_counts: np.ndarray = None
    passed_counts: np.ndarray = None
    pending_passes: np.ndarray = None  # passes during the previous move
    time: float = 0.0

    def __post_init__(self):
        n = len(self.positions)
        if self.lane_change_counts is None:
            self.lane_change_counts = np.zeros(n, dtype=np.int64)
        if self.passed_counts is None:
            self.passed_counts = np.zeros(n, dtype=np.int64)
        if self.pending_passes is None:
            self.pending_passes = np.zeros(n, dtype=np.int64)

    @property
    def n_vehicles(self) -> int:
        return len(self.positions)


def init_two_lane(
    p: ModelParams,
    n_lane0: int,
    n_lane1: int = 0,
    stagger: float = 0.0,
    lambda_overrides: dict[int, float] | None = None,
) -> TwoLaneState:
    """Equally spaced vehicles per lane; lane 1 shifted downstream by ``stagger``.

    Vehicles ``0..n_lane0-1`` populate lane 0 and the remainder lane 1.
    """
    if n_lane0 < 1 or n_lane1 < 0 or n_lane0 + n_lane1 < 2:
        raise ConfigurationError(f"invalid lane counts ({n_lane0}, {n_lane1})")
    chunks = []
    lanes = []
    for lane, count, shift in ((0, n_lane0, 0.0), (1, n_lane1, stagger)):
        if count == 0:
            continue
        spacing = p.track_length / count
        if spacing <= p.car_size:
            raise ConfigurationError(
                f"lane {lane} spacing {spacing} m does not exceed the vehicle size"
            )
        if spacing <= p.d_min:
            warnings.warn(
                f"lane {lane} at or above jam density (spacing {spacing} m)", stacklevel=2
            )
        chunks.append(shift + spacing * np.arange(count, dtype=float))
        lanes.append(np.full(count, lane, dtype=np.int8))
    positions = np.concatenate(chunks)
    lane_arr = np.concatenate(lanes)
    n = len(positions)
    lambdas = np.full(n, p.lambda_rate, dtype=float)
    for vehicle, lam in (lambda_overrides or {}).items():
        if not 0 <= vehicle < n:
            raise ConfigurationError(f"lambda override for unknown vehicle {vehicle!r}")
        if not (math.isfinite(lam) and lam > 0):
            raise ConfigurationError(f"lambda override must be positive, got {lam!r}")
        lambdas[vehicle] = lam
    return TwoLaneState(
        positions=positions,
        lanes=lane_arr,
        phis=np.zeros(n, dtype=float),
        lambdas=lambdas,
    )


def own_headways(positions_ref: np.ndarray, lanes: np.ndarray, track_length: float) -> np.ndarray:
    """Headway of every vehicle to its in-lane leader on the given positions.

    A vehicle alone in its lane faces its own periodic image, headway L.
    """
    h = np.empty(len(positions_ref), dtype=float)
    for lane in (0, 1):
        ids = np.flatnonzero(lanes == lane)
        if ids.size == 0:
            continue
        if ids.size == 1:
            h[ids] = track_length
            continue
        wrapped = positions_ref[ids] % track_length
        order = np.argsort(wrapped, kind="stable")
        sorted_ids = ids[order]
        xs = wrapped[order]
        gaps = np.empty(ids.size, dtype=float)
        gaps[:-1] = xs[1:] - xs[:-1]
        gaps[-1] = xs[0] + track_length - xs[-1]
        h[sorted_ids] = gaps
    return h


def adjacent_headways(positions_ref: np.ndarray, lanes: np.ndarray, track_length: float) -> np.ndarray:
    """Distance to the nearest strictly-ahead vehicle in the other lane.

    Infinite when the other lane is empty; a vehicle exactly side-by-side is
    not ahead, so the next one (or its image one lap ahead) counts.
    """
    out = np.full(len(positions_ref), np.inf)
    for lane in (0, 1):
        ids = np.flatnonzero(lanes == lane)
        others = np.flatnonzero(lanes == 1 - lane)
        if ids.size == 0 or others.size == 0:
            continue
        ahead = np.sort(positions_ref[others] % track_length)
        x = positions_ref[ids] % track_length
        idx = np.searchsorted(ahead, x, side="right") % ahead.size
        gap = (ahead[idx] - x) % track_length
        gap[gap == 0.0] = track_length
        out[ids] = gap
    return out


def attempt_probability(phi):
    """Probability of a lane-change attempt per second, ``(2/pi) * arctan(phi)``."""
    phi_arr = np.asarray(phi, dtype=float)
    if np.any(phi_arr < 0):
        raise ParameterError(f"frustration must be nonnegative, got {phi!r}")
    prob = TWO_OVER_PI * np.arctan(phi_arr)
    if np.isscalar(phi) or np.ndim(phi) == 0:
        return float(prob)
    return prob


def per_step_attempt_probability(phi, dt: float):
    """Attempt probability per step, ``1 - (1 - P(phi))**dt``.

    Composing ``1/dt`` consecutive steps recovers the per-second probability,
    so the attempt rate does not depend on the integrator resolution.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ParameterError(f"dt must be positive, got {dt!r}")
    prob = 1.0 - (1.0 - attempt_probability(phi)) ** dt
    if np.isscalar(phi) or np.ndim(phi) == 0:
        return float(prob)
    return prob


def frustration_update(phi, own_h, adj_h, passes, lp: LaneChangeParams, dt: float):
    """One frustration step: ramp by the lane comparison, jump per pass, clamp at 0.

    Arguments broadcast, so one call updates a whole fleet.  The reset after
    an executed lane change is applied by the step executor, not here.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ParameterError(f"dt must be positive, got {dt!r}")
    ramp = np.where(own_h < adj_h, lp.r, -lp.r)
    updated = np.maximum(0.0, phi + ramp * dt + lp.p * passes)
    if np.ndim(updated) == 0:
        return float(updated)
    return updated


def safety_gap_check(state: TwoLaneState, vehicle: int, p: ModelParams) -> bool:
    """True when no adjacent-lane vehicle sits within the closed interval
    ``[x - d_min, x + d_min]`` around the vehicle (true positions)."""
    others = np.flatnonzero(state.lanes == 1 - state.lanes[vehicle])
    if others.size == 0:
        return True
    length = p.track_length
    x = state.positions[vehicle] % length
    pos = state.positions[others] % length
    forward = (pos - x) % length
    backward = (x - pos) % length
    return not bool(np.any((forward <= p.d_min) | (backward <= p.d_min)))


def _fold_offsets(delta: np.ndarray, track_length: float) -> np.ndarray:
    """Fold relative offsets into the nearest-image range (-L/2, L/2]."""
    folded = np.mod(delta, track_length)
    return np.where(folded > 0.5 * track_length, folded - track_length, folded)


def _count_passes(prev_pos, new_pos, lanes, excluded, track_length) -> np.ndarray:
    """Per-vehicle count of adjacent-lane vehicles that moved from behind
    (offset <= 0) to ahead (> 0) during the step; excluded vehicles neither
    receive nor contribute events.

    A genuine pass moves the relative offset by at most one step of relative
    driving, so crossings are also required to be local; this rejects the
    spurious sign flips of an offset sitting exactly on the antipode, where
    the nearest-image fold jumps between +L/2 and -L/2.
    """
    counts = np.zeros(len(prev_pos), dtype=np.int64)
    for lane in (0, 1):
        receivers = np.flatnonzero((lanes == lane) & ~excluded)
        passers = np.flatnonzero((lanes == 1 - lane) & ~excluded)
        if receivers.size == 0 or passers.size == 0:
            continue
        before = _fold_offsets(
            prev_pos[passers][None, :] - prev_pos[receivers][:, None], track_length
        )
        after = _fold_offsets(
            new_pos[passers][None, :] - new_pos[receivers][:, None], track_length
        )
        crossed = (before <= 0.0) & (after > 0.0)
        local = after - before < 0.25 * track_length
        counts[receivers] = np.sum(crossed & local, axis=1)
    return counts


def detect_passes(prev_state: TwoLaneState, new_state: TwoLaneState, p: ModelParams) -> np.ndarray:
    """Pass counts between two consecutive states.

    Vehicles whose lane differs between the states changed lanes during the
    step; their lane identity is ambiguous, so they are left out entirely.
    """
    if prev_state.n_vehicles != new_state.n_vehicles:
        raise ParameterError("states describe different fleets")
    excluded = prev_state.lanes != new_state.lanes
    return _count_passes(
        prev_state.positions, new_state.positions, new_state.lanes, excluded, p.track_length
    )


def _scan_order(positions, lanes, track_length) -> np.ndarray:
    """Lane 0 by ascending wrapped position, then lane 1 likewise."""
    order = []
    for lane in (0, 1):
        ids = np.flatnonzero(lanes == lane)
        if ids.size:
            order.append(ids[np.argsort(positions[ids] % track_length, kind="stable")])
    return np.concatenate(order) if order else np.empty(0, dtype=np.int64)


@dataclass
class StepOutcome:
    """What one two-lane step produced, plus the pre-move snapshot."""

    time: float  # step start time
    positions_before: np.ndarray
    velocities: np.ndarray
    collisions: list[CollisionReport] = field(default_factory=list)
    events: list[LaneEvent] = field(default_factory=list)
    changed: np.ndarray = None


def two_lane_step(
    state: TwoLaneState,
    hist: HistoryBuffer,
    lp: LaneChangeParams,
    p: ModelParams,
    dt: float,
    rng: np.random.Generator,
) -> StepOutcome:
    """Advance the two-lane system by one step, mutating ``state`` in place.

    Stage 1 scans the vehicles in a fixed order, updating frustration from the
    perceived (delayed) headways and executing safe lane changes immediately,
    so later vehicles in the same step see the updated occupancy.  Stage 2
    checks true headways for collisions; a collision freezes the state before
    any movement.  Stage 3 advances positions from the perceived headways in
    the current lane assignment.
    """
    length = p.track_length
    n = state.n_vehicles
    ref_pos = hist.positions_at_delay()
    phis0 = state.phis
    pending = state.pending_passes

    def phi_and_step_prob(lanes):
        own = own_headways(ref_pos, lanes, length)
        adj = adjacent_headways(ref_pos, lanes, length)
        phi = frustration_update(phis0, own, adj, pending, lp, dt)
        return phi, per_step_attempt_probability(phi, dt)

    phi_vec, prob_vec = phi_and_step_prob(state.lanes)
    scan = _scan_order(state.positions, state.lanes, length)
    draws = rng.random(n)
    u = np.empty(n)
    u[scan] = draws  # one variate per vehicle, assigned in scan order

    changed = np.zeros(n, dtype=bool)
    events: list[LaneEvent] = []
    if np.any(u < prob_vec):
        # Replay the scan sequentially: an executed change shifts the headways
        # seen by every vehicle scanned after it.
        committed = np.empty(n)
        for vehicle in scan:
            if u[vehicle] < prob_vec[vehicle]:
                if safety_gap_check(state, vehicle, p):
                    origin = int(state.lanes[vehicle])
                    events.append(
                        LaneEvent(
                            time=state.time,
                            vehicle=int(vehicle),
                            kind="lane_change",
                            from_lane=origin,
                            to_lane=1 - origin,
                            phi_before=float(phi_vec[vehicle]),
                        )
                    )
                    state.lanes[vehicle] = 1 - origin
                    state.lane_change_counts[vehicle] += 1
                    changed[vehicle] = True
                    committed[vehicle] = 0.0  # reset on a successful change
                    phi_vec, prob_vec = phi_and_step_prob(state.lanes)
                    continue
            committed[vehicle] = phi_vec[vehicle]
        state.phis = committed
    else:
        state.phis = phi_vec
    state.pending_passes = np.zeros(n, dtype=np.int64)

    velocities = _velocity(own_headways(ref_pos, state.lanes, length), state.lambdas, p)
    outcome = StepOutcome(
        time=state.time,
        positions_before=state.positions.copy(),
        velocities=np.asarray(velocities, dtype=float),
        events=events,
        changed=changed,
    )

    outcome.collisions = find_collisions(
        own_headways(state.positions, state.lanes, length), state.time, p
    )
    if outcome.collisions:
        for report in outcome.collisions:
            events.append(
                LaneEvent(
                    time=state.time,
                    vehicle=report.follower_index,
                    kind="collision",
                    from_lane=int(state.lanes[report.follower_index]),
                    to_lane=int(state.lanes[report.follower_index]),
                    phi_before=float(state.phis[report.follower_index]),
                )
            )
        return outcome

    state.positions = state.positions + dt * outcome.velocities
    hist.push(state.positions)
    state.time = round(state.time + dt, 12)

    passes = _count_passes(
        outcome.positions_before, state.positions, state.lanes, changed, length
    )
    if np.any(passes):
        state.passed_counts += passes
        state.pending_passes = passes
        for vehicle in np.flatnonzero(passes):
            lane = int(state.lanes[vehicle])
            events.append(
                LaneEvent(
                    time=state.time,
                    vehicle=int(vehicle),
                    kind="pass",
                    from_lane=lane,
                    to_lane=lane,
                    phi_before=float(state.phis[vehicle]),
                )
            )
    return outcome


def run_two_lane(
    p: ModelParams,
    lp: LaneChangeParams,
    n_lane0: int,
    n_lane1: int = 0,
    stagger: float = 0.0,
    delay: float = 0.0,
    dt: float = 0.05,
    t_end: float = 100.0,
    lambda_overrides: dict[int, float] | None = None,
    record_stride: int = 1,
) -> TrajectoryRecord:
    """Run a seeded two-lane scenario and record lanes, frustration, and events."""
    if not (math.isfinite(t_end) and t_end > 0):
        raise ConfigurationError(f"t_end must be positive, got {t_end!r}")
    if record_stride < 1:
        raise ConfigurationError(f"record_stride must be >= 1, got {record_stride!r}")
    steps = int(round(t_end / dt))
    if steps < 1:
        raise ConfigurationError("t_end shorter than one step")

    state = init_two_lane(p, n_lane0, n_lane1, stagger=stagger, lambda_overrides=lambda_overrides)
    hist = HistoryBuffer(state.positions, delay, dt)
    rng = np.random.default_rng(lp.rng_seed)

    times, pos_s, vel_s, lane_s, phi_s = [], [], [], [], []
    all_events: list[LaneEvent] = []
    reason = TERMINATED_COMPLETED
    termination_time = steps * dt
    collisions: list[CollisionReport] = []

    def sample(t, positions, velocities, lanes, phis):
        times.append(t)
        pos_s.append(np.array(positions))
        vel_s.append(np.array(velocities))
        lane_s.append(np.array(lanes))
        phi_s.append(np.array(phis))

    for s in range(steps):
        outcome = two_lane_step(state, hist, lp, p, dt, rng)
        all_events.extend(outcome.events)
        if outcome.collisions:
            sample(outcome.time, outcome.positions_before, outcome.velocities, state.lanes, state.phis)
            collisions = outcome.collisions
            reason = TERMINATED_COLLISION
            termination_time = outcome.time
            break
        if s % record_stride == 0:
            sample(outcome.time, outcome.positions_before, outcome.velocities, state.lanes, state.phis)
    else:
        final_v = _velocity(
            own_headways(hist.positions_at_delay(), state.lanes, p.track_length),
            state.lambdas,
            p,
        )
        sample(state.time, state.positions, final_v, state.lanes, state.phis)

    return TrajectoryRecord(
        times=np.asarray(times),
        positions=np.stack(pos_s),
        velocities=np.stack(vel_s),
        params=p,
        delay=delay,
        dt=dt,
        termination_reason=reason,
        termination_time=termination_time,
        collisions=collisions,
        seed=lp.rng_seed,
        lanes=np.stack(lane_s),
        phis=np.stack(phi_s),
        events=all_events,
    )
