"""Two-lane ring simulation with frustration-driven stochastic lane changes.

Each step runs three stages in order: lane changing, collision detection, and
the forward move.  Frustration grows while the adjacent lane looks better and
jumps when the driver is passed; it maps to a per-second attempt probability
through a bounded arctan law, rescaled to the step size so the attempt rate is
independent of the integrator resolution.

The state's arrays are ``(N,)`` for one run or ``(R, N)`` for R seeded
replicas of one fleet.  A step advances every row at once, each row drawing
from its own generator, so replicas run in lockstep and row ``r`` follows
exactly the run of its seed alone.
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
from .single_lane import HistoryBuffer, closed, find_collisions, ring_crossings, run_grid

TWO_OVER_PI = 2.0 / math.pi

# Pairs whose wrapped distance exceeds the largest relative move of the step
# by this fraction of the track cannot cross.  The margin covers the rounding
# of positions below about 1e9 track lengths.
PASS_MARGIN = 1e-6


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
    """Positions, lane assignments, and driver state for every vehicle, as
    ``(N,)`` arrays for one run or ``(R, N)`` rows of replicas."""

    positions: np.ndarray  # unwrapped, m
    lanes: np.ndarray  # 0 or 1
    phis: np.ndarray  # frustration levels
    lambdas: np.ndarray  # per-driver velocity change rate, 1/s
    pending_passes: np.ndarray = None  # passes during the previous move
    time: float = 0.0

    def __post_init__(self):
        if self.pending_passes is None:
            self.pending_passes = np.zeros(self.positions.shape, dtype=np.int64)

    @property
    def n_vehicles(self) -> int:
        """Vehicles held, summed over the rows."""
        return self.positions.size

    def rows(self, index) -> TwoLaneState:
        """The selected rows (views of the arrays for a single row index)."""
        return TwoLaneState(
            positions=self.positions[index],
            lanes=self.lanes[index],
            phis=self.phis[index],
            lambdas=self.lambdas[index],
            pending_passes=self.pending_passes[index],
            time=self.time,
        )


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


def _by_row(*arrays):
    """Each array as ``(rows, N)`` (views), then the shape of the first."""
    shape = arrays[0].shape
    return (*[a.reshape(-1, shape[-1]) for a in arrays], shape)


def _unsort(values, row, order):
    """Values given in each row's sorted order, put back in vehicle order."""
    out = np.empty_like(values)
    out[row, order] = values
    return out


def perceived_headways(positions_ref: np.ndarray, lanes: np.ndarray, track_length: float):
    """In-lane and other-lane headways of every vehicle on the given
    positions, row by row, from one sort of each row.

    The in-lane headway runs to the next vehicle of the same lane; a vehicle
    alone in its lane faces its own periodic image, headway exactly L.  The
    other-lane headway runs to the nearest strictly-ahead vehicle of the other
    lane: a vehicle exactly side-by-side is not ahead, so the next one (or its
    image one lap ahead) counts, and it is infinite when that lane is empty.
    """
    positions_ref, lanes, shape = _by_row(positions_ref, lanes)
    rows, n = positions_ref.shape
    wrapped = positions_ref % track_length
    order = np.argsort(wrapped, axis=1, kind="stable")
    row = np.arange(rows)[:, None]
    x = wrapped[row, order]
    lane = lanes[row, order]
    ring = np.concatenate([lane, lane], axis=1)  # the sorted row, then its image a lap on
    column = np.arange(1, 2 * n + 1)
    # switch[r, c]: the first column after c in the other lane than c's (2n if none).
    switch = np.full((rows, 2 * n), 2 * n)
    switch[:, :-1] = np.where(ring[:, 1:] != ring[:, :-1], column[:-1], 2 * n)
    switch = np.minimum.accumulate(switch[:, ::-1], axis=1)[:, ::-1]
    # The in-lane leader is the next column of the same lane, at the latest
    # the vehicle's own image n columns on.
    after = column[:n]
    leader = np.where(ring[:, 1 : n + 1] == lane, after, switch[:, 1 : n + 1])
    own = np.concatenate([x, x + track_length], axis=1)[row, leader] - x
    own[leader == after + n - 1] = track_length
    # past[r, j]: the first column after j's run of equal positions.
    past = after
    tied = x[:, 1:] == x[:, :-1]
    if tied.any():
        past = np.full((rows, n), n)
        past[:, :-1] = np.where(tied, n, column[: n - 1])
        past = np.minimum.accumulate(past[:, ::-1], axis=1)[:, ::-1]
    nearest = np.where(ring[row, past] != lane, past, switch[row, past])
    gap = (x[row, nearest % n] - x) % track_length
    gap[gap == 0.0] = track_length
    gap[nearest == 2 * n] = np.inf
    return _unsort(own, row, order).reshape(shape), _unsort(gap, row, order).reshape(shape)


def own_headways(positions_ref: np.ndarray, lanes: np.ndarray, track_length: float) -> np.ndarray:
    """The in-lane half of :func:`perceived_headways`."""
    return perceived_headways(positions_ref, lanes, track_length)[0]


def adjacent_headways(positions_ref: np.ndarray, lanes: np.ndarray, track_length: float) -> np.ndarray:
    """The other-lane half of :func:`perceived_headways`."""
    return perceived_headways(positions_ref, lanes, track_length)[1]


def _frustration(phi, own, adj, passes, lp: LaneChangeParams, dt: float):
    """The frustration law over a whole fleet: ramp by ``r`` while the other
    lane looks better (down by ``r`` otherwise), jump by ``p`` per pass, clamp
    at 0.  Returns the new frustration and its attempt probability per step,
    ``1 - (1 - (2/pi) arctan(phi))**dt``, which composes over ``1/dt`` steps to
    the per-second probability, so the attempt rate does not depend on the
    step size.  The step itself resets it after an executed change.
    """
    ramp = np.where(own < adj, lp.r, -lp.r)
    phi = np.maximum(0.0, phi + ramp * dt + lp.p * passes)
    return phi, 1.0 - (1.0 - TWO_OVER_PI * np.arctan(phi)) ** dt


def safety_gap_check(state: TwoLaneState, vehicle: int, p: ModelParams) -> bool:
    """True when no adjacent-lane vehicle sits within the closed interval
    ``[x - d_min, x + d_min]`` around the vehicle (true positions of one run)."""
    others = np.flatnonzero(state.lanes == 1 - state.lanes[vehicle])
    if others.size == 0:
        return True
    length = p.track_length
    x = state.positions[vehicle] % length
    pos = state.positions[others] % length
    forward = (pos - x) % length
    backward = (x - pos) % length
    return not bool(np.any((forward <= p.d_min) | (backward <= p.d_min)))


def _count_passes(prev_pos, new_pos, lanes, excluded, track_length) -> np.ndarray:
    """Per-vehicle count of adjacent-lane vehicles that moved from behind
    (offset <= 0) to ahead (> 0) during the step, once per lap, row by row;
    excluded vehicles neither receive nor contribute events.

    As a passer moves ahead, the receiver's unwrapped offset from it sweeps
    down through ``(-after, -before]``; every multiple of the track length in
    that interval is one pass.  A pair whose offset grows instead counts 0.

    Only pairs whose wrapped distance at the step start is within the row's
    largest relative move (plus :data:`PASS_MARGIN` of the track) can cross.
    One sort per row finds them: the walk looks k = 1, 2, ... places ahead of
    every vehicle in the sorted ring until no vehicle has a partner that near
    k places on.  A pair near both ways round is kept once, and every kept
    pair is counted in both directions.  A step that laps the ring widens the
    window to every pair.
    """
    prev_pos, new_pos, lanes, excluded, shape = _by_row(prev_pos, new_pos, lanes, excluded)
    rows, n = prev_pos.shape
    move = new_pos - prev_pos
    reach = move.max(axis=1) - move.min(axis=1) + PASS_MARGIN * track_length
    reach = np.minimum(reach, track_length)[:, None]
    wrapped = prev_pos % track_length
    order = np.argsort(wrapped, axis=1)
    row = np.arange(rows)[:, None]
    x = wrapped[row, order]
    ahead = np.concatenate([x, x + track_length], axis=1)  # the sorted ring, then one lap on
    # 0 or 1 by lane, 2 when excluded: a pair counts when its codes sum to 1.
    code = None
    found = []
    for k in range(1, n):
        near = ahead[:, k : k + n] - x <= reach
        if not near.any():
            break  # gaps only grow with k
        if code is None:
            code = np.where(excluded, 2, lanes)[row, order]
            code = np.concatenate([code, code], axis=1)
        r, a = np.nonzero(near & (code[:, k : k + n] + code[:, :n] == 1))
        c = (a + k) % n
        if 2 * k >= n:
            # Near both ways round too (c sees a n - k places on)?  Keep the
            # pair from the end with fewer places between, or from the lower
            # column when both have n / 2.
            again = (ahead[r, c + n - k] - x[r, c] <= reach[r, 0]) & ((2 * k > n) | (c < a))
            r, a, c = r[~again], a[~again], c[~again]
        found.append((r, order[r, a], order[r, c]))
    if not found:
        return np.zeros(shape, dtype=np.int64)
    r, i, j = found[0] if len(found) == 1 else (np.concatenate(v) for v in zip(*found))
    r, receivers, passers = np.concatenate([r, r]), np.concatenate([i, j]), np.concatenate([j, i])
    crossed = ring_crossings(
        new_pos[r, receivers] - new_pos[r, passers],
        prev_pos[r, receivers] - prev_pos[r, passers],
        track_length,
    )
    counts = np.bincount(r * n + receivers, weights=np.maximum(crossed, 0.0), minlength=rows * n)
    return counts.astype(np.int64).reshape(shape)


def _scan_order(positions, lanes, track_length) -> np.ndarray:
    """Row by row, lane 0 by ascending wrapped position, then lane 1 likewise."""
    return np.lexsort((positions % track_length, lanes), axis=-1)


@dataclass
class StepOutcome:
    """What one two-lane step produced, plus the pre-move snapshot.

    For a batch state, ``collisions`` and ``events`` hold one list per row.
    """

    time: float  # step start time
    positions_before: np.ndarray
    velocities: np.ndarray
    collisions: list = field(default_factory=list)
    events: list = field(default_factory=list)
    changed: np.ndarray = None


def two_lane_step(
    state: TwoLaneState,
    hist: HistoryBuffer,
    lp: LaneChangeParams,
    p: ModelParams,
    dt: float,
    rng,
) -> StepOutcome:
    """Advance the two-lane system by one step, mutating ``state`` in place.

    ``rng`` holds one generator per row of a batch state (a bare generator
    for one run); every row draws one variate per vehicle per step.

    Stage 1 scans the vehicles in a fixed order, updating frustration from the
    perceived (delayed) headways and executing safe lane changes immediately,
    so later vehicles in the same step see the updated occupancy.  Stage 2
    checks true headways for collisions; a collision freezes its row before
    any movement.  Stage 3 advances the other rows from the perceived headways
    in the current lane assignment.
    """
    length = p.track_length
    positions, lanes, phis0, pending, lambdas, shape = _by_row(
        state.positions, state.lanes, state.phis, state.pending_passes, state.lambdas
    )
    n = shape[-1]
    ref_pos = hist.positions_at_delay().reshape(-1, n)
    rngs = [rng] if isinstance(rng, np.random.Generator) else rng
    if len(rngs) != len(positions):
        raise ParameterError(f"{len(positions)} rows need as many generators, got {len(rngs)}")

    def perceive(r):
        own, adj = perceived_headways(ref_pos[r], lanes[r], length)
        return (own, *_frustration(phis0[r], own, adj, pending[r], lp, dt))

    own, phis, prob = perceive(slice(None))
    scan = _scan_order(positions, lanes, length)
    u = np.empty_like(prob)
    for r, generator in enumerate(rngs):
        u[r, scan[r]] = generator.random(n)  # one variate per vehicle, assigned in scan order

    changed = np.zeros(positions.shape, dtype=bool)
    events: list[list[LaneEvent]] = [[] for _ in rngs]
    attempted = u < prob
    for r in np.nonzero(attempted.any(axis=1))[0] if attempted.any() else ():
        # Replay the row's scan sequentially: an executed change shifts the
        # headways seen by every vehicle scanned after it.
        row = state.rows(r) if len(shape) == 2 else state
        own_r, phi_r, prob_r = own[r], phis[r], prob[r]
        committed = np.empty(n)
        rest = scan[r]
        while rest.size:
            attempts = np.nonzero(u[r, rest] < prob_r[rest])[0]
            skipped = rest[: attempts[0]] if attempts.size else rest
            committed[skipped] = phi_r[skipped]
            if not attempts.size:
                break
            vehicle = rest[attempts[0]]
            rest = rest[attempts[0] + 1 :]
            if not safety_gap_check(row, vehicle, p):
                committed[vehicle] = phi_r[vehicle]
                continue
            origin = int(lanes[r, vehicle])
            events[r].append(
                LaneEvent(
                    time=state.time,
                    vehicle=int(vehicle),
                    kind="lane_change",
                    from_lane=origin,
                    to_lane=1 - origin,
                    phi_before=float(phi_r[vehicle]),
                )
            )
            lanes[r, vehicle] = 1 - origin
            changed[r, vehicle] = True
            committed[vehicle] = 0.0  # reset on a successful change
            own_r, phi_r, prob_r = perceive(r)
        own[r], phis[r] = own_r, committed
    state.phis = phis.reshape(shape)
    state.pending_passes = np.zeros(shape, dtype=np.int64)

    velocities = _velocity(own, lambdas, p)
    # Without a delay the perceived positions are the true ones.
    true_h = own if hist.delay_steps == 0 else own_headways(positions, lanes, length)
    collided = closed(true_h, p)
    hit = collided.any()
    crashed = collided.any(axis=1) if hit else None
    collisions: list[list[CollisionReport]] = [[] for _ in rngs]
    for r in np.nonzero(crashed)[0] if hit else ():
        collisions[r] = find_collisions(true_h[r], state.time, p)
        for report in collisions[r]:
            follower = report.follower_index
            events[r].append(
                LaneEvent(
                    time=state.time,
                    vehicle=follower,
                    kind="collision",
                    from_lane=int(lanes[r, follower]),
                    to_lane=int(lanes[r, follower]),
                    phi_before=float(phis[r, follower]),
                )
            )

    outcome = StepOutcome(
        time=state.time,
        positions_before=positions.reshape(shape),
        velocities=velocities.reshape(shape),
        collisions=collisions,
        events=events,
        changed=changed.reshape(shape),
    )
    if len(shape) == 1:
        outcome.collisions, outcome.events = collisions[0], events[0]
    if hit and crashed.all():
        return outcome

    new_positions = positions + dt * velocities
    excluded = changed
    if hit:
        new_positions[crashed] = positions[crashed]  # collided rows stay frozen
        excluded = changed | crashed[:, None]
    state.positions = new_positions.reshape(shape)
    hist.push(state.positions)
    state.time = round(state.time + dt, 12)

    passes = _count_passes(positions, new_positions, lanes, excluded, length)
    if passes.any():
        state.pending_passes = passes.reshape(shape)
        for r, vehicle in zip(*np.nonzero(passes)):
            lane = int(lanes[r, vehicle])
            events[r].append(
                LaneEvent(
                    time=state.time,
                    vehicle=int(vehicle),
                    kind="pass",
                    from_lane=lane,
                    to_lane=lane,
                    phi_before=float(phis[r, vehicle]),
                )
            )
    return outcome


@dataclass
class RunEnd:
    """How one row of a lockstep run ended."""

    reason: str
    time: float
    samples: int  # samples taken of the row
    collisions: list[CollisionReport]
    events: list[LaneEvent]


def run_lockstep(
    p: ModelParams,
    lp: LaneChangeParams,
    seeds,
    n_lane0: int,
    n_lane1: int = 0,
    stagger: float = 0.0,
    delay: float = 0.0,
    dt: float = 0.05,
    t_end: float = 100.0,
    lambda_overrides: dict[int, float] | None = None,
    record_stride: int = 1,
    *,
    sink,
):
    """Run one seeded two-lane scenario per seed, every row stepped together.

    ``sink(rows, size, n_vehicles)`` builds the consumer of the samples; its
    ``sample(rows, k, t, positions, velocities, lanes, phis)`` receives sample
    ``k`` of the given rows (indices into ``seeds``) as ``(len(rows), N)``
    arrays, which it must copy to keep.  Samples are taken at every
    stride-th step plus each row's final or colliding state, exactly as
    :func:`run_two_lane` records the run of that seed alone.  A collided row
    drops out of the batch.  ``lp.rng_seed`` is not used.

    Returns the sink and one :class:`RunEnd` per seed.
    """
    _, steps, size = run_grid(delay, dt, t_end, record_stride)
    base = init_two_lane(p, n_lane0, n_lane1, stagger=stagger, lambda_overrides=lambda_overrides)
    count = len(seeds)
    state = TwoLaneState(
        *(
            np.repeat(a[None], count, axis=0)
            for a in (base.positions, base.lanes, base.phis, base.lambdas)
        )
    )
    hist = HistoryBuffer(state.positions, delay, dt)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    consumer = sink(count, size, base.n_vehicles)
    live = np.arange(count)
    events: list[list[LaneEvent]] = [[] for _ in seeds]
    ends: list[RunEnd] = [None] * count
    k = 0
    for s in range(steps):
        outcome = two_lane_step(state, hist, lp, p, dt, rngs)
        for i, row_events in enumerate(outcome.events):
            if row_events:
                events[live[i]] += row_events
        sampled = s % record_stride == 0
        if any(outcome.collisions):
            crashed = np.array([bool(c) for c in outcome.collisions])
            survivors = ~crashed
            for rows in (crashed, survivors) if sampled else (crashed,):
                if rows.any():
                    consumer.sample(
                        live[rows], k, outcome.time, outcome.positions_before[rows],
                        outcome.velocities[rows], state.lanes[rows], state.phis[rows],
                    )
            for i in np.flatnonzero(crashed):
                r = live[i]
                ends[r] = RunEnd(
                    TERMINATED_COLLISION, outcome.time, k + 1, outcome.collisions[i], events[r]
                )
            state = state.rows(survivors)
            hist.select(survivors)
            rngs = [g for g, hit in zip(rngs, crashed) if not hit]
            live = live[survivors]
            if not live.size:
                break
        elif sampled:
            consumer.sample(
                live, k, outcome.time, outcome.positions_before, outcome.velocities,
                state.lanes, state.phis,
            )
        k += sampled
    else:
        final_v = _velocity(
            own_headways(hist.positions_at_delay(), state.lanes, p.track_length),
            state.lambdas,
            p,
        )
        consumer.sample(live, k, state.time, state.positions, final_v, state.lanes, state.phis)
        for r in live:
            ends[r] = RunEnd(TERMINATED_COMPLETED, steps * dt, k + 1, [], events[r])
    return consumer, ends


class _Samples:
    """Every sample of every row: the full records of a lockstep run."""

    def __init__(self, rows: int, size: int, n_vehicles: int):
        self.times = np.empty((rows, size))
        self.positions = np.empty((rows, size, n_vehicles))
        self.velocities = np.empty((rows, size, n_vehicles))
        self.lanes = np.empty((rows, size, n_vehicles), dtype=np.int8)
        self.phis = np.empty((rows, size, n_vehicles))

    def sample(self, rows, k, t, positions, velocities, lanes, phis):
        at = (slice(None) if len(rows) == len(self.times) else rows, k)
        self.times[at] = t
        self.positions[at] = positions
        self.velocities[at] = velocities
        self.lanes[at] = lanes
        self.phis[at] = phis


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
    samples, (end,) = run_lockstep(
        p, lp, [lp.rng_seed], n_lane0, n_lane1, stagger, delay, dt, t_end,
        lambda_overrides, record_stride, sink=_Samples,
    )
    k = end.samples
    return TrajectoryRecord(
        times=samples.times[0, :k],
        positions=samples.positions[0, :k],
        velocities=samples.velocities[0, :k],
        params=p,
        delay=delay,
        dt=dt,
        termination_reason=end.reason,
        termination_time=end.time,
        collisions=end.collisions,
        seed=lp.rng_seed,
        lanes=samples.lanes[0, :k],
        phis=samples.phis[0, :k],
        events=end.events,
    )
