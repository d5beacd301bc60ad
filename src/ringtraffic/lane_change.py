"""Two-lane ring simulation with frustration-driven stochastic lane changes.

Each step runs three stages in order: lane changing, collision detection, and
the forward move.  Frustration grows while the adjacent lane looks better and
jumps when the driver is passed; it maps to a per-second attempt probability
through a bounded arctan law, rescaled to the step size so the attempt rate is
independent of the integrator resolution.

The state's arrays are ``(R, N)`` rows, one per seeded replica of one
fleet (one row for a single run).  A step advances every row at once on the
variates it is given; the runner draws each row's from the row's own
generator, so replicas run in lockstep and row ``r`` follows exactly the run
of its seed alone.
"""
from __future__ import annotations

import collections
import functools
import math
import warnings
from dataclasses import dataclass

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
from .single_lane import closed, find_collisions, ring_crossings, run_grid

TWO_OVER_PI = 2.0 / math.pi

# Pairs whose wrapped distance exceeds the largest relative move of the step
# by this fraction of the track cannot cross.  The margin covers the rounding
# of positions below about 1e9 track lengths.
PASS_MARGIN = 1e-6

# Variates drawn per row at once, in whole steps (at least one): at 50
# vehicles a draw then serves 20 steps, and ten rows hold 80 kB of them.
VARIATE_BLOCK = 1 << 10


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
    ``(R, N)`` rows of replicas."""

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
        """The rows that a mask or an index array selects, as a batch."""
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

    Vehicles ``0..n_lane0-1`` populate lane 0 and the remainder lane 1.  The
    state is one row.
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
        positions=positions[None],
        lanes=lane_arr[None],
        phis=np.zeros((1, n), dtype=float),
        lambdas=lambdas[None],
    )


@functools.lru_cache(maxsize=64)
def _row_starts(rows: int, n: int) -> np.ndarray:
    """The flat index of each row's first element, ``(rows, 1)`` (read-only)."""
    base = np.arange(0, rows * n, n)[:, None]
    base.flags.writeable = False
    return base


class _Ring:
    """Each row's vehicles in order of wrapped position: a stable argsort of
    the row (``order``), the same as indices into the flattened arrays the
    ring was built from (``flat``), the sorted positions ``x``, ``ahead``,
    those positions followed by their images a lap on, ``base``, the flat
    index of the first element of each of the ring's own rows, and ``past``,
    the first column after each column's run of equal positions (``None``
    when no two are equal, the next column).

    Lane changes move no vehicle, so one ring of the step-start positions
    serves perception, scan order, safety gap and pass count for the whole
    step, however the lanes change in between.  Gathers and scatters go
    through the flat indices: at fleet sizes of tens they cost a fraction of
    indexing by ``[row, order]``.
    """

    __slots__ = ("base", "order", "flat", "x", "ahead", "past")

    def __init__(self, base, order, flat, x, ahead, past):
        self.base, self.order, self.flat, self.x, self.ahead = base, order, flat, x, ahead
        self.past = past

    @classmethod
    def of(cls, positions, track_length):
        """The ring of ``(rows, N)`` unwrapped positions."""
        wrapped = positions % track_length
        rows, n = wrapped.shape
        base = _row_starts(rows, n)
        order = np.argsort(wrapped, axis=1, kind="stable")
        flat = order + base
        x = wrapped.ravel()[flat]
        past = None
        tied = x[:, 1:] == x[:, :-1]
        if tied.any():
            past = np.full((rows, n), n)
            past[:, :-1] = np.where(tied, n, np.arange(1, n))
            past = np.minimum.accumulate(past[:, ::-1], axis=1)[:, ::-1]
        return cls(base, order, flat, x, np.concatenate([x, x + track_length], axis=1), past)

    def rows(self, r: int):
        """The ring of row ``r`` alone, as one row (views); its flat indices
        still point into the arrays of every row."""
        at = slice(r, r + 1)
        past = None if self.past is None else self.past[at]
        return _Ring(self.base[:1], self.order[at], self.flat[at], self.x[at], self.ahead[at], past)

    def sort(self, values):
        """Values in vehicle order, put in ring order."""
        return values.ravel()[self.flat]

    def unsort(self, values):
        """``(rows, N)`` values in ring order, put back in vehicle order."""
        out = np.empty(values.shape, values.dtype)
        out.ravel()[self.flat] = values
        return out


def _perceive(ring, lane, track_length):
    """In-lane and other-lane headways in ring order, of the ``(rows, N)``
    lanes given in the order of ``ring``, from one pass over their runs.

    Over two laps of each row, ``start[r, c]`` is the first column after
    ``c`` that begins a run of the other lane than the column before it
    (``2n`` if none).  Where the next column keeps the vehicle's lane, the
    in-lane leader is that column and the other-lane one starts the next
    run; where it does not, the other way round.  The in-lane leader is at
    the latest the vehicle's own image n columns on; the other-lane one is
    taken past the vehicle's run of equal positions.
    """
    rows, n = lane.shape
    column = np.arange(1, 2 * n + 1)
    thrice = np.concatenate([lane, lane, lane[:, :1]], axis=1)
    change = thrice[:, 1:] != thrice[:, :-1]
    start = np.where(change, column, 2 * n)  # column 2n - 1 has none after it
    start = np.minimum.accumulate(start[:, ::-1], axis=1)[:, ::-1]
    after, switch, turns = column[:n], start[:, 1 : n + 1], change[:, :n]
    x = ring.x
    leader = np.where(turns, switch, after)
    own = ring.ahead.ravel()[leader + _row_starts(rows, 2 * n)] - x
    own[leader == column[n - 1 : 2 * n - 1]] = track_length  # alone: its own image
    if ring.past is None:
        nearest = np.where(turns, after, switch)
    else:
        past = ring.past
        at_past = np.take_along_axis(thrice, past, axis=1)
        nearest = np.where(at_past != lane, past, np.take_along_axis(start, past, axis=1))
    # A leader past the row's end sits a lap on, d <= 0 behind: d + L is
    # d % L there, and the L that a side-by-side 0 would become.
    gap = x.ravel()[nearest % n + ring.base] - x
    np.add(gap, track_length, out=gap, where=nearest >= n)
    gap[gap == 0.0] = track_length
    gap[nearest == 2 * n] = np.inf
    return own, gap


def _perceive_change(x, past, lane, c, track_length):
    """The headways that a lane change of ring column ``c`` alters, with the
    arithmetic of :func:`_perceive`, from one row's positions ``x``, ``past``
    (``None`` when no two are equal) and ``lane``, in ring order, the lanes
    after the change.

    A vehicle's in-lane leader moves only for the changer and for the last
    vehicle of each lane before it; its nearest other-lane vehicle ahead
    moves only where the changer now is, or was, the first one past its run
    of equal positions, which puts it between one of those two and the
    changer, or in the changer's run.  So every column from the start of the
    run of the farther of the two to the end of the changer's run is
    recomputed, sweeping down from the first vehicle of each lane past that
    span.  Columns count on past the row's end and back before its start.

    Returns the columns, in-lane and other-lane headways as lists, or
    ``None`` when the change emptied a lane or moved into an empty one:
    every other-lane leader of the row moved then.
    """
    n = len(lane)
    last = [None, None]  # the last column of each lane before c
    for e in range(c - 1, c - n, -1):
        if last[lane[e]] is None:
            last[lane[e]] = e
            if None not in last:
                break
    else:
        return None
    lo = min(last)
    if past is not None:
        k = lo % n
        start = k
        while start and past[start - 1] == past[k]:
            start -= 1
        lo -= k - start
    hi = c if past is None else past[c] - 1
    lo = max(lo, hi - n + 1)
    ahead = [None, None]  # the first column of each lane after the current one
    for e in range(hi + 1, hi + n + 1):
        if ahead[lane[e % n]] is None:
            ahead[lane[e % n]] = e
            if None not in ahead:
                break
    columns, own, adj = [], [], []
    for e in range(hi, lo - 1, -1):
        k = e % n
        if past is None or past[k] == k + 1:
            clear = ahead[:]  # the first of each lane past the run of k
        here, xk = lane[k], x[k]
        j = k + ahead[here] - e
        if j == k + n:
            own.append(track_length)  # alone: its own image
        else:
            own.append((x[j] if j < n else x[j - n] + track_length) - xk)
        j = k + clear[1 - here] - e
        gap = x[j] - xk if j < n else (x[j - n] - xk) + track_length
        adj.append(track_length if gap == 0.0 else gap)
        columns.append(k)
        ahead[here] = e
    return columns, own, adj


def _headways(positions_ref, lanes, track_length):
    """In-lane and other-lane headways of every vehicle on the given
    positions, row by row, in vehicle order and the shape of ``lanes``:
    :func:`_perceive` on one sort of each row.

    The in-lane headway runs to the next vehicle of the same lane; a vehicle
    alone in its lane faces its own periodic image, headway exactly L.  The
    other-lane headway runs to the nearest strictly-ahead vehicle of the other
    lane: a vehicle exactly side-by-side is not ahead, so the next one (or its
    image one lap ahead) counts, and it is infinite when that lane is empty.
    """
    shape = lanes.shape
    lanes = lanes.reshape(-1, shape[-1])
    ring = _Ring.of(positions_ref.reshape(lanes.shape), track_length)
    return [ring.unsort(h).reshape(shape) for h in _perceive(ring, ring.sort(lanes), track_length)]


def own_headways(positions_ref, lanes, track_length: float) -> np.ndarray:
    """The in-lane half of :func:`_headways`."""
    return _headways(positions_ref, lanes, track_length)[0]


def adjacent_headways(positions_ref, lanes, track_length: float) -> np.ndarray:
    """The other-lane half of :func:`_headways`."""
    return _headways(positions_ref, lanes, track_length)[1]


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


def safety_gap_check(ring, column: int, lanes, p: ModelParams) -> bool:
    """True when no adjacent-lane vehicle sits within the closed interval
    ``[x - d_min, x + d_min]`` around the vehicle at ``column`` of the one-row
    ``ring`` of true positions (``ring.rows(r)`` for row ``r`` of a batch),
    with the row's ``lanes`` in ring order.

    Only the vehicle's neighbours in the ring can be that near: the walk goes
    forward, then backward, until the gap exceeds ``d_min``.  Gaps grow along
    each walk, save for vehicles tied with this one, which sit at the start
    of one walk and at the end of the other.
    """
    x = ring.x[0]
    n = len(x)
    other = 1 - lanes[column]
    here, length = x[column], p.track_length
    for step in (1, -1):
        for k in range(1, n):
            j = (column + step * k) % n
            if (step * (x[j] - here)) % length > p.d_min:
                break
            if lanes[j] == other:
                return False
    return True


def _count_passes(prev_pos, new_pos, lanes, excluded, track_length, ring) -> np.ndarray:
    """Per-vehicle count of adjacent-lane vehicles that moved from behind
    (offset <= 0) to ahead (> 0) during the step, once per lap, row by row
    of the ``(R, N)`` arrays; excluded vehicles neither receive nor
    contribute events.

    As a passer moves ahead, the receiver's unwrapped offset from it sweeps
    down through ``(-after, -before]``; every multiple of the track length in
    that interval is one pass.  A pair whose offset grows instead counts 0.

    Only pairs whose wrapped distance at the step start is within their
    row's largest relative move (plus :data:`PASS_MARGIN` of the track) can
    cross.  The window is the largest over the rows: a wider one adds only
    pairs that count 0.  The ``ring`` of ``prev_pos`` finds them: the walk
    looks k = 1, 2, ... places ahead of every vehicle in the sorted ring
    until no vehicle has a partner that near k places on.  A pair near both
    ways round is kept once, and every kept pair is counted in both
    directions.  A step that laps the ring widens the window to every pair.
    """
    rows, n = prev_pos.shape
    move = new_pos - prev_pos
    reach = min(move.max() - move.min() + PASS_MARGIN * track_length, track_length)
    x, ahead = ring.x, ring.ahead
    # 0 or 1 by lane, 2 when excluded: a pair counts when its codes sum to 1.
    code = None
    found = []
    for k in range(1, n):
        near = ahead[:, k : k + n] - x <= reach
        if not near.any():
            break  # gaps only grow with k
        if code is None:
            code = ring.sort(np.where(excluded, 2, lanes))
            code = np.concatenate([code, code], axis=1)
        r, a = (near & (code[:, k : k + n] + code[:, :n] == 1)).nonzero()
        c = (a + k) % n
        if 2 * k >= n:
            # Near both ways round too (c sees a n - k places on)?  Keep the
            # pair from the end with fewer places between, or from the lower
            # column when both have n / 2.
            again = (ahead[r, c + n - k] - x[r, c] <= reach) & ((2 * k > n) | (c < a))
            r, a, c = r[~again], a[~again], c[~again]
        found.append((ring.flat[r, a], ring.flat[r, c]))
    if not found:
        return np.zeros((rows, n), dtype=np.int64)
    i, j = found[0] if len(found) == 1 else (np.concatenate(v) for v in zip(*found))
    receivers, passers = np.concatenate([i, j]), np.concatenate([j, i])  # flat indices
    new_pos, prev_pos = new_pos.ravel(), prev_pos.ravel()
    crossed = ring_crossings(
        new_pos[receivers] - new_pos[passers],
        prev_pos[receivers] - prev_pos[passers],
        track_length,
    )
    counts = np.bincount(receivers, weights=np.maximum(crossed, 0.0), minlength=rows * n)
    return counts.astype(np.int64).reshape(rows, n)


def _scan_order(lane) -> np.ndarray:
    """Row by row, the ring columns of lane 0 by ascending wrapped position,
    then those of lane 1, from the lanes in ring order.

    A stable lane partition of the ring, so ties in position keep vehicle
    order: in vehicles, exactly ``np.lexsort((positions % L, lanes))``.
    """
    return np.argsort(lane, axis=1, kind="stable")


@dataclass
class StepOutcome:
    """What one two-lane step produced: the ``(R, N)`` velocities of the
    move, and the collisions and events as one list per row."""

    velocities: np.ndarray
    collisions: list
    events: list


class _Draws:
    """Each row's uniform variates, one per vehicle per step, drawn from the
    row's own generator a block of steps at a time: ``g.random((B, N))``
    yields the stream of ``B`` calls of ``g.random(N)``, so the variates do
    not depend on the block size."""

    def __init__(self, rngs, n_vehicles: int):
        self.rngs = list(rngs)
        self.size = (max(1, VARIATE_BLOCK // n_vehicles), n_vehicles)
        self.block = np.empty((len(self.rngs), 0, n_vehicles))
        self.used = 0

    def next(self) -> np.ndarray:
        """The next step's variates, ``(rows, N)``."""
        if self.used == self.block.shape[1]:
            self.block = np.stack([g.random(self.size) for g in self.rngs])
            self.used = 0
        self.used += 1
        return self.block[:, self.used - 1]

    def select(self, rows) -> None:
        """Keep only the given rows."""
        self.block = self.block[rows]
        self.rngs = [g for g, keep in zip(self.rngs, rows) if keep]


def two_lane_step(
    state: TwoLaneState,
    perceived: np.ndarray,
    lp: LaneChangeParams,
    p: ModelParams,
    dt: float,
    draw: np.ndarray,
) -> StepOutcome:
    """Advance the two-lane system by one step, mutating ``state`` in place.

    The state holds ``(R, N)`` rows.  ``perceived`` holds the positions the
    drivers react to (the delayed ones) and ``draw`` the step's uniform
    variates, both ``(R, N)``; each row's variates go to its vehicles in
    scan order.  At delay 0, passing ``state.positions`` itself as
    ``perceived`` lets one ring serve both.  The step writes into neither:
    it replaces ``state.positions`` with a new array, so a caller may keep
    the arrays of earlier steps as the history of positions.

    Stage 1 scans the vehicles in a fixed order, updating frustration from the
    perceived headways and executing safe lane changes immediately, so later
    vehicles in the same step see the updated occupancy.  Stage 2 checks true
    headways for collisions; a collision freezes its row before any movement.
    Stage 3 advances the other rows from the perceived headways in the current
    lane assignment.  One ring of the step-start positions (and one of the
    perceived positions, when they are another array) serves every stage.
    """
    length = p.track_length
    positions, lanes, lambdas = state.positions, state.lanes, state.lambdas
    if positions.ndim != 2:
        raise ParameterError(f"the state must hold (R, N) rows, got shape {positions.shape}")
    if np.shape(perceived) != positions.shape or np.shape(draw) != positions.shape:
        raise ParameterError(
            f"perceived positions {np.shape(perceived)} and variates {np.shape(draw)} "
            f"must have the state's (R, N) shape {positions.shape}"
        )
    rows, n = positions.shape
    # The step works in the order of the true ring and unsorts once, at the
    # end.  The perception runs on the ring of the perceived positions;
    # when it is another ring, ``true_of`` and ``seen_of`` map its columns
    # onto the true ring's and back (None: the identity, the rings being one).
    ring = _Ring.of(positions, length)
    sorted_lanes, sorted_phis = ring.sort(lanes), ring.sort(state.phis)
    sorted_pending = ring.sort(state.pending_passes)
    if perceived is positions:
        seen, true_of, seen_of = ring, None, None
        own, adj = _perceive(seen, sorted_lanes, length)
    else:
        seen = _Ring.of(perceived, length)
        column = np.broadcast_to(np.arange(n), (rows, n))
        true_of = seen.sort(ring.unsort(column))
        seen_of = ring.sort(seen.unsort(column))
        own, adj = _perceive(seen, np.take_along_axis(sorted_lanes, true_of, 1), length)
        own, adj = (np.take_along_axis(h, seen_of, 1) for h in (own, adj))
    phi, prob = _frustration(sorted_phis, own, adj, sorted_pending, lp, dt)
    scan = _scan_order(sorted_lanes)
    attempted = draw < prob.ravel()[scan + ring.base]

    changed = np.zeros(positions.shape, dtype=bool)
    events: list[list[LaneEvent]] = [[] for _ in range(rows)]
    for r in attempted.any(axis=1).nonzero()[0] if attempted.any() else ():
        # Replay the row's scan sequentially: an executed change shifts the
        # headways seen by the vehicles near it (every other-lane leader of
        # the row, when the change empties a lane or moves into an empty
        # one).  The frustration law reads the headways only through whether
        # the other lane looks better, so those scanned after the change
        # for whom that turned attempt with, and keep, the frustration that
        # follows; for the rest the law gives what it gave.
        near = ring.rows(r)
        cols, committed, own_r, adj_r = scan[r], phi[r], own[r], adj[r]
        hits = attempted[r].nonzero()[0].tolist()
        place = None
        while hits:
            i = hits.pop(0)
            col = int(cols[i])
            vehicle = near.order[0, col]
            if not safety_gap_check(near, col, sorted_lanes[r], p):
                continue
            if place is None:
                # The perceived ring's positions, runs and lanes, and the scan
                # place of every true column.
                x = seen.x[r]
                past = None if seen.past is None else seen.past[r]
                view = sorted_lanes[r] if true_of is None else sorted_lanes[r, true_of[r]]
                place = np.empty(n, dtype=np.intp)
                place[cols] = np.arange(n)
            origin = int(sorted_lanes[r, col])
            events[r].append(
                LaneEvent(
                    time=state.time,
                    vehicle=int(vehicle),
                    kind="lane_change",
                    from_lane=origin,
                    to_lane=1 - origin,
                    phi_before=float(committed[col]),
                )
            )
            sorted_lanes[r, col] = lanes[r, vehicle] = 1 - origin
            changed[r, vehicle] = True
            committed[col] = 0.0  # reset on a successful change
            at = col
            if true_of is not None:
                at = seen_of[r, col]
                view[at] = 1 - origin
            update = _perceive_change(x, past, view, at, length)
            if update is None:
                own_s, adj_s = _perceive(seen.rows(r), view[None], length)
                update = range(n), own_s[0], adj_s[0]
            # Scanned later, and the other lane now looks better where it did
            # not, or no longer does.
            turned = []
            for k, own_k, adj_k in zip(*update):
                if true_of is not None:
                    k = true_of[r, k]
                if place[k] > i and (own_k < adj_k) != (own_r[k] < adj_r[k]):
                    turned.append(k)
                own_r[k], adj_r[k] = own_k, adj_k
            if turned:
                phi_n, prob_n = _frustration(
                    sorted_phis[r, turned], own_r[turned], adj_r[turned],
                    sorted_pending[r, turned], lp, dt,
                )
                committed[turned] = phi_n
                ranks = place[turned]
                tries = ranks[draw[r, ranks] < prob_n]
                hits = sorted(set(hits).difference(ranks.tolist()).union(tries.tolist()))
    state.phis = phis = ring.unsort(phi)
    state.pending_passes = np.zeros((rows, n), dtype=np.int64)
    own = ring.unsort(own)

    velocities = _velocity(own, lambdas, p)
    true_h = own if true_of is None else ring.unsort(_perceive(ring, sorted_lanes, length)[0])
    collided = closed(true_h, p)
    hit = collided.any()
    crashed = collided.any(axis=1) if hit else None
    collisions: list[list[CollisionReport]] = [[] for _ in range(rows)]
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

    outcome = StepOutcome(velocities, collisions, events)
    if hit and crashed.all():
        return outcome

    new_positions = positions + dt * velocities
    excluded = changed
    if hit:
        new_positions[crashed] = positions[crashed]  # collided rows stay frozen
        excluded = changed | crashed[:, None]
    state.positions = new_positions
    state.time = round(state.time + dt, 12)

    passes = _count_passes(positions, new_positions, lanes, excluded, length, ring)
    if passes.any():
        state.pending_passes = passes
        at = np.flatnonzero(passes)
        for i, lane, phi_before in zip(
            at.tolist(), lanes.ravel()[at].tolist(), phis.ravel()[at].tolist()
        ):
            r, vehicle = divmod(i, n)
            events[r].append(
                LaneEvent(
                    time=state.time,
                    vehicle=vehicle,
                    kind="pass",
                    from_lane=lane,
                    to_lane=lane,
                    phi_before=phi_before,
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

    The delayed positions are the arrays the step left behind: the step
    replaces ``state.positions`` and never writes into the array it was
    handed, so ``recent`` keeps the last ``m + 1`` of them, oldest first.
    At delay 0 its one entry is the state's own array.

    Returns the sink and one :class:`RunEnd` per seed.
    """
    m, steps, size = run_grid(delay, dt, t_end, record_stride)
    base = init_two_lane(p, n_lane0, n_lane1, stagger=stagger, lambda_overrides=lambda_overrides)
    count = len(seeds)
    arrays = (base.positions, base.lanes, base.phis, base.lambdas)
    state = TwoLaneState(*(np.repeat(a, count, axis=0) for a in arrays))
    recent = collections.deque([state.positions] * (m + 1), maxlen=m + 1)
    draws = _Draws([np.random.default_rng(seed) for seed in seeds], base.n_vehicles)
    consumer = sink(count, size, base.n_vehicles)
    live = np.arange(count)
    events: list[list[LaneEvent]] = [[] for _ in seeds]
    ends: list[RunEnd] = [None] * count
    k = 0
    for s in range(steps):
        time, before = state.time, state.positions
        outcome = two_lane_step(state, recent[0], lp, p, dt, draws.next())
        recent.append(state.positions)
        for i, row_events in enumerate(outcome.events):
            if row_events:
                events[live[i]] += row_events
        sampled = s % record_stride == 0
        crashed = None
        if any(outcome.collisions):
            crashed = np.array([bool(c) for c in outcome.collisions])
        if sampled or crashed is not None:
            # Every live row on a stride step, otherwise the crashed ones.
            at = slice(None) if sampled else crashed
            consumer.sample(
                live[at], k, time, before[at], outcome.velocities[at],
                state.lanes[at], state.phis[at],
            )
        if crashed is not None:
            for i in np.flatnonzero(crashed):
                r = live[i]
                ends[r] = RunEnd(
                    TERMINATED_COLLISION, time, k + 1, outcome.collisions[i], events[r]
                )
            survivors = ~crashed
            state = state.rows(survivors)
            for i in range(m):
                recent[i] = recent[i][survivors]
            recent[m] = state.positions
            draws.select(survivors)
            live = live[survivors]
            if not live.size:
                break
        k += sampled
    else:
        final_v = _velocity(own_headways(recent[0], state.lanes, p.track_length), state.lambdas, p)
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
