import math

import numpy as np
import pytest

from ringtraffic import (
    LaneChangeParams,
    ModelParams,
    TwoLaneState,
    adjacent_headways,
    init_two_lane,
    run_single_lane,
    run_two_lane,
    two_lane_step,
)
from ringtraffic.errors import ParameterError
from ringtraffic.lane_change import (
    _count_passes,
    _frustration,
    _perceive,
    _perceive_change,
    _Ring,
    _Samples,
    own_headways,
    run_lockstep,
    safety_gap_check,
)
from ringtraffic.metrics import lane_imbalance
from ringtraffic.records import TERMINATED_COLLISION
from ringtraffic.single_lane import ring_crossings

from oracles import (
    detect_passes,
    frustration_law,
    full_lane_gap_is_clear,
    gap_arguments,
    one_run,
    perceive,
    reference_step,
    ring_of,
    scan_order,
)


def make_state(positions0, positions1, p):
    """A one-row state: the given positions in lane 0, then in lane 1."""
    positions = np.array([list(positions0) + list(positions1)], dtype=float)
    lanes = np.array([[0] * len(positions0) + [1] * len(positions1)], dtype=np.int8)
    return TwoLaneState(
        positions=positions,
        lanes=lanes,
        phis=np.zeros(positions.shape),
        lambdas=np.full(positions.shape, p.lambda_rate),
    )


def adjacent(state, p):
    return adjacent_headways(state.positions, state.lanes, p.track_length)


def test_adjacent_headway_empty_lane_is_infinite(table1_params):
    state = make_state([0.0, 20.0], [], table1_params)
    assert np.all(adjacent(state, table1_params) == math.inf)


def test_adjacent_headway_staggered_lanes(table1_params):
    state = init_two_lane(table1_params, 25, 25, stagger=20.0)
    own = own_headways(state.positions, state.lanes, table1_params.track_length)
    np.testing.assert_allclose(adjacent(state, table1_params), 20.0)
    np.testing.assert_allclose(own, 40.0)


def test_adjacent_headway_side_by_side_not_ahead(table1_params):
    state = make_state([100.0], [100.0, 150.0], table1_params)
    assert adjacent(state, table1_params)[0, 0] == pytest.approx(50.0)
    # alone side-by-side: the next vehicle ahead is the image one lap around
    solo = make_state([100.0], [100.0], table1_params)
    np.testing.assert_allclose(adjacent(solo, table1_params), 1000.0)


def frustration(phi, own, adj, passes, lp, dt):
    return _frustration(phi, own, adj, passes, lp, dt)[0]


def per_step_attempt_probability(phi, dt):
    """The law's attempt probability per step at frustration ``phi`` (no ramp, no pass)."""
    return _frustration(phi, 1.0, 1.0, 0, LaneChangeParams(r=0.0, p=0.0), dt)[1]


def attempt_probability(phi):
    """The attempt probability per second, ``(2/pi) arctan(phi)``."""
    return 2.0 / math.pi * np.arctan(phi)


def test_frustration_ramp_up(table1_params):
    lp = LaneChangeParams(r=0.1, p=0.2)
    assert frustration(0.3, 20.0, 40.0, 0, lp, 1.0) == pytest.approx(0.4)


def test_frustration_clamped_at_zero():
    lp = LaneChangeParams(r=0.1, p=0.2)
    assert frustration(0.05, 40.0, 20.0, 0, lp, 1.0) == 0.0


def test_frustration_pass_jump():
    lp = LaneChangeParams(r=0.1, p=0.2)
    assert frustration(0.0, 40.0, 20.0, 1, lp, 1.0) == pytest.approx(0.1)
    assert frustration(0.0, 20.0, 40.0, 1, lp, 1.0) == pytest.approx(0.3)


def test_frustration_update_is_elementwise():
    lp = LaneChangeParams(r=0.1, p=0.2)
    phi = np.array([0.3, 0.05, 0.0, 0.0])
    own = np.array([20.0, 40.0, 40.0, 20.0])
    adj = np.array([40.0, 20.0, 20.0, 40.0])
    passes = np.array([0, 0, 1, 1])
    updated, prob = _frustration(phi, own, adj, passes, lp, 0.5)
    expected, expected_prob = frustration_law(phi, own, adj, passes, lp.r, lp.p, 0.5)
    np.testing.assert_array_equal(updated, expected)
    np.testing.assert_allclose(prob, expected_prob, rtol=1e-15, atol=0)


def test_attempt_probability_values():
    assert per_step_attempt_probability(0.0, 1.0) == 0.0
    assert per_step_attempt_probability(0.5, 1.0) == pytest.approx(0.2951672353008665, abs=1e-12)
    assert per_step_attempt_probability(1e6, 1.0) > 0.999999


def test_attempt_probability_monotone():
    phi = np.linspace(0.0, 50.0, 2000)
    prob = per_step_attempt_probability(phi, 1.0)
    assert np.all(np.diff(prob) > 0)
    assert np.all((prob >= 0) & (prob < 1))


def test_per_step_probability_values():
    assert per_step_attempt_probability(0.7, 1.0) == pytest.approx(attempt_probability(0.7))
    assert per_step_attempt_probability(0.0, 0.05) == 0.0
    assert per_step_attempt_probability(0.5, 0.05) == pytest.approx(
        0.017337678217888453, abs=1e-12
    )


@pytest.mark.parametrize("dt", [0.01, 0.05, 1.0])
def test_per_step_probability_composes(dt):
    phi = np.linspace(0.0, 8.0, 81)
    per_step = per_step_attempt_probability(phi, dt)
    recovered = 1.0 - (1.0 - per_step) ** (1.0 / dt)
    np.testing.assert_allclose(recovered, attempt_probability(phi), atol=1e-12)


def test_per_step_probability_dominance():
    # a pointwise-dominating frustration trajectory dominates in attempt odds
    rng = np.random.default_rng(2)
    base = np.cumsum(rng.uniform(-0.1, 0.12, 500)).clip(min=0)
    above = base + rng.uniform(0.0, 0.5, 500)
    assert np.all(
        per_step_attempt_probability(above, 0.05)
        >= per_step_attempt_probability(base, 0.05)
    )


def test_safety_gap_empty_lane(table1_params):
    state = make_state([100.0], [], table1_params)
    assert safety_gap_check(*gap_arguments(state, 0, table1_params), table1_params)


def test_safety_gap_closed_interval(table1_params):
    blocked = make_state([100.0], [107.5], table1_params)  # exactly x + d_min
    assert not safety_gap_check(*gap_arguments(blocked, 0, table1_params), table1_params)
    clear = make_state([100.0], [107.51], table1_params)
    assert safety_gap_check(*gap_arguments(clear, 0, table1_params), table1_params)
    behind = make_state([100.0], [92.5], table1_params)  # exactly x - d_min
    assert not safety_gap_check(*gap_arguments(behind, 0, table1_params), table1_params)


def test_safety_gap_wraps_around_origin(table1_params):
    state = make_state([999.0], [3.0], table1_params)  # 4 m ahead across the wrap
    assert not safety_gap_check(*gap_arguments(state, 0, table1_params), table1_params)


def test_safety_gap_walk_matches_the_full_lane_scan():
    # Ties, laps, 1e-13 m twins and a 2.5 m grid, where gaps land exactly
    # on d_min, each against the scan over the whole other lane.
    rng = np.random.default_rng(5)
    blocked = 0
    for length in (100.0, 1000.0):
        p = ModelParams(track_length=length)
        for _ in range(400):
            n = int(rng.integers(1, 12))
            positions, lanes = random_fleet(rng, 1, n, length)
            if rng.random() < 0.3:
                positions = 2.5 * rng.integers(-40, 40, (1, n))
            state = TwoLaneState(positions, lanes, np.zeros((1, n)), np.ones((1, n)))
            for vehicle in range(n):
                expected = full_lane_gap_is_clear(positions[0], lanes[0], vehicle, p)
                assert safety_gap_check(*gap_arguments(state, vehicle, p), p) == expected
                blocked += not expected
    assert blocked > 500


def test_detect_passes_equal_velocities(table1_params):
    prev = make_state([0.0, 40.0], [20.0, 60.0], table1_params)
    new = make_state([10.0, 50.0], [30.0, 70.0], table1_params)
    assert np.all(detect_passes(prev, new, table1_params) == 0)


def test_detect_passes_sign_crossing(table1_params):
    prev = make_state([100.0], [99.9], table1_params)
    new = make_state([100.5], [100.6], table1_params)  # adjacent moved past
    counts = detect_passes(prev, new, table1_params)
    assert counts.tolist() == [[1, 0]]  # the slower vehicle was passed


def test_detect_passes_excludes_lane_changers(table1_params):
    # The adjacent vehicle overtakes during the step but also changes lanes;
    # its lane identity mid-step is ambiguous, so no pass is credited.
    prev = make_state([100.0], [99.9], table1_params)
    new = make_state([100.5], [100.6], table1_params)
    new.lanes[0, 1] = 0
    assert np.all(detect_passes(prev, new, table1_params) == 0)
    # And a changer receives no credit either.
    prev2 = make_state([99.9], [100.0], table1_params)
    new2 = make_state([100.6], [100.5], table1_params)
    new2.lanes[0, 0] = 1
    assert np.all(detect_passes(prev2, new2, table1_params) == 0)


def test_detect_passes_counts_long_steps_exactly():
    p = ModelParams(track_length=100.0)
    prev = make_state([50.0], [40.0], p)  # passer 10 m behind the receiver
    ahead = make_state([50.0], [70.0], p)  # 20 m ahead after one step
    assert detect_passes(prev, ahead, p).tolist() == [[1, 0]]
    lapped = make_state([50.0], [260.0], p)  # 210 m ahead: passed three times
    assert detect_passes(prev, lapped, p).tolist() == [[3, 0]]
    # Dropping back through the antipode, from 45 m behind to 55 m behind, is no pass.
    dropped = detect_passes(make_state([50.0], [5.0], p), make_state([50.0], [-5.0], p), p)
    assert dropped.tolist() == [[0, 0]]


def all_pairs_passes(prev_pos, new_pos, lanes, excluded, track_length):
    """Every adjacent-lane pair of one run through the pass expression: the
    reference that the windowed count must equal."""
    counts = np.zeros(len(prev_pos), dtype=np.int64)
    for lane in (0, 1):
        receivers = np.flatnonzero((lanes == lane) & ~excluded)
        passers = np.flatnonzero((lanes == 1 - lane) & ~excluded)
        if receivers.size == 0 or passers.size == 0:
            continue
        crossed = ring_crossings(
            new_pos[receivers][:, None] - new_pos[passers][None, :],
            prev_pos[receivers][:, None] - prev_pos[passers][None, :],
            track_length,
        )
        counts[receivers] = np.maximum(crossed, 0.0).sum(axis=1)
    return counts


def random_step(rng, n, reach, length):
    """Start and end positions of one row, drawn to hit the pass count's edges."""
    kind = rng.integers(4)
    if kind == 0:  # a 25 m grid puts offsets exactly on multiples of the track length
        prev = 25.0 * rng.integers(-12, 12, n)
        new = prev + 25.0 * rng.integers(-math.ceil(reach / 25), math.ceil(reach / 25) + 1, n)
        return prev, new
    if kind == 1:  # duplicates whole laps apart share a wrapped position
        prev = rng.uniform(0.0, length, n)
        twin = rng.integers(0, n, n)
        prev = np.where(rng.random(n) < 0.5, prev[twin] + length * rng.integers(-3, 4, n), prev)
    elif kind == 2:  # pairs side by side or 1e-13 m apart
        prev = rng.uniform(-300.0, 300.0, n)
        twin = rng.integers(0, n, n)
        prev = np.where(rng.random(n) < 0.5, prev[twin] + rng.choice([-1e-13, 0.0, 1e-13], n), prev)
    else:
        prev = rng.uniform(-300.0, 300.0, n)
    return prev, prev + rng.uniform(-reach, reach, n)  # forward and backward moves


def test_count_passes_matches_per_pair_reference():
    rng = np.random.default_rng(11)
    length = 100.0
    for trial in range(200):
        n = int(rng.integers(2, 10))
        if trial % 2:
            prev = rng.uniform(-300.0, 300.0, n)
            new = prev + rng.uniform(-250.0, 250.0, n)
        else:  # a 25 m grid puts offsets exactly on multiples of the track length
            prev = 25.0 * rng.integers(-12, 12, n)
            new = prev + 25.0 * rng.integers(-10, 10, n)
        lanes = rng.integers(0, 2, n).astype(np.int8)
        excluded = rng.random(n) < 0.2
        expected = np.zeros(n, dtype=np.int64)
        for i in range(n):
            for j in range(n):
                if lanes[i] == lanes[j] or excluded[i] or excluded[j]:
                    continue
                # passes: multiples of L in [before, after) of j's offset ahead of i
                before, after = prev[j] - prev[i], new[j] - new[i]
                expected[i] += max(0, math.ceil(after / length) - math.ceil(before / length))
        prev, new, lanes, excluded = (a[None] for a in (prev, new, lanes, excluded))
        counts = _count_passes(prev, new, lanes, excluded, length, ring_of(prev, length))
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, expected[None])
    # Batches of rows, each against the all-pairs count, with moves up to a
    # few metres, past half the ring and past a whole lap.
    for reach in (2.0, 30.0, 75.0, 250.0):
        for _ in range(300):
            rows, n = int(rng.integers(1, 7)), int(rng.integers(2, 12))
            steps = [random_step(rng, n, reach, length) for _ in range(rows)]
            prev, new = map(np.array, zip(*steps))
            lanes = rng.integers(0, 2, (rows, n)).astype(np.int8)
            excluded = rng.random((rows, n)) < 0.1
            counts = _count_passes(prev, new, lanes, excluded, length, ring_of(prev, length))
            assert counts.dtype == np.int64
            for r in range(rows):
                expected = all_pairs_passes(prev[r], new[r], lanes[r], excluded[r], length)
                np.testing.assert_array_equal(counts[r], expected)


def oracle_own_headways(positions_ref, lanes, track_length):
    """In-lane headways from a lane-then-position sort of each row: the
    reference that the one-sort kernel must equal."""
    shape = positions_ref.shape
    positions_ref, lanes = positions_ref.reshape(-1, shape[-1]), lanes.reshape(-1, shape[-1])
    rows, n = positions_ref.shape
    wrapped = positions_ref % track_length
    order = np.lexsort((wrapped, lanes), axis=-1)  # stable: lane, then position
    row = np.arange(rows)[:, None]
    x, lane = wrapped[row, order], lanes[row, order]
    # Sorted lane 0 fills columns [0, n0) of a row and lane 1 fills [n0, n).
    n1 = lane.sum(axis=1, keepdims=True)
    n0 = n - n1
    first = lane * n0
    last = n0 - 1 + lane * n1
    column = np.arange(n)
    wraps = column == last  # the lane's leader is its first vehicle, a lap ahead
    lead = x[row, np.where(wraps, first, column + 1)]
    h = (lead + track_length * wraps) - x
    h[first == last] = track_length
    out = np.empty_like(h)
    out[row, order] = h
    return out.reshape(shape)


def oracle_adjacent_headways(positions_ref, lanes, track_length):
    """Other-lane headways from a position sort of each row: the reference
    that the one-sort kernel must equal."""
    shape = positions_ref.shape
    positions_ref, lanes = positions_ref.reshape(-1, shape[-1]), lanes.reshape(-1, shape[-1])
    rows, n = positions_ref.shape
    wrapped = positions_ref % track_length
    order = np.argsort(wrapped, axis=1, kind="stable")
    row = np.arange(rows)[:, None]
    x = wrapped[row, order]
    lane = lanes[row, order]
    lane = np.concatenate([lane, lane], axis=1)  # the sorted row, then its image a lap on
    column = np.arange(1, 2 * n + 1)
    # switch[r, c]: the first column after c in the other lane than c's (2n if none).
    switch = np.full((rows, 2 * n), 2 * n)
    switch[:, :-1] = np.where(lane[:, 1:] != lane[:, :-1], column[:-1], 2 * n)
    switch = np.minimum.accumulate(switch[:, ::-1], axis=1)[:, ::-1]
    # past[r, j]: the first column after j's run of equal positions.
    past = column[:n]
    tied = x[:, 1:] == x[:, :-1]
    if tied.any():
        past = np.full((rows, n), n)
        past[:, :-1] = np.where(tied, n, column[: n - 1])
        past = np.minimum.accumulate(past[:, ::-1], axis=1)[:, ::-1]
    nearest = np.where(lane[row, past] != lane[:, :n], past, switch[row, past])
    gap = (x[row, nearest % n] - x) % track_length
    gap[gap == 0.0] = track_length
    gap[nearest == 2 * n] = np.inf
    out = np.empty_like(gap)
    out[row, order] = gap
    return out.reshape(shape)


def random_fleet(rng, rows, n, length):
    """Positions and lanes of a batch, drawn to hit the perception's edges."""
    kind = rng.integers(4)
    positions = rng.uniform(-3 * length, 3 * length, (rows, n))
    if kind == 0:  # a 25 m grid puts vehicles exactly on top of each other
        positions = 25.0 * rng.integers(-12, 12, (rows, n))
    elif kind in (1, 2):
        twin = positions[np.arange(rows)[:, None], rng.integers(0, n, (rows, n))]
        if kind == 1:  # duplicates whole laps apart share a wrapped position
            twin = twin + length * rng.integers(-3, 4, (rows, n))
        else:  # side by side, or 1e-13 m apart
            twin = twin + rng.choice([-1e-13, 0.0, 0.0, 1e-13], (rows, n))
        positions = np.where(rng.random((rows, n)) < 0.5, twin, positions)
    lanes = rng.integers(0, 2, (rows, n)).astype(np.int8)
    pattern = rng.integers(3)
    if pattern == 1:  # the other lane empty
        lanes[:] = rng.integers(0, 2)
    elif pattern == 2:  # one vehicle alone in its lane
        lanes[:] = rng.integers(0, 2)
        lanes[np.arange(rows), rng.integers(0, n, rows)] ^= 1
    return positions, lanes


def test_perceived_headways_match_the_two_sort_references():
    rng = np.random.default_rng(8)
    lone = empty = 0
    for length in (100.0, 1000.0):
        for _ in range(1500):
            rows, n = int(rng.integers(1, 7)), int(rng.integers(1, 12))
            positions, lanes = random_fleet(rng, rows, n, length)
            own = own_headways(positions, lanes, length)
            adj = adjacent_headways(positions, lanes, length)
            expected_own = oracle_own_headways(positions, lanes, length)
            expected_adj = oracle_adjacent_headways(positions, lanes, length)
            assert own.tobytes() == expected_own.tobytes()
            assert adj.tobytes() == expected_adj.tobytes()
            in_lane1 = lanes.sum(axis=1)
            lone += np.count_nonzero((in_lane1 == 1) | (in_lane1 == n - 1))
            empty += np.count_nonzero((in_lane1 == 0) | (in_lane1 == n))
            assert own_headways(positions[0], lanes[0], length).tobytes() == own[0].tobytes()
            assert adjacent_headways(positions[0], lanes[0], length).tobytes() == adj[0].tobytes()
    assert lone > 1000 and empty > 1000
    # Alone in its lane, a vehicle gets exactly L even where (x + L) - x is not L.
    x = np.array([[0.1 + 0.2, 500.0], [123.456, 987.654321]])
    lanes = np.array([[0, 1], [1, 0]], dtype=np.int8)
    assert ((x + 1000.0) - x != 1000.0).any()
    own = own_headways(x, lanes, 1000.0)
    np.testing.assert_array_equal(own, 1000.0)
    np.testing.assert_array_equal(oracle_own_headways(x, lanes, 1000.0), 1000.0)


def ring_kernel_headways(positions, lanes, length):
    """The ring-order kernel as the step runs it, put back in vehicle order:
    on every row of the batch at once, and on each row's ring alone, as a
    replay runs it."""
    ring = _Ring.of(positions, length)
    lane = ring.sort(lanes)
    whole = [ring.unsort(h) for h in _perceive(ring, lane, length)]
    by_row = [np.empty_like(h) for h in whole]
    for r in range(len(positions)):
        for out, h in zip(by_row, _perceive(ring.rows(r), lane[r : r + 1], length)):
            out[r, ring.order[r]] = h[0]
    return whole, by_row


def edge_fleet(length):
    """One batch: ties (side by side, and a lap apart), lane 1 empty, lane 0
    empty, a vehicle alone in lane 1, one alone in lane 0 tied with a vehicle
    of lane 1 (both where (x + L) - x is not L), and one at a position that
    wraps to exactly L."""
    positions = np.array(
        [
            [0.0, 0.0, 250.0, 250.0 + length, 500.0, 500.0 - 2 * length, 750.0, 750.0],
            [10.0, 130.0, 260.0, 390.0, 520.0, 650.0, 780.0, 910.0],
            [10.0, 130.0, 260.0, 390.0, 520.0, 650.0, 780.0, 910.0],
            [10.0, 130.0, 260.0, 100.111, 520.0, 650.0, 780.0, 910.0],
            [123.456, 123.456, 0.0, 100.0, 600.0, 700.0, 800.0, 900.0],
            [-1e-17, 0.0, 100.0, 200.0, 300.0, 400.0, 500.0, 999.0],
        ]
    )
    lanes = np.array(
        [
            [0, 1, 0, 1, 1, 0, 0, 1],
            [0, 0, 0, 0, 0, 0, 0, 0],
            [1, 1, 1, 1, 1, 1, 1, 1],
            [0, 0, 0, 1, 0, 0, 0, 0],
            [0, 1, 1, 1, 1, 1, 1, 1],
            [0, 1, 0, 1, 0, 1, 0, 1],
        ],
        dtype=np.int8,
    )
    return positions, lanes


def test_ring_order_kernel_matches_perceived_headways_at_the_edges():
    length = 1000.0
    positions, lanes = edge_fleet(length)
    assert positions[5, 0] % length == length
    assert ((positions[[3, 4], [3, 0]] + length) - positions[[3, 4], [3, 0]] != length).all()
    own = own_headways(positions, lanes, length)
    adj = adjacent_headways(positions, lanes, length)
    assert own.tobytes() == oracle_own_headways(positions, lanes, length).tobytes()
    assert adj.tobytes() == oracle_adjacent_headways(positions, lanes, length).tobytes()
    whole, by_row = ring_kernel_headways(positions, lanes, length)
    for kernel in (whole, by_row):
        assert kernel[0].tobytes() == own.tobytes()
        assert kernel[1].tobytes() == adj.tobytes()
    for r in range(len(positions)):
        assert own_headways(positions[r], lanes[r], length).tobytes() == own[r].tobytes()
        assert adjacent_headways(positions[r], lanes[r], length).tobytes() == adj[r].tobytes()
    assert np.all(adj[1] == np.inf) and np.all(adj[2] == np.inf)
    assert own[3, 3] == length and own[4, 0] == length
    assert adj[0, 0] == 250.0  # the side-by-side vehicle is not ahead
    # Fleets of one and two vehicles, mixed batches of random rows.
    for positions, lanes in (
        (np.array([[5.0]]), np.array([[1]], dtype=np.int8)),
        (np.array([[5.0, 5.0]]), np.array([[0, 1]], dtype=np.int8)),
        (np.array([[5.0, 5.0 + length]]), np.array([[1, 1]], dtype=np.int8)),
    ):
        whole, by_row = ring_kernel_headways(positions, lanes, length)
        own = own_headways(positions, lanes, length)
        adj = adjacent_headways(positions, lanes, length)
        for kernel in (whole, by_row):
            assert kernel[0].tobytes() == own.tobytes()
            assert kernel[1].tobytes() == adj.tobytes()
    rng = np.random.default_rng(18)
    for _ in range(300):
        rows, n = int(rng.integers(2, 7)), int(rng.integers(1, 12))
        positions, lanes = random_fleet(rng, rows, n, length)
        whole, by_row = ring_kernel_headways(positions, lanes, length)
        own = own_headways(positions, lanes, length)
        adj = adjacent_headways(positions, lanes, length)
        for kernel in (whole, by_row):
            assert kernel[0].tobytes() == own.tobytes()
            assert kernel[1].tobytes() == adj.tobytes()


def test_local_update_matches_a_fresh_perception_after_one_change():
    # After every single flip of every row of the edge batch and of random
    # batches, the local update recomputes every column whose headways moved,
    # bit for bit as the row's fresh perception has them, or declines where a
    # lane now holds only the changer or none.
    length = 1000.0
    rng = np.random.default_rng(20)
    batches = [edge_fleet(length)]
    for trial in range(300):
        n = (2, 3)[trial % 2] if trial % 3 == 0 else int(rng.integers(2, 12))
        batches.append(random_fleet(rng, int(rng.integers(2, 7)), n, length))
    declined = updated = tied = 0
    for positions, lanes in batches:
        rows, n = positions.shape
        ring = _Ring.of(positions, length)
        lane = ring.sort(lanes)
        for r in range(rows):
            near = ring.rows(r)
            past = None if near.past is None else near.past[0]
            before = _perceive(near, lane[r : r + 1], length)
            for c in range(n):
                flipped = lane[r].copy()
                flipped[c] ^= 1
                own, adj = (h[0] for h in _perceive(near, flipped[None], length))
                update = _perceive_change(near.x[0], past, flipped, c, length)
                if update is None:
                    joined = np.count_nonzero(flipped == flipped[c])
                    assert joined == 1 or joined == n
                    declined += 1
                    continue
                columns, own_local, adj_local = update
                assert len(set(columns)) == len(columns)
                moved = (own != before[0][0]) | (adj != before[1][0])
                assert set(np.flatnonzero(moved)) <= set(columns)
                assert np.array(own_local).tobytes() == own[columns].tobytes()
                assert np.array(adj_local).tobytes() == adj[columns].tobytes()
                updated += 1
                tied += past is not None and past[c] != c + 1
    assert declined > 1000 and updated > 3000 and tied > 400


def test_two_lane_step_zero_frustration_matches_single_lane(table1_params):
    lp = LaneChangeParams(r=0.0, p=0.0, rng_seed=5)
    state = init_two_lane(table1_params, 25, 25, stagger=20.0)
    draw = np.random.default_rng(5).random((1, 50))
    outcome = two_lane_step(state, state.positions, lp, table1_params, 0.05, draw)
    assert outcome.events == [[]]
    # each lane advanced exactly as an isolated 25-vehicle ring would
    single = run_single_lane(table1_params, 25, 0.0, 0.05, 0.05)
    lane0 = state.positions[state.lanes == 0]
    np.testing.assert_allclose(lane0, single.positions[-1], atol=1e-12)
    lane1 = state.positions[state.lanes == 1]
    np.testing.assert_allclose(lane1, single.positions[-1] + 20.0, atol=1e-12)


def test_two_lane_step_needs_one_variate_per_vehicle(table1_params):
    lp = LaneChangeParams(r=0.1, p=0.2)
    one = init_two_lane(table1_params, 25, 25, stagger=20.0)
    arrays = (one.positions, one.lanes, one.phis, one.lambdas)
    rows = TwoLaneState(*(np.repeat(a, 2, axis=0) for a in arrays))
    u = np.random.default_rng(1).random((2, 50))
    for draw in (u[0], u[:1], u[:, :49], u.T):
        with pytest.raises(ParameterError, match="variates"):
            two_lane_step(rows, rows.positions, lp, table1_params, 0.05, draw)
    with pytest.raises(ParameterError, match="perceived positions"):
        two_lane_step(rows, rows.positions[0], lp, table1_params, 0.05, u)
    assert rows.time == 0.0 and not rows.phis.any()  # nothing stepped
    # A state of one run, (N,) arrays, is no batch.
    flat = one_run(one)
    with pytest.raises(ParameterError, match=r"\(R, N\) rows, got shape \(50,\)"):
        two_lane_step(flat, flat.positions, lp, table1_params, 0.05, u[0])
    assert flat.time == 0.0 and not flat.phis.any()


def test_two_lane_step_applies_frustration_law(table1_params):
    lp = LaneChangeParams(r=0.1, p=0.2, rng_seed=3)
    state = init_two_lane(table1_params, 30, 20, stagger=7.0)
    state.phis = np.linspace(0.0, 0.02, 50)[None]  # small enough that nobody attempts
    state.pending_passes[0, [4, 33]] = 1
    lanes = state.lanes.copy()
    length = table1_params.track_length
    expected, _ = frustration_law(
        state.phis[0],
        own_headways(state.positions[0], state.lanes[0], length),
        adjacent_headways(state.positions[0], state.lanes[0], length),
        state.pending_passes[0],
        lp.r,
        lp.p,
        0.05,
    )
    draw = np.random.default_rng(3).random((1, 50))
    two_lane_step(state, state.positions, lp, table1_params, 0.05, draw)
    assert np.array_equal(state.lanes, lanes)
    np.testing.assert_array_equal(state.phis, expected[None])


def test_staggered_equilibrium_executes_no_changes(table1_params):
    lp = LaneChangeParams(r=0.1, p=0.1, rng_seed=123)
    record = run_two_lane(
        table1_params, lp, n_lane0=25, n_lane1=25, stagger=20.0, dt=0.05, t_end=60.0
    )
    assert record.events == []
    assert np.all(record.phis == 0.0)
    assert record.termination_reason == "completed"


def test_load_balancing_populates_empty_lane(table1_params):
    lp = LaneChangeParams(r=0.1, p=0.2, rng_seed=42)
    record = run_two_lane(table1_params, lp, n_lane0=50, dt=0.05, t_end=40.0)
    imbalance = lane_imbalance(record.lanes)
    assert imbalance[0] == 50
    assert imbalance[-1] < 20  # both lanes populated within tens of seconds
    assert any(e.kind == "lane_change" for e in record.events)


def test_vehicle_count_conserved_and_phi_nonnegative(table1_params):
    lp = LaneChangeParams(r=0.1, p=0.2, rng_seed=9)
    record = run_two_lane(table1_params, lp, n_lane0=50, dt=0.05, t_end=30.0)
    counts = (record.lanes == 0).sum(axis=1) + (record.lanes == 1).sum(axis=1)
    assert np.all(counts == 50)
    assert np.all(record.phis >= 0.0)


def test_phi_resets_after_each_change(table1_params):
    lp = LaneChangeParams(r=0.1, p=0.2, rng_seed=31)
    record = run_two_lane(table1_params, lp, n_lane0=50, dt=0.05, t_end=30.0)
    changes = [e for e in record.events if e.kind == "lane_change"]
    assert changes
    times = record.times.tolist()
    for event in changes[:50]:
        s = times.index(event.time)
        assert record.phis[s, event.vehicle] == 0.0
        assert event.phi_before > 0.0


def test_executed_changes_respect_safety_margin(table1_params):
    lp = LaneChangeParams(r=0.1, p=0.2, rng_seed=17)
    record = run_two_lane(table1_params, lp, n_lane0=50, dt=0.05, t_end=30.0)
    length = table1_params.track_length
    for s in range(1, len(record.times)):
        moved = np.flatnonzero(record.lanes[s] != record.lanes[s - 1])
        if moved.size == 0:
            continue
        h = own_headways(record.positions[s], record.lanes[s], length)
        for vehicle in moved:
            # the changer and its new follower both keep at least the gap d
            assert h[vehicle] >= table1_params.d_min - 1e-9
            same_lane = np.flatnonzero(record.lanes[s] == record.lanes[s, vehicle])
            others = same_lane[same_lane != vehicle]
            if others.size:
                behind = (record.positions[s, vehicle] - record.positions[s, others]) % length
                assert behind.min() >= table1_params.d_min - 1e-9


def test_record_stride_keeps_every_stride_and_the_last_state(table1_params):
    dt, stride = 0.05, 3
    lp = LaneChangeParams(r=0.0, p=0.0)
    completed = run_two_lane(table1_params, lp, n_lane0=50, dt=dt, t_end=0.5, record_stride=stride)
    # Under a 0.75 s delay, vehicle 0 with three times the rate runs into its leader.
    crashed = run_two_lane(
        table1_params, lp, n_lane0=50, delay=0.75, dt=dt, t_end=200.05,
        lambda_overrides={0: 3.0}, record_stride=stride,
    )
    assert completed.termination_reason == "completed"
    assert crashed.termination_reason == "collision"
    for record in (completed, crashed):
        last = round(record.termination_time / dt)
        assert last % stride != 0
        steps = [*range(0, last, stride), last]
        assert len(steps) == math.ceil(last / stride) + 1
        np.testing.assert_allclose(record.times, [s * dt for s in steps], rtol=0, atol=1e-9)
        for series in (record.positions, record.velocities, record.lanes, record.phis):
            assert series.shape == (len(steps), 50)
        assert record.lanes.dtype == np.int8


def test_seeded_runs_are_bit_reproducible(table1_params):
    lp = LaneChangeParams(r=0.1, p=0.2, rng_seed=77)
    a = run_two_lane(table1_params, lp, n_lane0=50, dt=0.05, t_end=20.0)
    b = run_two_lane(table1_params, lp, n_lane0=50, dt=0.05, t_end=20.0)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.phis, b.phis)
    assert np.array_equal(a.lanes, b.lanes)
    assert a.events == b.events
    different = run_two_lane(
        table1_params, LaneChangeParams(r=0.1, p=0.2, rng_seed=78),
        n_lane0=50, dt=0.05, t_end=20.0,
    )
    assert not np.array_equal(a.lanes, different.lanes)


@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("delay", [0.0, 0.05, 0.75])
def test_lockstep_rows_equal_runs_one_at_a_time(table1_params, stride, delay):
    # Vehicle 0 at three times the rate crashes seeds 1 (4.75 s) and 7 (5.05 s)
    # under a 0.75 s delay, and no seed under none or one of dt, where the
    # runner perceives the state's own positions or those of the step before.
    crashed = {1: 4.75, 7: 5.05} if delay == 0.75 else {}
    lp = LaneChangeParams(r=0.5, p=1.0)
    run = dict(
        n_lane0=25, n_lane1=25, stagger=20.0, delay=delay, dt=0.05, t_end=60.0,
        lambda_overrides={0: 3.0}, record_stride=stride,
    )
    seeds = list(range(1, 9))
    samples, ends = run_lockstep(table1_params, lp, seeds, sink=_Samples, **run)
    reasons = {}
    for r, (seed, end) in enumerate(zip(seeds, ends)):
        alone = run_two_lane(table1_params, LaneChangeParams(r=0.5, p=1.0, rng_seed=seed), **run)
        k = end.samples
        np.testing.assert_array_equal(samples.times[r, :k], alone.times)
        np.testing.assert_array_equal(samples.positions[r, :k], alone.positions)
        np.testing.assert_array_equal(samples.velocities[r, :k], alone.velocities)
        np.testing.assert_array_equal(samples.lanes[r, :k], alone.lanes)
        np.testing.assert_array_equal(samples.phis[r, :k], alone.phis)
        assert end.events == alone.events
        assert end.collisions == alone.collisions
        assert (end.reason, end.time) == (alone.termination_reason, alone.termination_time)
        reasons[seed] = (end.reason, end.time)
    assert reasons == {
        s: ("collision", crashed[s]) if s in crashed else ("completed", 60.0) for s in seeds
    }


def test_lockstep_at_delay_0_perceives_the_states_own_positions(table1_params, monkeypatch):
    # From the level fleet, seed 37 collides in the first step (neither level
    # vehicle changes lanes) and the other seven rows run on.  At delay 0
    # every step, after the collision too, is handed the state's own
    # positions as the perceived ones, so it keeps one ring.
    from ringtraffic import lane_change

    p, lp, dt = table1_params, LaneChangeParams(r=0.5, p=1.0), 0.05
    step, handed = lane_change.two_lane_step, []

    def recording(state, perceived, *args):
        handed.append(perceived is state.positions)
        return step(state, perceived, *args)

    monkeypatch.setattr(lane_change, "init_two_lane", lambda *args, **kwargs: level_fleet(p))
    monkeypatch.setattr(lane_change, "two_lane_step", recording)
    seeds = range(31, 39)
    _, ends = run_lockstep(p, lp, seeds, n_lane0=50, dt=dt, t_end=7.0, sink=_Samples)
    collided = [(s, end.time) for s, end in zip(seeds, ends) if end.reason == TERMINATED_COLLISION]
    assert collided == [(37, 0.0)]
    assert len(handed) == round(7.0 / dt) and all(handed)


def side_by_side_fleet(p):
    """25 vehicles per lane, 40 m apart, every other lane-1 vehicle exactly
    beside one of lane 0 and the rest 20 m on; frustrated drivers, and
    vehicle 0 at three times the rate."""
    k = np.arange(25)
    lambdas = np.full((1, 50), p.lambda_rate)
    lambdas[0, 0] = 3.0
    return TwoLaneState(
        positions=np.concatenate([40.0 * k, 40.0 * k + np.where(k % 2 == 0, 0.0, 20.0)])[None],
        lanes=np.repeat(np.array([[0, 1]], dtype=np.int8), 25, axis=1),
        phis=np.random.default_rng(0).uniform(0.0, 3.0, (1, 50)),
        lambdas=lambdas,
    )


def lane_0_fleet(p):
    """The load-balance start: 50 vehicles in lane 0 and lane 1 empty, so
    every vehicle first sees an infinite other-lane headway."""
    return init_two_lane(p, 50)


def lone_lane_1_fleet(p):
    """49 vehicles in lane 0 and one in lane 1, midway between two of them and
    frustrated enough to change at once, which empties lane 1; the others
    start calm, so the next change moves into the empty lane."""
    state = init_two_lane(p, 49, 1, stagger=p.track_length / 98)
    state.phis[0, -1] = 1e6
    return state


def level_fleet(p):
    """The side-by-side layout with vehicle 25 of lane 0 level with vehicle 0
    of the same lane, both frustrated enough to change at once: where one
    does, it is level with a vehicle of the other lane, in one run of equal
    positions; where neither does, the row collides."""
    k = np.arange(25)
    phis = np.random.default_rng(1).uniform(0.0, 3.0, (1, 50))
    phis[0, [0, 25]] = 1e6
    return TwoLaneState(
        positions=np.concatenate([40.0 * k, [0.0], 40.0 * k[:24] + 20.0])[None],
        lanes=np.repeat(np.array([[0, 1]], dtype=np.int8), [26, 24], axis=1),
        phis=phis,
        lambdas=np.full((1, 50), p.lambda_rate),
    )


def fleet_of_3(p):
    """Two vehicles in lane 0 and one in lane 1, 250 m apart and frustrated:
    most changes empty a lane or move into an empty one."""
    state = init_two_lane(p, 2, 1, stagger=250.0)
    state.phis[:] = 2.0
    return state


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# Fleet, lane-change parameters, seeds and the rows collided by delay of each
# case.  The side-by-side fleet never has an empty lane; from lane 0 alone,
# the load-balance regime, most replays start from one.  The last three cases
# put a changer's local update at its edges: a change that empties a lane,
# a changer in a run of equal positions, and a fleet of three.
REFERENCE_CASES = {
    "one-run": (side_by_side_fleet, LaneChangeParams(r=0.5, p=1.0), [5], {0.0: 0, 0.75: 1}),
    "batch": (side_by_side_fleet, LaneChangeParams(r=0.5, p=1.0), [1, 2, 3, 4, 5, 6], {0.0: 0, 0.75: 6}),
    "lane-0": (lane_0_fleet, LaneChangeParams(r=0.1, p=0.2), list(range(11, 19)), {0.0: 0, 0.75: 8}),
    "lone-lane-1": (lone_lane_1_fleet, LaneChangeParams(r=0.5, p=1.0), list(range(21, 29)), {0.0: 0, 0.75: 8}),
    "level": (level_fleet, LaneChangeParams(r=0.5, p=1.0), list(range(31, 39)), {0.0: 1, 0.75: 8}),
    "fleet-of-3": (fleet_of_3, LaneChangeParams(r=0.5, p=1.0), list(range(41, 47)), {0.0: 0, 0.75: 0}),
}


def step_beside_the_reference(p, case, delay, variates, steps):
    """Step the fleet of a reference case, one row per seed, and each row's
    reference step beside it, bit for bit, dropping collided rows and
    perceiving the positions a delay ago as ``run_lockstep`` does.
    ``variates(r, ref, perceived)`` gives the variates of row ``r`` in scan
    order, from its reference state and perceived positions.  Checks that
    the step writes into neither array it is handed.  Returns the reference
    steps."""
    fleet, lp, seeds, _ = REFERENCE_CASES[case]
    dt = 0.05
    m = round(delay / dt)
    one = fleet(p)
    arrays = (one.positions, one.lanes, one.phis, one.lambdas)
    state = TwoLaneState(*(np.repeat(a, len(seeds), axis=0) for a in arrays))
    recent = [state.positions] * (m + 1)  # the batch's last m + 1 positions, oldest first
    refs = [one_run(one) for _ in seeds]
    ref_recent = [[ref.positions] * (m + 1) for ref in refs]
    live = list(range(len(seeds)))
    taken = []
    for _ in range(steps):
        perceived = [ref_recent[r][0] for r in live]
        draw = np.array([variates(r, refs[r], x) for r, x in zip(live, perceived)])
        before, seen, lanes = state.positions, recent[0], state.lanes.copy()
        kept = before.copy(), seen.copy()
        outcome = two_lane_step(state, seen, lp, p, dt, draw)
        assert same_bits(before, kept[0]) and same_bits(seen, kept[1])
        recent = recent[1:] + [state.positions]
        crashed = []
        for i, r in enumerate(live):
            ref = reference_step(refs[r], perceived[i], lp, p, dt, draw[i])
            assert same_bits(before[i], refs[r].positions)
            assert same_bits(outcome.velocities[i], ref.velocities)
            assert same_bits(lanes[i] != state.lanes[i], ref.changed)
            assert outcome.events[i] == ref.events
            assert outcome.collisions[i] == ref.collisions
            for name in ("positions", "lanes", "phis", "pending_passes"):
                assert same_bits(getattr(state, name)[i], getattr(ref.state, name)), name
            if not ref.collisions:
                assert state.time == ref.state.time
                ref_recent[r] = ref_recent[r][1:] + [ref.state.positions]
            refs[r] = ref.state
            taken.append(ref)
            crashed.append(bool(ref.collisions))
        if any(crashed):
            survivors = ~np.array(crashed)
            state = state.rows(survivors)
            recent = [x[survivors] for x in recent[:-1]] + [state.positions]
            live = [r for r, hit in zip(live, crashed) if not hit]
            if not live:
                break
    return taken


@pytest.mark.parametrize("delay", [0.0, 0.75])
@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_two_lane_step_matches_the_reference_step(table1_params, delay, case):
    # Bit for bit against the step written out from the standalone kernels.
    # Under the delay every side-by-side row collides within 4.3 s (seed 5
    # first, at 0.8 s), and p = 1 makes several changes in one row's step.
    # From lane 0 alone, every row changes lanes 7 to 27 times under the
    # delay before it collides (2.25 to 5.05 s), and about 240 times in all
    # over the 7 s without it.
    _, _, seeds, expected_collided = REFERENCE_CASES[case]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    taken = step_beside_the_reference(
        table1_params, case, delay, lambda r, ref, seen: rngs[r].random(len(ref.positions)), 140
    )
    assert max(int(ref.changed.sum()) for ref in taken) >= 2
    assert sum(bool(ref.collisions) for ref in taken) == expected_collided[delay]
    # Steps with passes and with collisions leave the arrays they were handed
    # as they were.  In the fleet of three, everyone near top speed, nobody
    # is passed.
    assert any(ref.state.pending_passes.any() for ref in taken) == (case != "fleet-of-3")


@pytest.mark.parametrize("variate", ["zero", "probability", "below", "top"])
@pytest.mark.parametrize("delay", [0.0, 0.75])
@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_two_lane_step_matches_the_reference_at_crafted_variates(table1_params, delay, case, variate):
    # Variates of 0 make every vehicle with a positive probability attempt,
    # and nextafter(1, 0) none.  A variate equal to the vehicle's attempt
    # probability from the step's first perception is no attempt (the test
    # is u < prob); the float below it is one, which in turn moves the
    # probabilities of vehicles scanned later.
    p, dt = table1_params, 0.05
    lp = REFERENCE_CASES[case][1]

    def variates(r, ref, seen):
        if variate == "zero":
            return np.zeros(len(ref.positions))
        if variate == "top":
            return np.full(len(ref.positions), np.nextafter(1.0, 0.0))
        prob = perceive(ref, ref.lanes, seen, lp, p, dt)[2][scan_order(ref, p)]
        return prob if variate == "probability" else np.nextafter(prob, 0.0)

    taken = step_beside_the_reference(p, case, delay, variates, 30)
    attempts = sum(ref.attempts for ref in taken)
    if variate in ("probability", "top"):
        assert attempts == 0
        assert not any(ref.changed.any() for ref in taken)
    else:
        assert sum(int(ref.changed.sum()) for ref in taken) > 0


def test_tracer_counters_read_the_step_truthfully(table1_params, monkeypatch):
    # The benchmark's tracer counts lane_change.changes from True results of
    # safety_gap_check, its calls as attempts, and lane_change.passes from
    # the sum of _count_passes results.
    from ringtraffic import lane_change

    def record(name):
        """Wrap the step's callee ``name``; return the list of its results."""
        original, results = getattr(lane_change, name), []

        def recorded(*args, **kwargs):
            results.append(original(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(lane_change, name, recorded)
        return results

    checks, passes, scans = map(record, ("safety_gap_check", "_count_passes", "_scan_order"))
    p, dt, lp = table1_params, 0.05, LaneChangeParams(r=0.1, p=0.2)
    seeds, steps = [11, 12, 13], 300
    _, ends = run_lockstep(p, lp, seeds, n_lane0=50, dt=dt, t_end=steps * dt, sink=_Samples)
    events = [e for end in ends for e in end.events]
    attempts = 0
    for seed, end in zip(seeds, ends):
        # The reference draws each step's variates on their own, the lockstep
        # run in blocks of steps: the events must not tell them apart.
        state, g, ref_events = one_run(init_two_lane(p, 50)), np.random.default_rng(seed), []
        for _ in range(steps):
            step = reference_step(state, state.positions, lp, p, dt, g.random(50))
            attempts += step.attempts
            ref_events += step.events
            state = step.state
        assert end.events == ref_events
    assert len(scans) == steps
    assert len(checks) == attempts > sum(checks) > 0
    assert sum(checks) == sum(e.kind == "lane_change" for e in events)
    assert sum(int(c.sum()) for c in passes) == sum(e.kind == "pass" for e in events) > 0


@pytest.mark.parametrize("dt", [0.01, 0.05, 0.1])
def test_first_change_follows_the_exact_law(table1_params, dt):
    # From a lane-0 start with lane 1 empty, every attempt passes the safety
    # gap and nobody is passed before the first change.  So in step k = 1, 2,
    # ... every vehicle's frustration is k r dt (the ramp comes before the
    # draw) and it attempts with probability 1 - (1 - (2/pi) atan(k r dt))**dt.
    # A change in step k carries the step's start time (k - 1) dt, so
    # P(T1 > (k - 1) dt) = prod_{j <= k} (1 - (2/pi) atan(j r dt))**(N dt).
    n, r, t_end, seeds = 50, 0.1, 3.0, range(1000, 2000)
    steps = round(t_end / dt)
    _, ends = run_lockstep(
        table1_params, LaneChangeParams(r=r, p=0.2), seeds, n_lane0=n, dt=dt, t_end=t_end,
        record_stride=steps, sink=_Samples,
    )
    first = [next((e.time for e in end.events if e.kind == "lane_change"), t_end) for end in ends]
    assert max(first) < t_end  # every row changed lanes
    k = np.round(np.array(first) / dt).astype(int) + 1
    j = np.arange(1, steps + 1)
    law = 1.0 - np.cumprod((1.0 - 2.0 / math.pi * np.arctan(j * r * dt)) ** (n * dt))
    empirical = np.cumsum(np.bincount(k, minlength=steps + 1)[1:]) / len(seeds)
    # Both distributions live on the step times, so the largest gap between
    # them there is the Kolmogorov-Smirnov distance; 1.36 / sqrt(rows) is its
    # 5% critical value.
    assert np.abs(empirical - law).max() < 1.36 / math.sqrt(len(seeds))


def test_early_lane_one_fraction_follows_the_independent_law(table1_params):
    # From a lane-0 start, a vehicle that has not yet changed attempts in
    # step j with probability 1 - (1 - (2/pi) atan(j r dt))**dt while lane 1
    # is nearly empty.  Were the vehicles independent, the lane-1 fraction
    # after k steps would be f = 1 - prod_{j <= k} (1 - (2/pi) atan(j r dt))**dt.
    # That holds to about 1 s.  By 2 s the interaction between the vehicles
    # has taken over and the measured fraction is already below the law.
    n, r, dt, seeds = 50, 0.1, 0.05, range(2000, 2040)
    samples, ends = run_lockstep(
        table1_params, LaneChangeParams(r=r, p=0.2), seeds, n_lane0=n, dt=dt, t_end=2.0,
        record_stride=round(1.0 / dt), sink=_Samples,
    )
    assert all(end.reason != TERMINATED_COLLISION for end in ends)
    np.testing.assert_allclose(samples.times[0], [0.0, 1.0, 2.0])
    j = np.arange(1, round(2.0 / dt) + 1)
    law = 1.0 - np.cumprod((1.0 - 2.0 / math.pi * np.arctan(j * r * dt)) ** dt)[[19, 39]]
    fraction = samples.lanes[:, 1:].mean(axis=(0, 2))
    bound = 4.0 * np.sqrt(law * (1.0 - law) / (n * len(seeds)))  # four binomial standard errors
    assert law[0] == pytest.approx(0.0335, abs=5e-5)
    assert abs(fraction[0] - law[0]) < bound[0]  # at 1 s
    assert fraction[1] < law[1] + bound[1]  # at 2 s, only from above


@pytest.mark.parametrize("delay, collided", [(0.3, 0), (0.7, 16)])
def test_delayed_lane_changes_crash_on_one_side_of_the_boundary(table1_params, delay, collided):
    # A 35/15 split on seeds 100-115: no run collides at 0.3 s, every run at
    # 0.7 s.  Perception takes positions a delay ago but lanes as they are,
    # so a changer and its new leader can see each other in the wrong order.
    dt, t_end = 0.05, 300.0
    _, ends = run_lockstep(
        table1_params, LaneChangeParams(r=0.1, p=0.2), range(100, 116), n_lane0=35,
        n_lane1=15, delay=delay, dt=dt, t_end=t_end, record_stride=round(t_end / dt),
        sink=_Samples,
    )
    assert sum(end.reason == TERMINATED_COLLISION for end in ends) == collided


def test_a_delayed_crash_follows_an_order_reversal(table1_params):
    # Seed 101, 35/15, delay 0.5 s: vehicle 21 changes into lane 1 8.705 m
    # behind vehicle 43, past d_min on true positions.  A delay earlier,
    # though, it was 5.806 m ahead of 43, so 43 perceives it just ahead and
    # stops, while 21 perceives its own leader far ahead.  Three steps later
    # 21 hits 43.
    delay, length = 0.5, table1_params.track_length
    record = run_two_lane(
        table1_params, LaneChangeParams(r=0.1, p=0.2, rng_seed=101), 35, 15, delay=delay, dt=0.05,
        t_end=300.0,
    )

    def gap_ahead(t, follower, leader):
        (s,) = np.flatnonzero(np.isclose(record.times, t))
        x = record.positions[s]
        return (x[leader] - x[follower]) % length

    change = [(e.time, e.from_lane, e.to_lane) for e in record.events if e.kind == "lane_change" and e.vehicle == 21]
    assert change[-1] == pytest.approx((12.40, 0, 1))
    assert gap_ahead(12.40, 21, 43) == pytest.approx(8.705, abs=1e-3)
    assert gap_ahead(12.40 - delay, 43, 21) == pytest.approx(5.806, abs=1e-3)
    after = record.times >= 12.40 - 1e-9
    assert np.all(record.velocities[after, 43] == 0.0)
    assert np.all(record.velocities[after, 21] > 35.0)
    (crash,) = record.collisions
    assert (crash.time, crash.follower_index) == (pytest.approx(12.55), 21)
    assert crash.headway_at_collision == pytest.approx(3.394, abs=1e-3)
    assert gap_ahead(12.55, 21, 43) == crash.headway_at_collision


def test_lane_change_params_validation():
    with pytest.raises(ParameterError):
        LaneChangeParams(r=-0.1, p=0.2)
    with pytest.raises(ParameterError):
        LaneChangeParams(r=0.1, p=-0.2)
