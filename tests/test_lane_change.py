import math

import numpy as np
import pytest

from ringtraffic import (
    HistoryBuffer,
    LaneChangeParams,
    TwoLaneState,
    adjacent_headways,
    attempt_probability,
    detect_passes,
    frustration_update,
    init_two_lane,
    per_step_attempt_probability,
    run_single_lane,
    run_two_lane,
    safety_gap_check,
    two_lane_step,
)
from ringtraffic.errors import ParameterError
from ringtraffic.lane_change import own_headways
from ringtraffic.metrics import lane_imbalance_series


def make_state(positions0, positions1, p, phis=None, lambdas=None):
    positions = np.array(list(positions0) + list(positions1), dtype=float)
    lanes = np.array([0] * len(positions0) + [1] * len(positions1), dtype=np.int8)
    n = len(positions)
    return TwoLaneState(
        positions=positions,
        lanes=lanes,
        phis=np.zeros(n) if phis is None else np.asarray(phis, dtype=float),
        lambdas=np.full(n, p.lambda_rate) if lambdas is None else np.asarray(lambdas),
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
    assert adjacent(state, table1_params)[0] == pytest.approx(50.0)
    # alone side-by-side: the next vehicle ahead is the image one lap around
    solo = make_state([100.0], [100.0], table1_params)
    np.testing.assert_allclose(adjacent(solo, table1_params), 1000.0)


def test_frustration_ramp_up(table1_params):
    lp = LaneChangeParams(r=0.1, p=0.2)
    assert frustration_update(0.3, 20.0, 40.0, 0, lp, 1.0) == pytest.approx(0.4)


def test_frustration_clamped_at_zero():
    lp = LaneChangeParams(r=0.1, p=0.2)
    assert frustration_update(0.05, 40.0, 20.0, 0, lp, 1.0) == 0.0


def test_frustration_pass_jump():
    lp = LaneChangeParams(r=0.1, p=0.2)
    assert frustration_update(0.0, 40.0, 20.0, 1, lp, 1.0) == pytest.approx(0.1)
    assert frustration_update(0.0, 20.0, 40.0, 1, lp, 1.0) == pytest.approx(0.3)


def test_frustration_update_is_elementwise():
    lp = LaneChangeParams(r=0.1, p=0.2)
    phi = np.array([0.3, 0.05, 0.0, 0.0])
    own = np.array([20.0, 40.0, 40.0, 20.0])
    adj = np.array([40.0, 20.0, 20.0, 40.0])
    passes = np.array([0, 0, 1, 1])
    updated = frustration_update(phi, own, adj, passes, lp, 0.5)
    expected = [
        max(0.0, f + (lp.r if o < a else -lp.r) * 0.5 + lp.p * k)
        for f, o, a, k in zip(phi, own, adj, passes)
    ]
    np.testing.assert_array_equal(updated, expected)


def test_attempt_probability_values():
    assert attempt_probability(0.0) == 0.0
    assert attempt_probability(0.5) == pytest.approx(0.2951672353008665, abs=1e-12)
    assert attempt_probability(1e6) > 0.999999
    with pytest.raises(ParameterError):
        attempt_probability(-0.1)


def test_attempt_probability_monotone():
    phi = np.linspace(0.0, 50.0, 2000)
    prob = attempt_probability(phi)
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
    assert safety_gap_check(state, 0, table1_params)


def test_safety_gap_closed_interval(table1_params):
    blocked = make_state([100.0], [107.5], table1_params)  # exactly x + d_min
    assert not safety_gap_check(blocked, 0, table1_params)
    clear = make_state([100.0], [107.51], table1_params)
    assert safety_gap_check(clear, 0, table1_params)
    behind = make_state([100.0], [92.5], table1_params)  # exactly x - d_min
    assert not safety_gap_check(behind, 0, table1_params)


def test_safety_gap_wraps_around_origin(table1_params):
    state = make_state([999.0], [3.0], table1_params)  # 4 m ahead across the wrap
    assert not safety_gap_check(state, 0, table1_params)


def test_detect_passes_equal_velocities(table1_params):
    prev = make_state([0.0, 40.0], [20.0, 60.0], table1_params)
    new = make_state([10.0, 50.0], [30.0, 70.0], table1_params)
    assert np.all(detect_passes(prev, new, table1_params) == 0)


def test_detect_passes_sign_crossing(table1_params):
    prev = make_state([100.0], [99.9], table1_params)
    new = make_state([100.5], [100.6], table1_params)  # adjacent moved past
    counts = detect_passes(prev, new, table1_params)
    assert counts[0] == 1  # the slower vehicle was passed
    assert counts[1] == 0


def test_detect_passes_excludes_lane_changers(table1_params):
    # The adjacent vehicle overtakes during the step but also changes lanes;
    # its lane identity mid-step is ambiguous, so no pass is credited.
    prev = make_state([100.0], [99.9], table1_params)
    new = make_state([100.5], [100.6], table1_params)
    new.lanes[1] = 0
    assert np.all(detect_passes(prev, new, table1_params) == 0)
    # And a changer receives no credit either.
    prev2 = make_state([99.9], [100.0], table1_params)
    new2 = make_state([100.6], [100.5], table1_params)
    new2.lanes[0] = 1
    assert np.all(detect_passes(prev2, new2, table1_params) == 0)


def test_two_lane_step_zero_frustration_matches_single_lane(table1_params):
    lp = LaneChangeParams(r=0.0, p=0.0, rng_seed=5)
    state = init_two_lane(table1_params, 25, 25, stagger=20.0)
    hist = HistoryBuffer(state.positions, 0.0, 0.05)
    rng = np.random.default_rng(5)
    outcome = two_lane_step(state, hist, lp, table1_params, 0.05, rng)
    assert outcome.events == []
    # each lane advanced exactly as an isolated 25-vehicle ring would
    single = run_single_lane(table1_params, 25, 0.0, 0.05, 0.05)
    lane0 = state.positions[state.lanes == 0]
    np.testing.assert_allclose(lane0, single.positions[-1], atol=1e-12)
    lane1 = state.positions[state.lanes == 1]
    np.testing.assert_allclose(lane1, single.positions[-1] + 20.0, atol=1e-12)


def test_two_lane_step_applies_frustration_law(table1_params):
    lp = LaneChangeParams(r=0.1, p=0.2, rng_seed=3)
    state = init_two_lane(table1_params, 30, 20, stagger=7.0)
    state.phis = np.linspace(0.0, 0.02, 50)  # small enough that nobody attempts
    state.pending_passes[[4, 33]] = 1
    hist = HistoryBuffer(state.positions, 0.0, 0.05)
    length = table1_params.track_length
    expected = frustration_update(
        state.phis,
        own_headways(state.positions, state.lanes, length),
        adjacent_headways(state.positions, state.lanes, length),
        state.pending_passes,
        lp,
        0.05,
    )
    outcome = two_lane_step(state, hist, lp, table1_params, 0.05, np.random.default_rng(3))
    assert not outcome.changed.any()
    np.testing.assert_array_equal(state.phis, expected)


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
    imbalance = lane_imbalance_series(record)
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


def test_lane_change_params_validation():
    with pytest.raises(ParameterError):
        LaneChangeParams(r=-0.1, p=0.2)
    with pytest.raises(ParameterError):
        LaneChangeParams(r=0.1, p=-0.2)
