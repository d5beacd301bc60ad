import math

import numpy as np
import pytest

from ringtraffic import (
    HistoryBuffer,
    ModelParams,
    advance,
    find_collisions,
    init_ring_equilibrium,
    perturb,
    run_single_lane,
    velocity_from_headway,
)
from ringtraffic.errors import ConfigurationError, ParameterError
from ringtraffic.single_lane import ring_headways

V_EQ_50 = 40.0 * (1.0 - math.exp(-0.3125))


def test_equilibrium_positions(table1_params):
    state = init_ring_equilibrium(50, table1_params)
    assert np.array_equal(state.positions, 20.0 * np.arange(50))


def test_equilibrium_two_vehicles(table1_params):
    state = init_ring_equilibrium(2, table1_params)
    assert np.array_equal(state.positions, [0.0, 500.0])


def test_equilibrium_rejects_spacing_at_vehicle_size(table1_params):
    with pytest.raises(ConfigurationError):
        init_ring_equilibrium(200, table1_params)  # 5 m spacing equals the car size


def test_equilibrium_warns_above_jam_density(table1_params):
    with pytest.warns(UserWarning):
        init_ring_equilibrium(150, table1_params)  # 6.67 m spacing below d_min


def test_perturb_shifts_one_vehicle(table1_params):
    state = init_ring_equilibrium(50, table1_params)
    shifted = perturb(state, 0, 1.0, table1_params.track_length)
    h = ring_headways(shifted.positions, table1_params.track_length)
    assert h[0] == pytest.approx(19.0)
    assert h[-1] == pytest.approx(21.0)
    assert np.all(shifted.positions[1:] == state.positions[1:])


def test_perturb_zero_is_identity(table1_params):
    state = init_ring_equilibrium(50, table1_params)
    same = perturb(state, 3, 0.0, table1_params.track_length)
    assert np.array_equal(same.positions, state.positions)


def test_perturb_rejects_closing_a_headway(table1_params):
    state = init_ring_equilibrium(50, table1_params)
    with pytest.raises(ParameterError):
        perturb(state, 0, 20.0, table1_params.track_length)


def test_history_requires_integer_delay_multiple(table1_params):
    state = init_ring_equilibrium(50, table1_params)
    with pytest.raises(ConfigurationError):
        HistoryBuffer(state.positions, delay=0.005, dt=0.01)
    buf = HistoryBuffer(state.positions, delay=0.75, dt=0.01)
    assert buf.delay_steps == 75


def test_delayed_headway_zero_delay_is_current(table1_params):
    state = init_ring_equilibrium(50, table1_params)
    hist = HistoryBuffer(state.positions, delay=0.0, dt=0.01)
    v, _ = advance(state.positions, hist, table1_params.lambda_rate, table1_params)
    np.testing.assert_allclose(v, velocity_from_headway(20.0, table1_params), rtol=0, atol=1e-12)


def test_delayed_headway_uniform_motion_preserves_spacing(table1_params):
    state = init_ring_equilibrium(50, table1_params)
    hist = HistoryBuffer(state.positions, delay=0.1, dt=0.01)
    positions = state.positions
    for _ in range(25):
        v, positions = advance(positions, hist, table1_params.lambda_rate, table1_params)
    h = ring_headways(hist.positions_at_delay(), table1_params.track_length)
    for j in (0, 17, 49):
        assert h[j] == pytest.approx(20.0)
        assert v[j] == pytest.approx(V_EQ_50)


def test_delayed_headway_holds_initial_snapshot():
    """First steps of a small perturbed ring, checked against hand arithmetic."""
    p = ModelParams(track_length=100.0)
    dt, delay = 0.1, 0.2
    positions = np.array([1.0, 25.0, 50.0, 75.0])  # vehicle 0 displaced +1
    hist = HistoryBuffer(positions, delay, dt)
    x0 = positions.copy()

    # While t <= delay the perceived headways stay at the held initial values.
    expected_h0 = np.array([24.0, 25.0, 25.0, 26.0])
    v0 = velocity_from_headway(expected_h0, p)
    for _ in range(2):
        np.testing.assert_allclose(
            ring_headways(hist.positions_at_delay(), p.track_length),
            expected_h0,
            rtol=0,
            atol=1e-12,
        )
        v, positions = advance(positions, hist, p.lambda_rate, p)
        np.testing.assert_allclose(v, v0, rtol=0, atol=1e-12)
    # At t = delay the lookup still lands on the initial snapshot (t - delay = 0);
    # one more step later it returns x(dt) = x(0) + dt * v(h(initial)).
    np.testing.assert_allclose(hist.positions_at_delay(), x0, atol=1e-12)
    v, positions = advance(positions, hist, p.lambda_rate, p)
    np.testing.assert_allclose(v, v0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(hist.positions_at_delay(), x0 + dt * v0, atol=1e-12)


def test_euler_step_advances_equilibrium_uniformly(table1_params):
    state = init_ring_equilibrium(50, table1_params)
    hist = HistoryBuffer(state.positions, delay=0.0, dt=0.01)
    _, stepped = advance(state.positions, hist, table1_params.lambda_rate, table1_params)
    np.testing.assert_allclose(stepped - state.positions, 0.01 * V_EQ_50, rtol=0, atol=1e-12)
    h = ring_headways(stepped, table1_params.track_length)
    np.testing.assert_allclose(h, 20.0, atol=1e-12)
    # the step pushed the advanced positions onto the history
    np.testing.assert_array_equal(hist.positions_at_delay(), stepped)


def test_euler_step_zero_velocity_below_minimal_headway():
    p = ModelParams(track_length=100.0)
    positions = np.array([0.0, 7.0, 50.0])  # follower 0 sees 7 m < d_min
    hist = HistoryBuffer(positions, delay=0.0, dt=0.01)
    v, stepped = advance(positions, hist, p.lambda_rate, p)
    assert v[0] == 0.0
    assert stepped[0] == 0.0
    assert stepped[1] > 7.0


def test_advance_uses_per_vehicle_rates(table1_params):
    state = init_ring_equilibrium(50, table1_params)
    hist = HistoryBuffer(state.positions, delay=0.0, dt=0.01)
    rates = np.full(50, table1_params.lambda_rate)
    rates[3] = 2.0
    v, _ = advance(state.positions, hist, rates, table1_params)
    fast = ModelParams(lambda_rate=2.0)
    assert v[3] == pytest.approx(velocity_from_headway(20.0, fast))
    np.testing.assert_allclose(np.delete(v, 3), V_EQ_50, rtol=0, atol=1e-12)


def test_collision_detection_boundary(table1_params):
    def reports(positions):
        h = ring_headways(np.array(positions), table1_params.track_length)
        return find_collisions(h, 3.0, table1_params)

    assert reports([0.0, 20.0]) == []
    touching = reports([0.0, 5.0])
    assert len(touching) == 1
    assert touching[0].follower_index == 0
    assert touching[0].headway_at_collision == pytest.approx(5.0)
    assert touching[0].time == 3.0
    assert reports([0.0, 5.01]) == []


def test_single_lane_run_stops_at_first_collision(table1_params):
    record = run_single_lane(table1_params, 50, 0.75, 0.01, 300.0, perturbation=(0, 1.0))
    assert record.termination_reason == "collision"
    h = ring_headways(record.positions[-1], table1_params.track_length)
    assert record.collisions == find_collisions(h, record.times[-1], table1_params)
    assert record.collisions and record.termination_time == record.times[-1]
    # no earlier sample had closed a headway to the vehicle size
    for positions in record.positions[:-1]:
        assert np.all(ring_headways(positions, table1_params.track_length) > table1_params.car_size)


def test_equilibrium_is_fixed_point(table1_params):
    """Unperturbed spacing stays equal to L/N to 1e-9 over ten thousand steps."""
    for delay in (0.0, 0.5):
        record = run_single_lane(table1_params, 50, delay, 0.05, 500.0)
        h_final = ring_headways(record.positions[-1], table1_params.track_length)
        assert np.max(np.abs(h_final - 20.0)) < 1e-9
        assert record.termination_reason == "completed"


def test_translation_invariance(table1_params):
    base = init_ring_equilibrium(25, table1_params)
    base = perturb(base, 0, 1.0, table1_params.track_length)
    shift = 123.0

    def trajectory(initial):
        positions = initial.copy()
        hist = HistoryBuffer(positions, delay=0.5, dt=0.05)
        out = []
        for _ in range(400):
            _, positions = advance(positions, hist, table1_params.lambda_rate, table1_params)
            out.append(positions)
        return np.stack(out)

    plain = trajectory(base.positions)
    moved = trajectory(base.positions + shift)
    assert np.max(np.abs(moved - (plain + shift))) < 1e-7


def test_headways_positive_and_sum_to_track(table1_params):
    record = run_single_lane(
        table1_params, 50, 0.75, 0.01, 300.0, perturbation=(0, 1.0), record_stride=10
    )
    assert record.termination_reason == "collision"
    for s in range(len(record.times)):
        h = ring_headways(record.positions[s], table1_params.track_length)
        assert np.all(h > 0)
        assert abs(h.sum() - table1_params.track_length) < 1e-9


def test_unperturbed_run_is_exactly_steady(table1_params):
    record = run_single_lane(table1_params, 50, 0.5, 0.05, 50.0)
    np.testing.assert_allclose(record.velocities, V_EQ_50, atol=1e-9)


def test_record_stride_subsamples(table1_params):
    full = run_single_lane(table1_params, 10, 0.0, 0.05, 10.0)
    coarse = run_single_lane(table1_params, 10, 0.0, 0.05, 10.0, record_stride=10)
    assert len(coarse.times) < len(full.times)
    np.testing.assert_allclose(coarse.times[:3], [0.0, 0.5, 1.0])
    assert coarse.times[-1] == pytest.approx(10.0)  # final state always kept


def test_trajectory_csv_round_trippable(tmp_path, table1_params, csv_columns):
    record = run_single_lane(table1_params, 5, 0.0, 0.1, 2.0)
    path = tmp_path / "traj.csv"
    record.write_csv(path)
    data = csv_columns(path)
    assert set(data) == {"t", "vehicle", "x_unwrapped", "v"}
    assert len(data["t"]) == len(record.times) * 5
    assert data["x_unwrapped"][0] == record.positions[0, 0]
