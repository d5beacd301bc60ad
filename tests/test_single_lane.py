import collections
import math

import numpy as np
import pytest

from ringtraffic import (
    LaneChangeParams,
    ModelParams,
    TrajectoryRecord,
    advance,
    find_collisions,
    init_ring_equilibrium,
    perturb,
    run_single_lane,
    run_two_lane,
    velocity_from_headway,
)
from ringtraffic.core import _velocity
from ringtraffic.errors import ConfigurationError, ParameterError
from ringtraffic.lane_change import _Samples, run_lockstep
from ringtraffic.single_lane import closed, delay_steps, ring_headways, run_grid

V_EQ_50 = 40.0 * (1.0 - math.exp(-0.3125))


def per_step_run(p, n_vehicles, delay, dt, t_end, perturbation=None, record_stride=1):
    """The single-lane run one Euler step at a time, from the positions of
    the last m + 1 steps: the oracle of the block kernel."""
    steps = int(round(t_end / dt))
    x0 = init_ring_equilibrium(n_vehicles, p)
    if perturbation is not None and perturbation[1] != 0.0:
        x0 = perturb(x0, *perturbation, p.track_length)
    m = delay_steps(delay, dt)
    recent = collections.deque([x0] * (m + 1), maxlen=m + 1)  # oldest first
    positions, t = x0, 0.0
    times, xs, vs = [], [], []
    reason, termination_time, collisions = "completed", steps * dt, []
    for s in range(steps + 1):
        collisions = find_collisions(ring_headways(positions, p.track_length), t, p)
        v = _velocity(ring_headways(recent[0], p.track_length), p.lambda_rate, p)
        next_positions = positions + dt * v
        recent.append(next_positions)
        if collisions or s == steps or s % record_stride == 0:
            times.append(t)
            xs.append(positions)
            vs.append(v)
        if collisions:
            reason, termination_time = "collision", t
            break
        if s == steps:
            break
        positions = next_positions
        t = round((s + 1) * dt, 12)
    return TrajectoryRecord(
        times=np.array(times), positions=np.array(xs), velocities=np.array(vs), params=p,
        delay=delay, dt=dt, termination_reason=reason, termination_time=termination_time,
        collisions=collisions,
    )


def assert_same_run(record, oracle):
    for name in ("times", "positions", "velocities"):
        assert getattr(record, name).tobytes() == getattr(oracle, name).tobytes(), name
    assert record.termination_reason == oracle.termination_reason
    assert record.termination_time == oracle.termination_time
    assert record.collisions == oracle.collisions


def kernel_steps(initial, m, blocks, dt, p):
    """Positions after each of ``blocks * max(m, 1)`` steps of the block kernel
    with a delay of ``m`` steps, the vehicles at rest at ``initial`` before t = 0."""
    b = max(m, 1)
    hist = np.repeat(ring_headways(initial, p.track_length)[None], m + 1, axis=0)  # steps -m..0
    positions, out = initial, []
    for _ in range(blocks):
        _, x = advance(positions, hist[:b], p.lambda_rate, dt, p)
        hist = np.concatenate((hist, ring_headways(x[1:], p.track_length)))[-(m + 1) :]
        positions = x[-1]
        out.append(x[1:])
    return np.concatenate(out)


def test_equilibrium_positions(table1_params):
    x0 = init_ring_equilibrium(50, table1_params)
    assert np.array_equal(x0, 20.0 * np.arange(50))


def test_equilibrium_two_vehicles(table1_params):
    x0 = init_ring_equilibrium(2, table1_params)
    assert np.array_equal(x0, [0.0, 500.0])


def test_equilibrium_rejects_spacing_at_vehicle_size(table1_params):
    with pytest.raises(ConfigurationError):
        init_ring_equilibrium(200, table1_params)  # 5 m spacing equals the car size


def test_equilibrium_warns_above_jam_density(table1_params):
    with pytest.warns(UserWarning):
        init_ring_equilibrium(150, table1_params)  # 6.67 m spacing below d_min


def test_perturb_shifts_one_vehicle(table1_params):
    x0 = init_ring_equilibrium(50, table1_params)
    shifted = perturb(x0, 0, 1.0, table1_params.track_length)
    h = ring_headways(shifted, table1_params.track_length)
    assert h[0] == pytest.approx(19.0)
    assert h[-1] == pytest.approx(21.0)
    assert np.all(shifted[1:] == x0[1:])


def test_perturb_zero_is_identity(table1_params):
    x0 = init_ring_equilibrium(50, table1_params)
    same = perturb(x0, 3, 0.0, table1_params.track_length)
    assert np.array_equal(same, x0)


def test_perturb_rejects_closing_a_headway(table1_params):
    x0 = init_ring_equilibrium(50, table1_params)
    with pytest.raises(ParameterError):
        perturb(x0, 0, 20.0, table1_params.track_length)


def test_runs_require_integer_delay_multiple(table1_params):
    lp = LaneChangeParams(r=0.1, p=0.2)
    with pytest.raises(ConfigurationError, match="not an integer multiple"):
        run_grid(0.005, 0.01, 1.0, 1)
    with pytest.raises(ConfigurationError, match="not an integer multiple"):
        run_lockstep(table1_params, lp, [1], 50, delay=0.005, dt=0.01, t_end=1.0, sink=_Samples)
    assert run_grid(0.75, 0.01, 1.0, 1) == (75, 100, 101)


def test_delayed_headway_zero_delay_is_current(table1_params):
    x0 = init_ring_equilibrium(50, table1_params)
    h = ring_headways(x0, table1_params.track_length)[None]
    v, _ = advance(x0, h, table1_params.lambda_rate, 0.01, table1_params)
    np.testing.assert_allclose(v, velocity_from_headway(20.0, table1_params), rtol=0, atol=1e-12)


def test_delayed_headway_uniform_motion_preserves_spacing(table1_params):
    record = run_single_lane(table1_params, 50, 0.1, 0.01, 0.25)
    h = ring_headways(record.positions, table1_params.track_length)
    np.testing.assert_allclose(h, 20.0, rtol=0, atol=1e-9)
    np.testing.assert_allclose(record.velocities, V_EQ_50, rtol=0, atol=1e-12)


def test_delayed_headway_holds_initial_snapshot():
    """First steps of a small perturbed ring, checked against hand arithmetic."""
    p = ModelParams(track_length=100.0)
    dt, delay = 0.1, 0.2
    x0 = np.array([1.0, 25.0, 50.0, 75.0])  # vehicle 0 displaced +1
    record = run_single_lane(p, 4, delay, dt, 0.4, perturbation=(0, 1.0))
    np.testing.assert_array_equal(record.positions[0], x0)

    # Through t = delay the perceived headways stay at the held initial
    # values (t - delay <= 0); one step later they are those of
    # x(dt) = x(0) + dt * v(h(initial)).
    v0 = velocity_from_headway(np.array([24.0, 25.0, 25.0, 26.0]), p)
    for s in range(3):
        np.testing.assert_allclose(record.velocities[s], v0, rtol=0, atol=1e-12)
    v3 = velocity_from_headway(ring_headways(x0 + dt * v0, p.track_length), p)
    np.testing.assert_allclose(record.velocities[3], v3, rtol=0, atol=1e-12)


def test_euler_step_advances_equilibrium_uniformly(table1_params):
    x0 = init_ring_equilibrium(50, table1_params)
    h = ring_headways(x0, table1_params.track_length)[None]
    _, x = advance(x0, h, table1_params.lambda_rate, 0.01, table1_params)
    np.testing.assert_array_equal(x[0], x0)
    stepped = x[1]
    np.testing.assert_allclose(stepped - x0, 0.01 * V_EQ_50, rtol=0, atol=1e-12)
    np.testing.assert_allclose(ring_headways(stepped, table1_params.track_length), 20.0, atol=1e-12)


def test_euler_step_zero_velocity_below_minimal_headway():
    p = ModelParams(track_length=100.0)
    positions = np.array([0.0, 7.0, 50.0])  # follower 0 sees 7 m < d_min
    v, x = advance(positions, ring_headways(positions, p.track_length)[None], p.lambda_rate, 0.01, p)
    assert v[0, 0] == 0.0
    assert x[1, 0] == 0.0
    assert x[1, 1] > 7.0


def test_advance_steps_each_row_in_sequence(table1_params):
    x0 = init_ring_equilibrium(50, table1_params)
    rng = np.random.default_rng(3)
    headways = 20.0 + rng.normal(scale=2.0, size=(6, 50))
    v, x = advance(x0, headways, table1_params.lambda_rate, 0.05, table1_params)
    assert v.shape == (6, 50) and x.shape == (7, 50)
    positions = x0
    for b in range(6):
        step_v = _velocity(headways[b], table1_params.lambda_rate, table1_params)
        assert step_v.tobytes() == v[b].tobytes()
        positions = positions + 0.05 * step_v
        assert positions.tobytes() == x[b + 1].tobytes()


def test_advance_uses_per_vehicle_rates(table1_params):
    x0 = init_ring_equilibrium(50, table1_params)
    h = ring_headways(x0, table1_params.track_length)[None]
    rates = np.full(50, table1_params.lambda_rate)
    rates[3] = 2.0
    (v,), _ = advance(x0, h, rates, 0.01, table1_params)
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
    # The rule applies row by row to a block of headways.
    size = table1_params.car_size
    block = np.array([[size + 1.0, size, 40.0], [np.nextafter(size, 0.0), 30.0, np.nextafter(size, 9.0)]])
    np.testing.assert_array_equal(closed(block, table1_params), [[False, True, False], [True, False, False]])
    for row in block:
        hits = [report.follower_index for report in find_collisions(row, 0.0, table1_params)]
        assert hits == np.flatnonzero(closed(row, table1_params)).tolist()


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

    plain = kernel_steps(base, 10, 40, 0.05, table1_params)  # delay 0.5 s
    moved = kernel_steps(base + shift, 10, 40, 0.05, table1_params)
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


def test_record_stride_keeps_every_stride_and_the_last_step(table1_params):
    dt, stride = 0.05, 3
    completed = run_single_lane(table1_params, 10, 0.0, dt, 0.5, record_stride=stride)  # 10 steps
    crashed = run_single_lane(
        table1_params, 50, 0.75, dt, 300.05, perturbation=(0, 1.0), record_stride=stride
    )
    assert completed.termination_reason == "completed"
    assert crashed.termination_reason == "collision"
    for record in (completed, crashed):
        last = round(record.termination_time / dt)
        assert last % stride != 0
        steps = [*range(0, last, stride), last]
        assert len(steps) == last // stride + 2
        np.testing.assert_array_equal(record.times, [round(s * dt, 12) for s in steps])
        assert record.positions.shape == record.velocities.shape == (len(steps), record.n_vehicles)


def test_trajectory_csv_round_trippable(tmp_path, table1_params, csv_columns):
    record = run_single_lane(table1_params, 5, 0.0, 0.1, 2.0)
    path = tmp_path / "traj.csv"
    record.write_csv(path)
    data = csv_columns(path)
    assert set(data) == {"t", "vehicle", "x_unwrapped", "v"}
    assert len(data["t"]) == len(record.times) * 5
    assert data["x_unwrapped"][0] == record.positions[0, 0]


@pytest.mark.parametrize("dt", [0.01, 0.05])
@pytest.mark.parametrize("delay_steps", [0, 1, "0.5", "0.75", "1.5"])
@pytest.mark.parametrize("stride", [1, 3, 7])
def test_block_kernel_matches_per_step_oracle(table1_params, dt, delay_steps, stride):
    delay = float(delay_steps) if isinstance(delay_steps, str) else delay_steps * dt
    args = (table1_params, 50, delay, dt, 12.37)  # t_end is no multiple of the block
    kwargs = dict(perturbation=(4, 1.0), record_stride=stride)
    assert_same_run(run_single_lane(*args, **kwargs), per_step_run(*args, **kwargs))


@pytest.mark.parametrize(
    "n, delay, displacement, stride, row",
    [
        (50, 0.75, 16.0, 1, 0),  # collides at t = 0
        (30, 1.5, 8.0, 1, 0),  # first row of a block
        (30, 1.5, 1.0, 3, 29),  # last row of a block
        (50, 1.0, 1.0, 7, 19),  # last row of a block
        (50, 1.5, 8.0, 3, 15),  # a middle row
    ],
)
def test_block_kernel_matches_oracle_at_collisions(table1_params, n, delay, displacement, stride, row):
    dt = 0.05
    args = (table1_params, n, delay, dt, 100.0)
    kwargs = dict(perturbation=(0, displacement), record_stride=stride)
    record = run_single_lane(*args, **kwargs)
    assert record.termination_reason == "collision"
    assert round(record.termination_time / dt) % round(delay / dt) == row
    assert_same_run(record, per_step_run(*args, **kwargs))


@pytest.mark.parametrize("stride", [2.5, True, 0, -3, "2"])
def test_run_rejects_bad_record_stride(table1_params, stride):
    with pytest.raises(ConfigurationError):
        run_single_lane(table1_params, 50, 0.5, 0.05, 5.0, record_stride=stride)
    with pytest.raises(ConfigurationError):
        run_two_lane(table1_params, LaneChangeParams(r=0.1, p=0.2), 50, delay=0.5, t_end=5.0, record_stride=stride)


def test_run_accepts_numpy_stride_and_scalar_rate(table1_params):
    record = run_single_lane(table1_params, 10, 0.5, 0.05, 5.0, record_stride=np.int64(4))
    base = run_single_lane(table1_params, 10, 0.5, 0.05, 5.0, record_stride=4)
    assert_same_run(record, base)
