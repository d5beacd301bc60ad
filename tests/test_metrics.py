import dataclasses

import numpy as np
import pytest

from ringtraffic import (
    ModelParams,
    TrajectoryRecord,
    aggregate_monte_carlo,
    fit_growth_rate,
    flow_field,
    flow_rate,
    flow_series,
    growth_rate_from_record,
    lane_imbalance,
    metrics,
    run_single_lane,
)
from ringtraffic.errors import (
    InsufficientDataError,
    ParameterError,
    RangeError,
    ShapeError,
)
from ringtraffic.metrics import windowed_amplitudes
from ringtraffic.single_lane import ring_crossings

V_EQ_50 = 40.0 * (1.0 - np.exp(-0.3125))


def constant_record(positions_row, params, n_samples=101, dt=0.1):
    times = dt * np.arange(n_samples)
    positions = np.tile(np.asarray(positions_row, dtype=float), (n_samples, 1))
    velocities = np.zeros_like(positions)
    return TrajectoryRecord(
        times=times,
        positions=positions,
        velocities=velocities,
        params=params,
        delay=0.0,
        dt=dt,
        termination_reason="completed",
        termination_time=times[-1],
    )


def test_flow_rate_equilibrium_matches_density_times_velocity(table1_params):
    record = run_single_lane(table1_params, 50, 0.0, 0.05, 60.0)
    expected = 50 * V_EQ_50 / 1000.0
    for x in (0.0, 250.0, 500.0, 987.3):
        q = flow_rate(record, 55.0, x, 18.63)
        assert abs(q - expected) <= 1.0 / 18.63


def test_flow_rate_stationary_jam_is_zero(table1_params):
    record = constant_record([0.0, 100.0, 200.0], table1_params)
    assert flow_rate(record, 9.0, 50.0, 5.0) == 0.0


def test_flow_rate_quantization(table1_params):
    record = run_single_lane(table1_params, 50, 0.0, 0.05, 10.0)
    # window shorter than one inter-arrival time counts zero or one vehicle
    q = flow_rate(record, 5.0, 500.0, 0.5)
    assert q in (0.0, 1.0 / 0.5)


def test_flow_rate_validates_coverage_and_position(table1_params):
    record = run_single_lane(table1_params, 10, 0.0, 0.05, 5.0)
    with pytest.raises(RangeError):
        flow_rate(record, 3.0, 1000.0, 1.0)  # x outside [0, L)
    with pytest.raises(RangeError):
        flow_rate(record, 3.0, float("nan"), 1.0)
    with pytest.raises(RangeError):
        flow_rate(record, 0.5, 100.0, 1.0)  # window starts before the record
    with pytest.raises(ParameterError):
        flow_rate(record, 3.0, 100.0, -1.0)


def test_flow_counts_invariant_to_recording_stride(table1_params):
    fine = run_single_lane(table1_params, 50, 0.0, 0.01, 60.0, perturbation=(0, 1.0))
    coarse = run_single_lane(
        table1_params, 50, 0.0, 0.01, 60.0, perturbation=(0, 1.0), record_stride=5
    )
    for t, x in ((30.0, 500.0), (50.0, 123.0), (42.5, 900.0)):
        assert flow_rate(fine, t, x, 10.0) == pytest.approx(
            flow_rate(coarse, t, x, 10.0)
        )


def test_flow_multi_lap_counting(table1_params):
    # one fast vehicle pair lapping the short ring several times inside delta
    p = ModelParams(track_length=100.0)
    record = run_single_lane(p, 2, 0.0, 0.05, 60.0)
    v = record.velocities[0, 0]
    laps_expected = v * 50.0 / 100.0  # per vehicle, over the 50 s window
    q = flow_rate(record, 55.0, 50.0, 50.0)
    assert q == pytest.approx(2 * laps_expected / 50.0, abs=2 / 50.0)


def test_flow_field_grid(table1_params):
    record = run_single_lane(table1_params, 50, 0.0, 0.05, 40.0)
    ff = flow_field(record, times=[20.0, 30.0], positions=[0.0, 500.0], delta=10.0)
    assert ff.q.shape == (2, 2)
    assert np.all(ff.q >= 0)
    series = flow_series(record, 500.0, [20.0, 30.0], 10.0)
    np.testing.assert_allclose(series, ff.q[:, 1])


def oracle_positions_at(record, t):
    """Positions at one time, interpolated between the two samples around it:
    the reference for ``TrajectoryRecord.positions_at``."""
    times = record.times
    i = int(np.searchsorted(times, t, side="right")) - 1
    i = min(max(i, 0), len(times) - 2)
    span = times[i + 1] - times[i]
    w = 0.0 if span == 0 else (t - times[i]) / span
    return (1.0 - w) * record.positions[i] + w * record.positions[i + 1]


def oracle_flow(record, times, positions, delta):
    """Flow one time row at a time: the reference the blocked kernel must equal."""
    length = record.params.track_length
    x = np.asarray(positions, dtype=float)[:, None]
    q = np.empty((len(times), x.shape[0]))
    for i, t in enumerate(times):
        start = oracle_positions_at(record, t - delta) - x
        end = oracle_positions_at(record, t) - x
        q[i] = ring_crossings(start, end, length).sum(axis=1) / delta
    return q


@pytest.fixture(scope="module")
def flow_records(table1_params):
    """Single-lane records at strides 1 and 5, and the 100 m two-vehicle ring."""
    run = dict(perturbation=(0, 1.0))
    return {
        "stride 1": run_single_lane(table1_params, 50, 0.75, 0.05, 40.0, **run),
        "stride 5": run_single_lane(table1_params, 50, 0.75, 0.05, 40.03, record_stride=5, **run),
        "100 m ring": run_single_lane(ModelParams(track_length=100.0), 2, 0.0, 0.05, 60.0),
    }


@pytest.mark.parametrize("name", ["stride 1", "stride 5", "100 m ring"])
@pytest.mark.parametrize("delta", [5.0, 5.03, 4.99])
def test_flow_field_equals_the_per_row_reference(flow_records, name, delta, monkeypatch):
    record = flow_records[name]
    length = record.params.track_length
    t_first, t_last = record.times[0] + delta, record.times[-1]
    # A grid of sample times and times between them, ending on the last sample.
    times = np.concatenate([np.linspace(t_first, t_last, 97), record.times[record.times >= t_first]])
    assert times[-1] == t_last
    positions = np.array([0.0, 1e-9, 0.37 * length, length / 2, length - 1e-9])
    expected = oracle_flow(record, times, positions, delta)
    assert flow_field(record, times, positions, delta).q.tobytes() == expected.tobytes()
    # Blocks of one, two and seven rows.
    for rows in (1, 2, 7):
        monkeypatch.setattr(metrics, "FLOW_BLOCK", rows * positions.size * record.n_vehicles)
        assert flow_field(record, times, positions, delta).q.tobytes() == expected.tobytes()
    column = flow_series(record, positions[3], times, delta)
    assert column.tobytes() == expected[:, 3].copy().tobytes()
    assert flow_rate(record, t_last, positions[2], delta) == expected[-1, 2]


def test_flow_field_over_a_grid_of_many_blocks(flow_records):
    record = flow_records["stride 1"]
    times = np.linspace(5.0, record.times[-1], 301)
    positions = np.linspace(0.0, 999.0, 50)
    assert times.size * positions.size * record.n_vehicles > 10 * metrics.FLOW_BLOCK
    expected = oracle_flow(record, times, positions, 5.0)
    assert flow_field(record, times, positions, 5.0).q.tobytes() == expected.tobytes()


def test_flow_field_of_stacked_rows_equals_the_per_row_calls(table1_params, monkeypatch):
    # Three perturbations of one run share its sample times; stacked as
    # (S, R, N) positions, each row's flow is its own 2-D record's, bit for bit.
    rows = [
        run_single_lane(table1_params, 50, 0.75, 0.05, 40.0, perturbation=(v, d))
        for v, d in ((0, 1.0), (7, 2.0), (20, 0.5))
    ]
    stacked = dataclasses.replace(
        rows[0],
        positions=np.stack([r.positions for r in rows], axis=1),
        velocities=np.stack([r.velocities for r in rows], axis=1),
    )
    times = np.concatenate([np.linspace(5.03, 40.0, 97), rows[0].times[rows[0].times >= 5.03]])
    positions = np.array([0.0, 1e-9, 370.0, 500.0, 1000.0 - 1e-9])
    expected = np.stack([flow_field(r, times, positions, 5.03).q for r in rows], axis=-1)
    assert stacked.n_vehicles == 50
    assert stacked.positions_at(times).shape == (times.size, 3, 50)
    assert flow_field(stacked, times, positions, 5.03).q.tobytes() == expected.tobytes()
    monkeypatch.setattr(metrics, "FLOW_BLOCK", positions.size * 3 * 50)  # one time row per block
    assert flow_field(stacked, times, positions, 5.03).q.tobytes() == expected.tobytes()


def test_positions_at_an_array_of_times_stacks_the_scalar_calls(flow_records):
    rng = np.random.default_rng(3)
    for record in flow_records.values():
        times = np.concatenate(
            [record.times, rng.uniform(record.times[0], record.times[-1], 200)]
        )
        rows = record.positions_at(times)
        assert rows.shape == (times.size, record.n_vehicles)
        scalar = np.stack([record.positions_at(t) for t in times])
        reference = np.stack([oracle_positions_at(record, t) for t in times])
        assert rows.tobytes() == scalar.tobytes() == reference.tobytes()
        assert record.positions_at(float(times[5])).shape == (record.n_vehicles,)


def test_positions_at_rejects_times_outside_the_record(flow_records):
    record = flow_records["stride 1"]
    for t in (np.nan, -0.01, record.times[-1] + 0.01, [1.0, np.nan], [np.inf]):
        with pytest.raises(RangeError):
            record.positions_at(t)


def test_flow_field_rejects_non_finite_and_mis_shaped_grids(flow_records):
    record = flow_records["stride 1"]
    with pytest.raises(RangeError):
        flow_field(record, [np.nan], [100.0], 1.0)
    with pytest.raises(RangeError):
        flow_field(record, [10.0, np.inf], [100.0], 1.0)
    with pytest.raises(RangeError):
        flow_rate(record, np.nan, 100.0, 1.0)
    with pytest.raises(ShapeError):
        flow_field(record, [[10.0, 20.0]], [100.0], 1.0)
    with pytest.raises(ShapeError):
        flow_field(record, [10.0, 20.0], [[100.0]], 1.0)
    with pytest.raises(ShapeError):
        flow_field(record, 10.0, [100.0], 1.0)


def local_minima(v):
    """Values at the interior local minima of a series: below the left
    neighbour and not above the right one (test oracle)."""
    inner = v[1:-1]
    return inner[(inner < v[:-2]) & (inner <= v[2:])]


def test_windowed_amplitudes_synthetic_oracle():
    # v(t) = v_eq - A exp(-t/T) (1 - cos(w t)) / 2 has one minimum per period
    # with amplitude ~ A exp(-2 pi n / (w T)).
    A, T, omega, dt = 2.0, 2000.0, np.pi / 50.0, 0.05
    t = np.arange(0.0, 3000.0, dt)
    v = 10.0 - A * np.exp(-t / T) * (1.0 - np.cos(omega * t)) / 2.0
    f = windowed_amplitudes(v, 10.0, dt, 2.0 * np.pi / omega)
    fit = fit_growth_rate(f)
    assert fit.k == pytest.approx(-2.0 * np.pi / (omega * T), rel=1e-3)
    # minima sit at w t = pi + 2 pi (n - 1), so the fitted intercept carries
    # the half-period phase factor exp(pi / (w T))
    assert fit.a == pytest.approx(A * np.exp(np.pi / (omega * T)), rel=1e-3)


def test_windowed_amplitudes_constant_series_errors():
    f = windowed_amplitudes(np.full(1000, 7.0), 7.0, 0.05, 5.0)
    with pytest.raises(InsufficientDataError):
        fit_growth_rate(f)


def test_windowed_amplitudes_one_per_period_under_ripple():
    t = np.arange(0.0, 200.0, 0.05)
    # slow carrier with a faster low-amplitude ripple riding on it; at the
    # carrier's troughs, t = 2 pi (2n + 1), the ripple term is lowest too
    v = 10.0 - 0.5 * (1 - np.cos(0.5 * t)) - 0.01 * np.cos(5.0 * t)
    f = windowed_amplitudes(v, 10.0, 0.05, 4.0 * np.pi)
    assert len(f) == 15
    assert len(local_minima(v)) >= 2 * len(f)  # the ripple adds minima at the crests
    np.testing.assert_allclose(f, 1.01, atol=1e-3)


def test_windowed_amplitudes_matches_minima_on_clean_signal():
    t = np.arange(0.0, 500.0, 0.05)
    v = 10.0 - np.exp(-t / 300.0) * (1 - np.cos(2 * np.pi * t / 50.0))
    by_minima = 10.0 - local_minima(v)
    by_window = windowed_amplitudes(v, 10.0, 0.05, 50.0)
    assert len(by_window) == 10
    np.testing.assert_allclose(by_window, by_minima, rtol=1e-6)


def test_windowed_amplitudes_rejects_windows_below_one_sample():
    with pytest.raises(ParameterError):
        windowed_amplitudes(np.zeros(100), 0.0, 0.05, 0.01)
    with pytest.raises(ParameterError):
        windowed_amplitudes(np.zeros(100), 0.0, 0.05, float("inf"))


@pytest.mark.parametrize("delta", [0.7, 0.75])
def test_growth_rate_from_record_invariant_to_recording_stride(
    table1_params, growth_sweep, delta
):
    coarse = run_single_lane(
        table1_params, 50, delta, 0.01, 800.0, perturbation=(0, 1.0), record_stride=10
    )
    k_fine = growth_sweep[delta]["k"]
    k_coarse = growth_rate_from_record(coarse).k
    assert np.sign(k_coarse) == np.sign(k_fine)
    assert k_coarse == pytest.approx(k_fine, abs=1e-3)


def test_growth_rate_from_record_without_oscillation_errors():
    # at N=2 and zero delay the k=1 eigenvalue 2c is real: no period to window
    p = ModelParams()
    record = run_single_lane(p, 2, 0.0, 0.01, 300.0, perturbation=(0, 1.0))
    with pytest.raises(InsufficientDataError):
        growth_rate_from_record(record)


def test_fit_growth_rate_exact_log_linear():
    n = np.arange(1, 9)
    fit = fit_growth_rate(2.0 * np.exp(-1.0 * n))
    assert fit.k == pytest.approx(-1.0, abs=1e-12)
    assert fit.a == pytest.approx(2.0, abs=1e-12)
    assert fit.residual < 1e-12


def test_fit_growth_rate_drops_nonpositive_cycles():
    f = np.array([np.exp(-1.0), -0.5, np.exp(-3.0), np.exp(-4.0), np.exp(-5.0)])
    fit = fit_growth_rate(f)
    assert fit.k == pytest.approx(-1.0, abs=1e-9)
    with pytest.raises(InsufficientDataError):
        fit_growth_rate([1.0, -1.0, 0.0, -2.0])


def test_fit_growth_rate_noise_recovery():
    rng = np.random.default_rng(1234)
    n = np.arange(1, 13)
    k_true, a_true = -0.45, 3.0
    errors = []
    for _ in range(100):
        f = a_true * np.exp(k_true * n) * (1.0 + rng.uniform(-0.01, 0.01, n.size))
        errors.append(abs(fit_growth_rate(f).k - k_true))
    assert max(errors) < 0.05


def test_lane_imbalance_counts():
    assert lane_imbalance(np.array([0] * 50)) == 50
    assert lane_imbalance(np.array([0] * 25 + [1] * 25)) == 0
    assert lane_imbalance(np.array([0] * 27 + [1] * 23)) == 4
    relabeled = np.array([1] * 27 + [0] * 23)
    assert lane_imbalance(relabeled) == 4


def test_aggregate_monte_carlo_basic():
    mean, std = aggregate_monte_carlo([np.ones(5), np.ones(5)])
    np.testing.assert_array_equal(mean, 1.0)
    np.testing.assert_array_equal(std, 0.0)
    mean, std = aggregate_monte_carlo([np.zeros(3), np.full(3, 2.0)])
    np.testing.assert_allclose(mean, 1.0)
    np.testing.assert_allclose(std, np.sqrt(2.0))


def test_aggregate_monte_carlo_order_invariant():
    rng = np.random.default_rng(0)
    series = [rng.normal(size=40) for _ in range(10)]
    mean1, std1 = aggregate_monte_carlo(series)
    mean2, std2 = aggregate_monte_carlo(series[::-1])
    np.testing.assert_array_equal(mean1, mean2)
    np.testing.assert_array_equal(std1, std2)


def test_aggregate_monte_carlo_shape_mismatch():
    with pytest.raises(ShapeError):
        aggregate_monte_carlo([np.zeros(3), np.zeros(4)])
