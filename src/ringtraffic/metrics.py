"""Quantitative observables: flow rates, oscillation growth, lane statistics.

All functions are pure post-processing over immutable trajectory records.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import velocity_from_headway
from .errors import InsufficientDataError, ParameterError, RangeError, ShapeError
from .records import TrajectoryRecord, _interpolate
from .single_lane import ring_crossings
from .stability import rightmost_roots

# Elements of the (times, positions, vehicles) block that flow_field counts at once.
FLOW_BLOCK = 1 << 14


@dataclass(frozen=True)
class FlowField:
    """Flow-rate samples on a (time, position) grid."""

    times: np.ndarray
    positions: np.ndarray
    q: np.ndarray  # (len(times), len(positions)), vehicles/s
    delta: float


@dataclass(frozen=True)
class GrowthFit:
    """Exponential fit ``a * exp(k * n)`` to the per-cycle amplitudes."""

    amplitudes: np.ndarray  # f(n) for n = 1..len
    a: float
    k: float
    residual: float  # rms residual of the log-linear fit


def flow_rate(record: TrajectoryRecord, t: float, x: float, delta: float) -> float:
    """Vehicles crossing position ``x`` per second, averaged over ``(t-delta, t]``.

    Summed over all vehicles, hence over all lanes in two-lane runs.
    """
    return float(flow_field(record, [t], [x], delta).q[0, 0])


def flow_series(record: TrajectoryRecord, x: float, times, delta: float) -> np.ndarray:
    """Flow rate at a fixed position over a grid of times."""
    return flow_field(record, times, [x], delta).q[:, 0]


def flow_field(record: TrajectoryRecord, times, positions, delta: float) -> FlowField:
    """Flow rate on the outer product of the given time and position grids.

    Each vehicle counts once per periodic image of a detector position that
    its unwrapped trajectory passes inside ``(t-delta, t]``, which stays exact
    when it laps the ring several times inside the window.  Blocks of time
    rows are evaluated at once, as ``(times, positions, vehicles)`` arrays of
    about ``FLOW_BLOCK`` elements.  A record of ``(S, ..., N)`` positions,
    leading row axes before the vehicles, gives ``q`` of shape
    ``(len(times), len(positions), ...)``: each row's own flow.
    """
    times = np.asarray(times, dtype=float)
    positions = np.asarray(positions, dtype=float)
    if times.ndim != 1 or positions.ndim != 1:
        raise ShapeError(f"times {times.shape} and positions {positions.shape} must be 1-D")
    if not (math.isfinite(delta) and delta > 0):
        raise ParameterError(f"delta must be positive, got {delta!r}")
    length = record.params.track_length
    if not np.all((0 <= positions) & (positions < length)):
        raise RangeError(f"positions {positions} outside the track [0, {length})")
    if not np.all((record.times[0] <= times - delta) & (times <= record.times[-1])):
        raise RangeError(
            f"windows of {delta} s ending at {times} not covered by the record "
            f"[{record.times[0]}, {record.times[-1]}]"
        )
    q = _flows(record.times, record.positions, length, times, positions, delta)
    return FlowField(times=times, positions=positions, q=q, delta=delta)


def _flows(sample_times, samples, length: float, times, positions, delta: float) -> np.ndarray:
    """The counts of :func:`flow_field` from ``samples`` of shape
    ``(S, ..., N)`` taken at ``sample_times``, which must cover every window."""
    x = positions.reshape(positions.shape + (1,) * (samples.ndim - 1))
    q = np.empty((times.size, positions.size, *samples.shape[1:-1]))
    rows = max(1, FLOW_BLOCK // max(1, positions.size * samples[0].size))
    for i in range(0, times.size, rows):
        t = times[i : i + rows]
        start = _interpolate(sample_times, samples, t - delta)[:, None] - x
        end = _interpolate(sample_times, samples, t)[:, None] - x
        q[i : i + rows] = ring_crossings(start, end, length).sum(axis=-1) / delta
    return q


def windowed_amplitudes(velocities, v_eq: float, dt: float, window: float) -> np.ndarray:
    """Per-period amplitudes ``v_eq - min(v)`` over whole windows of ``window`` s.

    ``dt`` is the spacing of the series.  Chopping at the period scale keeps
    exactly one minimum per cycle, however many ripples ride on the carrier;
    a trailing partial window is ignored.
    """
    v = np.asarray(velocities, dtype=float)
    if v.ndim != 1:
        raise ShapeError("velocity series must be one-dimensional")
    if not (math.isfinite(window) and dt > 0 and window >= dt):
        raise ParameterError(f"need a finite window of at least dt={dt!r} s, got {window!r}")
    size = int(round(window / dt))
    n_windows = v.size // size
    return v_eq - v[: n_windows * size].reshape(n_windows, size).min(axis=1)


def fit_growth_rate(amplitudes) -> GrowthFit:
    """Log-linear least squares of ``ln f(n)`` against the cycle index ``n``.

    Nonpositive amplitudes cannot enter the log fit and are dropped with their
    cycle index; at least three must remain.
    """
    f = np.asarray(amplitudes, dtype=float)
    n = np.arange(1, f.size + 1)
    keep = f > 0
    if np.count_nonzero(keep) < 3:
        raise InsufficientDataError("need at least 3 positive amplitudes to fit")
    n = n[keep].astype(float)
    logf = np.log(f[keep])
    k, log_a = np.polyfit(n, logf, 1)
    residual = float(np.sqrt(np.mean((logf - (k * n + log_a)) ** 2)))
    return GrowthFit(amplitudes=f, a=float(np.exp(log_a)), k=float(k), residual=residual)


def growth_rate_from_record(record: TrajectoryRecord, vehicle: int = 0) -> GrowthFit:
    """Growth fit for one vehicle of an equilibrium-based perturbation run.

    The equilibrium velocity is taken from the run's equal-spacing headway.
    Amplitudes are read over windows of one period ``2 pi / |Im lambda_1|`` of
    the slowest ring mode (k = 1), from its closed-form root, with the window
    length in samples taken from the record's sample spacing, so any
    recording stride sees the same cycles.  The first window, dominated by the
    injection transient, is dropped.
    """
    p = record.params
    n = record.n_vehicles
    omega = abs(rightmost_roots(n, record.delay, p)[0].imag)
    cycles = omega * (record.times[-1] - record.times[0]) / (2.0 * math.pi)
    if cycles < 1:
        raise InsufficientDataError(f"record spans {cycles:.3g} periods of the k=1 mode")
    v_eq = velocity_from_headway(p.track_length / n, p)
    spacing = float(record.times[1] - record.times[0])
    f = windowed_amplitudes(record.velocities[:, vehicle], v_eq, spacing, 2.0 * math.pi / omega)
    return fit_growth_rate(f[1:])


def lane_imbalance(lanes):
    """Absolute difference in vehicle counts between the two lanes, along the
    last axis: an int for one fleet, an array for a stack of lane vectors.
    With lanes 0 and 1, it is ``|N - 2 * (vehicles in lane 1)|``."""
    lanes = np.asarray(lanes)
    diff = np.abs(lanes.shape[-1] - 2 * lanes.sum(axis=-1, dtype=np.int64))
    return int(diff) if np.ndim(diff) == 0 else diff


def lane_change_count_series(events, vehicle: int, times) -> np.ndarray:
    """Cumulative lane changes of one vehicle at the given times, from a run's events."""
    times = np.asarray(times, dtype=float)
    change_times = np.sort(
        [e.time for e in events if e.kind == "lane_change" and e.vehicle == vehicle]
    )
    return np.searchsorted(change_times, times, side="right").astype(np.int64)


def aggregate_monte_carlo(series_list) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise mean and sample standard deviation across replicas.

    Every replica must share the sampling grid (same shape).
    """
    if len(series_list) == 0:
        raise ParameterError("no replicas to aggregate")
    shapes = {np.asarray(s).shape for s in series_list}
    if len(shapes) != 1:
        raise ShapeError(f"replica series have mismatched shapes: {sorted(shapes)}")
    stacked = np.stack([np.asarray(s, dtype=float) for s in series_list])
    # Reduce in a canonical per-point order so a permutation of the replicas
    # yields bit-identical statistics.
    stacked = np.sort(stacked, axis=0)
    mean = stacked.mean(axis=0)
    if stacked.shape[0] == 1:
        std = np.zeros_like(mean)
    else:
        std = stacked.std(axis=0, ddof=1)
    return mean, std
