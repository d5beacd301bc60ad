"""Quantitative observables: flow rates, oscillation growth, lane statistics.

All functions are pure post-processing over immutable trajectory records.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import velocity_from_headway
from .errors import InsufficientDataError, ParameterError, RangeError, ShapeError
from .records import TrajectoryRecord


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


def _crossings(x_start: np.ndarray, x_end: np.ndarray, x: float, track_length: float) -> float:
    """Number of times unwrapped trajectories pass the wrapped location ``x``.

    Counts every periodic image ``x + m*L`` inside ``(x_start, x_end]``, which
    stays exact when a vehicle laps the ring several times inside the window.
    """
    return float(
        np.sum(np.floor((x_end - x) / track_length) - np.floor((x_start - x) / track_length))
    )


def flow_rate(record: TrajectoryRecord, t: float, x: float, delta: float) -> float:
    """Vehicles crossing position ``x`` per second, averaged over ``(t-delta, t]``.

    Summed over all vehicles, hence over all lanes in two-lane runs.
    """
    if not (math.isfinite(delta) and delta > 0):
        raise ParameterError(f"delta must be positive, got {delta!r}")
    length = record.params.track_length
    if not 0 <= x < length:
        raise RangeError(f"x={x!r} outside the track [0, {length})")
    if t - delta < record.times[0] or t > record.times[-1]:
        raise RangeError(
            f"window ({t - delta}, {t}] not covered by the record "
            f"[{record.times[0]}, {record.times[-1]}]"
        )
    start = record.positions_at(t - delta)
    end = record.positions_at(t)
    return _crossings(start, end, x, length) / delta


def flow_series(record: TrajectoryRecord, x: float, times, delta: float) -> np.ndarray:
    """Flow rate at a fixed position over a grid of times."""
    return np.array([flow_rate(record, float(t), x, delta) for t in np.asarray(times)])


def flow_field(record: TrajectoryRecord, times, positions, delta: float) -> FlowField:
    """Flow rate on the outer product of the given time and position grids."""
    times = np.asarray(times, dtype=float)
    positions = np.asarray(positions, dtype=float)
    q = np.empty((times.size, positions.size))
    for i, t in enumerate(times):
        for j, x in enumerate(positions):
            q[i, j] = flow_rate(record, float(t), float(x), delta)
    return FlowField(times=times, positions=positions, q=q, delta=delta)


def cyclic_amplitudes(velocities, v_eq: float, prominence: float) -> np.ndarray:
    """Per-cycle oscillation amplitudes ``f(n) = v_eq - v_min(n)``.

    Cycles are delimited by successive local minima of the velocity series;
    ``prominence`` rejects numerical ripple.  At least three minima are
    required for a growth fit to make sense downstream.
    """
    from scipy.signal import find_peaks  # deferred: the import costs about 1 s

    v = np.asarray(velocities, dtype=float)
    if v.ndim != 1:
        raise ShapeError("velocity series must be one-dimensional")
    minima, _ = find_peaks(-v, prominence=prominence)
    if minima.size < 3:
        raise InsufficientDataError(
            f"found {minima.size} velocity minima; need at least 3 cycles"
        )
    return v_eq - v[minima]


def windowed_amplitudes(
    velocities, v_eq: float, dt: float, window: float, skip_initial: int = 0
) -> np.ndarray:
    """Per-period amplitudes ``v_eq - min(v)`` over fixed windows of ``window`` s.

    Robust variant of :func:`cyclic_amplitudes` for signals whose oscillation
    packet carries several ripples per period: chopping at the period scale
    keeps exactly one minimum per cycle.  ``skip_initial`` drops leading cycles
    dominated by the injection transient; a trailing partial window is ignored.
    """
    v = np.asarray(velocities, dtype=float)
    if v.ndim != 1:
        raise ShapeError("velocity series must be one-dimensional")
    if not (math.isfinite(window) and window > 0 and dt > 0):
        raise ParameterError("window and dt must be positive")
    size = int(round(window / dt))
    n_windows = v.size // size
    if n_windows - skip_initial < 3:
        raise InsufficientDataError(
            f"series spans {n_windows} cycles of {window} s; need at least "
            f"{skip_initial + 3}"
        )
    f = np.array([v_eq - v[i * size : (i + 1) * size].min() for i in range(n_windows)])
    return f[skip_initial:]


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


def growth_rate_from_record(
    record: TrajectoryRecord, vehicle: int = 0, prominence: float | None = None
) -> GrowthFit:
    """Growth fit for one vehicle of an equilibrium-based perturbation run.

    The equilibrium velocity is taken from the run's equal-spacing headway;
    the default prominence floor is ``1e-4 * v_max``.
    """
    p = record.params
    if prominence is None:
        prominence = 1e-4 * p.v_max
    v_eq = velocity_from_headway(p.track_length / record.n_vehicles, p)
    f = cyclic_amplitudes(record.vehicle_velocity(vehicle), v_eq, prominence)
    return fit_growth_rate(f)


def lane_imbalance(state) -> int:
    """Absolute difference in vehicle counts between the two lanes."""
    lanes = np.asarray(state.lanes if hasattr(state, "lanes") else state)
    return int(abs(np.count_nonzero(lanes == 0) - np.count_nonzero(lanes == 1)))


def lane_imbalance_series(record: TrajectoryRecord) -> np.ndarray:
    """Lane imbalance at every recorded sample of a two-lane run."""
    if record.lanes is None:
        raise ParameterError("record does not carry lane assignments")
    return np.abs(
        np.count_nonzero(record.lanes == 0, axis=1) - np.count_nonzero(record.lanes == 1, axis=1)
    )


def lane_change_count_series(record: TrajectoryRecord, vehicle: int, times=None) -> np.ndarray:
    """Cumulative lane changes of one vehicle at the given times."""
    times = record.times if times is None else np.asarray(times, dtype=float)
    change_times = np.sort(
        [e.time for e in record.events if e.kind == "lane_change" and e.vehicle == vehicle]
    )
    return np.searchsorted(change_times, times, side="right").astype(np.int64)


def distance_series(record: TrajectoryRecord, vehicle: int) -> np.ndarray:
    """Distance driven by one vehicle since the start of the run."""
    return record.positions[:, vehicle] - record.positions[0, vehicle]


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
