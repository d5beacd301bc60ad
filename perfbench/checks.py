"""Output checks made apart from the program.

Each check recomputes what the artifacts must hold from the model equations
(with constants and formulas written out here, not imported from the
package) or from properties the method must have.  A check returns a list of
problems; an empty list means the output passed.  The stability check instead
classifies every call of a round as passed or failed.
"""
from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
from scipy.special import lambertw

from workloads import (
    D_MIN,
    LAMBDA_RATE,
    SINGLE_LANE_DELAY,
    SINGLE_LANE_DT,
    SINGLE_LANE_N,
    TRACK_LENGTH,
    V_MAX,
    scale_constant,
    tau_c_exact,
)

CAR_SIZE = 5.0
LOAD_BALANCE_N = 50
LOAD_BALANCE_DELTA = 5.0
SINGLE_LANE_DELTA = 18.63
PERTURBATION = 1.0

# Tolerances.  CSV numbers carry 12 significant digits, so a position near
# 1.6e4 m is known to about 1e-8 m; the bounds below leave a wide margin over
# that rounding and stay far below any real fault.
VELOCITY_TOL = 1e-6  # m/s, recomputed velocity law
EULER_TOL = 1e-6  # m, x[s+1] - x[s] - dt v[s]
COUNT_TOL = 1e-6  # flow * delta against the nearest integer
MEAN_TOL = 1e-8  # relative, Monte Carlo means and deviations
TAU_C_TOL = 1e-3  # s, the bisection tolerance critical_reaction_time claims
GROWTH_TOL = 1e-9  # 1/s (relative above 1), against the 17-branch scan
BRANCHES = range(-8, 9)


def read_table(path):
    """('#' metadata dict, header list, float array) of a numeric CSV."""
    meta, header_at = {}, 0
    with open(path, encoding="utf-8") as fh:
        for header_at, line in enumerate(fh):
            if not line.startswith("#"):
                header = line.strip().split(",")
                break
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
    data = np.loadtxt(path, delimiter=",", skiprows=header_at + 1, ndmin=2)
    return meta, header, data


def read_events(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header = rows[0]
    return [dict(zip(header, r)) for r in rows[1:]]


def velocity_law(headway, lambda_rate=LAMBDA_RATE):
    v = V_MAX * (1.0 - np.exp(-(lambda_rate / V_MAX) * (headway - D_MIN)))
    return np.maximum(v, 0.0)


def ring_headways(x, track_length):
    """Headways along the last axis; vehicle j + 1 leads j, the first leads the last."""
    return np.concatenate([np.diff(x, axis=-1), x[..., :1] + track_length - x[..., -1:]], axis=-1)


def growth_rate_reference(n: int, tau: float) -> float:
    """Largest real part of the characteristic roots over 17 scipy Lambert-W branches."""
    k = np.arange(1, n)
    eigs = -scale_constant(n) * (1.0 - np.exp(2j * np.pi * k / n))
    if tau == 0:
        return float(eigs.real.max())
    return max(float((lambertw(eigs * tau, b) / tau).real.max()) for b in BRANCHES)


def _integer_counts(q, delta, name) -> list[str]:
    counts = np.asarray(q) * delta
    if np.any(counts < -COUNT_TOL) or np.any(np.abs(counts - np.round(counts)) > COUNT_TOL):
        return [f"{name}: flow x delta is not a nonnegative integer"]
    return []


def _replay_lanes(events, n_vehicles) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Apply the lane_change rows to all-in-lane-0; (problems, times, lane snapshots)."""
    problems = []
    lanes = np.zeros(n_vehicles, dtype=np.int64)
    times, snaps = [], []
    for e in events:
        if e["event"] == "collision":
            problems.append(f"collision event at t={e['t']}")
        if e["event"] != "lane_change":
            continue
        v, src, dst = int(e["vehicle"]), int(e["from_lane"]), int(e["to_lane"])
        if lanes[v] != src or dst != 1 - src:
            problems.append(f"lane change of vehicle {v} at t={e['t']} does not follow its lane")
        lanes[v] = dst
        times.append(float(e["t"]))
        snaps.append(lanes.copy())
    return problems, np.array(times), np.array(snaps).reshape(-1, n_vehicles)


def _lanes_at(times, snaps, n_vehicles, t):
    """Replayed lane vector after every change made at or before time t."""
    i = int(np.searchsorted(times, t, side="right"))
    return np.zeros(n_vehicles, dtype=np.int64) if i == 0 else snaps[i - 1]


def _imbalance_falls(delta_n, name) -> list[str]:
    if not delta_n[-1] <= delta_n[0] / 2:
        return [f"{name}: lane imbalance does not fall ({delta_n[0]} -> {delta_n[-1]})"]
    return []


def check_single_lane(out: Path, perturbed: int) -> list[str]:
    problems = []
    n, dt, track = SINGLE_LANE_N, SINGLE_LANE_DT, TRACK_LENGTH
    meta, _, data = read_table(out / "trajectory.csv")
    if data.shape[0] % n:
        return ["trajectory.csv: row count is not a multiple of the fleet size"]
    samples = data.shape[0] // n
    t = data[::n, 0]
    x = data[:, 2].reshape(samples, n)
    v = data[:, 3].reshape(samples, n)
    if not np.array_equal(data[:, 1].reshape(samples, n), np.tile(np.arange(n), (samples, 1))):
        problems.append("trajectory.csv: vehicle column out of order")
    if np.any(np.abs(data[:, 0].reshape(samples, n) - t[:, None]) > 0) or np.any(
        np.abs(t - dt * np.arange(samples)) > 1e-9
    ):
        problems.append("trajectory.csv: sample times are not s * dt")
    x0 = track / n * np.arange(n)
    x0[perturbed] += PERTURBATION
    if np.any(np.abs(x[0] - x0) > EULER_TOL):
        problems.append("trajectory.csv: initial state is not the perturbed equilibrium")

    lag = round(SINGLE_LANE_DELAY / dt)
    delayed = x[np.maximum(np.arange(samples) - lag, 0)]
    err = np.abs(v - velocity_law(ring_headways(delayed, track)))
    if np.any(err > VELOCITY_TOL):
        s, j = np.unravel_index(int(np.argmax(err)), err.shape)
        problems.append(f"velocity at sample {s}, vehicle {j} breaks the delayed velocity law")
    err = np.abs(np.diff(x, axis=0) - dt * v[:-1])
    if np.any(err > EULER_TOL):
        s, j = np.unravel_index(int(np.argmax(err)), err.shape)
        problems.append(f"position step at sample {s}, vehicle {j} is not dt * v")

    closed = ring_headways(x, track).min(axis=1) <= CAR_SIZE
    if meta.get("termination") != "collision" or not closed[-1] or np.any(closed[:-1]):
        problems.append("collision is not detected exactly at the last sample")

    rate = growth_rate_reference(n, SINGLE_LANE_DELAY)
    _, _, fit = read_table(out / "growth_fit.csv")
    k = fit[:, 3]
    if not (SINGLE_LANE_DELAY > tau_c_exact(n) and rate > 0 and np.all(k > 0)):
        problems.append(f"growth fit k={k[0]} disagrees with the unstable root {rate}")

    _, _, flow = read_table(out / "flow_field.csv")
    problems += _integer_counts(flow[:, 2], SINGLE_LANE_DELTA, "flow_field.csv")
    return problems


def check_load_balance(out: Path, replicas: int) -> list[str]:
    problems = []
    imbalance, flows = [], []
    for i in range(replicas):
        _, _, series = read_table(out / f"lb_replica_{i:02d}.csv")
        _, _, flow = read_table(out / f"lb_flow_{i:02d}.csv")
        events = read_events(out / f"lb_events_{i:02d}.csv")
        found, times, snaps = _replay_lanes(events, LOAD_BALANCE_N)
        problems += [f"replica {i}: {p}" for p in found]
        replayed = np.array(
            [
                abs(LOAD_BALANCE_N - 2 * int(_lanes_at(times, snaps, LOAD_BALANCE_N, t).sum()))
                for t in series[:, 0]
            ]
        )
        if not np.array_equal(replayed, series[:, 1]):
            problems.append(f"replica {i}: delta_n differs from the replayed lane changes")
        problems += _imbalance_falls(series[:, 1], f"replica {i}")
        problems += _integer_counts(flow[:, 1], LOAD_BALANCE_DELTA, f"lb_flow_{i:02d}.csv")
        imbalance.append(series)
        flows.append(flow)
    for name, parts in (("lb_mean.csv", imbalance), ("lb_flow_mean.csv", flows)):
        _, _, table = read_table(out / name)
        values = np.stack([p[:, 1] for p in parts])
        expected = np.column_stack(
            [parts[0][:, 0], values.mean(axis=0), values.std(axis=0, ddof=1)]
        )
        if table.shape != expected.shape or np.any(
            np.abs(table - expected) > MEAN_TOL * np.maximum(1.0, np.abs(expected))
        ):
            problems.append(f"{name}: does not match the per-replica CSVs")
    return problems


def classify_stability(rows) -> tuple[list[int], list[str]]:
    """(indices of failed calls, problems) for one stability round.

    A call fails when it raises or its value is off the reference.  Failures
    of the known defect are expected: tau_c for N <= 6, and growth rates
    under-reported (a W_-1 value taken for W_0) within [0.9, 1.2] * tau_c.
    Any other failure is a problem that makes the run incorrect.
    """
    failed, problems = [], []
    for i, (kind, n, tau, value, error) in enumerate(rows):
        exact_tc = tau_c_exact(n)
        if kind == "tau_c":
            if error is None and abs(value - exact_tc) <= TAU_C_TOL:
                continue
            failed.append(i)
            if n > 6:
                problems.append(f"tau_c({n}) = {value} ({error}); exact {exact_tc}")
            continue
        reference = growth_rate_reference(n, tau)
        if error is None and abs(value - reference) <= GROWTH_TOL * max(1.0, abs(reference)):
            continue
        failed.append(i)
        known = error is None and value < reference and 0.9 <= tau / exact_tc <= 1.2
        if not known:
            problems.append(f"growth({n}, {tau}) = {value} ({error}); reference {reference}")
    return failed, problems
