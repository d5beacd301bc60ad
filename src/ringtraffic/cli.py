"""Command-line interface: experiment execution and CSV artifact emission.

One subcommand per experiment kind.  Every run writes its artifacts plus a
``manifest.json`` that echoes the fully resolved config, the seed list, and
per-replica termination summaries; re-running a manifest's config with the
same seeds reproduces the CSV bodies byte for byte.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time as _time
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .config import KIND_DEFAULTS, KINDS, ScenarioConfig, load_config
from .core import fundamental_diagram_curve, fundamental_diagram_summary
from .errors import (
    ConfigurationError,
    InsufficientDataError,
    NumericalError,
    ParameterError,
    TrafficError,
)
from .lane_change import LaneChangeParams, run_lockstep, run_two_lane
from .metrics import (
    _flows,
    aggregate_monte_carlo,
    flow_field,
    growth_rate_from_record,
    lane_change_count_series,
)
from .records import TERMINATED_COLLISION, write_events_csv
# Under its own name, per-layer tracing times the CLI's tables apart from trajectories.
from .records import write_csv as _write_csv
from .single_lane import run_single_lane
from .stability import critical_reaction_time, max_growth_rate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_COLLISION = 4


@dataclass
class RunManifest:
    """Record of one experiment execution."""

    kind: str
    config: dict
    config_hash: str
    seeds: list[int]
    artifacts: list[str] = field(default_factory=list)
    terminations: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    wall_clock_s: float = 0.0
    workers: int = 1
    version: str = __version__

    def to_dict(self) -> dict:
        return {"tool": "ringtraffic", **asdict(self)}

    def write(self, out_dir: Path) -> Path:
        path = out_dir / "manifest.json"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def config_hash(config_dict: dict) -> str:
    canonical = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _meta_lines(cfg: ScenarioConfig, extra: dict | None = None) -> list[str]:
    meta = {
        "tool": f"ringtraffic {__version__}",
        "kind": cfg.kind,
        "config_hash": config_hash(cfg.to_dict()),
    }
    if extra:
        meta.update(extra)
    return [f"# {k}={v}" for k, v in meta.items()]


# ---------------------------------------------------------------------------
# Per-kind runners
# ---------------------------------------------------------------------------


def _run_fundamental_diagram(cfg: ScenarioConfig, out: Path, workers: int):
    p = cfg.params
    resolution = cfg["rho_resolution_per_km"] / 1000.0  # to vehicles/m
    rho = np.arange(resolution, p.rho_jam, resolution)
    if rho.size < 3:
        raise ConfigurationError("rho_resolution_per_km too coarse for the density range")
    summary = fundamental_diagram_summary(p)
    v_eq, q = fundamental_diagram_curve(p, rho)
    path = out / "fundamental_diagram.csv"
    _write_csv(
        path,
        _meta_lines(cfg),
        ["rho_veh_per_km", "v_eq_m_per_s", "q_veh_per_hr"],
        [rho * 1000.0, v_eq, q * 3600.0],
    )
    return (
        [path.name],
        [],
        {
            "q_star_veh_per_hr": summary.q_star * 3600.0,
            "rho_star_veh_per_km": summary.rho_star * 1000.0,
            "rho_jam_veh_per_km": summary.rho_jam * 1000.0,
        },
    )


def _write_trajectory(cfg: ScenarioConfig, out: Path, record, seed):
    """Write ``trajectory.csv``; return the artifacts, termination and summary
    of a single-run kind."""
    path = out / "trajectory.csv"
    record.write_csv(path, extra_metadata={"config_hash": config_hash(cfg.to_dict())})
    reason, time = record.termination_reason, record.termination_time
    return (
        [path.name],
        [{"replica": 0, "seed": seed, "reason": reason, "time": time}],
        {"termination": reason, "termination_time": time},
    )


def _run_single_lane(cfg: ScenarioConfig, out: Path, workers: int):
    p = cfg.params
    record = run_single_lane(
        p,
        cfg["n_vehicles"],
        cfg["delay"],
        cfg["dt"],
        cfg["t_end"],
        perturbation=(cfg["perturb_vehicle"], cfg["perturb_displacement"]),
        record_stride=cfg["record_stride"],
    )
    artifacts, terminations, summary = _write_trajectory(cfg, out, record, None)
    try:
        fit = growth_rate_from_record(record, vehicle=cfg["perturb_vehicle"])
        growth = out / "growth_fit.csv"
        _write_csv(
            growth,
            _meta_lines(cfg),
            ["n", "f_n", "a", "k", "residual"],
            [np.arange(1, fit.amplitudes.size + 1), fit.amplitudes, fit.a, fit.k, fit.residual],
        )
        artifacts.append(growth.name)
        summary["k"] = fit.k
    except InsufficientDataError as exc:
        summary["k"] = None
        summary["growth_fit_skipped"] = str(exc)

    delta = cfg["delta_flow"]
    t_hi = min(record.termination_time, cfg["t_end"])
    if t_hi > delta:
        times = np.linspace(delta, t_hi, cfg["flow_grid_nt"])
        xs = np.linspace(0.0, p.track_length, cfg["flow_grid_nx"], endpoint=False)
        ff = flow_field(record, times, xs, delta)
        flow_path = out / "flow_field.csv"
        _write_csv(
            flow_path,
            _meta_lines(cfg, {"delta": delta}),
            ["t", "x", "q_veh_per_s"],
            [ff.times[:, None], ff.positions, ff.q],
        )
        artifacts.append(flow_path.name)
    else:
        summary["flow_field_skipped"] = (
            f"run ends ({record.termination_reason}) at {t_hi} s, "
            f"not after delta_flow {delta} s: no flow window closes"
        )
    return artifacts, terminations, summary


def _run_stability(cfg: ScenarioConfig, out: Path, workers: int):
    p = cfg.params
    delays = cfg["delay_grid"]
    growth = [max_growth_rate(cfg["n_vehicles"], float(d), p).max_real_part for d in delays]
    path = out / "stability.csv"
    _write_csv(
        path,
        _meta_lines(cfg, {"n_vehicles": cfg["n_vehicles"], "method": "principal-branch Lambert W"}),
        ["delta_s", "max_re_per_s"],
        [delays, growth],
    )
    return [path.name], [], {"n_delays": len(delays)}


def _run_tau_curve(cfg: ScenarioConfig, out: Path, workers: int):
    p = cfg.params
    taus = [critical_reaction_time(int(n), p) for n in cfg["n_list"]]
    path = out / "tau_curve.csv"
    meta = _meta_lines(cfg, {"method": "closed form"})
    _write_csv(path, meta, ["n_vehicles", "tau_s"], [cfg["n_list"], taus])
    return [path.name], [], {"tau_s": {str(n): tau for n, tau in zip(cfg["n_list"], taus)}}


class _LoadBalanceTables:
    """Per-sample reduction of load-balance rows: lane imbalance and the flow
    at half the track over ``(t - delta, t]`` at every sample ``t >= delta``.

    A sample keeps each row's lane-1 count; its tables turn the counts into
    the imbalance, ``|N - 2 * count|`` as :func:`lane_imbalance` has it.

    Flows are counted from one window of every row's last ``2 keep``
    positions, ``keep`` samples covering any flow window.  The rows of one
    ``sample`` call share their time history: when their window is full they
    are counted together and it rolls by ``keep``.  A row's remaining samples
    are counted when its tables are taken.
    """

    def __init__(self, cfg: ScenarioConfig, rows: int, size: int, n_vehicles: int):
        self.delta, self.length = cfg["delta_flow"], cfg.params.track_length
        self.x = np.array([self.length / 2.0])
        self.keep = math.ceil(self.delta / (cfg["dt"] * cfg["record_stride"])) + 2
        self.times = np.empty((rows, size))
        self.n = n_vehicles
        self.lane1 = np.empty((rows, size), dtype=np.int64)
        self.flow = np.empty((rows, size))
        self.window = np.empty((2 * self.keep, rows, n_vehicles))
        self.offset = np.zeros(rows, dtype=np.int64)  # the sample in window slot 0
        self.done = np.zeros(rows, dtype=np.int64)  # samples whose flow is counted

    def sample(self, rows, k, t, positions, velocities, lanes, phis):
        at = slice(None) if len(rows) == len(self.times) else rows
        self.times[at, k] = t
        self.lane1[at, k] = lanes.sum(axis=-1, dtype=np.int64)
        slot = k - self.offset[rows[0]]
        if slot == len(self.window):
            self._count(rows, k)
            self.window[: self.keep, at] = self.window[self.keep :, at]
            self.offset[at] += self.keep
            slot -= self.keep
        self.window[slot, at] = positions

    def _count(self, rows, end: int) -> None:
        """Count the flows of samples ``done..end`` of rows that share them."""
        r = rows[0]
        start, done = self.offset[r], self.done[r]
        due = self.times[r, done + np.searchsorted(self.times[r, done:end], self.delta) : end]
        window = self.window[: end - start, rows]
        q = _flows(self.times[r, start:end], window, self.length, due, self.x, self.delta)
        self.flow[rows, end - due.size : end] = q[:, 0].T
        self.done[rows] = end

    def tables(self, r: int, end) -> dict:
        k = end.samples
        self._count([r], k)
        times = self.times[r, :k]
        due = np.searchsorted(times, self.delta)
        return {
            "replica": [times, np.abs(self.n - 2 * self.lane1[r, :k])],
            "flow": [times[due:], self.flow[r, due:k]],
        }


class _AggressiveTables:
    """Per-sample reduction of aggressive-driver rows: the distance driven by
    the aggressive and the control vehicle, and their lane changes."""

    def __init__(self, vehicles: list[int], rows: int, size: int, n_vehicles: int):
        self.vehicles = vehicles
        self.times = np.empty((rows, size))
        self.start = np.empty((rows, len(vehicles)))
        self.distance = np.empty((rows, size, len(vehicles)))

    def sample(self, rows, k, t, positions, velocities, lanes, phis):
        x = positions[:, self.vehicles]
        if k == 0:
            self.start[rows] = x
        self.times[rows, k] = t
        self.distance[rows, k] = x - self.start[rows]

    def tables(self, r: int, end) -> dict:
        times = self.times[r, : end.samples]
        changes = [lane_change_count_series(end.events, v, times) for v in self.vehicles]
        return {"replica": [times, *changes, *self.distance[r, : end.samples].T]}


def _replica_results(sink, ends) -> list[dict]:
    """What each replica sends back: its tables (each the time column, then
    one array per series), events and termination, but no trajectory."""
    return [
        {**sink.tables(r, end), "events": end.events, "reason": end.reason, "time": end.time}
        for r, end in enumerate(ends)
    ]


def _load_balance_replicas(cfg: ScenarioConfig, seeds: list[int]) -> list[dict]:
    sink, ends = run_lockstep(
        cfg.params,
        LaneChangeParams(r=cfg["r"], p=cfg["p"]),
        seeds,
        n_lane0=cfg["n_vehicles"],
        n_lane1=0,
        delay=cfg["delay"],
        dt=cfg["dt"],
        t_end=cfg["t_end"],
        record_stride=cfg["record_stride"],
        sink=partial(_LoadBalanceTables, cfg),
    )
    return _replica_results(sink, ends)


def _aggressive_replicas(cfg: ScenarioConfig, seeds: list[int]) -> list[dict]:
    p = cfg.params
    n_half = cfg["n_vehicles"] // 2
    stagger = cfg["stagger"]
    if stagger is None:
        stagger = p.track_length / cfg["n_vehicles"]
    aggressive = cfg["aggressive_vehicle"]
    if aggressive is None:
        aggressive = n_half  # first vehicle of the staggered lane
    control = cfg["control_vehicle"]
    if control is None:
        control = 0  # first vehicle of the unshifted lane
    sink, ends = run_lockstep(
        p,
        LaneChangeParams(r=cfg["r"], p=cfg["p"]),
        seeds,
        n_lane0=n_half,
        n_lane1=n_half,
        stagger=stagger,
        delay=cfg["delay"],
        dt=cfg["dt"],
        t_end=cfg["t_end"],
        lambda_overrides={aggressive: cfg["aggressive_lambda"]},
        record_stride=cfg["record_stride"],
        sink=partial(_AggressiveTables, [aggressive, control]),
    )
    return _replica_results(sink, ends)


def _load_balance_summary(means: dict) -> dict:
    return {
        "final_delta_n_mean": float(means["delta_n_mean"][-1]),
        "final_q_mean": float(means["q_mean"][-1]),
    }


def _aggressive_summary(means: dict) -> dict:
    dl_a, dl_c = means["dl_aggressive_mean"][-1], means["dl_control_mean"][-1]
    d_a, d_c = means["dist_aggressive_mean"][-1], means["dist_control_mean"][-1]
    summary = {"final_dl_aggressive_mean": float(dl_a), "final_dl_control_mean": float(dl_c)}
    if dl_c > 0:
        summary["lane_change_ratio"] = float(dl_a / dl_c)
    if d_c > 0:
        summary["velocity_advantage"] = float(d_a / d_c - 1.0)
    return summary


@dataclass(frozen=True)
class _Table:
    """One per-replica CSV, ``<prefix>_<name>_NN.csv``, and its Monte Carlo
    mean, ``<prefix>_<mean_name>.csv``.

    ``series`` pairs each value column after ``t`` with the mean CSV's
    columns for it: the mean, then optionally the standard deviation.
    """

    name: str
    mean_name: str
    series: tuple[tuple[str, tuple[str, ...]], ...]
    mean_meta: Callable[[ScenarioConfig], dict] = lambda cfg: {}


@dataclass(frozen=True)
class _ReplicaKind:
    """A seeded multi-replica experiment: the function that runs a batch of
    seeds in lockstep (module level, so worker processes can import it), the
    tables it returns per seed and the summary drawn from the mean columns."""

    prefix: str
    replicas: Callable[[ScenarioConfig, list[int]], list[dict]]
    tables: tuple[_Table, ...]
    summarize: Callable[[dict], dict]


_LOAD_BALANCE = _ReplicaKind(
    "lb",
    _load_balance_replicas,
    (
        _Table("replica", "mean", (("delta_n", ("delta_n_mean", "delta_n_std")),)),
        _Table(
            "flow",
            "flow_mean",
            (("q_veh_per_s", ("q_mean", "q_std")),),
            lambda cfg: {"delta": cfg["delta_flow"], "x": "track_length/2"},
        ),
    ),
    _load_balance_summary,
)

_AGGRESSIVE = _ReplicaKind(
    "agg",
    _aggressive_replicas,
    (
        _Table(
            "replica",
            "mean",
            (
                ("dl_aggressive", ("dl_aggressive_mean", "dl_aggressive_std")),
                ("dl_control", ("dl_control_mean", "dl_control_std")),
                ("dist_aggressive", ("dist_aggressive_mean",)),
                ("dist_control", ("dist_control_mean",)),
            ),
        ),
    ),
    _aggressive_summary,
)


def _pool_size(workers: int, replicas: int) -> int:
    """Processes a replica run uses: at most one per replica and per CPU."""
    return min(workers, replicas, os.cpu_count() or 1)


def _run_replicas(worker_fn, arg_list, workers: int) -> list:
    workers = _pool_size(workers, len(arg_list))
    if workers > 1:
        # imported here: the pool pulls in multiprocessing, which no other run needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker_fn, arg_list))
    return [worker_fn(args) for args in arg_list]


def _batches(seeds: list[int], count: int) -> list[list[int]]:
    """``count`` contiguous runs of the seeds, in order, sizes within one."""
    bounds = [len(seeds) * i // count for i in range(count + 1)]
    return [seeds[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _run_replica_kind(cfg: ScenarioConfig, out: Path, workers: int, kind: _ReplicaKind):
    seeds = cfg.seeds
    batches = _batches(seeds, _pool_size(workers, len(seeds)))
    results = [
        result
        for batch in _run_replicas(partial(kind.replicas, cfg), batches, workers)
        for result in batch
    ]

    artifacts = []
    terminations = []
    for i, (seed, res) in enumerate(zip(seeds, results)):
        meta = _meta_lines(cfg, {"seed": seed, "replica": i})
        for table in kind.tables:
            path = out / f"{kind.prefix}_{table.name}_{i:02d}.csv"
            _write_csv(path, meta, ["t", *(name for name, _ in table.series)], res[table.name])
            artifacts.append(path.name)
        path = out / f"{kind.prefix}_events_{i:02d}.csv"
        write_events_csv(path, res["events"], meta)
        artifacts.append(path.name)
        terminations.append(
            {"replica": i, "seed": seed, "reason": res["reason"], "time": res["time"]}
        )

    completed = sum(r["reason"] != TERMINATED_COLLISION for r in results)
    summary: dict = {"replicas_completed": completed}
    if completed == len(results):
        means = {}
        for table in kind.tables:
            columns, values = ["t"], [results[0][table.name][0]]
            for k, (_, names) in enumerate(table.series, start=1):
                stats = aggregate_monte_carlo([r[table.name][k] for r in results])
                columns += names
                values += stats[: len(names)]
                means.update(zip(names, stats))
            path = out / f"{kind.prefix}_{table.mean_name}.csv"
            _write_csv(path, _meta_lines(cfg, table.mean_meta(cfg)), columns, values)
            artifacts.append(path.name)
        summary.update(kind.summarize(means))
    return artifacts, terminations, summary


def _run_two_lane(cfg: ScenarioConfig, out: Path, workers: int):
    record = run_two_lane(
        cfg.params,
        LaneChangeParams(r=cfg["r"], p=cfg["p"], rng_seed=cfg["base_seed"]),
        n_lane0=cfg["n_lane0"],
        n_lane1=cfg["n_lane1"],
        stagger=cfg["stagger"],
        delay=cfg["delay"],
        dt=cfg["dt"],
        t_end=cfg["t_end"],
        record_stride=cfg["record_stride"],
    )
    artifacts, terminations, summary = _write_trajectory(cfg, out, record, cfg["base_seed"])
    events = out / "events.csv"
    write_events_csv(events, record.events, _meta_lines(cfg))
    artifacts.append(events.name)
    return artifacts, terminations, summary


_REPLICA_KINDS = {"load-balance": _LOAD_BALANCE, "aggressive": _AGGRESSIVE}

_RUNNERS = {
    "fundamental-diagram": _run_fundamental_diagram,
    "single-lane": _run_single_lane,
    "stability": _run_stability,
    "tau-curve": _run_tau_curve,
    **{name: partial(_run_replica_kind, kind=kind) for name, kind in _REPLICA_KINDS.items()},
    "two-lane": _run_two_lane,
}


def run_scenario(cfg: ScenarioConfig, out_dir, workers: int = 1) -> RunManifest:
    """Execute one experiment, write its artifacts and manifest, return the manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = _time.perf_counter()
    artifacts, terminations, summary = _RUNNERS[cfg.kind](cfg, out, workers)
    manifest = RunManifest(
        kind=cfg.kind,
        config=cfg.to_dict(),
        config_hash=config_hash(cfg.to_dict()),
        seeds=[t["seed"] for t in terminations if t["seed"] is not None],
        artifacts=artifacts,
        terminations=terminations,
        summary=summary,
        wall_clock_s=_time.perf_counter() - started,
        workers=_pool_size(workers, len(cfg.seeds)) if cfg.kind in _REPLICA_KINDS else 1,
    )
    manifest.write(out)
    return manifest


def exit_status(manifest: RunManifest) -> int:
    # A collision is a reported result of a single run, an anomaly in a replica kind.
    if manifest.kind in _REPLICA_KINDS and any(
        t["reason"] == TERMINATED_COLLISION for t in manifest.terminations
    ):
        return EXIT_COLLISION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringtraffic",
        description="Ring-road car-following experiments: stability, lane changes, flow.",
    )
    sub = parser.add_subparsers(dest="kind", required=True, metavar="|".join(KINDS))
    for kind in KINDS:
        k = sub.add_parser(kind, help=f"run the {kind} experiment")
        k.add_argument("--config", default=None, help="JSON config file")
        k.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key (params.KEY sets a model parameter)",
        )
        k.add_argument("--out", required=True, help="output directory")
        # Only the kinds that read a flag's key offer the flag.
        if "base_seed" in KIND_DEFAULTS[kind]:
            k.add_argument("--seed", type=int, default=None, help="base seed override")
        if "replicas" in KIND_DEFAULTS[kind]:
            k.add_argument("--replicas", type=int, default=None, help="replica count override")
            k.add_argument("--workers", type=int, default=1, help="parallel replica workers")
        k.add_argument(
            "--quiet", action="store_true", help="do not print the artifact list and the summary lines"
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = list(args.overrides)
    for flag, key in (("seed", "base_seed"), ("replicas", "replicas")):
        if getattr(args, flag, None) is not None:
            overrides.append(f"{key}={getattr(args, flag)}")
    workers = getattr(args, "workers", 1)
    try:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        cfg = load_config(kind=args.kind, path=args.config, overrides=overrides)
        manifest = run_scenario(cfg, args.out, workers=workers)
    except (ConfigurationError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except TrafficError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not args.quiet:
        for name in manifest.artifacts:
            print(f"wrote {Path(args.out) / name}")
        print(f"wrote {Path(args.out) / 'manifest.json'}")
        for key, value in manifest.summary.items():
            print(f"{key}: {value}")
    return exit_status(manifest)


if __name__ == "__main__":
    sys.exit(main())
