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
import os
import sys
import time as _time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .config import KINDS, ScenarioConfig, load_config
from .core import fundamental_diagram_curve, fundamental_diagram_summary
from .errors import (
    ConfigurationError,
    InsufficientDataError,
    NumericalError,
    ParameterError,
    TrafficError,
)
from .lane_change import LaneChangeParams, run_two_lane
from .metrics import (
    aggregate_monte_carlo,
    distance_series,
    flow_field,
    flow_series,
    growth_rate_from_record,
    lane_change_count_series,
    lane_imbalance_series,
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
        return {
            "tool": "ringtraffic",
            "version": self.version,
            "kind": self.kind,
            "config": self.config,
            "config_hash": self.config_hash,
            "seeds": self.seeds,
            "artifacts": self.artifacts,
            "terminations": self.terminations,
            "summary": self.summary,
            "wall_clock_s": self.wall_clock_s,
            "workers": self.workers,
        }

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
    summary = fundamental_diagram_summary(p, rho_resolution=resolution)
    rho = np.arange(resolution, p.rho_jam, resolution)
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


def _single_lane_record(cfg: ScenarioConfig):
    return run_single_lane(
        cfg.params,
        cfg["n_vehicles"],
        cfg["delay"],
        cfg["dt"],
        cfg["t_end"],
        perturbation=(cfg["perturb_vehicle"], cfg["perturb_displacement"]),
        record_stride=cfg["record_stride"],
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
    record = _single_lane_record(cfg)
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


def _replica_result(record, **tables) -> dict:
    """What a replica sends back: its tables (each the time column, then one
    array per series), events and termination, but not the whole record."""
    return {
        **tables,
        "events": record.events,
        "reason": record.termination_reason,
        "time": record.termination_time,
    }


def _load_balance_replica(cfg: ScenarioConfig, seed: int) -> dict:
    p = cfg.params
    record = run_two_lane(
        p,
        LaneChangeParams(r=cfg["r"], p=cfg["p"], rng_seed=seed),
        n_lane0=cfg["n_vehicles"],
        n_lane1=0,
        delay=cfg["delay"],
        dt=cfg["dt"],
        t_end=cfg["t_end"],
        record_stride=cfg["record_stride"],
    )
    delta = cfg["delta_flow"]
    flow_times = record.times[record.times >= delta]
    return _replica_result(
        record,
        replica=[record.times, lane_imbalance_series(record)],
        flow=[flow_times, flow_series(record, p.track_length / 2.0, flow_times, delta)],
    )


def _aggressive_replica(cfg: ScenarioConfig, seed: int) -> dict:
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
    record = run_two_lane(
        p,
        LaneChangeParams(r=cfg["r"], p=cfg["p"], rng_seed=seed),
        n_lane0=n_half,
        n_lane1=n_half,
        stagger=stagger,
        delay=cfg["delay"],
        dt=cfg["dt"],
        t_end=cfg["t_end"],
        lambda_overrides={aggressive: cfg["aggressive_lambda"]},
        record_stride=cfg["record_stride"],
    )
    return _replica_result(
        record,
        replica=[
            record.times,
            lane_change_count_series(record, aggressive),
            lane_change_count_series(record, control),
            distance_series(record, aggressive),
            distance_series(record, control),
        ],
    )


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
    """A seeded multi-replica experiment: the function that runs one replica
    (module level, so worker processes can import it), the tables it returns
    and the summary drawn from the mean columns."""

    prefix: str
    replica: Callable[[ScenarioConfig, int], dict]
    tables: tuple[_Table, ...]
    summarize: Callable[[dict], dict]


_LOAD_BALANCE = _ReplicaKind(
    "lb",
    _load_balance_replica,
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
    _aggressive_replica,
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
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker_fn, arg_list))
    return [worker_fn(args) for args in arg_list]


def _run_replica_kind(cfg: ScenarioConfig, out: Path, workers: int, kind: _ReplicaKind):
    seeds = cfg.seeds
    results = _run_replicas(partial(kind.replica, cfg), seeds, workers)

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


def _run_custom(cfg: ScenarioConfig, out: Path, workers: int):
    if cfg["lanes"] == 1:
        return _write_trajectory(cfg, out, _single_lane_record(cfg), None)
    record = run_two_lane(
        cfg.params,
        LaneChangeParams(r=cfg["r"], p=cfg["p"], rng_seed=cfg["base_seed"]),
        n_lane0=cfg["n_lane0"] if cfg["n_lane0"] is not None else cfg["n_vehicles"],
        n_lane1=cfg["n_lane1"] if cfg["n_lane1"] is not None else 0,
        stagger=cfg["stagger"] or 0.0,
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
    "custom": _run_custom,
}

# Kinds where a collision is an anomaly rather than a reported result.
_COLLISION_IS_FAILURE = {"load-balance", "aggressive"}


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
    if manifest.kind in _COLLISION_IS_FAILURE and any(
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
            help="override a config key (dotted paths reach params.*)",
        )
        k.add_argument("--out", required=True, help="output directory")
        k.add_argument("--seed", type=int, default=None, help="base seed override")
        k.add_argument("--replicas", type=int, default=None, help="replica count override")
        k.add_argument("--workers", type=int, default=1, help="parallel replica workers")
        k.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"base_seed={args.seed}")
    if args.replicas is not None:
        overrides.append(f"replicas={args.replicas}")
    try:
        cfg = load_config(kind=args.kind, path=args.config, overrides=overrides)
        manifest = run_scenario(cfg, args.out, workers=max(1, args.workers))
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
