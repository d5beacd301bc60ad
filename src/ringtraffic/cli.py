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
from pathlib import Path

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
from .records import TERMINATED_COLLISION, write_events_csv, _fmt
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


def _write_csv(path: Path, meta_lines: list[str], columns: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in meta_lines:
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if not isinstance(v, str) else v for v in row) + "\n")


# ---------------------------------------------------------------------------
# Per-kind runners
# ---------------------------------------------------------------------------


def _run_fundamental_diagram(cfg: ScenarioConfig, out: Path, workers: int):
    p = cfg.params
    resolution = cfg["rho_resolution_per_km"] / 1000.0  # to vehicles/m
    summary = fundamental_diagram_summary(p, rho_resolution=resolution)
    rho = np.arange(resolution, p.rho_jam, resolution)
    v_eq, q = fundamental_diagram_curve(p, rho)
    rows = zip(rho * 1000.0, v_eq, q * 3600.0)
    path = out / "fundamental_diagram.csv"
    _write_csv(path, _meta_lines(cfg), ["rho_veh_per_km", "v_eq_m_per_s", "q_veh_per_hr"], rows)
    return (
        [path.name],
        [],
        {
            "q_star_veh_per_hr": summary.q_star * 3600.0,
            "rho_star_veh_per_km": summary.rho_star * 1000.0,
            "rho_jam_veh_per_km": summary.rho_jam * 1000.0,
        },
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
    artifacts = []
    traj = out / "trajectory.csv"
    record.write_csv(traj, extra_metadata={"config_hash": config_hash(cfg.to_dict())})
    artifacts.append(traj.name)

    summary: dict = {
        "termination": record.termination_reason,
        "termination_time": record.termination_time,
    }
    try:
        fit = growth_rate_from_record(record, vehicle=cfg["perturb_vehicle"])
        rows = [
            (n + 1, f_n, fit.a, fit.k, fit.residual) for n, f_n in enumerate(fit.amplitudes)
        ]
        growth = out / "growth_fit.csv"
        _write_csv(growth, _meta_lines(cfg), ["n", "f_n", "a", "k", "residual"], rows)
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
        rows = (
            (t, x, ff.q[i, j])
            for i, t in enumerate(ff.times)
            for j, x in enumerate(ff.positions)
        )
        flow_path = out / "flow_field.csv"
        _write_csv(flow_path, _meta_lines(cfg, {"delta": delta}), ["t", "x", "q_veh_per_s"], rows)
        artifacts.append(flow_path.name)

    terminations = [
        {
            "replica": 0,
            "seed": None,
            "reason": record.termination_reason,
            "time": record.termination_time,
        }
    ]
    return artifacts, terminations, summary


def _run_stability(cfg: ScenarioConfig, out: Path, workers: int):
    p = cfg.params
    rows = []
    for delta in cfg["delay_grid"]:
        verdict = max_growth_rate(cfg["n_vehicles"], float(delta), p)
        rows.append((delta, verdict.max_real_part))
    path = out / "stability.csv"
    _write_csv(
        path,
        _meta_lines(cfg, {"n_vehicles": cfg["n_vehicles"], "method": "principal-branch Lambert W"}),
        ["delta_s", "max_re_per_s"],
        rows,
    )
    return [path.name], [], {"n_delays": len(rows)}


def _run_tau_curve(cfg: ScenarioConfig, out: Path, workers: int):
    p = cfg.params
    rows = []
    taus = {}
    for n in cfg["n_list"]:
        tau = critical_reaction_time(int(n), p)
        rows.append((n, tau))
        taus[str(n)] = tau
    path = out / "tau_curve.csv"
    _write_csv(path, _meta_lines(cfg, {"method": "closed form"}), ["n_vehicles", "tau_s"], rows)
    return [path.name], [], {"tau_s": taus}


def _load_balance_replica(args: dict) -> dict:
    p = args["params"]
    record = run_two_lane(
        p,
        LaneChangeParams(r=args["r"], p=args["p"], rng_seed=args["seed"]),
        n_lane0=args["n_vehicles"],
        n_lane1=0,
        delay=args["delay"],
        dt=args["dt"],
        t_end=args["t_end"],
        record_stride=args["record_stride"],
    )
    delta = args["delta_flow"]
    flow_times = record.times[record.times >= delta]
    return {
        "times": record.times,
        "delta_n": lane_imbalance_series(record),
        "flow_times": flow_times,
        "flow": flow_series(record, p.track_length / 2.0, flow_times, delta),
        "events": record.events,
        "reason": record.termination_reason,
        "t_term": record.termination_time,
    }


def _run_replicas(worker_fn, arg_list, workers: int) -> list:
    workers = min(workers, len(arg_list), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker_fn, arg_list))
    return [worker_fn(args) for args in arg_list]


def _run_load_balance(cfg: ScenarioConfig, out: Path, workers: int):
    p = cfg.params
    seeds = cfg.seeds
    arg_list = [
        {
            "params": p,
            "r": cfg["r"],
            "p": cfg["p"],
            "seed": seed,
            "n_vehicles": cfg["n_vehicles"],
            "delay": cfg["delay"],
            "dt": cfg["dt"],
            "t_end": cfg["t_end"],
            "record_stride": cfg["record_stride"],
            "delta_flow": cfg["delta_flow"],
        }
        for seed in seeds
    ]
    results = _run_replicas(_load_balance_replica, arg_list, workers)

    artifacts = []
    terminations = []
    for i, (seed, res) in enumerate(zip(seeds, results)):
        meta = _meta_lines(cfg, {"seed": seed, "replica": i})
        path = out / f"lb_replica_{i:02d}.csv"
        _write_csv(path, meta, ["t", "delta_n"], zip(res["times"], res["delta_n"]))
        artifacts.append(path.name)
        path = out / f"lb_flow_{i:02d}.csv"
        _write_csv(path, meta, ["t", "q_veh_per_s"], zip(res["flow_times"], res["flow"]))
        artifacts.append(path.name)
        path = out / f"lb_events_{i:02d}.csv"
        write_events_csv(path, res["events"], meta)
        artifacts.append(path.name)
        terminations.append(
            {"replica": i, "seed": seed, "reason": res["reason"], "time": res["t_term"]}
        )

    completed = [r for r in results if r["reason"] != TERMINATED_COLLISION]
    summary: dict = {"replicas_completed": len(completed)}
    if len(completed) == len(results):
        dn_mean, dn_std = aggregate_monte_carlo([r["delta_n"] for r in results])
        path = out / "lb_mean.csv"
        _write_csv(
            path,
            _meta_lines(cfg),
            ["t", "delta_n_mean", "delta_n_std"],
            zip(results[0]["times"], dn_mean, dn_std),
        )
        artifacts.append(path.name)
        q_mean, q_std = aggregate_monte_carlo([r["flow"] for r in results])
        path = out / "lb_flow_mean.csv"
        _write_csv(
            path,
            _meta_lines(cfg, {"delta": cfg["delta_flow"], "x": "track_length/2"}),
            ["t", "q_mean", "q_std"],
            zip(results[0]["flow_times"], q_mean, q_std),
        )
        artifacts.append(path.name)
        summary["final_delta_n_mean"] = float(dn_mean[-1])
        summary["final_q_mean"] = float(q_mean[-1])
    return artifacts, terminations, summary


def _aggressive_replica(args: dict) -> dict:
    p = args["params"]
    n_half = args["n_vehicles"] // 2
    stagger = args["stagger"]
    if stagger is None:
        stagger = p.track_length / args["n_vehicles"]
    aggressive = args["aggressive_vehicle"]
    if aggressive is None:
        aggressive = n_half  # first vehicle of the staggered lane
    control = args["control_vehicle"]
    if control is None:
        control = 0  # first vehicle of the unshifted lane
    record = run_two_lane(
        p,
        LaneChangeParams(r=args["r"], p=args["p"], rng_seed=args["seed"]),
        n_lane0=n_half,
        n_lane1=n_half,
        stagger=stagger,
        delay=args["delay"],
        dt=args["dt"],
        t_end=args["t_end"],
        lambda_overrides={aggressive: args["aggressive_lambda"]},
        record_stride=args["record_stride"],
    )
    return {
        "times": record.times,
        "dl_aggressive": lane_change_count_series(record, aggressive),
        "dl_control": lane_change_count_series(record, control),
        "dist_aggressive": distance_series(record, aggressive),
        "dist_control": distance_series(record, control),
        "events": record.events,
        "reason": record.termination_reason,
        "t_term": record.termination_time,
    }


def _run_aggressive(cfg: ScenarioConfig, out: Path, workers: int):
    p = cfg.params
    seeds = cfg.seeds
    arg_list = [
        {
            "params": p,
            "r": cfg["r"],
            "p": cfg["p"],
            "seed": seed,
            "n_vehicles": cfg["n_vehicles"],
            "delay": cfg["delay"],
            "dt": cfg["dt"],
            "t_end": cfg["t_end"],
            "record_stride": cfg["record_stride"],
            "stagger": cfg["stagger"],
            "aggressive_lambda": cfg["aggressive_lambda"],
            "aggressive_vehicle": cfg["aggressive_vehicle"],
            "control_vehicle": cfg["control_vehicle"],
        }
        for seed in seeds
    ]
    results = _run_replicas(_aggressive_replica, arg_list, workers)

    artifacts = []
    terminations = []
    for i, (seed, res) in enumerate(zip(seeds, results)):
        meta = _meta_lines(cfg, {"seed": seed, "replica": i})
        path = out / f"agg_replica_{i:02d}.csv"
        _write_csv(
            path,
            meta,
            ["t", "dl_aggressive", "dl_control", "dist_aggressive", "dist_control"],
            zip(
                res["times"],
                res["dl_aggressive"],
                res["dl_control"],
                res["dist_aggressive"],
                res["dist_control"],
            ),
        )
        artifacts.append(path.name)
        path = out / f"agg_events_{i:02d}.csv"
        write_events_csv(path, res["events"], meta)
        artifacts.append(path.name)
        terminations.append(
            {"replica": i, "seed": seed, "reason": res["reason"], "time": res["t_term"]}
        )

    completed = [r for r in results if r["reason"] != TERMINATED_COLLISION]
    summary: dict = {"replicas_completed": len(completed)}
    if len(completed) == len(results):
        dl_a_mean, dl_a_std = aggregate_monte_carlo([r["dl_aggressive"] for r in results])
        dl_c_mean, dl_c_std = aggregate_monte_carlo([r["dl_control"] for r in results])
        d_a_mean, _ = aggregate_monte_carlo([r["dist_aggressive"] for r in results])
        d_c_mean, _ = aggregate_monte_carlo([r["dist_control"] for r in results])
        path = out / "agg_mean.csv"
        _write_csv(
            path,
            _meta_lines(cfg),
            [
                "t",
                "dl_aggressive_mean",
                "dl_aggressive_std",
                "dl_control_mean",
                "dl_control_std",
                "dist_aggressive_mean",
                "dist_control_mean",
            ],
            zip(results[0]["times"], dl_a_mean, dl_a_std, dl_c_mean, dl_c_std, d_a_mean, d_c_mean),
        )
        artifacts.append(path.name)
        summary["final_dl_aggressive_mean"] = float(dl_a_mean[-1])
        summary["final_dl_control_mean"] = float(dl_c_mean[-1])
        if dl_c_mean[-1] > 0:
            summary["lane_change_ratio"] = float(dl_a_mean[-1] / dl_c_mean[-1])
        if d_c_mean[-1] > 0:
            summary["velocity_advantage"] = float(d_a_mean[-1] / d_c_mean[-1] - 1.0)
    return artifacts, terminations, summary


def _run_custom(cfg: ScenarioConfig, out: Path, workers: int):
    p = cfg.params
    artifacts = []
    terminations = []
    if cfg["lanes"] == 1:
        record = run_single_lane(
            p,
            cfg["n_vehicles"],
            cfg["delay"],
            cfg["dt"],
            cfg["t_end"],
            perturbation=(cfg["perturb_vehicle"], cfg["perturb_displacement"]),
            record_stride=cfg["record_stride"],
        )
    else:
        n0 = cfg["n_lane0"] if cfg["n_lane0"] is not None else cfg["n_vehicles"]
        n1 = cfg["n_lane1"] if cfg["n_lane1"] is not None else 0
        record = run_two_lane(
            p,
            LaneChangeParams(r=cfg["r"], p=cfg["p"], rng_seed=cfg["base_seed"]),
            n_lane0=n0,
            n_lane1=n1,
            stagger=cfg["stagger"] or 0.0,
            delay=cfg["delay"],
            dt=cfg["dt"],
            t_end=cfg["t_end"],
            record_stride=cfg["record_stride"],
        )
    traj = out / "trajectory.csv"
    record.write_csv(traj, extra_metadata={"config_hash": config_hash(cfg.to_dict())})
    artifacts.append(traj.name)
    if record.lanes is not None:
        events = out / "events.csv"
        write_events_csv(events, record.events, _meta_lines(cfg))
        artifacts.append(events.name)
    terminations.append(
        {
            "replica": 0,
            "seed": cfg["base_seed"] if cfg["lanes"] == 2 else None,
            "reason": record.termination_reason,
            "time": record.termination_time,
        }
    )
    summary = {
        "termination": record.termination_reason,
        "termination_time": record.termination_time,
    }
    return artifacts, terminations, summary


_RUNNERS = {
    "fundamental-diagram": _run_fundamental_diagram,
    "single-lane": _run_single_lane,
    "stability": _run_stability,
    "tau-curve": _run_tau_curve,
    "load-balance": _run_load_balance,
    "aggressive": _run_aggressive,
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
        seeds=cfg.seeds if cfg.kind in ("load-balance", "aggressive", "custom") else [],
        artifacts=artifacts,
        terminations=terminations,
        summary=summary,
        wall_clock_s=_time.perf_counter() - started,
        workers=workers,
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
