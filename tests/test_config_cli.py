import dataclasses
import json
import math
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ringtraffic import LaneChangeParams, flow_series, lane_imbalance, run_two_lane
from ringtraffic.cli import (
    EXIT_COLLISION,
    EXIT_CONFIG,
    EXIT_OK,
    _LoadBalanceTables,
    _meta_lines,
    config_hash,
    exit_status,
    main,
    run_scenario,
)
from ringtraffic.lane_change import _Samples, run_lockstep
from ringtraffic.metrics import lane_change_count_series, lane_imbalance
from ringtraffic.records import write_csv
from ringtraffic.config import KINDS, load_config
from ringtraffic.errors import ConfigurationError


def test_empty_config_gets_table1_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{}")
    cfg = load_config(kind="single-lane", path=str(path))
    p = cfg.params
    assert (p.lambda_rate, p.v_max, p.d_min, p.car_size, p.track_length) == (
        1.0, 40.0, 7.5, 5.0, 1000.0,
    )
    assert cfg["n_vehicles"] == 50
    assert cfg["dt"] == 0.01


def test_delay_step_multiple_validation():
    cfg = load_config(kind="single-lane", overrides=["delay=0.75", "dt=0.01"])
    assert cfg["delay"] == 0.75
    with pytest.raises(ConfigurationError):
        load_config(kind="single-lane", overrides=["delay=0.75", "dt=0.02"])


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"no_such_key": 1}))
    with pytest.raises(ConfigurationError, match="no_such_key"):
        load_config(kind="single-lane", path=str(path))
    with pytest.raises(ConfigurationError, match="params.bogus"):
        load_config(kind="single-lane", overrides=["params.bogus=2"])


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{\n  "dt": oops\n}')
    with pytest.raises(ConfigurationError, match="line 2"):
        load_config(kind="single-lane", path=str(path))


def test_env_and_set_overrides(monkeypatch):
    cfg = load_config(kind="single-lane", overrides=["params.d_min=6.0", "n_vehicles=40"])
    assert cfg.params.d_min == 6.0
    assert cfg["n_vehicles"] == 40
    # the environment is no config source
    plain = load_config(kind="single-lane").to_dict()
    monkeypatch.setenv("RINGTRAFFIC_T_END", "120")
    monkeypatch.setenv("RINGTRAFFIC_PARAMS__V_MAX", "30")
    monkeypatch.setenv("RINGTRAFFIC_NOPE", "1")
    assert load_config(kind="single-lane").to_dict() == plain
    assert load_config(kind="single-lane", environ={}).to_dict() == plain
    with pytest.raises(ConfigurationError, match="the environment is no config source"):
        load_config(kind="single-lane", environ={"RINGTRAFFIC_T_END": "120"})


@pytest.mark.parametrize(
    "item, message",
    [
        ("t_end", "--set expects key=value, got 't_end'"),
        ("params=3", "'params' must be an object"),
        ("params.v_max.x=1", "unknown key 'params.v_max.x'"),
        ("t_end.x=1", "unknown key 't_end.x'"),
        ("kind=single-lane", "unknown key 'kind'"),
    ],
)
def test_bad_set_items_exit_2(tmp_path, capsys, item, message):
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        load_config(kind="single-lane", overrides=[item])
    out = tmp_path / "sl"
    assert main(["single-lane", "--out", str(out), "--quiet", "--set", item]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, key", [("tau-curve", "n_list"), ("stability", "delay_grid")])
def test_an_empty_grid_exits_2(tmp_path, capsys, kind, key):
    out = tmp_path / "out"
    assert main([kind, "--out", str(out), "--quiet", "--set", f"{key}=[]"]) == EXIT_CONFIG
    assert f"{key} must not be empty" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["two-lane", "--set", "t_end=1"],
        ["load-balance", "--set", "t_end=1", "--set", "delta_flow=1"],
        ["aggressive", "--set", "t_end=1"],
    ],
)
def test_a_negative_base_seed_exits_2(tmp_path, capsys, args):
    """numpy's generators used to reject it, once the run had started (exit 1)."""
    out = tmp_path / "out"
    assert main([*args, "--out", str(out), "--quiet", "--set", "base_seed=-1"]) == EXIT_CONFIG
    assert "base_seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["single-lane", "stability", "load-balance", "aggressive"])
@pytest.mark.parametrize("n", [0, 1])
def test_a_fleet_below_two_exits_2_naming_the_key(tmp_path, capsys, kind, n):
    """An empty aggressive fleet used to divide by zero (exit 1); the other
    cases exited 2 naming no key, or another one (``perturb_vehicle``)."""
    out = tmp_path / "out"
    assert main([kind, "--out", str(out), "--quiet", "--set", f"n_vehicles={n}"]) == EXIT_CONFIG
    assert f"n_vehicles must be >= 2, got {n}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value", [("flow_grid_nt", -3), ("flow_grid_nx", -1), ("flow_grid_nt", 0), ("flow_grid_nx", 0)]
)
def test_a_flow_grid_without_points_exits_2(tmp_path, capsys, key, value):
    """A negative size used to reach numpy's ``linspace`` (exit 1), and a zero
    size wrote a header-only ``flow_field.csv`` (exit 0)."""
    out = tmp_path / "out"
    assert main(["single-lane", "--out", str(out), "--quiet", "--set", f"{key}={value}"]) == EXIT_CONFIG
    assert f"{key} must be >= 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


def test_type_coercion_rejects_mismatches():
    with pytest.raises(ConfigurationError):
        load_config(kind="single-lane", overrides=["n_vehicles=12.5"])
    with pytest.raises(ConfigurationError):
        load_config(kind="single-lane", overrides=['dt="fast"'])
    # only a key whose default is null takes null
    with pytest.raises(ConfigurationError, match="got None"):
        load_config(kind="single-lane", overrides=["dt=null"])
    with pytest.raises(ConfigurationError, match="got None"):
        load_config(kind="stability", overrides=["delay_grid=[null]"])
    # null stagger means L/N in aggressive; two-lane's stagger has no null default
    assert load_config(kind="aggressive", overrides=["stagger=null"])["stagger"] is None
    with pytest.raises(ConfigurationError, match="'stagger' expects a number, got None"):
        load_config(kind="two-lane", overrides=["stagger=null"])


def test_custom_is_an_unknown_kind(tmp_path):
    with pytest.raises(ConfigurationError, match="unknown kind 'custom'"):
        load_config(kind="custom")
    with pytest.raises(SystemExit) as exc:
        main(["custom", "--out", str(tmp_path / "out"), "--quiet"])
    assert exc.value.code == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n_lane0, n_lane1", [(0, 5), (5, -1), (1, 0)])
def test_two_lane_rejects_an_invalid_lane_split(n_lane0, n_lane1):
    overrides = [f"n_lane0={n_lane0}", f"n_lane1={n_lane1}"]
    with pytest.raises(ConfigurationError, match=rf"invalid lane split \({n_lane0}, {n_lane1}\)"):
        load_config(kind="two-lane", overrides=overrides)


def test_two_lane_accepts_one_vehicle_per_lane():
    cfg = load_config(kind="two-lane", overrides=["n_lane0=1", "n_lane1=1"])
    assert (cfg["n_lane0"], cfg["n_lane1"]) == (1, 1)


def test_all_kinds_have_valid_defaults():
    for kind in KINDS:
        cfg = load_config(kind=kind)
        assert cfg.kind == kind
        if "replicas" in cfg.values:
            assert cfg.seeds[0] == cfg["base_seed"]


# The keys and flags that each kind's runner does not read.
_UNREAD_KEYS = [
    *((kind, key) for kind in ("fundamental-diagram", "stability", "tau-curve")
      for key in ("base_seed", "replicas", "record_stride")),
    ("single-lane", "base_seed"),
    ("single-lane", "replicas"),
    *(("two-lane", key) for key in (
        "lanes", "n_vehicles", "perturb_vehicle", "perturb_displacement", "delta_flow", "replicas",
    )),
]
_UNREAD_FLAGS = [
    *((kind, flag) for kind in ("fundamental-diagram", "single-lane", "stability", "tau-curve")
      for flag in ("--seed", "--replicas", "--workers")),
    ("two-lane", "--replicas"),
    ("two-lane", "--workers"),
]


@pytest.mark.parametrize("kind, option", _UNREAD_KEYS + _UNREAD_FLAGS)
def test_kinds_reject_the_keys_and_flags_they_do_not_read(tmp_path, kind, option):
    if option.startswith("--"):
        with pytest.raises(SystemExit) as exc:
            main([kind, "--out", str(tmp_path / "out"), "--quiet", option, "1"])
        assert exc.value.code == EXIT_CONFIG
        assert not (tmp_path / "out").exists()
    else:
        with pytest.raises(ConfigurationError, match=f"unknown key '{option}'"):
            load_config(kind=kind, overrides=[f"{option}=1"])


@pytest.mark.parametrize("kind", ["single-lane", "load-balance"])
@pytest.mark.parametrize("delta", [-1, 0])
def test_nonpositive_delta_flow_rejected(kind, delta):
    with pytest.raises(ConfigurationError, match="delta_flow"):
        load_config(kind=kind, overrides=[f"delta_flow={delta}"])


@pytest.mark.parametrize("key", ["aggressive_vehicle", "control_vehicle"])
@pytest.mark.parametrize("vehicle", [-1, 50])
def test_aggressive_vehicles_range_checked(key, vehicle):
    assert load_config(kind="aggressive", overrides=[f"{key}=49"])[key] == 49
    with pytest.raises(ConfigurationError, match=f"{key} {vehicle} out of range 0..49"):
        load_config(kind="aggressive", overrides=[f"{key}={vehicle}"])


def test_fundamental_diagram_cli(tmp_path, csv_columns):
    out = tmp_path / "fd"
    status = main(["fundamental-diagram", "--out", str(out), "--quiet"])
    assert status == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["summary"]["q_star_veh_per_hr"] == pytest.approx(2065, rel=0.01)
    assert manifest["summary"]["rho_jam_veh_per_km"] == pytest.approx(1000 / 7.5)
    data = csv_columns(out / "fundamental_diagram.csv")
    assert set(data) == {"rho_veh_per_km", "v_eq_m_per_s", "q_veh_per_hr"}
    assert data["q_veh_per_hr"].max() <= manifest["summary"]["q_star_veh_per_hr"] + 1e-9


def test_stability_cli_matches_library(tmp_path, csv_columns):
    from ringtraffic import max_growth_rate, ModelParams

    out = tmp_path / "stab"
    status = main(
        ["stability", "--out", str(out), "--set", "delay_grid=[0.0,0.5,0.75]", "--quiet"]
    )
    assert status == EXIT_OK
    data = csv_columns(out / "stability.csv")
    p = ModelParams()
    for delta, max_re in zip(data["delta_s"], data["max_re_per_s"]):
        expected = max_growth_rate(50, float(delta), p).max_real_part
        assert max_re == pytest.approx(expected, abs=1e-12)


def test_tau_curve_cli(tmp_path, csv_columns):
    from ringtraffic import critical_reaction_time, ModelParams

    out = tmp_path / "tau"
    status = main(["tau-curve", "--out", str(out), "--set", "n_list=[25,50]", "--quiet"])
    assert status == EXIT_OK
    data = csv_columns(out / "tau_curve.csv")
    taus = dict(zip(data["n_vehicles"], data["tau_s"]))
    assert 0.65 <= taus[50.0] <= 0.75
    assert taus[25.0] > taus[50.0]
    p = ModelParams()
    for n, tau in taus.items():
        # the CSV carries 12 significant digits, so compare at that precision
        assert tau == float(format(critical_reaction_time(int(n), p), ".12g"))


@pytest.mark.parametrize("length", ["2.9e5", "1e6"])
def test_tau_curve_cli_writes_inf_beyond_the_float_range(tmp_path, csv_columns, length):
    out = tmp_path / "tau"
    args = ["--set", f"params.track_length={length}", "--set", "n_list=[10]", "--quiet"]
    assert main(["tau-curve", "--out", str(out), *args]) == EXIT_OK
    assert csv_columns(out / "tau_curve.csv")["tau_s"].tolist() == [math.inf]


def test_single_lane_cli_small(tmp_path, csv_columns):
    out = tmp_path / "sl"
    status = main(
        [
            "single-lane", "--out", str(out), "--quiet",
            "--set", "t_end=30", "--set", "delta_flow=5",
            "--set", "flow_grid_nt=4", "--set", "flow_grid_nx=4",
            "--set", "record_stride=10",
        ]
    )
    assert status == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["summary"]["termination"] == "completed"
    assert "trajectory.csv" in manifest["artifacts"]
    assert "flow_field.csv" in manifest["artifacts"]
    flow = csv_columns(out / "flow_field.csv")
    assert len(flow["t"]) == 16
    assert np.all(flow["q_veh_per_s"] >= 0)


def test_two_lane_cli(tmp_path, csv_columns):
    out = tmp_path / "two"
    status = main(
        [
            "two-lane", "--out", str(out), "--quiet",
            "--set", "n_lane0=30", "--set", "n_lane1=0",
            "--set", "dt=0.05", "--set", "t_end=20", "--set", "r=0.1", "--set", "p=0.2",
        ]
    )
    assert status == EXIT_OK
    traj = csv_columns(out / "trajectory.csv")
    assert "lane" in traj and "phi" in traj
    lines = (out / "events.csv").read_text().splitlines()
    header = [line for line in lines if not line.startswith("#")][0]
    assert header == "t,vehicle,event,from_lane,to_lane,phi_before"


def test_single_lane_collision_is_reported_result(tmp_path):
    out = tmp_path / "crash"
    status = main(
        [
            "single-lane", "--out", str(out), "--quiet",
            "--set", "delay=0.75", "--set", "t_end=300",
            "--set", "record_stride=50", "--set", "flow_grid_nt=3",
            "--set", "flow_grid_nx=3",
        ]
    )
    assert status == EXIT_OK  # a detected crash is a result, not a failure
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["summary"]["termination"] == "collision"
    assert 200 < manifest["summary"]["termination_time"] < 320


@pytest.mark.parametrize("delay", [0.6, 0.65, 0.7, 0.75])
def test_single_lane_growth_fit_sign_matches_stability(tmp_path, csv_columns, delay):
    from ringtraffic import ModelParams, max_growth_rate

    out = tmp_path / "sl"
    status = main(
        [
            "single-lane", "--out", str(out), "--quiet",
            "--set", f"delay={delay}", "--set", "t_end=800", "--set", "record_stride=10",
        ]
    )
    assert status == EXIT_OK
    k = csv_columns(out / "growth_fit.csv")["k"]
    lsa = max_growth_rate(50, delay, ModelParams()).max_real_part
    assert np.all(np.sign(k) == np.sign(lsa))


def test_single_lane_without_oscillation_skips_the_fit(tmp_path):
    out = tmp_path / "two"
    status = main(["single-lane", "--out", str(out), "--quiet", "--set", "n_vehicles=2"])
    assert status == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["summary"]["k"] is None
    assert "growth_fit_skipped" in manifest["summary"]
    assert "growth_fit.csv" not in manifest["artifacts"]


@pytest.mark.parametrize(
    "overrides, reason",
    [
        (["t_end=1"], "run ends (completed) at 1.0 s, not after delta_flow 18.63 s"),
        (
            ["delay=0.75", "delta_flow=295", "record_stride=50"],
            "run ends (collision) at 287.6 s, not after delta_flow 295.0 s",
        ),
    ],
    ids=["short-run", "crash"],
)
def test_single_lane_says_why_it_writes_no_flow_field(tmp_path, overrides, reason):
    out = tmp_path / "sl"
    args = ["single-lane", "--out", str(out), "--quiet"]
    assert main(args + [a for o in overrides for a in ("--set", o)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert "flow_field.csv" not in manifest["artifacts"]
    assert not (out / "flow_field.csv").exists()
    assert manifest["summary"]["flow_field_skipped"].startswith(reason)


def test_bad_config_exit_code(tmp_path):
    status = main(
        ["single-lane", "--out", str(tmp_path / "x"), "--set", "dt=-1", "--quiet"]
    )
    assert status == EXIT_CONFIG
    status = main(
        ["single-lane", "--out", str(tmp_path / "y"), "--set", "nonsense=1", "--quiet"]
    )
    assert status == EXIT_CONFIG


@pytest.mark.parametrize(
    "args",
    [
        # Each of the first five ran with the NaN: two-lane and aggressive
        # wrote nan positions (exit 0), fundamental-diagram and load-balance
        # ended in a numpy traceback (exit 1), and single-lane skipped its
        # flow field "after delta_flow nan s" (exit 0).
        ["two-lane", "--set", "stagger=NaN", "--set", "t_end=1", "--set", "n_lane1=10"],
        ["aggressive", "--set", "stagger=NaN", "--set", "t_end=1"],
        ["fundamental-diagram", "--set", "rho_resolution_per_km=NaN"],
        ["load-balance", "--set", "delta_flow=NaN"],
        ["single-lane", "--set", "delta_flow=NaN"],
        ["stability", "--set", "delay_grid=[0.5,Infinity]"],
        ["single-lane", "--set", "params.v_max=-Infinity"],
    ],
)
def test_non_finite_numbers_exit_2(tmp_path, capsys, args):
    out = tmp_path / "out"
    assert main([*args, "--out", str(out), "--quiet"]) == EXIT_CONFIG
    assert "expects a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_number_in_a_config_file_exits_2(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"delta_flow": float("nan"), "t_end": 5.0}))  # writes NaN
    out = tmp_path / "out"
    assert main(["single-lane", "--config", str(path), "--out", str(out), "--quiet"]) == EXIT_CONFIG
    assert "key 'delta_flow' expects a finite number, got nan" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", [0, -3])
def test_nonpositive_workers_rejected(tmp_path, capsys, workers):
    out = tmp_path / "lb"
    status = main(
        [
            "load-balance", "--out", str(out), "--quiet",
            "--workers", str(workers), "--replicas", "2", "--set", "t_end=10",
        ]
    )
    assert status == EXIT_CONFIG
    assert f"workers must be >= 1, got {workers}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("t_end, delta_flow", [(1, 5.0), (5.02, 5.01)])
def test_load_balance_rejects_delta_flow_past_the_last_sample(tmp_path, t_end, delta_flow):
    # At dt = 0.05, t_end = 5.02 runs 100 steps, so the last sample is at 5.0 s.
    overrides = [f"t_end={t_end}", f"delta_flow={delta_flow}"]
    with pytest.raises(ConfigurationError, match="delta_flow"):
        load_config(kind="load-balance", overrides=overrides)
    out = tmp_path / "lb"
    args = ["load-balance", "--out", str(out), "--quiet", "--replicas", "2"]
    assert main(args + [a for o in overrides for a in ("--set", o)]) == EXIT_CONFIG
    assert not out.exists()


def test_load_balance_with_delta_flow_at_t_end_has_one_flow_window(tmp_path, csv_columns):
    cfg = load_config(kind="load-balance", overrides=["t_end=5", "delta_flow=5", "replicas=2"])
    manifest = run_scenario(cfg, tmp_path)
    flow = csv_columns(tmp_path / "lb_flow_mean.csv")
    assert flow["t"].tolist() == [5.0]
    assert manifest.summary["final_q_mean"] == flow["q_mean"][-1]


def test_manifest_config_echo_is_idempotent(tmp_path):
    out = tmp_path / "lb"
    cfg = load_config(kind="load-balance", overrides=["t_end=10", "replicas=2"])
    manifest = run_scenario(cfg, out)
    saved = tmp_path / "echo.json"
    saved.write_text(json.dumps(manifest.config))
    for echoed in (load_config(path=str(saved)), load_config(kind="load-balance", path=str(saved))):
        assert echoed.to_dict() == manifest.config
        assert config_hash(echoed.to_dict()) == manifest.config_hash
    rerun = tmp_path / "rerun"
    assert main(["load-balance", "--config", str(saved), "--out", str(rerun), "--quiet"]) == EXIT_OK
    assert json.loads((rerun / "manifest.json").read_text())["config_hash"] == manifest.config_hash
    for name in manifest.artifacts:
        assert (rerun / name).read_bytes() == (out / name).read_bytes(), name


def test_config_file_of_another_kind_is_rejected(tmp_path, capsys):
    lb = tmp_path / "lb.json"
    lb.write_text(json.dumps({"kind": "load-balance", "t_end": 50}))
    with pytest.raises(ConfigurationError, match="is for kind 'load-balance', not 'single-lane'"):
        load_config(kind="single-lane", path=str(lb))
    out = tmp_path / "sl"
    assert main(["single-lane", "--config", str(lb), "--out", str(out), "--quiet"]) == EXIT_CONFIG
    assert "is for kind 'load-balance'" in capsys.readouterr().err
    assert not out.exists()
    # a file whose kind is absent or matches the subcommand still loads
    assert load_config(kind="load-balance", path=str(lb))["t_end"] == 50.0
    lb.write_text(json.dumps({"t_end": 50}))
    assert load_config(kind="single-lane", path=str(lb))["t_end"] == 50.0


# Each kind at small settings.
_SMALL_RUNS = {
    "fundamental-diagram": ["--set", "rho_resolution_per_km=10"],
    "single-lane": ["--set", "t_end=5", "--set", "delta_flow=2", "--set", "record_stride=10",
                    "--set", "flow_grid_nt=3", "--set", "flow_grid_nx=3"],
    "stability": ["--set", "delay_grid=[0.5,0.75]"],
    "tau-curve": ["--set", "n_list=[10,50]"],
    "load-balance": ["--set", "t_end=5", "--set", "delta_flow=2", "--replicas", "2"],
    "aggressive": ["--set", "t_end=5", "--replicas", "2"],
    "two-lane": ["--set", "n_lane0=20", "--set", "n_lane1=10", "--set", "dt=0.05", "--set", "t_end=5"],
}


@pytest.mark.parametrize("kind", KINDS)
def test_stray_environment_variables_change_nothing(tmp_path, monkeypatch, kind):
    args = [kind, *_SMALL_RUNS[kind], "--quiet", "--out"]
    assert main(args + [str(tmp_path / "plain")]) == EXIT_OK
    monkeypatch.setenv("RINGTRAFFIC_DT", "0.05")
    monkeypatch.setenv("RINGTRAFFIC_NOPE", "1")
    assert main(args + [str(tmp_path / "env")]) == EXIT_OK
    names = sorted(p.name for p in (tmp_path / "plain").glob("*.csv"))
    assert names == sorted(p.name for p in (tmp_path / "env").glob("*.csv"))
    assert names
    for name in names:
        assert (tmp_path / "env" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes(), name


def test_seed_and_replicas_flags(tmp_path):
    out = tmp_path / "lb2"
    status = main(
        [
            "load-balance", "--out", str(out), "--quiet",
            "--seed", "777", "--replicas", "2", "--set", "t_end=10",
        ]
    )
    assert status == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seeds"] == [777, 778]
    assert manifest["config"]["base_seed"] == 777


@pytest.fixture
def pool_sizes(monkeypatch):
    """Swaps ProcessPoolExecutor for an in-process stand-in that starts no
    process; returns the list of pool sizes requested."""
    import concurrent.futures

    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return sizes


def test_workers_bounded_by_replicas_and_cpus(monkeypatch, pool_sizes):
    import ringtraffic.cli as cli

    # a 1-cpu host runs the replicas in-process and builds no pool
    for cpus, expected in ((8, [3]), (2, [2]), (1, [])):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        pool_sizes.clear()
        assert cli._run_replicas(abs, [-1, -2, -3], workers=10**6) == [1, 2, 3]
        assert pool_sizes == expected


def test_workers_do_not_change_artifacts(tmp_path):
    cfg = load_config(kind="load-balance", overrides=["t_end=10", "replicas=3"])
    seq = tmp_path / "seq"
    m1 = run_scenario(cfg, seq, workers=1)
    for workers in (2, 3):  # batches of 1 and 2 seeds, then of 1 each
        par = tmp_path / f"par{workers}"
        m2 = run_scenario(cfg, par, workers=workers)
        assert m1.artifacts == m2.artifacts
        for name in m1.artifacts:
            assert (seq / name).read_bytes() == (par / name).read_bytes()


def test_replica_tables_equal_whole_record_reductions_through_collisions(tmp_path):
    """The per-sample tables of both replica kinds equal the reductions of
    each seed's whole record, byte for byte, for collided rows too."""
    lb = load_config(kind="load-balance", overrides=[
        "delay=0.5", "t_end=60", "replicas=4", "base_seed=5", "record_stride=3", "delta_flow=2.0",
    ])
    agg = load_config(kind="aggressive", overrides=[
        "delay=0.75", "t_end=20", "replicas=3", "base_seed=6", "record_stride=3", "stagger=20",
        "aggressive_vehicle=0", "aggressive_lambda=3.0", "control_vehicle=25", "r=0.5", "p=1.0",
    ])
    x = lb.params.track_length / 2.0
    for cfg, prefix in ((lb, "lb"), (agg, "agg")):
        manifest = run_scenario(cfg, tmp_path / prefix)
        assert exit_status(manifest) == EXIT_COLLISION
        assert 0 < manifest.summary["replicas_completed"] < len(cfg.seeds)
        for i, seed in enumerate(cfg.seeds):
            lp = LaneChangeParams(r=cfg["r"], p=cfg["p"], rng_seed=seed)
            run = dict(delay=cfg["delay"], dt=cfg["dt"], t_end=cfg["t_end"], record_stride=cfg["record_stride"])
            if prefix == "lb":
                record = run_two_lane(cfg.params, lp, n_lane0=50, **run)
                flow_times = record.times[record.times >= cfg["delta_flow"]]
                tables = {
                    "replica": [record.times, lane_imbalance(record.lanes)],
                    "flow": [flow_times, flow_series(record, x, flow_times, cfg["delta_flow"])],
                }
            else:
                record = run_two_lane(
                    cfg.params, lp, n_lane0=25, n_lane1=25, stagger=20.0,
                    lambda_overrides={0: 3.0}, **run,
                )
                tables = {"replica": [
                    record.times,
                    *(lane_change_count_series(record.events, v, record.times) for v in (0, 25)),
                    *(record.positions[:, v] - record.positions[0, v] for v in (0, 25)),
                ]}
            assert manifest.terminations[i]["reason"] == record.termination_reason
            for name, values in tables.items():
                got = (tmp_path / prefix / f"{prefix}_{name}_{i:02d}.csv").read_text()
                expected = tmp_path / "expected.csv"
                header = got.splitlines()[len(_meta_lines(cfg, {"seed": seed, "replica": i}))]
                write_csv(expected, _meta_lines(cfg, {"seed": seed, "replica": i}), header.split(","), values)
                assert got == expected.read_text()


def test_manifest_records_the_processes_that_ran(tmp_path, monkeypatch, pool_sizes):
    import ringtraffic.cli as cli

    run_scenario(load_config(kind="stability"), tmp_path / "stab", workers=1000)
    assert json.loads((tmp_path / "stab" / "manifest.json").read_text())["workers"] == 1

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    cfg = load_config(kind="load-balance", overrides=["t_end=10", "replicas=3"])
    manifest = run_scenario(cfg, tmp_path / "lb", workers=10**6)
    assert pool_sizes == [3]
    assert manifest.workers == 3
    assert json.loads((tmp_path / "lb" / "manifest.json").read_text())["workers"] == 3


@pytest.fixture(scope="module")
def load_balance_records():
    """Three seeds of the load-balance defaults, 601 steps, every step sampled."""
    cfg = load_config(kind="load-balance", overrides=["t_end=30.05"])
    return [
        run_two_lane(
            cfg.params, LaneChangeParams(r=cfg["r"], p=cfg["p"], rng_seed=seed), n_lane0=50,
            dt=cfg["dt"], t_end=cfg["t_end"],
        )
        for seed in (3, 4, 5)
    ]


def feed_like_lockstep(sink, records, stride, stop, stopped):
    """Feed ``records``, sampled at every step, to ``sink`` as run_lockstep
    would at ``stride``, with rows ``stopped`` dropping out after a last
    sample of their own at step ``stop``; returns each row's sampled steps."""
    last = records[0].times.size - 1
    taken = [[] for _ in records]

    def feed(rows, k, step):
        for r in rows:
            taken[r].append(step)
        sink.sample(
            np.array(rows), k, records[0].times[step],
            np.stack([records[r].positions[step] for r in rows]), None,
            np.stack([records[r].lanes[step] for r in rows]), None,
        )

    live, k = list(range(len(records))), 0
    for step in range(last + 1):
        sampled = step % stride == 0 or step == last
        if step == stop:
            feed(stopped, k, step)
            live = [r for r in live if r not in stopped]
        if sampled:
            feed(live, k, step)
        k += sampled
    return taken


@pytest.mark.parametrize("stride", [1, 2, 3])
def test_rolling_flow_window_equals_the_whole_record(load_balance_records, stride, monkeypatch):
    # The sink sees a sample at every stride-th of the 601 steps and one of
    # the final state, which comes early at strides 2 and 3.  Rows 0 and 2
    # stop after a last sample of their own at step 431, as collided rows do.
    # At strides 2 and 3 that step is off-stride: row 1 never sees its time
    # and takes the same sample index at a later step.  At stride 3 that index
    # fills the window, so the stopped rows are counted and rolled in a call
    # of their own.  Every counted block ends on a sample, where positions_at
    # clamps.  Motion over one step is nearly linear, so a window one sample
    # short would extrapolate to the same counts: its cover is checked apart.
    import ringtraffic.cli as cli

    def covered(sample_times, samples, length, times, positions, delta):
        assert times.size == 0 or sample_times[0] <= times[0] - delta
        return flows(sample_times, samples, length, times, positions, delta)

    flows = cli._flows
    monkeypatch.setattr(cli, "_flows", covered)
    records = load_balance_records
    x = records[0].params.track_length / 2.0
    for delta in (5.0, 5.03, 4.99):
        cfg = load_config(kind="load-balance", overrides=[
            f"record_stride={stride}", "t_end=30.05", f"delta_flow={delta}",
        ])
        size = -(-(records[0].times.size - 1) // stride) + 1
        sink = _LoadBalanceTables(cfg, len(records), size, records[0].n_vehicles)
        taken = feed_like_lockstep(sink, records, stride, 431, [0, 2])
        assert len(taken[0]) == len(taken[2]) < len(taken[1]) == size
        for r, steps in enumerate(taken):
            record = dataclasses.replace(records[r], **{
                name: getattr(records[r], name)[steps]
                for name in ("times", "positions", "velocities", "lanes", "phis")
            })
            tables = sink.tables(r, SimpleNamespace(samples=len(steps)))
            due = record.times[record.times >= delta]
            assert tables["replica"][0].tobytes() == record.times.tobytes()
            assert tables["replica"][1].tobytes() == lane_imbalance(record.lanes).tobytes()
            assert tables["flow"][0].tobytes() == due.tobytes()
            assert tables["flow"][1].tobytes() == flow_series(record, x, due, delta).tobytes()


@pytest.mark.parametrize("delay", [0.0, 0.75])
def test_load_balance_sink_imbalance_equals_that_of_the_samples(delay):
    # The sink keeps lane-1 counts and turns them into the imbalance when its
    # tables are taken; the full samples of the same seeds give it directly.
    # Under the delay two of the rows collide, so their last samples come early.
    cfg = load_config(kind="load-balance", overrides=[
        "t_end=8", f"delay={delay}", "record_stride=2", "delta_flow=1",
    ])
    run = dict(
        n_lane0=cfg["n_vehicles"], delay=delay, dt=cfg["dt"], t_end=cfg["t_end"],
        record_stride=cfg["record_stride"],
    )
    lp, seeds = LaneChangeParams(r=cfg["r"], p=cfg["p"]), [3, 4, 5]
    sink, ends = run_lockstep(
        cfg.params, lp, seeds, sink=lambda *shape: _LoadBalanceTables(cfg, *shape), **run
    )
    samples, sample_ends = run_lockstep(cfg.params, lp, seeds, sink=_Samples, **run)
    assert [e.reason == "collision" for e in ends] == [False, delay > 0, delay > 0]
    for r, end in enumerate(ends):
        assert end.samples == sample_ends[r].samples
        imbalance = sink.tables(r, end)["replica"][1]
        expected = lane_imbalance(samples.lanes[r, : end.samples])
        assert imbalance.dtype == expected.dtype
        assert imbalance.tobytes() == expected.tobytes()
        assert imbalance.max() > imbalance.min()


def test_manifest_lists_only_the_seeds_used(tmp_path):
    one_lane = load_config(kind="single-lane", overrides=["t_end=5"])
    assert run_scenario(one_lane, tmp_path / "one").seeds == []
    two_lane = load_config(
        kind="two-lane", overrides=["n_lane0=30", "dt=0.05", "t_end=5", "base_seed=41"]
    )
    run_scenario(two_lane, tmp_path / "two")
    assert json.loads((tmp_path / "two" / "manifest.json").read_text())["seeds"] == [41]


# A small run of every CLI kind; the single-lane run is long enough to fit a
# growth rate and takes its k = 1 root at a nonzero delay.
SMALL_RUNS = {
    "fundamental-diagram": ["--set", "rho_resolution_per_km=10"],
    "single-lane": ["--set", "dt=0.05", "--set", "delay=0.5", "--set", "record_stride=10",
                    "--set", "flow_grid_nt=3", "--set", "flow_grid_nx=3"],
    "stability": ["--set", "n_vehicles=12"],
    "tau-curve": [],
    "load-balance": ["--set", "t_end=5", "--set", "delta_flow=1", "--replicas", "2"],
    "aggressive": ["--set", "t_end=5", "--replicas", "2"],
    "two-lane": ["--set", "n_lane0=10", "--set", "dt=0.05", "--set", "t_end=2"],
}


def test_every_cli_kind_runs_with_scipy_unimportable(tmp_path):
    import ringtraffic

    assert set(SMALL_RUNS) == set(KINDS)
    src_dir = str(Path(ringtraffic.__file__).parents[1])
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None  # any import of scipy or a submodule raises ImportError\n"
        f"sys.path.insert(0, {src_dir!r})\n"
        "import ringtraffic.cli\n"
        "runs = json.loads(sys.argv[1])\n"
        "status = {kind: ringtraffic.cli.main([kind, *args, '--out', f'{sys.argv[2]}/{kind}', '--quiet'])\n"
        "          for kind, args in runs.items()}\n"
        "print(json.dumps([status, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, json.dumps(SMALL_RUNS), str(tmp_path)],
        capture_output=True, text=True, check=True,
    )
    status, scipy_modules = json.loads(result.stdout)
    assert status == {kind: EXIT_OK for kind in KINDS}, result.stderr
    assert scipy_modules == ["scipy"]  # the blocking entry alone
    assert (tmp_path / "single-lane" / "growth_fit.csv").exists()
    assert (tmp_path / "stability" / "stability.csv").exists()


def test_cli_import_leaves_the_process_pool_unloaded():
    # Only a replica run with more than one worker needs the pool, and
    # importing it pulls in multiprocessing, socket and subprocess.
    import ringtraffic

    src_dir = str(Path(ringtraffic.__file__).parents[1])
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {src_dir!r})\n"
        "import ringtraffic.cli\n"
        "from ringtraffic.config import load_config\n"
        "for kind in ringtraffic.cli.KINDS:\n"
        "    load_config(kind=kind, overrides=[])\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'concurrent')))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert json.loads(result.stdout) == []
