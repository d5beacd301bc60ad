import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ringtraffic.cli import EXIT_CONFIG, EXIT_OK, config_hash, main, run_scenario
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


def test_env_and_set_overrides(tmp_path):
    env = {"RINGTRAFFIC_T_END": "120", "RINGTRAFFIC_PARAMS__V_MAX": "30"}
    cfg = load_config(
        kind="single-lane", environ=env, overrides=["params.d_min=6.0", "n_vehicles=40"]
    )
    assert cfg["t_end"] == 120.0
    assert cfg.params.v_max == 30.0
    assert cfg.params.d_min == 6.0
    assert cfg["n_vehicles"] == 40
    with pytest.raises(ConfigurationError):
        load_config(kind="single-lane", environ={"RINGTRAFFIC_NOPE": "1"})


def test_type_coercion_rejects_mismatches():
    with pytest.raises(ConfigurationError):
        load_config(kind="single-lane", overrides=["n_vehicles=12.5"])
    with pytest.raises(ConfigurationError):
        load_config(kind="single-lane", overrides=['dt="fast"'])


def test_all_kinds_have_valid_defaults():
    for kind in KINDS:
        cfg = load_config(kind=kind)
        assert cfg.kind == kind
        assert cfg.seeds[0] == cfg["base_seed"]


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


def test_custom_two_lane_cli(tmp_path, csv_columns):
    out = tmp_path / "custom"
    status = main(
        [
            "custom", "--out", str(out), "--quiet",
            "--set", "lanes=2", "--set", "n_lane0=30", "--set", "n_lane1=0",
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


def test_bad_config_exit_code(tmp_path):
    status = main(
        ["single-lane", "--out", str(tmp_path / "x"), "--set", "dt=-1", "--quiet"]
    )
    assert status == EXIT_CONFIG
    status = main(
        ["single-lane", "--out", str(tmp_path / "y"), "--set", "nonsense=1", "--quiet"]
    )
    assert status == EXIT_CONFIG


def test_manifest_config_echo_is_idempotent(tmp_path):
    out = tmp_path / "lb"
    cfg = load_config(kind="load-balance", overrides=["t_end=10", "replicas=2"])
    manifest = run_scenario(cfg, out)
    echoed = load_config(inline=manifest.config)
    assert echoed.to_dict() == manifest.config
    assert config_hash(echoed.to_dict()) == manifest.config_hash


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
    import ringtraffic.cli as cli

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

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
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
    par = tmp_path / "par"
    m1 = run_scenario(cfg, seq, workers=1)
    m2 = run_scenario(cfg, par, workers=3)
    assert m1.artifacts == m2.artifacts
    for name in m1.artifacts:
        assert (seq / name).read_bytes() == (par / name).read_bytes()


def test_manifest_records_the_processes_that_ran(tmp_path, monkeypatch, pool_sizes):
    import ringtraffic.cli as cli

    status = main(["stability", "--out", str(tmp_path / "stab"), "--quiet", "--workers", "1000"])
    assert status == EXIT_OK
    assert json.loads((tmp_path / "stab" / "manifest.json").read_text())["workers"] == 1

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    cfg = load_config(kind="load-balance", overrides=["t_end=10", "replicas=3"])
    manifest = run_scenario(cfg, tmp_path / "lb", workers=10**6)
    assert pool_sizes == [3]
    assert manifest.workers == 3
    assert json.loads((tmp_path / "lb" / "manifest.json").read_text())["workers"] == 3


def test_manifest_lists_only_the_seeds_used(tmp_path):
    one_lane = load_config(kind="custom", overrides=["t_end=5"])
    assert run_scenario(one_lane, tmp_path / "one").seeds == []
    two_lane = load_config(
        kind="custom",
        overrides=["lanes=2", "n_lane0=30", "dt=0.05", "t_end=5", "replicas=3", "base_seed=41"],
    )
    run_scenario(two_lane, tmp_path / "two")
    assert json.loads((tmp_path / "two" / "manifest.json").read_text())["seeds"] == [41]


def test_cli_import_leaves_scipy_signal_unloaded():
    import ringtraffic

    src_dir = str(Path(ringtraffic.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src_dir!r}); import ringtraffic.cli; "
        "print('scipy.signal' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"
