"""Each output check passes the program's real output and rejects a corrupted copy.

Run from the repository root (about a minute; kept out of the tier-1 suite):

    PYTHONPATH=src python3 -m pytest perfbench
"""
import shutil

import pytest

import checks
from workloads import cli_config, tau_c_exact
from ringtraffic.cli import run_scenario
from ringtraffic.config import load_config

SEED = 3


def _run(workload, tmp_path_factory):
    kind, overrides = cli_config(workload, SEED)
    out = tmp_path_factory.mktemp(workload)
    run_scenario(load_config(kind=kind, overrides=overrides, environ={}), out)
    return out


@pytest.fixture(scope="module")
def single_lane(tmp_path_factory):
    return _run("single_lane_cli", tmp_path_factory)


@pytest.fixture(scope="module")
def load_balance(tmp_path_factory):
    return _run("load_balance", tmp_path_factory)


def corrupt(src, tmp_path, name, edit):
    """Copy an output directory and apply ``edit`` to the data lines of one file."""
    out = tmp_path / "corrupt"
    shutil.copytree(src, out)
    path = out / name
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    start = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    path.write_text("".join(lines[:start] + edit(lines[start:])), encoding="utf-8")
    return out


def edit_field(row, column, change):
    """Edit function that applies ``change`` to one numeric field of one data line."""

    def edit(data):
        fields = data[row].rstrip("\n").split(",")
        fields[column] = repr(change(float(fields[column])))
        data[row] = ",".join(fields) + "\n"
        return data

    return edit


def drop_first(kind):
    """Edit function that removes the first event row of the given kind."""

    def edit(data):
        i = next(i for i, line in enumerate(data) if line.split(",")[2] == kind)
        return data[:i] + data[i + 1:]

    return edit


def test_single_lane_output_passes(single_lane):
    assert checks.check_single_lane(single_lane, SEED % 50) == []


@pytest.mark.parametrize(
    "name, edit, expected",
    [
        ("trajectory.csv", edit_field(5000, 3, lambda v: v + 1e-4), "delayed velocity law"),
        ("trajectory.csv", edit_field(5000, 2, lambda x: x + 1e-4), "is not dt * v"),
        ("trajectory.csv", lambda data: data[:-50], "collision"),
        ("growth_fit.csv", edit_field(0, 3, lambda k: -k), "growth fit"),
        ("flow_field.csv", edit_field(7, 2, lambda q: q + 0.01), "nonnegative integer"),
    ],
)
def test_single_lane_rejects(single_lane, tmp_path, name, edit, expected):
    problems = checks.check_single_lane(corrupt(single_lane, tmp_path, name, edit), SEED % 50)
    assert any(expected in p for p in problems), problems


def test_single_lane_rejects_wrong_perturbed_vehicle(single_lane):
    problems = checks.check_single_lane(single_lane, (SEED + 1) % 50)
    assert any("perturbed equilibrium" in p for p in problems), problems


def test_load_balance_output_passes(load_balance):
    assert checks.check_load_balance(load_balance, 10) == []


@pytest.mark.parametrize(
    "name, edit, expected",
    [
        ("lb_events_04.csv", drop_first("lane_change"), "replayed lane changes"),
        ("lb_replica_02.csv", edit_field(900, 1, lambda d: d + 2), "replayed lane changes"),
        ("lb_mean.csv", edit_field(30, 1, lambda m: m + 1e-3), "lb_mean.csv"),
        ("lb_flow_mean.csv", edit_field(30, 2, lambda s: s * 1.01), "lb_flow_mean.csv"),
        ("lb_flow_07.csv", edit_field(12, 1, lambda q: q + 0.05), "nonnegative integer"),
        ("lb_events_03.csv", lambda data: data + ["99,3,collision,0,0,0\n"], "collision event"),
    ],
)
def test_load_balance_rejects(load_balance, tmp_path, name, edit, expected):
    problems = checks.check_load_balance(corrupt(load_balance, tmp_path, name, edit), 10)
    assert any(expected in p for p in problems), problems


def test_stability_accepts_exact_values():
    tau = 0.4 * tau_c_exact(40)
    rows = [
        ["tau_c", 40, None, tau_c_exact(40) + 0.4 * checks.TAU_C_TOL, None],
        ["growth", 40, tau, checks.growth_rate_reference(40, tau), None],
    ]
    assert checks.classify_stability(rows) == ([], [])


def test_stability_rejects_values_off_by_twice_the_tolerance():
    tau = 0.4 * tau_c_exact(40)
    rows = [
        ["tau_c", 40, None, tau_c_exact(40) + 2 * checks.TAU_C_TOL, None],
        ["growth", 40, tau, checks.growth_rate_reference(40, tau) + 2 * checks.GROWTH_TOL, None],
        ["tau_c", 41, None, None, "NumericalError"],
    ]
    failed, problems = checks.classify_stability(rows)
    assert failed == [0, 1, 2] and len(problems) == 3


def test_stability_counts_known_faults_without_a_problem():
    tau = 1.1 * tau_c_exact(50)
    rows = [
        ["tau_c", 4, None, None, "BracketError"],
        ["tau_c", 6, None, 29.02294921875, None],
        ["growth", 50, tau, checks.growth_rate_reference(50, tau) - 1e-4, None],
    ]
    assert checks.classify_stability(rows) == ([0, 1, 2], [])
