"""Shared fixtures; the expensive simulation sweeps run once per session."""
import csv

import numpy as np
import pytest

from ringtraffic import ModelParams, growth_rate_from_record, run_single_lane
from ringtraffic.cli import run_scenario
from ringtraffic.config import load_config

GROWTH_DELTAS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.65, 0.7, 0.75)


def read_csv_columns(path, skip=("event",)):
    """Numeric columns of a '#'-commented CSV, keyed by header name."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header, data = rows[0], rows[1:]
    return {
        name: np.array([float(row[i]) for row in data])
        for i, name in enumerate(header)
        if name not in skip
    }


@pytest.fixture(scope="session")
def csv_columns():
    return read_csv_columns


@pytest.fixture(scope="session")
def table1_params():
    return ModelParams()


@pytest.fixture(scope="session")
def growth_sweep(table1_params):
    """Perturbation runs over the reaction-time grid with fitted growth rates.

    The fit uses amplitudes of the perturbed vehicle over periods of the
    slowest ring mode with the injection cycle dropped, so the rate reflects
    the oscillation dynamics rather than the transient left by the initial
    displacement.
    """
    out = {}
    for delta in GROWTH_DELTAS:
        record = run_single_lane(
            table1_params, 50, delta, 0.01, 800.0, perturbation=(0, 1.0)
        )
        out[delta] = {
            "k": growth_rate_from_record(record, vehicle=0).k,
            "termination": record.termination_reason,
            "termination_time": record.termination_time,
        }
    return out


@pytest.fixture(scope="session")
def load_balance_dirs(tmp_path_factory):
    """The seeded load-balance experiment, executed twice at identical config:
    in-process, then on two worker processes."""
    cfg = load_config(kind="load-balance")
    dirs = []
    for name, workers in (("lb_run1", 1), ("lb_run2", 2)):
        out = tmp_path_factory.mktemp(name)
        run_scenario(cfg, out, workers=workers)
        dirs.append(out)
    return dirs


@pytest.fixture(scope="session")
def aggressive_dirs(tmp_path_factory):
    """The seeded aggressive-driver experiment, executed twice at identical config:
    in-process, then on two worker processes."""
    cfg = load_config(kind="aggressive")
    dirs = []
    for name, workers in (("agg_run1", 1), ("agg_run2", 2)):
        out = tmp_path_factory.mktemp(name)
        run_scenario(cfg, out, workers=workers)
        dirs.append(out)
    return dirs
