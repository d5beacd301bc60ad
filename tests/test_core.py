import math

import numpy as np
import pytest

from ringtraffic import (
    ModelParams,
    fundamental_diagram_curve,
    fundamental_diagram_summary,
    velocity_from_headway,
)
from ringtraffic.errors import ParameterError

# High-precision scalar evaluations of the velocity law at Table-1 constants.
V_AT_20 = 40.0 * (1.0 - math.exp(-0.3125))  # 10.735374842134327


def test_velocity_at_minimal_headway_is_zero(table1_params):
    assert velocity_from_headway(7.5, table1_params) == 0.0


def test_velocity_below_minimal_headway_clamps(table1_params):
    assert velocity_from_headway(5.0, table1_params) == 0.0
    assert velocity_from_headway(0.0, table1_params) == 0.0


def test_velocity_at_20m(table1_params):
    assert velocity_from_headway(20.0, table1_params) == pytest.approx(V_AT_20, abs=1e-12)


def test_velocity_rejects_bad_headway(table1_params):
    with pytest.raises(ParameterError):
        velocity_from_headway(-1.0, table1_params)
    with pytest.raises(ParameterError):
        velocity_from_headway(float("nan"), table1_params)


def test_velocity_monotone_and_bounded(table1_params):
    h = np.linspace(0.0, 400.0, 20001)
    v = velocity_from_headway(h, table1_params)
    assert np.all(np.diff(v) >= 0.0)
    assert np.all(v >= 0.0)
    assert np.all(v < table1_params.v_max)


def test_params_invariants():
    with pytest.raises(ParameterError):
        ModelParams(lambda_rate=0.0)
    with pytest.raises(ParameterError):
        ModelParams(d_min=5.0, car_size=5.0)  # minimal headway must exceed car size
    with pytest.raises(ParameterError):
        ModelParams(track_length=-1.0)


def test_equilibrium_flow_at_density_50_vehicles(table1_params):
    q = float(fundamental_diagram_curve(table1_params, 0.05)[1])
    assert q == pytest.approx(0.05 * V_AT_20, abs=1e-12)
    assert 0.53 <= q <= 0.54


def test_equilibrium_flow_vanishes_at_jam(table1_params):
    assert fundamental_diagram_curve(table1_params, 1.0 / 7.5)[1] == 0.0


def test_equilibrium_flow_vanishes_at_low_density(table1_params):
    assert fundamental_diagram_curve(table1_params, 1e-9)[1] < 1e-6


def test_equilibrium_flow_rejects_nonpositive_density(table1_params):
    with pytest.raises(ParameterError):
        fundamental_diagram_curve(table1_params, 0.0)
    with pytest.raises(ParameterError):
        fundamental_diagram_curve(table1_params, -0.01)


def test_flow_unimodal_on_table1(table1_params):
    rho = np.linspace(1e-4, table1_params.rho_jam - 1e-9, 5000)
    _, q = fundamental_diagram_curve(table1_params, rho)
    sign_changes = np.diff(np.sign(np.diff(q)))
    assert np.count_nonzero(sign_changes) == 1


def test_summary_matches_paper_values(table1_params):
    s = fundamental_diagram_summary(table1_params)
    assert s.q_star * 3600 == pytest.approx(2065, rel=0.01)
    assert s.rho_star * 1000 == pytest.approx(34, abs=1.0)
    assert s.rho_jam == 1.0 / 7.5


def test_summary_against_brute_force_grid(table1_params):
    s = fundamental_diagram_summary(table1_params)
    rho = np.linspace(1e-6, table1_params.rho_jam - 1e-9, 2_000_001)
    brute = fundamental_diagram_curve(table1_params, rho)[1].max()
    assert abs(s.q_star - brute) <= 1e-3 * brute


@pytest.mark.parametrize(
    "params",
    [
        ModelParams(),
        ModelParams(d_min=15.0),
        ModelParams(lambda_rate=2.0, v_max=30.0),
        ModelParams(lambda_rate=0.5, v_max=60.0, d_min=6.0, car_size=4.0),
    ],
)
def test_summary_is_the_stationary_point(params):
    s = fundamental_diagram_summary(params)
    a = params.lambda_rate / params.v_max
    h = 1.0 / s.rho_star
    assert (1.0 + a * h) * math.exp(-a * (h - params.d_min)) == pytest.approx(1.0, abs=1e-12)
    _, q = fundamental_diagram_curve(params, s.rho_star)
    assert s.q_star == pytest.approx(float(q), rel=1e-12)


@pytest.mark.parametrize(
    "params",
    [ModelParams(lambda_rate=1e-18), ModelParams(lambda_rate=1000.0, v_max=1.0)],
    ids=["1 + a*d_min rounds to 1", "exp(-a*d_min) underflows"],
)
def test_summary_without_a_flow_peak_is_a_parameter_error(params):
    with pytest.raises(ParameterError):
        fundamental_diagram_summary(params)


def test_jam_density_scales_with_minimal_headway():
    doubled = ModelParams(d_min=15.0)
    s = fundamental_diagram_summary(doubled)
    assert s.rho_jam == pytest.approx(1.0 / 15.0)
    assert s.rho_jam * 1000 == pytest.approx(200.0 / 3.0)


def test_curve_units_and_shape(table1_params):
    rho = np.array([0.01, 0.05, 0.1])
    v_eq, q = fundamental_diagram_curve(table1_params, rho)
    assert v_eq.shape == q.shape == (3,)
    assert q[1] == pytest.approx(0.05 * V_AT_20)
