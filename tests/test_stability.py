import cmath
import dataclasses
import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.special import lambertw as scipy_lambertw

from ringtraffic import (
    ModelParams,
    closed_form_eigenvalues,
    critical_reaction_time,
    lambert_w,
    max_growth_rate,
    rightmost_roots,
)
import ringtraffic.stability as stability
from ringtraffic.core import _lambert_w_minus1
from ringtraffic.errors import NumericalError, ParameterError
from ringtraffic.stability import _on_principal_branch, scale_constant

from oracles import build_jacobian_dense, characteristic_roots

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def newton_root(d, delay, start, tol=1e-13):
    """Damped Newton on lam - d*exp(-lam*delay); independent of Lambert W."""
    lam = complex(start)
    for _ in range(200):
        f = lam - d * cmath.exp(-lam * delay)
        fp = 1.0 + delay * d * cmath.exp(-lam * delay)
        if abs(fp) < 1e-14:
            break
        step = f / fp
        while abs(step) > 1.0:  # damping for far starts
            step *= 0.5
        lam -= step
        if abs(step) <= tol * (1.0 + abs(lam)):
            return lam
    return lam


@pytest.fixture(scope="module")
def random_arguments():
    """200k complex z with |z| log-uniform in [e^-8, e^8] and uniform argument."""
    rng = np.random.default_rng(11)
    size = 200_000
    return np.exp(rng.uniform(-8, 8, size) + 1j * rng.uniform(-np.pi, np.pi, size))


@pytest.fixture(scope="module")
def plan_arguments(table1_params):
    """The mode arguments ``z = d_k tau`` (k = 1..N/2) of every growth-rate
    point of the benchmark's stability plans for seeds 1-6."""
    sys.path.insert(0, str(PERFBENCH))
    dont_write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.dont_write_bytecode = dont_write_bytecode
        sys.path.remove(str(PERFBENCH))
    points = {pt for seed in range(1, 7) for pt in workloads.stability_plan(seed)["growth_points"]}
    return np.concatenate(
        [closed_form_eigenvalues(n, table1_params)[: n // 2] * tau for n, tau in sorted(points)]
    )


def scipy_scan_growth_rate(n, delay, p):
    """Largest real part over 17 scipy Lambert-W branches; independent of lambert_w."""
    eigs = closed_form_eigenvalues(n, p)
    return max(float((scipy_lambertw(eigs * delay, b) / delay).real.max()) for b in range(-8, 9))


def test_dense_jacobian_small_cases(table1_params):
    c = scale_constant(2, table1_params)
    np.testing.assert_allclose(build_jacobian_dense(2, table1_params), [[2 * c]])
    c3 = scale_constant(3, table1_params)
    np.testing.assert_allclose(
        build_jacobian_dense(3, table1_params), [[2 * c3, -c3], [c3, c3]]
    )


def test_dense_jacobian_row_sums(table1_params):
    jac = build_jacobian_dense(7, table1_params)
    c = scale_constant(7, table1_params)
    sums = jac.sum(axis=1)
    np.testing.assert_allclose(sums[:-1], c)  # rows with a superdiagonal entry
    np.testing.assert_allclose(sums[-1], 2 * c)


def test_dense_jacobian_is_verification_only(table1_params):
    with pytest.raises(ParameterError):
        build_jacobian_dense(65, table1_params)


def test_closed_form_matches_dense_eigensolver(table1_params):
    for n in range(2, 13):
        closed = closed_form_eigenvalues(n, table1_params)
        numeric = np.linalg.eigvals(build_jacobian_dense(n, table1_params))
        cost = np.abs(closed[:, None] - numeric[None, :])
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() < 1e-9
        # all pairwise distinct
        pair = np.abs(closed[:, None] - closed[None, :]) + np.eye(n - 1)
        assert pair.min() > 1e-12


def test_eigenvalues_on_unit_circle_about_scale(table1_params):
    c = scale_constant(50, table1_params)
    eigs = closed_form_eigenvalues(50, table1_params)
    assert c < 0
    ratios = np.abs(1.0 - eigs / c)
    np.testing.assert_allclose(ratios, 1.0, atol=1e-12)
    assert np.all(eigs.real <= 1e-15)


def test_eigenvalues_small_n(table1_params):
    c2 = scale_constant(2, table1_params)
    np.testing.assert_allclose(closed_form_eigenvalues(2, table1_params), [2 * c2])
    c4 = scale_constant(4, table1_params)
    np.testing.assert_allclose(
        np.sort_complex(closed_form_eigenvalues(4, table1_params) / c4),
        np.sort_complex(np.array([1 - 1j, 2 + 0j, 1 + 1j])),
        atol=1e-12,
    )


@pytest.mark.parametrize("n", [4, 50])
def test_half_ring_mode_is_exactly_real(table1_params, n):
    eigs = closed_form_eigenvalues(n, table1_params)
    half = eigs[n // 2 - 1]  # k = N/2
    assert half.imag == 0.0
    assert half.real == 2.0 * scale_constant(n, table1_params)


@pytest.mark.parametrize("delay", [0.0, 0.5, 5.0])
def test_two_vehicle_ring_has_no_oscillation(table1_params, delay):
    # N=2 has the half-ring mode alone: its rightmost root is real at every delay
    (root,) = rightmost_roots(2, delay, table1_params)
    assert root.imag == 0.0
    assert root.real < 0.0


def test_lambert_w_against_scipy(random_arguments, plan_arguments):
    for z in (random_arguments, plan_arguments):
        np.testing.assert_allclose(lambert_w(z), scipy_lambertw(z, 0), rtol=0, atol=1e-10)


@pytest.mark.parametrize("arguments", ["random_arguments", "plan_arguments"])
def test_branch_test_accepts_w0_and_rejects_the_neighbouring_branches(request, arguments):
    z = request.getfixturevalue(arguments)
    assert _on_principal_branch(scipy_lambertw(z, 0), z).all()
    for branch in (-1, 1):
        assert not _on_principal_branch(scipy_lambertw(z, branch), z).any(), branch


def test_lambert_w_defining_equation_near_branch_point():
    for z in (-1 / math.e, -1 / math.e + 1e-9, -0.36581241, -0.3658 + 1e-4j):
        w = lambert_w(z)
        assert abs(w * cmath.exp(w) - z) < 1e-10
    for x in (-1 / math.e + 1e-9, -0.36581241):
        w = _lambert_w_minus1(x)
        assert w < -1
        assert abs(w * math.exp(w) - x) < 1e-10


def test_lambert_w_at_zero():
    assert lambert_w(0.0) == 0.0
    assert lambert_w(np.array([0.0, 1.0]))[0] == 0.0


def test_lambert_w_edge_inputs(table1_params):
    assert lambert_w(-1 / math.e) == pytest.approx(-1.0, abs=1e-7)
    # past the branch point, on the cut: the upper value, as scipy returns it
    for x in (-0.37, -0.5, -1.0, -2.0, -10.0, -1e3, -1e6):
        w = lambert_w(x)
        assert w.imag > 0
        assert w == pytest.approx(scipy_lambertw(x, 0), rel=1e-13, abs=1e-13)
        assert lambert_w(complex(x, -0.0)) == w
    # the half-ring mode of an even ring is real and lies on the cut past -1/e
    z = closed_form_eigenvalues(50, table1_params)[24] * 2.0
    assert z.imag == 0.0 and z.real < -1 / math.e
    root = rightmost_roots(50, 2.0, table1_params)[24]
    assert root.imag > 0
    assert root == pytest.approx(scipy_lambertw(z, 0) / 2.0, rel=1e-13, abs=1e-13)
    with pytest.raises(NumericalError), np.errstate(invalid="ignore"):
        lambert_w(math.nan)


def test_lambert_w_minus1_against_scipy():
    for ad in np.geomspace(1e-6, 50.0, 400):
        x = -math.exp(-(1.0 + ad))
        assert _lambert_w_minus1(x) == pytest.approx(scipy_lambertw(x, -1).real, rel=1e-12)
    for x in (-1 / math.e, -0.5, -0.0, 0.1):
        with pytest.raises(ParameterError):
            _lambert_w_minus1(x)


def test_nan_fails_the_residual_checks(table1_params, monkeypatch):
    with pytest.raises(NumericalError), np.errstate(invalid="ignore"):
        lambert_w(complex(math.nan, 1.0))
    monkeypatch.setattr(stability, "lambert_w", lambda z: np.full_like(z, math.nan))
    with pytest.raises(NumericalError):
        max_growth_rate(50, 0.75, table1_params)


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, complex(math.nan, 1.0)])
def test_lambert_w_rejects_a_non_finite_argument_at_the_first_check(z, monkeypatch):
    # One step more than the residual checks wait for: only the finiteness
    # test can end the iteration before its step cap.
    monkeypatch.setattr(stability, "_HALLEY_MAX_ITER", stability._HALLEY_MIN_ITER + 1)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for argument in (z, np.array([0.5, z, 1.0])):
            with pytest.raises(NumericalError, match="non-finite"):
                lambert_w(argument)


def test_characteristic_roots_zero_delay(table1_params):
    roots = characteristic_roots(-1.0, 0.0)
    assert roots.tolist() == [(-1 + 0j)]


def test_characteristic_roots_marginal_case():
    roots = characteristic_roots(-1.0, math.pi / 2)
    assert min(abs(r - 1j) for r in roots) < 1e-12
    assert min(abs(r + 1j) for r in roots) < 1e-12
    residuals = np.abs(roots - (-1.0) * np.exp(-roots * (math.pi / 2)))
    assert residuals.max() < 1e-10


def test_characteristic_roots_principal_vs_newton():
    d, delay = -1.0, 0.5
    roots = characteristic_roots(d, delay)
    rightmost = roots[np.argmax(roots.real)]
    assert rightmost.real < 0
    # the rightmost root is a conjugate pair; the oracle lands on one of them
    oracle = newton_root(d, delay, start=-0.5 + 0.1j)
    assert min(abs(rightmost - oracle), abs(rightmost.conjugate() - oracle)) < 1e-9


def test_characteristic_roots_residuals_sweep(table1_params):
    eigs = closed_form_eigenvalues(50, table1_params)
    for k in (0, 5, 10, 16):
        delay = 0.05 * k
        for d in eigs[::7]:
            roots = characteristic_roots(d, delay)
            residual = np.abs(roots - d * np.exp(-roots * delay))
            assert residual.max() <= 1e-10 * max(1.0, abs(d))


def test_max_growth_rate_zero_delay_closed_form(table1_params):
    verdict = max_growth_rate(50, 0.0, table1_params)
    eigs = closed_form_eigenvalues(50, table1_params)
    assert verdict.max_real_part == eigs.real.max()
    assert verdict.max_real_part == pytest.approx(-5.769e-3, rel=1e-3)
    assert verdict.stable


def test_max_growth_rate_signs_at_paper_delays(table1_params):
    assert max_growth_rate(50, 0.5, table1_params).stable
    verdict = max_growth_rate(50, 0.75, table1_params)
    assert not verdict.stable
    assert verdict.max_real_part > 0


def test_rightmost_root_against_newton_multistart(table1_params):
    """Per-eigenvalue rightmost root, cross-checked by a Lambert-free solver."""
    eigs = closed_form_eigenvalues(50, table1_params)[::6]
    delay = 0.6
    starts = [
        re + 1j * im for re in np.linspace(-2, 0.5, 7) for im in np.linspace(-4, 4, 11)
    ]
    for d in eigs:
        roots = characteristic_roots(d, delay)
        rightmost = roots.real.max()
        newton_best = -np.inf
        for s in starts:
            lam = newton_root(d, delay, s)
            if abs(lam - d * cmath.exp(-lam * delay)) < 1e-9:
                newton_best = max(newton_best, lam.real)
        assert rightmost == pytest.approx(newton_best, abs=1e-8)


def test_critical_reaction_time_50_and_133(table1_params):
    tau50 = critical_reaction_time(50, table1_params)
    assert 0.65 <= tau50 <= 0.75
    tau133 = critical_reaction_time(133, table1_params)
    assert 0.48 <= tau133 <= 0.52


def test_critical_reaction_time_continuum_limit():
    p = ModelParams()  # lambda 1/s; N -> L/d approaches one vehicle per d meters
    tau = critical_reaction_time(133, p)
    assert abs(tau - 0.5) < 0.02


def test_critical_reaction_time_marginal_oracle(table1_params):
    """At tau_c the slowest mode (k = 1) has a purely imaginary rightmost root."""
    for n in (2, 3, 6, 25, 50, 100):
        tau = critical_reaction_time(n, table1_params)
        d1 = closed_form_eigenvalues(n, table1_params)[0]
        roots = characteristic_roots(d1, tau)
        assert abs(roots.real.max()) < 1e-9


def test_critical_reaction_time_sparse_fleets(table1_params):
    # Sparse rings are stable up to delays far beyond any bracket a search would start with.
    expected = {2: 1.7472e5, 3: 2085.25, 4: 238.498, 5: 65.7618, 6: 27.9981}
    for n, tau in expected.items():
        assert critical_reaction_time(n, table1_params) == pytest.approx(tau, rel=1e-4)


@pytest.mark.parametrize("length", [2.9e5, 1e6])
def test_critical_reaction_time_is_infinite_beyond_the_float_range(length):
    # At N = 10 the coupling |c| = exp(-(L/10 - 7.5)/40) is subnormal
    # (about 1.7e-315) on a 290 km ring and rounds to 0 on a 1000 km one,
    # where the quotient used to raise ZeroDivisionError.
    p = ModelParams(track_length=length)
    assert 0.0 <= abs(scale_constant(10, p)) < sys.float_info.min
    assert critical_reaction_time(10, p) == math.inf


def test_critical_reaction_time_straddles_scipy_sign_change(table1_params):
    for n in range(2, 201):
        tau = critical_reaction_time(n, table1_params)
        assert scipy_scan_growth_rate(n, tau * (1 - 1e-3), table1_params) < 0
        assert scipy_scan_growth_rate(n, tau * (1 + 1e-3), table1_params) > 0


def test_max_growth_rate_against_scipy_scan(table1_params):
    # (6, 28..29.1) and (12, 3.6) sit where a wrong-sheet W_0 once reported
    # a stable or too-slow rightmost root.
    cases = [(6, tau) for tau in np.linspace(28.01, 29.09, 7)] + [(12, 3.6), (50, 0.75)]
    for n, tau in cases:
        rate = max_growth_rate(n, tau, table1_params).max_real_part
        assert rate == pytest.approx(scipy_scan_growth_rate(n, tau, table1_params), abs=1e-12)
        assert rate > 0
    assert max_growth_rate(12, 3.6, table1_params).max_real_part == pytest.approx(1.972e-3, rel=1e-3)
    assert max_growth_rate(50, 0.75, table1_params).max_real_part == pytest.approx(0.014180, abs=1e-6)


def test_max_growth_rate_calls_lambert_w_once(table1_params, monkeypatch):
    calls = []
    real = stability.lambert_w

    def counted(z):
        calls.append(np.array(z))
        return real(z)

    monkeypatch.setattr(stability, "lambert_w", counted)
    # the second call surely finds the fleet's half-spectrum cached: still one call
    for _ in range(2):
        calls.clear()
        max_growth_rate(50, 0.75, table1_params)
        # one call, on the arguments of modes k = 1..N/2; the rest are their conjugates
        (z,) = calls
        np.testing.assert_array_equal(z, closed_form_eigenvalues(50, table1_params)[:25] * 0.75)


def test_cache_is_consulted_only_for_valid_fleet_sizes(table1_params):
    # 2.0 == 2 and hash(2.0) == hash(2): a cache consulted before the check
    # would hand the float the int's spectrum
    max_growth_rate(2, 0.75, table1_params)
    with pytest.raises(ParameterError):
        max_growth_rate(2.0, 0.75, table1_params)
    with pytest.raises(ParameterError):
        rightmost_roots(np.float64(2.0), 0.75, table1_params)


def test_returned_arrays_do_not_alias_the_cache(table1_params):
    delays = (0.0, 0.75)
    rates = [max_growth_rate(12, delay, table1_params) for delay in delays]
    roots = [rightmost_roots(12, delay, table1_params) for delay in delays]
    expected = [r.copy() for r in roots]
    for array in (*roots, closed_form_eigenvalues(12, table1_params)):
        array[:] = 1e3
    assert [max_growth_rate(12, delay, table1_params) for delay in delays] == rates
    for delay, want in zip(delays, expected):
        np.testing.assert_array_equal(rightmost_roots(12, delay, table1_params), want)


def test_fleets_that_differ_in_one_parameter_get_their_own_spectra(table1_params):
    longer = dataclasses.replace(table1_params, track_length=table1_params.track_length + 1.0)
    for p in (table1_params, longer, table1_params, longer):
        # the roots of modes k = 1..N/2 as the solver computes them, uncached
        expected = lambert_w(closed_form_eigenvalues(12, p)[:6] * 0.75) / 0.75
        np.testing.assert_array_equal(rightmost_roots(12, 0.75, p)[:6], expected)
        assert max_growth_rate(12, 0.75, p).max_real_part == expected.real.max()
    assert max_growth_rate(12, 0.75, longer) != max_growth_rate(12, 0.75, table1_params)


def test_rightmost_roots_are_each_modes_rightmost_characteristic_root(table1_params):
    eigs = closed_form_eigenvalues(50, table1_params)
    np.testing.assert_array_equal(rightmost_roots(50, 0.0, table1_params), eigs)
    lam = rightmost_roots(50, 0.75, table1_params)
    for d, root in zip(eigs[::7], lam[::7]):
        roots = characteristic_roots(d, 0.75)
        assert root == pytest.approx(roots[np.argmax(roots.real)], rel=1e-13, abs=1e-13)
    # modes k and N-k have conjugate roots
    np.testing.assert_array_equal(lam[25:], lam[:24][::-1].conj())
    assert rightmost_roots(7, 0.75, table1_params).size == 6
    # the k=1 mode's period is the ring wave's, about 68.4 s at N=50
    for delay in np.linspace(0.0, 0.75, 16):
        lam1 = rightmost_roots(50, float(delay), table1_params)[0]
        assert 68.3 < 2 * math.pi / abs(lam1.imag) < 68.6


@pytest.mark.parametrize("n", [0, 1, -3, 2.5, True])
def test_fleet_size_must_be_an_integer_of_at_least_two(table1_params, n):
    with pytest.raises(ParameterError):
        critical_reaction_time(n, table1_params)
    with pytest.raises(ParameterError):
        max_growth_rate(n, 0.5, table1_params)


def test_fleet_size_accepts_numpy_integers(table1_params):
    n = np.int64(50)
    assert critical_reaction_time(n, table1_params) == critical_reaction_time(50, table1_params)
    assert max_growth_rate(n, 0.5, table1_params) == max_growth_rate(50, 0.5, table1_params)


def test_tau_monotone_in_fleet_size(table1_params):
    taus = [critical_reaction_time(n, table1_params) for n in (10, 25, 50, 75, 100, 133)]
    assert all(b <= a + 2e-3 for a, b in zip(taus, taus[1:]))
