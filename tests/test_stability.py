import cmath
import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.special import lambertw as scipy_lambertw

from ringtraffic import (
    ModelParams,
    build_jacobian_dense,
    characteristic_roots,
    closed_form_eigenvalues,
    critical_reaction_time,
    lambert_w,
    max_growth_rate,
)
import ringtraffic.stability as stability
from ringtraffic.errors import NumericalError, ParameterError
from ringtraffic.stability import scale_constant


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


def test_lambert_w_against_scipy():
    rng = np.random.default_rng(11)
    for branch in range(-8, 9):
        z = rng.uniform(-4, 4, 800) + 1j * rng.uniform(-4, 4, 800)
        z = z[np.abs(z) > 1e-6]
        # branch identity right on a cut is convention-dependent; stay off it
        z = z[(np.abs(z.imag) > 1e-3) | (z.real > 1e-3)]
        np.testing.assert_allclose(
            lambert_w(z, branch), scipy_lambertw(z, branch), atol=1e-10
        )


def test_lambert_w_defining_equation_near_branch_point():
    for z in (-1 / math.e, -1 / math.e + 1e-9, -0.36581241, -0.3658 + 1e-4j):
        for branch in (0, -1):
            w = lambert_w(z, branch)
            assert abs(w * cmath.exp(w) - z) < 1e-10


def test_lambert_w_at_zero():
    assert lambert_w(0.0, 0) == 0.0
    with pytest.raises(ParameterError):
        lambert_w(0.0, -1)


def test_nan_fails_the_residual_checks(table1_params, monkeypatch):
    with pytest.raises(NumericalError):
        lambert_w(complex(math.nan, 1.0))
    monkeypatch.setattr(stability, "lambert_w", lambda z, branch=0: np.full_like(z, math.nan))
    with pytest.raises(NumericalError):
        max_growth_rate(50, 0.75, table1_params)


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

    def counted(z, branch=0):
        calls.append(branch)
        return real(z, branch)

    monkeypatch.setattr(stability, "lambert_w", counted)
    max_growth_rate(50, 0.75, table1_params)
    assert calls == [0]


def test_tau_monotone_in_fleet_size(table1_params):
    taus = [critical_reaction_time(n, table1_params) for n in (10, 25, 50, 75, 100, 133)]
    assert all(b <= a + 2e-3 for a, b in zip(taus, taus[1:]))
