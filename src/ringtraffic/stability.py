"""Linear stability of the single-lane ring with a reaction delay.

The linearized dynamics about the equal-spacing equilibrium reduce, after
diagonalizing the (N-1)x(N-1) interaction matrix, to independent scalar delay
equations whose characteristic roots are Lambert-W values.  The closed-form
eigenvalues make the analysis cheap for any fleet size; the dense matrix and
every branch's characteristic roots are kept only as brute-force cross-checks,
in ``tests/oracles.py``.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import ModelParams
from .errors import NumericalError, ParameterError

_RESIDUAL_TOL = 1e-10
_HALLEY_MIN_ITER = 3  # steps before the residual checks may stop the iteration
_HALLEY_MAX_ITER = 100
_INV_E = math.exp(-1.0)
# Within 1e-13 of z = -1/e a computed W is off by up to about 1e-7, which is
# as far as the branches W_0, W_-1 and W_1 are apart there.
_BRANCH_POINT_RADIUS = 1e-6


def _check_fleet_size(n_vehicles) -> None:
    """Raise unless the fleet size is an integer (not a bool) of at least 2."""
    integral = isinstance(n_vehicles, numbers.Integral) and not isinstance(n_vehicles, bool)
    if not (integral and n_vehicles >= 2):
        raise ParameterError(f"need an integer of at least 2 vehicles, got {n_vehicles!r}")


def scale_constant(n_vehicles: int, p: ModelParams) -> float:
    """Common (negative) sensitivity of the linearized coupling, 1/s; checks
    that the fleet size is an integer (not a bool) of at least 2."""
    _check_fleet_size(n_vehicles)
    h_eq = p.track_length / n_vehicles
    return -p.lambda_rate * math.exp(-(p.lambda_rate / p.v_max) * (h_eq - p.d_min))


def closed_form_eigenvalues(n_vehicles: int, p: ModelParams) -> np.ndarray:
    """The N-1 distinct eigenvalues ``c * (1 - exp(2*pi*i*k/N))``, k = 1..N-1.

    For even N the half-ring mode k = N/2 is exactly real, ``2c``.
    """
    c = scale_constant(n_vehicles, p)
    k = np.arange(1, n_vehicles)
    eigs = c * (1.0 - np.exp(2j * np.pi * k / n_vehicles))
    if n_vehicles % 2 == 0:
        eigs[n_vehicles // 2 - 1] = 2.0 * c  # exp(i pi) rounds to -1 + 1.2e-16i
    return eigs


@dataclass(frozen=True)
class StabilityVerdict:
    """Maximal real part over all characteristic roots."""

    max_real_part: float
    stable: bool


def _seed(z: np.ndarray) -> np.ndarray:
    """Principal-branch starting values, from the regions of scipy's
    ``lambertw``: the branch-point series within 0.3 of -1/e, else the (3, 2)
    Pade approximant about 0 in a box around it, else the asymptotic form
    ``L1 - L2 + L2/L1`` (``L1 = log z``, ``L2 = log L1``)."""
    w = np.empty_like(z)
    re, im = z.real, np.abs(z.imag)
    near_zero = (re < 1.5) & (im < 1.0) & (re > np.maximum(-1.0, -2.5 * im - 0.2))
    far = ~near_zero
    l1 = np.log(z[far])
    l2 = np.log(l1)
    w[far] = l1 - l2 + l2 / l1
    x = z[near_zero]
    w[near_zero] = x * (60.0 + x * (114.0 + 17.0 * x)) / (60.0 + x * (174.0 + 101.0 * x))
    from_branch_point = z + _INV_E
    at_branch_point = np.abs(from_branch_point) < 0.3
    if at_branch_point.any():  # rarely, for the ring's mode arguments
        p = np.sqrt((2.0 * math.e) * from_branch_point[at_branch_point])
        w[at_branch_point] = p * (1.0 - p / 3.0) - 1.0
    return w


def _on_principal_branch(w: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Whether each root ``w`` of ``w exp(w) = z`` lies in the range of W_0.

    That range (Corless et al., Adv. Comput. Math. 5, 1996) is
    ``|Im w| < pi`` with ``Re w >= -Im w cot(Im w)``, and ``Re w >= -1`` on the
    real axis.  For ``0 < |Im w| < pi``, ``Im(w exp(w))`` is the product of
    ``Im w``, ``Re w + Im w cot(Im w)`` and a positive factor, so the edge
    condition says that ``Im w`` and ``Im z`` share a sign.  It is tested in
    that form, on the exact ``z``: values for ``z`` on the cut lie on the edge
    itself, where ``-Im w cot(Im w)`` is only known to rounding.  On the cut
    (``Im z = 0``, ``z < -1/e``) the upper value counts as principal.  Within
    ``_BRANCH_POINT_RADIUS`` of the branch point -1 all branches meet and a
    computed value's side is not known, so such values pass.
    """
    eta = w.imag
    principal = np.where(
        eta == 0.0, w.real >= -1.0, (np.abs(eta) < np.pi) & ((eta > 0.0) == (z.imag >= 0.0))
    )
    if not principal.all():
        principal |= np.abs(w + 1.0) <= _BRANCH_POINT_RADIUS
    return principal


def lambert_w(z):
    """Principal branch W_0 of the complex Lambert W function, ``w * exp(w) = z``.

    Halley steps on ``f = w - z exp(-w)`` from :func:`_seed`.  From the third
    step on, the iteration stops as soon as every element passes both residual
    checks: the defining equation, ``|w exp(w) - z| = |f| / |exp(-w)|``, and
    ``|f| <= 1e-10 |z|``, under which the characteristic root ``w / tau`` of
    :func:`rightmost_roots` passes its check at every delay ``tau``.  Every
    value must then pass the branch test of :func:`_on_principal_branch`.  Real
    ``z < -1/e`` take the upper value.  A non-finite argument (tested only
    once the first residual check fails) raises ``NumericalError`` there, as
    does any element that does not converge or leaves the branch.  Scalars
    in, scalar out.
    """
    scalar = np.ndim(z) == 0
    # + 0.0 turns an imaginary -0.0 into +0.0: real z on the cut take the upper value
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex)) + 0.0
    w = _seed(z_arr)
    abs_z = np.abs(z_arr)
    lambert_tol = _RESIDUAL_TOL * np.maximum(1.0, abs_z)
    root_tol = _RESIDUAL_TOL * abs_z
    for step in range(_HALLEY_MAX_ITER):
        e = np.exp(-w)
        f = w - z_arr * e
        if step >= _HALLEY_MIN_ITER:
            abs_f = np.abs(f)
            if (abs_f <= root_tol).all() and (abs_f <= lambert_tol * np.abs(e)).all():
                break
            if step == _HALLEY_MIN_ITER and not np.isfinite(z_arr).all():
                bad = int(np.argmin(np.isfinite(z_arr)))
                raise NumericalError(f"Lambert W of a non-finite argument {complex(z_arr[bad])!r}")
        wp1 = w + 1.0
        wp1 += 1e-300  # changes only an exact hit of the branch point, 0 into 1e-300
        w = w - f / (wp1 - (wp1 + 1.0) * f / (wp1 + wp1))
    else:
        bad = int(np.argmin((abs_f <= root_tol) & (abs_f <= lambert_tol * np.abs(e))))
        raise NumericalError(f"Lambert W failed to converge at {complex(z_arr[bad])!r}")
    principal = _on_principal_branch(w, z_arr)
    if not principal.all():
        bad = int(np.argmin(principal))
        raise NumericalError(
            f"Lambert W left the principal branch at {complex(z_arr[bad])!r}: {complex(w[bad])!r}"
        )
    return complex(w[0]) if scalar else w


@functools.lru_cache(maxsize=256)
def _half_spectrum(n_vehicles: int, p: ModelParams):
    """Eigenvalues of modes k = 1..N/2 and their residual bounds
    ``_RESIDUAL_TOL * max(1, |mu_k|)``, both read-only, built once per fleet.
    Callers check the fleet size first: ``2.0 == 2`` shares the key of ``2``."""
    half = closed_form_eigenvalues(n_vehicles, p)[: n_vehicles // 2].copy()
    bound = _RESIDUAL_TOL * np.maximum(1.0, np.abs(half))
    half.flags.writeable = bound.flags.writeable = False
    return half, bound


def _half_roots(n_vehicles: int, delay: float, p: ModelParams) -> np.ndarray:
    """Rightmost characteristic roots of modes k = 1..N/2 at a nonzero delay,
    from one principal Lambert-W call; each must satisfy its mode's
    characteristic equation to the relative tolerance (a NaN fails).  The
    delay and the fleet size are checked before the cache is consulted."""
    if not (math.isfinite(delay) and delay >= 0):
        raise ParameterError(f"delay must be nonnegative, got {delay!r}")
    _check_fleet_size(n_vehicles)
    half, bound = _half_spectrum(n_vehicles, p)
    w = lambert_w(half * delay)
    lam = w / delay
    residual = np.abs(lam - half * np.exp(-w))
    if not (residual <= bound).all():
        worst = int(np.argmax(residual))  # the first NaN, if any
        raise NumericalError(
            f"characteristic root failed at {complex(half[worst])!r}"
            f" (residual {residual[worst]:.3e})"
        )
    return lam


def rightmost_roots(n_vehicles: int, delay: float, p: ModelParams) -> np.ndarray:
    """Rightmost characteristic root of each ring mode k = 1..N-1, in mode order.

    The principal Lambert-W branch holds the rightmost root of every mode
    (Shinozaki & Mori, Automatica 42, 2006), so one verified branch call
    suffices; for zero delay the roots are the eigenvalues themselves.  Modes
    k and N-k have conjugate eigenvalues and so conjugate roots: the roots of
    k = 1..N/2 are computed and checked, and the rest mirror them.
    """
    if delay == 0:
        return closed_form_eigenvalues(n_vehicles, p)
    lam = _half_roots(n_vehicles, delay, p)
    return np.concatenate([lam, lam[: (n_vehicles - 1) // 2][::-1].conj()])


def max_growth_rate(n_vehicles: int, delay: float, p: ModelParams) -> StabilityVerdict:
    """Maximal real part of the characteristic roots over all modes; at a
    positive delay, over modes k = 1..N/2, whose mirrors N-k share their real
    parts."""
    if delay == 0:
        best = float(closed_form_eigenvalues(n_vehicles, p).real.max())
    else:
        best = float(_half_roots(n_vehicles, delay, p).real.max())
    return StabilityVerdict(max_real_part=best, stable=best < 0)


def critical_reaction_time(n_vehicles: int, p: ModelParams) -> float:
    """Delay at which the maximal characteristic real part crosses zero.

    The slowest ring mode (k = 1, eigenvalue ``c * (1 - exp(i theta))`` with
    ``theta = 2 pi / N``) reaches the imaginary axis first.  A root ``i w``
    requires ``w = |d|`` and ``w * delay = theta / 2`` with
    ``|d| = 2 |c| sin(theta / 2)``, so ``tau_c = (pi/N) / (2 |c| sin(pi/N))``.
    A sparse ring's coupling can leave the float range: where ``|d|`` is
    subnormal the quotient overflows, and where it rounds to 0 the answer is
    the same ``inf``.
    """
    c = scale_constant(n_vehicles, p)
    half_theta = math.pi / n_vehicles
    modulus = 2.0 * abs(c) * math.sin(half_theta)
    return half_theta / modulus if modulus else math.inf
