"""The three workloads and the inputs each one derives from its seed.

Pure standard library: the benchmark's child process imports this module
before it starts timing the package import, so it must not pull in numpy.
"""
from __future__ import annotations

import math
import random

WORKLOADS = ("single_lane_cli", "load_balance", "stability_scan")

# single_lane_cli: the paper's crash run, 50 vehicles, delay 0.75 s, dt 0.01 s.
SINGLE_LANE_N = 50
SINGLE_LANE_DELAY = 0.75
SINGLE_LANE_DT = 0.01

# stability_scan: tau_c for N = 2..TAU_C_CAP, then growth rates on a grid.
TAU_C_CAP = 30
# Fleets whose rows of the 0.04 s delay grid are scanned around tau_c.
GRID_FLEETS = (12, 13, 19, 50, 100, 200)
GRID_STEP = 0.04
GRID_BAND = (0.8, 1.3)  # delay window around tau_c, as multiples of it
# N = 6 delays inside the band where the reported rate has the wrong sign.
N6_DELAYS = tuple(round(28.0 + 0.1 * j, 10) for j in range(1, 11))
# Seeded points: one delay per fleet, drawn as a multiple of tau_c from bands
# where no characteristic root's argument z = eig * tau comes near the region
# |z| in [0.50, 0.56], |arg z| in [108, 125] deg where the package's principal
# Lambert W branch is known to land on W_-1 (see README).
SEEDED_FLEETS = tuple(range(7, 200, 3))
SEEDED_BANDS = ((0.1, 0.75), (2.2, 4.0))

# Model parameters the stability scan shares with every CLI kind's defaults.
LAMBDA_RATE, V_MAX, D_MIN, TRACK_LENGTH = 1.0, 40.0, 7.5, 1000.0


def cli_config(workload: str, seed: int) -> tuple[str, list[str]]:
    """(kind, --set overrides) of a CLI workload for one seed."""
    if workload == "single_lane_cli":
        # The ring is symmetric, so the perturbed vehicle changes the labels
        # of the run but not its length: every seed crashes at t = 287.6 s.
        return "single-lane", [
            f"delay={SINGLE_LANE_DELAY}",
            f"perturb_vehicle={seed % SINGLE_LANE_N}",
        ]
    if workload == "load_balance":
        return "load-balance", [f"base_seed={seed}"]
    if workload == "stability_scan":
        return "stability", []
    raise ValueError(f"unknown workload {workload!r}")


def scale_constant(n: int) -> float:
    """|c| of the linearised coupling at equal spacing, computed here, 1/s."""
    h_eq = TRACK_LENGTH / n
    return LAMBDA_RATE * math.exp(-(LAMBDA_RATE / V_MAX) * (h_eq - D_MIN))


def tau_c_exact(n: int) -> float:
    """Delay at which the slowest ring mode reaches the imaginary axis."""
    x = math.pi / n
    return x / (2.0 * scale_constant(n) * math.sin(x))


def stability_plan(seed: int) -> dict:
    """Calls of one stability_scan round: tau_c fleets and (N, tau) points."""
    points = [(6, tau) for tau in N6_DELAYS]
    for n in GRID_FLEETS:
        tc = tau_c_exact(n)
        lo = math.ceil(GRID_BAND[0] * tc / GRID_STEP)
        hi = math.floor(GRID_BAND[1] * tc / GRID_STEP)
        points.extend((n, round(GRID_STEP * j, 10)) for j in range(lo, hi + 1))
    rng = random.Random(seed)
    for n in SEEDED_FLEETS:
        lo, hi = SEEDED_BANDS[rng.randrange(len(SEEDED_BANDS))]
        points.append((n, rng.uniform(lo, hi) * tau_c_exact(n)))
    return {"tau_c_fleets": list(range(2, TAU_C_CAP + 1)), "growth_points": points}
