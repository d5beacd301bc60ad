"""Ring-road car-following simulator with delay stability analysis and
frustration-driven stochastic lane changes."""

__version__ = "0.1.0"

from .core import (
    FundamentalDiagramSummary,
    ModelParams,
    fundamental_diagram_curve,
    fundamental_diagram_summary,
    velocity_from_headway,
)
from .lane_change import (
    LaneChangeParams,
    TwoLaneState,
    adjacent_headways,
    init_two_lane,
    run_two_lane,
    two_lane_step,
)
from .metrics import (
    FlowField,
    GrowthFit,
    aggregate_monte_carlo,
    fit_growth_rate,
    flow_field,
    flow_rate,
    flow_series,
    growth_rate_from_record,
    lane_imbalance,
)
from .records import CollisionReport, LaneEvent, TrajectoryRecord
from .single_lane import (
    advance,
    find_collisions,
    init_ring_equilibrium,
    perturb,
    run_single_lane,
)
from .stability import (
    StabilityVerdict,
    closed_form_eigenvalues,
    critical_reaction_time,
    lambert_w,
    max_growth_rate,
    rightmost_roots,
)

__all__ = [
    "__version__",
    "ModelParams",
    "FundamentalDiagramSummary",
    "velocity_from_headway",
    "fundamental_diagram_curve",
    "fundamental_diagram_summary",
    "CollisionReport",
    "LaneEvent",
    "TrajectoryRecord",
    "init_ring_equilibrium",
    "perturb",
    "advance",
    "find_collisions",
    "run_single_lane",
    "StabilityVerdict",
    "closed_form_eigenvalues",
    "lambert_w",
    "max_growth_rate",
    "rightmost_roots",
    "critical_reaction_time",
    "LaneChangeParams",
    "TwoLaneState",
    "init_two_lane",
    "adjacent_headways",
    "two_lane_step",
    "run_two_lane",
    "FlowField",
    "GrowthFit",
    "flow_rate",
    "flow_series",
    "flow_field",
    "fit_growth_rate",
    "growth_rate_from_record",
    "lane_imbalance",
    "aggregate_monte_carlo",
]
