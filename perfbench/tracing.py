"""Per-layer tracing from outside the package.

The tracer replaces module-level functions of ``ringtraffic`` with wrappers
that count calls and accumulate self time (a call's duration minus the time
spent in wrapped callees).  Intra-package calls resolve names through module
globals at call time, so a wrapper installed in every module namespace that
holds the original object is seen by every caller.  Nothing under ``src/`` is
edited; the wrappers live only in the traced benchmark process.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

# (metric prefix, defining module, attribute) of every wrapped function.
# Methods are given as "Class.method".
SPANS = (
    ("cli.run_scenario", "cli", "run_scenario"),
    ("cli.write_csv", "cli", "_write_csv"),
    ("core.velocity", "core", "_velocity"),
    ("single_lane.run_single_lane", "single_lane", "run_single_lane"),
    ("single_lane.ring_headways", "single_lane", "ring_headways"),
    ("lane_change.run_two_lane", "lane_change", "run_two_lane"),
    ("lane_change.two_lane_step", "lane_change", "two_lane_step"),
    ("lane_change.scan_order", "lane_change", "_scan_order"),
    ("lane_change.own_headways", "lane_change", "own_headways"),
    ("lane_change.adjacent_headways", "lane_change", "adjacent_headways"),
    ("lane_change.count_passes", "lane_change", "_count_passes"),
    ("lane_change.safety_gap_check", "lane_change", "safety_gap_check"),
    ("stability.critical_reaction_time", "stability", "critical_reaction_time"),
    ("stability.max_growth_rate", "stability", "max_growth_rate"),
    ("stability.lambert_w", "stability", "lambert_w"),
    ("metrics.flow_rate", "metrics", "flow_rate"),
    ("metrics.flow_field", "metrics", "flow_field"),
    ("metrics.flow_series", "metrics", "flow_series"),
    ("metrics.growth_rate_from_record", "metrics", "growth_rate_from_record"),
    ("metrics.aggregate_monte_carlo", "metrics", "aggregate_monte_carlo"),
    ("records.write_csv", "records", "TrajectoryRecord.write_csv"),
    ("records.write_events_csv", "records", "write_events_csv"),
)

# Wrapped for a call count only: their time stays in the caller's self time,
# so that flow_series and flow_field report the whole cost of the flow layer.
CALLS_ONLY = {"metrics.flow_rate"}

# Per-layer metrics a traced run reports, with their units, in report order.
LAYER_METRICS = (
    ("import.ringtraffic.s", "s"),
    ("import.scipy_signal.s", "s"),
    ("config.load_config.s", "s"),
    ("cli.run_scenario.s", "s"),
    ("cli.write_csv.s", "s"),
    ("cli.replicas", "count"),
    ("records.write_csv.s", "s"),
    ("records.write_csv.rows", "count"),
    ("records.write_events_csv.s", "s"),
    ("single_lane.run_single_lane.s", "s"),
    ("single_lane.steps", "count"),
    ("single_lane.ring_headways.calls", "count"),
    ("single_lane.ring_headways.s", "s"),
    ("core.velocity.calls", "count"),
    ("core.velocity.s", "s"),
    ("lane_change.run_two_lane.s", "s"),
    ("lane_change.two_lane_step.s", "s"),
    ("lane_change.steps", "count"),
    ("lane_change.scan_order.s", "s"),
    ("lane_change.own_headways.calls", "count"),
    ("lane_change.own_headways.s", "s"),
    ("lane_change.adjacent_headways.calls", "count"),
    ("lane_change.adjacent_headways.s", "s"),
    ("lane_change.count_passes.calls", "count"),
    ("lane_change.count_passes.s", "s"),
    ("lane_change.passes", "count"),
    ("lane_change.safety_gap_check.calls", "count"),
    ("lane_change.safety_gap_check.s", "s"),
    ("lane_change.changes", "count"),
    ("lane_change.accept_ratio", "ratio"),
    ("stability.critical_reaction_time.calls", "count"),
    ("stability.critical_reaction_time.s", "s"),
    ("stability.max_growth_rate.calls", "count"),
    ("stability.max_growth_rate.s", "s"),
    ("stability.lambert_w.calls", "count"),
    ("stability.lambert_w.points", "count"),
    ("stability.lambert_w.s", "s"),
    ("metrics.flow_rate.calls", "count"),
    ("metrics.flow_field.s", "s"),
    ("metrics.flow_series.s", "s"),
    ("metrics.growth_rate_from_record.s", "s"),
    ("metrics.aggregate_monte_carlo.s", "s"),
    ("sim.vehicle_steps", "count"),
    ("trace.overhead_s", "s"),
)


def _count_result(counts, prefix, args, result):
    """Work counters read off the arguments and results of wrapped calls."""
    if prefix == "records.write_csv":
        record = args[0]
        counts["records.write_csv.rows"] += record.times.size * record.n_vehicles
    elif prefix == "single_lane.run_single_lane":
        steps = round(result.termination_time / result.dt)
        counts["single_lane.steps"] += steps
        counts["sim.vehicle_steps"] += steps * result.n_vehicles
        counts["cli.replicas"] += 1
    elif prefix == "lane_change.run_two_lane":
        counts["cli.replicas"] += 1
    elif prefix == "lane_change.two_lane_step":
        counts["sim.vehicle_steps"] += args[0].n_vehicles
    elif prefix == "lane_change.count_passes":
        counts["lane_change.passes"] += int(result.sum())
    elif prefix == "lane_change.safety_gap_check":
        counts["lane_change.changes"] += bool(result)
    elif prefix == "stability.lambert_w":
        counts["stability.lambert_w.points"] += int(getattr(args[0], "size", 1))


class Tracer:
    """Call counts, self times and work counters of the wrapped functions."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._child_s = []  # one accumulator of callee time per open call

    def _wrap(self, prefix, fn):
        calls, self_s, counts, stack = self.calls, self.self_s, self.counts, self._child_s
        clock = time.perf_counter

        def call_counted(*args, **kwargs):
            calls[prefix] += 1
            return fn(*args, **kwargs)

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[prefix] += elapsed - stack.pop()
                calls[prefix] += 1
                if stack:
                    stack[-1] += elapsed
            _count_result(counts, prefix, args, result)
            return result

        wrapper = call_counted if prefix in CALLS_ONLY else traced
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", prefix)
        return wrapper

    def install(self):
        """Wrap every function in SPANS wherever the package holds it."""
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "ringtraffic" or name.startswith("ringtraffic."))
        ]
        for prefix, module_name, attr in SPANS:
            owner = sys.modules[f"ringtraffic.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self._wrap(prefix, getattr(cls, method)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(prefix, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)

    def metrics(self) -> dict:
        """Per-layer values keyed by metric name (import and overhead excluded)."""
        out = dict(self.counts)
        for prefix, _, _ in SPANS:
            out[f"{prefix}.s"] = self.self_s[prefix]
            out[f"{prefix}.calls"] = self.calls[prefix]
        out["lane_change.steps"] = self.calls["lane_change.two_lane_step"]
        attempts = self.calls["lane_change.safety_gap_check"]
        changes = self.counts["lane_change.changes"]
        out["lane_change.accept_ratio"] = changes / attempts if attempts else 0.0
        return out
