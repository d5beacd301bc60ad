"""Trajectory records shared by the simulators, the metrics, and the CLI."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ModelParams
from .errors import RangeError

TERMINATED_COMPLETED = "completed"
TERMINATED_COLLISION = "collision"


@dataclass(frozen=True)
class CollisionReport:
    """A follower whose true headway closed to at most one vehicle length."""

    time: float
    follower_index: int
    headway_at_collision: float


@dataclass(frozen=True)
class LaneEvent:
    """A discrete event in a two-lane run (lane change, pass, or collision)."""

    time: float
    vehicle: int
    kind: str  # "lane_change" | "pass" | "collision"
    from_lane: int
    to_lane: int
    phi_before: float


@dataclass
class TrajectoryRecord:
    """Time series of a simulation run.

    ``positions`` are unwrapped (cumulative distance), so crossing counts and
    driven distances can be read off directly; wrap to the track only when a
    ring-relative position is needed.  Sample ``s`` holds the state entering
    time ``times[s]`` and the velocity applied over the following step.
    """

    times: np.ndarray  # (S,)
    positions: np.ndarray  # (S, N) unwrapped, m
    velocities: np.ndarray  # (S, N) m/s
    params: ModelParams
    delay: float
    dt: float
    termination_reason: str
    termination_time: float
    collisions: list[CollisionReport] = field(default_factory=list)
    seed: int | None = None
    lanes: np.ndarray | None = None  # (S, N) lane indices, two-lane runs only
    phis: np.ndarray | None = None  # (S, N) frustration levels
    events: list[LaneEvent] = field(default_factory=list)

    @property
    def n_vehicles(self) -> int:
        return self.positions.shape[1]

    def vehicle_velocity(self, vehicle: int) -> np.ndarray:
        return self.velocities[:, vehicle]

    def positions_at(self, t: float) -> np.ndarray:
        """Linearly interpolated unwrapped positions of all vehicles at ``t``."""
        times = self.times
        if t < times[0] or t > times[-1]:
            raise RangeError(f"t={t!r} outside recorded range [{times[0]}, {times[-1]}]")
        i = int(np.searchsorted(times, t, side="right")) - 1
        i = min(max(i, 0), len(times) - 2)
        span = times[i + 1] - times[i]
        w = 0.0 if span == 0 else (t - times[i]) / span
        return (1.0 - w) * self.positions[i] + w * self.positions[i + 1]

    def metadata_lines(self, extra: dict | None = None) -> list[str]:
        p = self.params
        meta = {
            "lambda_rate": p.lambda_rate,
            "v_max": p.v_max,
            "d_min": p.d_min,
            "car_size": p.car_size,
            "track_length": p.track_length,
            "delay": self.delay,
            "dt": self.dt,
            "seed": "none" if self.seed is None else self.seed,
            "termination": self.termination_reason,
            "termination_time": self.termination_time,
        }
        if extra:
            meta.update(extra)
        return [f"# {key}={value}" for key, value in meta.items()]

    def write_csv(self, path, extra_metadata: dict | None = None) -> None:
        """Write ``t, vehicle, x_unwrapped, v`` rows (plus ``lane, phi`` when
        lane data is present), preceded by ``#`` metadata lines."""
        columns = ["t", "vehicle", "x_unwrapped", "v"]
        values = [self.times[:, None], np.arange(self.n_vehicles), self.positions, self.velocities]
        if self.lanes is not None:
            columns += ["lane", "phi"]
            values += [self.lanes, self.phis]
        write_csv(path, self.metadata_lines(extra_metadata), columns, values)


# Rows formatted per block; bounds the memory of the text built at once.
CHUNK_ROWS = 1 << 14

_SPEC = {"i": "%d", "u": "%d", "f": "%.12g", "U": "%s"}


def write_csv(path, metadata_lines, columns, values) -> None:
    """Write ``#`` metadata lines, a header, and one row per element of the
    broadcast ``values`` (one array-like per column), in C order.

    Integer columns print with ``%d``, float columns with ``%.12g`` and string
    columns verbatim.  Rows are formatted in blocks of about ``CHUNK_ROWS``
    along the leading axis, so broadcast inputs are never expanded whole.
    """
    arrays = np.broadcast_arrays(*(np.asarray(v) for v in values))
    row = ",".join(_SPEC[a.dtype.kind] for a in arrays) + "\n"
    shape = arrays[0].shape
    step = max(1, CHUNK_ROWS // math.prod(shape[1:]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in metadata_lines:
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for start in range(0, shape[0], step):
            block = [a[start : start + step].ravel().tolist() for a in arrays]
            fh.write("".join(map(row.__mod__, zip(*block))))


_EVENT_FIELDS = ("time", "vehicle", "kind", "from_lane", "to_lane", "phi_before")


def write_events_csv(path, events: list[LaneEvent], metadata_lines: list[str] | None = None) -> None:
    """Write the event channel: ``t, vehicle, event, from_lane, to_lane, phi_before``."""
    write_csv(
        path,
        metadata_lines or [],
        ["t", "vehicle", "event", "from_lane", "to_lane", "phi_before"],
        [[getattr(e, name) for e in events] for name in _EVENT_FIELDS],
    )
