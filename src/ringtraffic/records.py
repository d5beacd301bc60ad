"""Trajectory records shared by the simulators, the metrics, and the CLI."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ModelParams
from .errors import ParameterError, RangeError

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
        return self.positions.shape[-1]

    def positions_at(self, t) -> np.ndarray:
        """Linearly interpolated unwrapped positions of all vehicles at ``t``:
        a sample's shape, ``(N,)`` or ``(..., N)``, per time, stacked for an array of times."""
        times = self.times
        t = np.asarray(t, dtype=float)
        if not np.all((times[0] <= t) & (t <= times[-1])):  # NaN fails too
            raise RangeError(f"t={t!r} outside recorded range [{times[0]}, {times[-1]}]")
        return _interpolate(times, self.positions, t)

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


def _interpolate(times, positions, t) -> np.ndarray:
    """``positions`` of shape ``(S, ..., N)``, sampled at the ascending
    ``times``, linearly interpolated at each ``t`` in their range: one
    ``(..., N)`` block per time."""
    i = np.clip(np.searchsorted(times, t, side="right") - 1, 0, len(times) - 2)
    span = times[i + 1] - times[i]
    # times[i] <= t, so a zero span (divided as inf) gives w = 0.
    w = (t - times[i]) / np.where(span == 0, np.inf, span)
    w = w.reshape(w.shape + (1,) * (positions.ndim - 1))
    return (1.0 - w) * positions[i] + w * positions[i + 1]


# Values of each full-shape column formatted per block.  A block's numpy
# temporaries are then a few hundred KiB, and the allocator hands the same
# pages back from one block to the next.  Writing the 1.44 M-row trajectory
# of the delay 0.75 s crash run in a fresh process took about 2.0k minor
# page faults with 1 << 13 and 1.9k with 1 << 12, most of them for the time
# column formatted once; with 1 << 14, 29k-48k, as pages were returned to
# the system and faulted in anew block after block.
CHUNK_ROWS = 1 << 13

# Below this many values, formatting them one by one with ``%`` is cheaper.
SMALL_FIELD = 200

# Each column is formatted into fixed-width byte fields with this byte in
# every unused place; the holes are dropped when a block is written.  0xFF
# never occurs in UTF-8 text.
HOLE = 0xFF

_ONES = 0x0101010101010101  # a one in every byte of a word


def _holes(k):
    """A word whose first ``k`` bytes in little-endian memory order are holes."""
    return (1 << 8 * k) - 1


# Indexed by a float's p, the number of its twelve significant digits that
# follow the point (0..16): 10**p, the factor that widens those p digits to
# 15, and the holes before its integer digits in the high and low integer
# word (the integer digits end the low word).
_P = range(17)
_SCALE = np.array([float(10**p) for p in _P])
_FRAC_SCALE = np.array([float(10 ** max(15 - p, 0)) for p in _P])
_INT_DIGITS = [max(12 - p, 1) for p in _P]
_INT_HOLES = np.array(
    [[_holes(min(16 - d, 8)) for d in _INT_DIGITS], [_holes(max(8 - d, 0)) for d in _INT_DIGITS]],
    dtype=np.uint64,
)


# The ASCII digits of each k < 10**4, zero-padded to four, the most
# significant in the lowest byte: one axis per digit of k, in C order.
_D = np.arange(ord("0"), ord("9") + 1, dtype=np.uint64)
_DIGITS4 = (_D[:, None, None, None] | _D[:, None, None] << 8 | _D[:, None] << 16 | _D << 24).ravel()


def _digits8(x):
    """ASCII digits of each ``x < 10**8`` (intp), zero-padded to eight: one
    word per value, most significant digit first in little-endian memory order."""
    hi = x // 10**4
    words = _DIGITS4[x - hi * 10**4]
    words <<= 32
    words |= _DIGITS4[hi]
    return words


def _nonzero_digits(chars):
    """0x80 in every byte of ``chars`` that holds a digit other than '0'."""
    flags = chars + 0x4F * _ONES
    flags &= 0x80 * _ONES
    return flags


def _text_field(texts, width=0):
    """``(len(texts), W)`` bytes of the encoded ``texts``, padded with holes."""
    width = max(width, max(map(len, texts), default=0))
    data = b"".join(t.ljust(width, b"\xff") for t in texts)
    return np.frombuffer(data, dtype=np.uint8).reshape(len(texts), width)


def _percent_field(spec, values, width=0):
    """Bytes of ``spec % v`` for each value, one by one."""
    return _text_field([spec % v for v in values.tolist()], width)


def _field(words, n_int, frac_width, neg, fast, spec, values):
    """``(n, W)`` bytes from ``(n_words, n)`` digit words that hold the integer
    digits right-aligned in the first word (the first two when ``n_int >= 8``)
    and then ``frac_width`` bytes of point and fraction.  A minus sign takes
    the hole before the widest integer part; the values outside ``fast`` are
    patched in as ``spec % v``."""
    end = 8 if n_int < 8 else 16
    start = end - n_int
    if (neg & fast).any():
        start -= 1
        words[start // 8] ^= neg.astype(np.uint64) * ((HOLE ^ ord("-")) << 8 * (start % 8))
    field = np.ascontiguousarray(words.astype("<u8", copy=False).T).view(np.uint8)
    field = field[:, start : end + frac_width]
    slow = np.flatnonzero(~fast)
    if slow.size:
        patch = _percent_field(spec, values[slow], field.shape[1])
        if patch.shape[1] > field.shape[1]:
            field = np.pad(field, ((0, 0), (0, patch.shape[1] - field.shape[1])), constant_values=HOLE)
        field[slow] = patch
    return field


def _float_field(values):
    """Bytes of ``'%.12g' % v`` for each float.

    With ``e = floor(log10|v|)`` and ``p = 11 - e``, the twelve digits are
    ``m = rint(|v| 10**p)``, and ``p`` of them follow the point.  The product
    is within about 1.2e-4 of exact at the ``1e12`` scale, so the values with
    ``1e-4 <= |v| < 1e11`` are done here unless the scaled fraction lies
    within 1e-3 of one half or ``m`` has not twelve digits.  Those, zeros,
    non-finite values and exponent notation go through ``%`` one by one.
    """
    f = values.astype(float, copy=False)
    if f.size < SMALL_FIELD:
        return _percent_field(b"%.12g", f)
    a = np.abs(f)
    fast = (a >= 1e-4) & (a < 1e11)
    np.copyto(a, 1.0, where=~fast)
    e = np.log10(a)
    np.floor(e, out=e)
    p = (11.0 - e).astype(np.intp)  # 0..16
    scale = _SCALE[p]
    a *= scale
    m = np.rint(a)
    a -= m
    np.abs(a, out=a)
    fast &= (a < 0.499) & (m >= 1e11) & (m < 1e12)
    if not fast.any():
        return _percent_field(b"%.12g", f)
    p_fast = p[fast]
    n_int = max(11 - int(p_fast.min()), 0) + 1  # widest integer part, up to 12 digits
    two_frac = bool(p_fast.max() > 7)  # fraction digits beyond the first word

    whole = m / scale
    np.floor(whole, out=whole)
    frac = m - whole * scale
    frac *= _FRAC_SCALE[p]  # the fraction as 15 digits
    lo = int(n_int >= 8)  # the word of the units digit
    parts = np.empty((lo + 2 + two_frac, len(f)))
    if lo:
        parts[0] = np.floor(whole / 1e8)
        whole -= parts[0] * 1e8
    parts[lo] = whole
    # A '0' leads the first fraction word; it becomes the point.
    np.floor(frac / 1e8, out=parts[lo + 1])
    if two_frac:
        parts[lo + 2] = frac - parts[lo + 1] * 1e8
    words = _digits8(parts.astype(np.intp))

    # Leading zeros of the integer part are holes; its units digit stays.
    words[: lo + 1] |= _INT_HOLES[1 - lo :, p]
    # Trailing zeros of the fraction are holes, and so is the point of a
    # value without one.
    frac_words = words[lo + 1 :]
    frac_words[0] ^= ord("0") ^ ord(".")
    flags = _nonzero_digits(frac_words)
    for shift in (8, 16, 32):
        flags |= flags >> shift
    if two_frac:
        flags[0] |= (flags[1] & 0x80) * _ONES
    kept = int.from_bytes(np.bitwise_or.reduce(flags, axis=1).astype("<u8").tobytes(), "little")
    flags >>= 7
    flags ^= _ONES
    flags *= 0xFF
    frac_words |= flags
    return _field(words, n_int, (kept.bit_length() + 7) // 8, np.signbit(f), fast, b"%.12g", f)


def _str_field(values):
    """Bytes of each string, verbatim."""
    return _text_field([v.encode("utf-8") for v in values.tolist()])


def _int_field(values):
    """Bytes of ``'%d' % v`` for each integer."""
    return _percent_field(b"%d", values)


_FIELDS = {"i": _int_field, "u": _int_field, "f": _float_field, "U": _str_field}


def _chars(a):
    """Fixed-width byte fields of ``a`` at its own shape: ``a.shape + (W,)``."""
    field = _FIELDS[a.dtype.kind](a.ravel())
    return field.reshape(a.shape + field.shape[-1:])


def write_csv(path, metadata_lines, columns, values) -> None:
    """Write ``#`` metadata lines, a header, and one row per element of the
    broadcast ``values`` (one array-like per column), in C order.

    Integer columns print with ``%d``, float columns with ``%.12g`` and string
    columns verbatim.  Other dtypes, no columns, or a count of ``values``
    unlike that of ``columns`` raise ``ParameterError``.  Each column is
    formatted at its own shape into fixed-width byte fields whose holes are
    dropped when a block of rows is written.  A column smaller than the table
    (a time column ``(S, 1)``, a vehicle column ``(N,)``) is formatted once
    per write and each block takes a slice of it; full-shape columns are
    formatted block by block, about ``CHUNK_ROWS`` values at a time along the
    leading axis, so broadcast inputs are never expanded whole.  A table of
    more than one block is written by one helper thread, a block behind the
    formatting, which ends before this returns or raises; its exception is
    raised here.
    """
    arrays = [np.asarray(v) for v in values]
    if not columns or len(columns) != len(arrays):
        raise ParameterError(f"CSV needs one array per column: {len(columns)} columns, {len(arrays)} arrays")
    for name, a in zip(columns, arrays):
        if a.dtype.kind not in _FIELDS:
            raise ParameterError(f"CSV column {name!r} has dtype {a.dtype}, not integers, floats or strings")
    shape = np.broadcast_shapes((1,), *(a.shape for a in arrays))
    arrays = [a.reshape((1,) * (len(shape) - a.ndim) + a.shape) for a in arrays]
    once = {}
    for i, a in enumerate(arrays):
        if a.shape != shape:
            chars = _chars(a)
            once[i] = np.broadcast_to(chars, shape[:1] + chars.shape[1:])
    step = max(1, CHUNK_ROWS // max(1, math.prod(shape[1:])))
    starts = range(0, shape[0], step)

    def fields(start):
        rows = slice(start, start + step)
        return [once[i][rows] if i in once else _chars(a[rows]) for i, a in enumerate(arrays)]

    with open(path, "wb") as fh:
        fh.write("".join(line + "\n" for line in [*metadata_lines, ",".join(columns)]).encode("utf-8"))
        if len(starts) <= 1:
            for start in starts:
                _write_rows(fh, fields(start))
            return
        # The caller formats each block while one helper thread lays out,
        # compacts and writes the block before it: a few large numpy copies
        # and a write per block, which release the GIL.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=1) as helper:
            pending = helper.submit(_write_rows, fh, fields(0))
            for start in starts[1:]:
                blocks = fields(start)
                pending.result()
                pending = helper.submit(_write_rows, fh, blocks)
            pending.result()


def _write_rows(fh, blocks) -> None:
    """Lay out the fixed-width fields of one block of rows, one ``blocks``
    entry per column, as CSV lines, and write them without their holes."""
    shape = np.broadcast_shapes(*(b.shape[:-1] for b in blocks))
    buf = np.full((*shape, sum(b.shape[-1] + 1 for b in blocks)), ord(","), dtype=np.uint8)
    at = 0
    for chars in blocks:
        buf[..., at : at + chars.shape[-1]] = chars
        at += chars.shape[-1] + 1
    buf[..., -1] = ord("\n")
    fh.write(buf[buf != HOLE])


_EVENT_FIELDS = ("time", "vehicle", "kind", "from_lane", "to_lane", "phi_before")


def write_events_csv(path, events: list[LaneEvent], metadata_lines: list[str] | None = None) -> None:
    """Write the event channel: ``t, vehicle, event, from_lane, to_lane, phi_before``."""
    write_csv(
        path,
        metadata_lines or [],
        ["t", "vehicle", "event", "from_lane", "to_lane", "phi_before"],
        [[getattr(e, name) for e in events] for name in _EVENT_FIELDS],
    )
