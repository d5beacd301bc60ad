import math

import numpy as np

from ringtraffic import records
from ringtraffic.records import LaneEvent, write_csv, write_events_csv


def reference_csv(metadata_lines, columns, rows) -> str:
    """The per-value formatting the block writer must reproduce."""

    def cell(value):
        if isinstance(value, str):
            return value
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return format(float(value), ".12g")

    lines = [*metadata_lines, ",".join(columns)]
    lines += [",".join(cell(v) for v in row) for row in rows]
    return "".join(line + "\n" for line in lines)


SPECIAL_FLOATS = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 3.0, -2.0, 1e15, 1e16, 123456789012.5,
    1 / 3, 1e-300, 5e-324, 0.1 + 0.2,
]


def test_writer_matches_per_value_reference(tmp_path):
    floats = np.array(SPECIAL_FLOATS)
    ints = np.arange(-3, len(floats) - 3, dtype=np.int64) * 10**14
    small = np.arange(len(floats), dtype=np.int8)
    words = np.array(["pass", "lane_change", "collision"] * 5)[: len(floats)]
    path = tmp_path / "t.csv"
    write_csv(path, ["# a=1", "# b=x"], ["i", "f", "s", "k"], [ints, floats, words, small])
    rows = zip(ints.tolist(), floats.tolist(), words.tolist(), small.tolist())
    assert path.read_text() == reference_csv(["# a=1", "# b=x"], ["i", "f", "s", "k"], rows)


def test_writer_broadcasts_blocks_across_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(records, "CHUNK_ROWS", 64)
    rng = np.random.default_rng(0)
    times = np.round(np.arange(37) * 0.01, 12)
    values = rng.normal(scale=1e3, size=(37, 5))
    values[3, 2] = -0.0
    path = tmp_path / "b.csv"
    write_csv(path, [], ["t", "j", "v"], [times[:, None], np.arange(5), values])
    rows = [(times[s], j, values[s, j]) for s in range(37) for j in range(5)]
    assert path.read_text() == reference_csv([], ["t", "j", "v"], rows)


def test_writer_streams_a_table_longer_than_one_chunk(tmp_path):
    n = records.CHUNK_ROWS * 2 + 7
    rng = np.random.default_rng(1)
    x = rng.random(n) * 10.0 ** rng.integers(-8, 17, n)
    path = tmp_path / "long.csv"
    write_csv(path, [], ["n", "x"], [np.arange(n), x])
    assert path.read_text() == reference_csv([], ["n", "x"], zip(range(n), x.tolist()))


def test_events_csv_matches_reference(tmp_path):
    events = [
        LaneEvent(0.05, vehicle=3, kind="lane_change", from_lane=0, to_lane=1, phi_before=0.25),
        LaneEvent(1.0, vehicle=12, kind="pass", from_lane=1, to_lane=1, phi_before=0.0),
    ]
    path = tmp_path / "events.csv"
    write_events_csv(path, events, ["# seed=1"])
    columns = ["t", "vehicle", "event", "from_lane", "to_lane", "phi_before"]
    rows = [(e.time, e.vehicle, e.kind, e.from_lane, e.to_lane, e.phi_before) for e in events]
    assert path.read_text() == reference_csv(["# seed=1"], columns, rows)
    write_events_csv(path, [])
    assert path.read_text() == ",".join(columns) + "\n"
