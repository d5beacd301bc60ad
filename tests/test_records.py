import io
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from ringtraffic import records
from ringtraffic.errors import ParameterError
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


def assert_same_text(actual, expected) -> None:
    """Exact equality of two texts (or byte strings).  A mismatch names the
    first differing line and both lengths, where pytest's diff of two large
    texts can run for minutes."""
    __tracebackhide__ = True
    if actual == expected:
        return
    got, want = actual.splitlines(keepends=True), expected.splitlines(keepends=True)
    i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    got_line = repr(got[i]) if i < len(got) else "the end"
    want_line = repr(want[i]) if i < len(want) else "the end"
    pytest.fail(
        f"first difference at line {i + 1}: {got_line}, expected {want_line}; "
        f"length {len(actual)}, expected {len(expected)}"
    )


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
    assert_same_text(path.read_text(), reference_csv(["# a=1", "# b=x"], ["i", "f", "s", "k"], rows))


def test_vectorised_writer_matches_per_value_reference(tmp_path, monkeypatch):
    """The same table with the numpy formatting forced on every column."""
    monkeypatch.setattr(records, "SMALL_FIELD", 0)
    test_writer_matches_per_value_reference(tmp_path)


def test_writer_broadcasts_blocks_across_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(records, "CHUNK_ROWS", 64)
    rng = np.random.default_rng(0)
    times = np.round(np.arange(37) * 0.01, 12)
    values = rng.normal(scale=1e3, size=(37, 5))
    values[3, 2] = -0.0
    path = tmp_path / "b.csv"
    write_csv(path, [], ["t", "j", "v"], [times[:, None], np.arange(5), values])
    rows = [(times[s], j, values[s, j]) for s in range(37) for j in range(5)]
    assert_same_text(path.read_text(), reference_csv([], ["t", "j", "v"], rows))


NARROW_S, NARROW_N = 1500, 3


@pytest.mark.parametrize("chunk", [1, 7, NARROW_S * NARROW_N - 1, 4096, 10**6])
def test_narrow_columns_give_the_same_bytes_at_every_block_size(tmp_path, monkeypatch, chunk):
    """An ``(S, 1)`` float column long enough for the numpy path and a
    ``(1, N)`` int column, formatted once per write, sliced into blocks of
    every size beside full-shape float columns that hold the special values."""
    monkeypatch.setattr(records, "CHUNK_ROWS", chunk)
    s, n = NARROW_S, NARROW_N
    assert s >= records.SMALL_FIELD
    rng = np.random.default_rng(2)
    times = np.round(np.arange(s) * 0.01, 12)
    times[: len(SPECIAL_FLOATS)] = SPECIAL_FLOATS
    vehicles = (np.arange(n, dtype=np.int64) - 1)[None, :] * 10**14
    x = rng.normal(scale=1e3, size=(s, n))
    x.flat[: len(SPECIAL_FLOATS)] = SPECIAL_FLOATS
    v = rng.random((s, n)) * 30.0
    v.flat[-len(SPECIAL_FLOATS) :] = SPECIAL_FLOATS
    path = tmp_path / "narrow.csv"
    write_csv(path, ["# k=v"], ["t", "j", "x", "v"], [times[:, None], vehicles, x, v])
    rows = [(times[i], vehicles[0, j], x[i, j], v[i, j]) for i in range(s) for j in range(n)]
    assert_same_text(path.read_text(), reference_csv(["# k=v"], ["t", "j", "x", "v"], rows))


def test_writer_memory_is_bounded_by_a_block(tmp_path):
    """The writer's peak allocation stays below one full-shape column."""
    s, n = 10000, 50
    rng = np.random.default_rng(3)
    x = np.cumsum(rng.random((s, n)), axis=0) * 10.0
    v = rng.random((s, n)) * 30.0
    times = np.arange(s)[:, None] * 0.01
    tracemalloc.start()
    try:
        write_csv(tmp_path / "big.csv", [], ["t", "vehicle", "x", "v"], [times, np.arange(n), x, v])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < s * n * 8


@pytest.mark.parametrize(
    "column",
    [np.array([True, False]), np.array([1 + 2j, 3j]), np.array([None, 1], dtype=object)],
    ids=["bool", "complex", "object"],
)
def test_writer_rejects_unformattable_columns(tmp_path, column):
    with pytest.raises(ParameterError, match=rf"'bad'.*{column.dtype}"):
        write_csv(tmp_path / "x.csv", [], ["ok", "bad"], [np.arange(2), column])


@pytest.mark.parametrize("columns, n_arrays", [(["a"], 2), (["a", "b"], 1), ([], 0)])
def test_writer_needs_one_array_per_column(tmp_path, columns, n_arrays):
    with pytest.raises(ParameterError, match="one array per column"):
        write_csv(tmp_path / "x.csv", [], columns, [np.arange(3)] * n_arrays)


def test_writer_writes_one_row_for_scalar_columns(tmp_path):
    path = tmp_path / "scalar.csv"
    write_csv(path, ["# a=1"], ["x", "n", "s"], [np.float64(1.5), 3, "w"])
    assert_same_text(path.read_text(), reference_csv(["# a=1"], ["x", "n", "s"], [(1.5, 3, "w")]))


def test_writer_streams_a_table_longer_than_one_chunk(tmp_path):
    n = records.CHUNK_ROWS * 2 + 7
    rng = np.random.default_rng(1)
    x = rng.random(n) * 10.0 ** rng.integers(-8, 17, n)
    path = tmp_path / "long.csv"
    write_csv(path, [], ["n", "x"], [np.arange(n), x])
    assert_same_text(path.read_text(), reference_csv([], ["n", "x"], zip(range(n), x.tolist())))


HELPER_N = 4


def helper_table(rows):
    """A ``(rows, HELPER_N)`` table with a narrow time and vehicle column."""
    rng = np.random.default_rng(rows)
    times = np.round(np.arange(rows) * 0.01, 12)[:, None]
    x = rng.normal(scale=1e3, size=(rows, HELPER_N))
    columns = ["t", "vehicle", "x"]
    expected = [(times[s, 0], j, x[s, j]) for s in range(rows) for j in range(HELPER_N)]
    return columns, [times, np.arange(HELPER_N), x], reference_csv(["# k=v"], columns, expected)


def count_thread_starts(monkeypatch):
    """The list of threads started from here on."""
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return started


@pytest.mark.parametrize("rows, threads", [(0, 0), (3, 0), (5, 0), (6, 1), (10, 1), (11, 1)])
def test_block_boundaries_give_the_same_bytes(tmp_path, monkeypatch, rows, threads):
    """Tables of no rows, of part of a block, of exactly one and two blocks
    (five rows of four values each), and of three blocks.  Only a
    table of more than one block starts the helper thread, and it ends
    before ``write_csv`` returns."""
    monkeypatch.setattr(records, "CHUNK_ROWS", 5 * HELPER_N)
    columns, values, expected = helper_table(rows)
    started = count_thread_starts(monkeypatch)
    before = threading.active_count()
    path = tmp_path / "blocks.csv"
    write_csv(path, ["# k=v"], columns, values)
    assert len(started) == threads
    assert threading.active_count() == before
    assert_same_text(path.read_text(), expected)


class FailingFile(io.BytesIO):
    """A file whose ``fail_at``-th write (the header's is the first) raises."""

    def __init__(self, fail_at):
        super().__init__()
        self.writes, self.fail_at = 0, fail_at

    def write(self, data):
        self.writes += 1
        if self.writes == self.fail_at:
            raise OSError(28, "No space left on device")
        return super().write(data)


@pytest.mark.parametrize("fail_at", [2, 3, 4], ids=["first block", "second block", "last block"])
def test_a_failed_block_write_is_raised_and_leaves_no_thread(monkeypatch, fail_at):
    monkeypatch.setattr(records, "CHUNK_ROWS", 5 * HELPER_N)
    files = []

    def opened(path, mode):
        files.append(FailingFile(fail_at))
        return files[-1]

    monkeypatch.setattr(records, "open", opened, raising=False)
    columns, values, _ = helper_table(15)
    before = threading.active_count()
    with pytest.raises(OSError, match="No space left on device"):
        write_csv("unused.csv", ["# k=v"], columns, values)
    assert threading.active_count() == before
    assert files[0].writes == fail_at
    assert files[0].closed


def test_concurrent_writes_keep_every_row_in_order(tmp_path, monkeypatch):
    """Three callers, more than the cores of a small machine, each write a
    table of 40 blocks while the interpreter switches threads as often as it
    can: every file holds its own rows, in order."""
    monkeypatch.setattr(records, "CHUNK_ROWS", 2 * HELPER_N)
    monkeypatch.setattr(records, "SMALL_FIELD", 0)
    columns, values, expected = helper_table(80)
    paths = [tmp_path / f"{k}.csv" for k in range(3)]
    failures = []

    def write(path):
        try:
            write_csv(path, ["# k=v"], columns, values)
        except Exception as exc:  # reported by the assertion below
            failures.append(exc)

    threads = [threading.Thread(target=write, args=(path,)) for path in paths]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    for path in paths:
        assert_same_text(path.read_text(), expected)


def test_digit_words_match_percent():
    """Eight ASCII digits per value, most significant first in memory."""
    rng = np.random.default_rng(14)
    x = np.concatenate([np.arange(10**4 + 1), rng.integers(0, 10**8, 10**5), [10**8 - 1, 10**7, 9999 * 10**4]])
    words = records._digits8(x.astype(np.intp))
    assert words.astype("<u8").tobytes() == b"".join(b"%08d" % v for v in x.tolist())


def test_events_csv_matches_reference(tmp_path):
    events = [
        LaneEvent(0.05, vehicle=3, kind="lane_change", from_lane=0, to_lane=1, phi_before=0.25),
        LaneEvent(1.0, vehicle=12, kind="pass", from_lane=1, to_lane=1, phi_before=0.0),
    ]
    path = tmp_path / "events.csv"
    write_events_csv(path, events, ["# seed=1"])
    columns = ["t", "vehicle", "event", "from_lane", "to_lane", "phi_before"]
    rows = [(e.time, e.vehicle, e.kind, e.from_lane, e.to_lane, e.phi_before) for e in events]
    assert_same_text(path.read_text(), reference_csv(["# seed=1"], columns, rows))
    write_events_csv(path, [])
    assert_same_text(path.read_text(), ",".join(columns) + "\n")


def check_floats(tmp_path, values):
    """The writer and ``%.12g`` agree on every value, and on its negation."""
    values = np.concatenate([values, -values])
    path = tmp_path / "floats.csv"
    write_csv(path, [], ["x"], [values])
    assert_same_text(path.read_text(), reference_csv([], ["x"], ((v,) for v in values.tolist())))


def test_writer_matches_percent_at_rounding_ties(tmp_path):
    """Values at (m + 1/2) 10**(e - 11), where twelve digits round half way,
    and their neighbouring doubles, for every exponent of fixed notation."""
    rng = np.random.default_rng(11)
    m = rng.integers(10**11, 10**12 - 1, size=(17, 200)).astype(float)
    ties = (m + 0.5) * 10.0 ** (np.arange(-5, 12)[:, None] - 11)
    ties = ties.ravel()
    check_floats(tmp_path, np.concatenate([ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf)]))


def test_writer_matches_percent_at_powers_of_ten(tmp_path, monkeypatch):
    monkeypatch.setattr(records, "SMALL_FIELD", 0)
    edges = np.array([9.99999999999e-5, 1e-4, 99999999999.95, 1e11, 999999999999.5])
    powers = 10.0 ** np.arange(-6, 14)
    near = np.concatenate([edges, powers, powers * (1 - 5e-13), powers * (1 + 5e-13)])
    steps = [near]
    for _ in range(3):
        steps += [np.nextafter(steps[-1], 0), np.nextafter(steps[-1], np.inf)]
    check_floats(tmp_path, np.concatenate(steps))


def test_writer_matches_percent_on_random_floats(tmp_path, monkeypatch):
    monkeypatch.setattr(records, "CHUNK_ROWS", 1000)
    rng = np.random.default_rng(12)
    n = 6000
    scattered = rng.random(n) * 10.0 ** rng.integers(-7, 15, n)
    short = np.round(rng.random(n) * 10.0 ** rng.integers(0, 6, n), rng.integers(0, 5))
    check_floats(tmp_path, np.concatenate([scattered, short, rng.integers(-10**6, 10**6, n) / 8.0]))


def test_writer_matches_percent_on_integer_columns(tmp_path, monkeypatch):
    monkeypatch.setattr(records, "CHUNK_ROWS", 500)
    rng = np.random.default_rng(13)
    n = 2000
    wide = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, n, endpoint=True)
    wide[:6] = [0, -1, 10**15 - 1, 10**15, -(10**15), np.iinfo(np.int64).min]
    medium = rng.integers(-(10**9), 10**9, n)
    small = rng.integers(-128, 128, n).astype(np.int8)
    unsigned = np.array([0, 7, 10**8, 2**64 - 1] * (n // 4), dtype=np.uint64)
    path = tmp_path / "ints.csv"
    write_csv(path, [], ["w", "m", "s", "u"], [wide, medium, small, unsigned])
    rows = zip(wide.tolist(), medium.tolist(), small.tolist(), unsigned.tolist())
    assert_same_text(path.read_text(), reference_csv([], ["w", "m", "s", "u"], rows))


def test_writer_keeps_every_character_of_strings(tmp_path):
    words = np.array(["", "pass", "\x00nul", "tab\there", "ünïcode", "lane_change"])
    path = tmp_path / "s.csv"
    write_csv(path, [], ["w", "n"], [words, np.arange(len(words))])
    expected = reference_csv([], ["w", "n"], zip(words.tolist(), range(len(words))))
    assert_same_text(path.read_bytes(), expected.encode("utf-8"))
