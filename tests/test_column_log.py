"""The one append-only log every structure that grows with the stream uses.

A view taken earlier keeps its prefix however many growths follow — the
promise a reader folding over a view shard or a logical table relies on
while another thread appends — ``since(mark)`` is exactly what was
appended after ``mark``, and a column-major column stays one contiguous
run per column.  ``adopt`` refuses what the columns do not declare,
naming the log, the column and the invariant.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.column_log import (
    CAPACITY_FACTOR,
    MIN_CAPACITY_ROWS,
    Column,
    ColumnLog,
    Increasing,
    InRange,
    Positive,
    Tiles,
    starts_log,
)
from repro.common.errors import PersistenceError

WIDTH = 3


def make_log() -> ColumnLog:
    return ColumnLog(
        "test log",
        [
            Column("time", np.int64),
            Column("words.c", np.uint32, (WIDTH,)),
            Column("words.f", np.uint32, (WIDTH,), order="F"),
        ],
    )


def rows(start: int, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    ids = np.arange(start, start + count, dtype=np.int64)
    words = (ids[:, None] * WIDTH + np.arange(WIDTH)).astype(np.uint32)
    return ids, words, words + 1


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(0, 3 * MIN_CAPACITY_ROWS), min_size=1, max_size=12))
def test_views_outlive_growths_and_since_is_the_suffix(sizes):
    log = make_log()
    taken = []  # (n, view, expected copy)
    capacities = set()
    for count in sizes:
        mark = len(log)
        parts = rows(mark, count)
        log.append(*parts)
        suffix = log.since(mark)
        for name, part in zip(("time", "words.c", "words.f"), parts):
            np.testing.assert_array_equal(suffix[name], part)
        view = log.view()
        taken.append((len(log), view, {k: v.copy() for k, v in view.items()}))
        capacities.add(len(log.view()["words.f"].base) if len(log) else 0)
        face = view["words.f"]
        assert face.shape == (len(log), WIDTH)
        if len(log) > 1:
            # One contiguous run per column, at every length.
            assert face.strides[0] == face.itemsize
            assert all(face[:, c].flags.c_contiguous for c in range(WIDTH))
    for n, view, expected in taken:
        for name in expected:
            assert len(view[name]) == n
            np.testing.assert_array_equal(view[name], expected[name])
            np.testing.assert_array_equal(log.view(n)[name], expected[name])
    total = sum(sizes)
    ids, words, shifted = rows(0, total)
    np.testing.assert_array_equal(log.view()["time"], ids)
    np.testing.assert_array_equal(log.view()["words.c"], words)
    np.testing.assert_array_equal(log.view()["words.f"], shifted)
    if total:
        # One growth policy: capacity is the factor times what was needed.
        assert max(capacities) <= CAPACITY_FACTOR * max(total, MIN_CAPACITY_ROWS)


def test_columns_nest_as_their_dotted_names_and_adopt_takes_them_back():
    log = make_log()
    log.append(*rows(0, 5))
    columns = log.columns()
    assert list(columns) == ["time", "words"]
    assert list(columns["words"]) == ["c", "f"]
    copy = make_log()
    copy.adopt(columns)
    assert len(copy) == 5
    for name, face in log.view().items():
        np.testing.assert_array_equal(copy.view()[name], face)
    copy.append(*rows(5, 70))  # grows past the adopted arrays
    np.testing.assert_array_equal(copy.view(5)["time"], log.view()["time"])


def test_append_row_is_a_one_entry_append():
    """A row at a time — past growths and past an adopted, full buffer —
    reads exactly as the same rows appended as parts."""
    by_parts, by_rows = make_log(), make_log()
    ids, words, shifted = rows(0, 3 * MIN_CAPACITY_ROWS)
    early = None
    for k in range(len(ids)):
        by_parts.append(ids[k : k + 1], words[k : k + 1], shifted[k : k + 1])
        by_rows.append_row(int(ids[k]), words[k], shifted[k])
        if k == 10:
            early = by_rows.view()
    for name, face in by_parts.view().items():
        np.testing.assert_array_equal(by_rows.view()[name], face)
    np.testing.assert_array_equal(early["time"], ids[:11])
    adopted = make_log()
    adopted.adopt(by_rows.columns())
    adopted.append_row(-1, words[0], shifted[0])
    assert adopted["time"][-2:].tolist() == [ids[-1], -1] and len(adopted) == len(ids) + 1


def test_pad_lengthens_with_zeros():
    log = ColumnLog("runs", [Column("n", np.int64), Column("m", np.int64, (2,))])
    log.append([2, 0, 3], np.ones((3, 2), np.int64))
    early = log.view()
    log.pad(100)
    assert len(log) == 100
    assert log.view()["n"][3:].sum() == 0 and log.view()["m"][3:].sum() == 0
    log.pad(50)  # never shortens
    assert len(log) == 100
    log.append([4], [[1, 1]])
    assert log.view()["n"][-2:].tolist() == [0, 4]
    assert early["n"].tolist() == [2, 0, 3]
    copy = ColumnLog("runs", log.schema)
    copy.adopt({"n": np.array([7, 7]), "m": np.full((2, 2), 7)})
    copy.pad(300)  # past the adopted arrays: a growth, zero beyond them
    assert copy.view()["n"][:3].tolist() == [7, 7, 0] and copy.view()["m"][2:].sum() == 0


def test_starts_log_sums_runs_and_grows_by_one_per_run():
    log = starts_log("starts", [2, 0, 3])
    assert log["start"].tolist() == [0, 2, 2, 5]
    for end in range(6, 200):
        log.append((end,))
    assert log["start"][:5].tolist() == [0, 2, 2, 5, 6] and len(log) == 198
    assert starts_log("none", [])["start"].tolist() == [0]


@pytest.mark.parametrize(
    "invariant, values, message",
    [
        (Increasing(), [1, 1, 3], "column 'v' is not strictly increasing"),
        (Increasing(strict=False), [1, 0], "column 'v' is not non-decreasing"),
        (InRange(0, 3), [0, 4], r"column 'v' is not in \[0, 3\]"),
        (Positive(), [1.0, np.nan], "column 'v' is not finite and > 0"),
    ],
)
def test_adopt_names_the_log_the_column_and_the_invariant(invariant, values, message):
    values = np.asarray(values)
    log = ColumnLog("the log", [Column("v", values.dtype, invariants=(invariant,))])
    with pytest.raises(PersistenceError, match=f"^the log: {message}"):
        log.adopt({"v": values})
    assert len(log) == 0


def test_tiles_and_alignment_relate_two_logs():
    rows_log = ColumnLog("the rows", [Column("r", np.int64)])
    rows_log.append(np.arange(5))
    runs = ColumnLog("the runs", [Column("n", np.int64, invariants=(Tiles(rows_log),))])
    runs.adopt({"n": np.array([2, 3])})
    for bad in ([2, 2], [6, -1], [2**62, 2**62, 2**62, 2**62, 5]):
        with pytest.raises(PersistenceError, match="^the runs: column 'n' is not run lengths"):
            runs.adopt({"n": np.array(bad, dtype=np.int64)})
    aligned = ColumnLog("beside", [Column("x", np.int64)], aligned_to=runs)
    with pytest.raises(PersistenceError, match="^beside: 3 rows, not aligned to the 2 of the runs"):
        aligned.adopt({"x": np.zeros(3, np.int64)})


@pytest.mark.parametrize(
    "columns, message",
    [
        ({"a": np.zeros(2), "b": np.zeros((2, 2), np.int64)}, "column 'a' is not .* int64"),
        ({"a": np.zeros((2, 1), np.int64), "b": np.zeros((2, 2), np.int64)}, "column 'a'"),
        ({"a": np.zeros(2, np.int64), "b": np.zeros((2, 3), np.int64)}, "column 'b'"),
        ({"a": np.zeros(2, np.int64), "b": np.zeros((3, 2), np.int64)}, r"lengths \[2, 3\]"),
        ({"a": np.zeros(2, np.int64)}, "has no column 'b'"),
    ],
)
def test_adopt_refuses_columns_of_another_dtype_shape_or_length(columns, message):
    log = ColumnLog("L", [Column("a", np.int64), Column("b", np.int64, (2,))])
    with pytest.raises(PersistenceError, match=f"^L: .*{message}"):
        log.adopt(columns)
