"""The owners' plaintext mirror maintains its join from the delta.

The oracle here is the per-row hash join the repository used before the
join became incremental — kept verbatim, loops and all — recomputed over
all of ``D_t`` for every comparison.  Everything the mirror hands out must
equal it as a multiset of rows, and every ``logical_answers`` table must
equal the oracle's fold exactly.
"""

from __future__ import annotations

import sys
import threading
from collections import defaultdict

import numpy as np
import pytest

from repro.common.types import RecordBatch, Schema
from repro.core.view_def import JoinViewDefinition
from repro.net.metrics import render_metrics
from repro.query.ast import (
    AggregateSpec,
    And,
    ColumnEquals,
    ColumnRange,
    GroupBySpec,
    LogicalQuery,
)
from repro.query.executor import aggregate_plain
from repro.query.rewrite import lower_to_view_scan
from repro.server.database import IncShrinkDatabase, ViewRegistration
from repro.server.persistence import restore_database, snapshot_database
from repro.server.runtime import DatabaseServer
from repro.storage import growing_db
from repro.storage.growing_db import GrowingDatabase
from test_persistence import snapshot_content

P = Schema(("key", "ots", "amount"))
D = Schema(("key", "sts"))


def view(name="v", lo=0, hi=2, probe="p", driver="d", **kwargs) -> JoinViewDefinition:
    fields = dict(
        name=name,
        probe_table=probe,
        probe_schema=P,
        probe_key="key",
        probe_ts="ots",
        driver_table=driver,
        driver_schema=D,
        driver_key="key",
        driver_ts="sts",
        window_lo=lo,
        window_hi=hi,
        omega=2,
        budget=6,
    )
    fields.update(kwargs)
    return JoinViewDefinition(**fields)


# -- the oracle: the pre-incremental implementation ---------------------------
def oracle_join_rows(vd, probe_rows, driver_rows) -> np.ndarray:
    out = []
    pk, dk = vd.probe_key_col, vd.driver_key_col
    by_key = defaultdict(list)
    for i, key in enumerate(probe_rows[:, pk] if len(probe_rows) else []):
        by_key[int(key)].append(i)
    for j in range(len(driver_rows)):
        for i in by_key.get(int(driver_rows[j, dk]), ()):
            if vd.pair_predicate(probe_rows[i], driver_rows[j]):
                out.append(np.concatenate([probe_rows[i], driver_rows[j]]))
    if not out:
        return vd.view_schema.empty_rows(0)
    return np.vstack(out).astype(np.uint32)


def oracle_join_count(vd, probe_rows, driver_rows) -> int:
    if len(probe_rows) == 0 or len(driver_rows) == 0:
        return 0
    by_key = defaultdict(list)
    pk, pt = vd.probe_key_col, vd.probe_ts_col
    dk, dt = vd.driver_key_col, vd.driver_ts_col
    for ts, key in zip(probe_rows[:, pt], probe_rows[:, pk]):
        by_key[int(key)].append(int(ts))
    count = 0
    for row in driver_rows:
        d_ts = int(row[dt])
        for p_ts in by_key.get(int(row[dk]), ()):
            if vd.window_lo <= d_ts - p_ts <= vd.window_hi:
                count += 1
    return count


def oracle_join_sum(vd, probe_rows, driver_rows, sum_table, sum_column) -> int:
    from_probe = sum_table == vd.probe_table
    col = (vd.probe_schema if from_probe else vd.driver_schema).index(sum_column)
    if len(probe_rows) == 0 or len(driver_rows) == 0:
        return 0
    pk, pt = vd.probe_key_col, vd.probe_ts_col
    dk, dt = vd.driver_key_col, vd.driver_ts_col
    by_key = defaultdict(list)
    for i, key in enumerate(probe_rows[:, pk]):
        by_key[int(key)].append(i)
    total = 0
    for row in driver_rows:
        d_ts = int(row[dt])
        for i in by_key.get(int(row[dk]), ()):
            if vd.window_lo <= d_ts - int(probe_rows[i, pt]) <= vd.window_hi:
                total += int(probe_rows[i, col]) if from_probe else int(row[col])
    return total


class Model:
    """Every insert ever made, for recomputing ``D_t`` from scratch."""

    def __init__(self, schemas: dict[str, Schema]) -> None:
        self.schemas = schemas
        self.inserts: list[tuple[int, str, np.ndarray]] = []

    def instance_at(self, table: str, time: int) -> np.ndarray:
        parts = [r for t, name, r in self.inserts if name == table and t <= time]
        if not parts:
            return self.schemas[table].empty_rows(0)
        return np.vstack(parts)

    def joined_at(self, vd, time: int) -> np.ndarray:
        return oracle_join_rows(
            vd,
            self.instance_at(vd.probe_table, time),
            self.instance_at(vd.driver_table, time),
        )


def multiset(rows: np.ndarray) -> list[tuple]:
    return sorted(map(tuple, rows.tolist()))


def random_rows(rng, schema: Schema, n: int, now: int) -> np.ndarray:
    rows = rng.integers(0, 6, size=(n, schema.width)).astype(np.uint32)
    rows[:, 1] = rng.integers(max(0, now - 3), now + 2, size=n)  # the ts column
    return rows


# -- the join kernel -----------------------------------------------------------
class TestJoinKernel:
    @pytest.mark.parametrize("seed", range(8))
    def test_rows_and_count_equal_the_loop_implementation(self, seed):
        rng = np.random.default_rng(seed)
        vd = view(lo=int(rng.integers(-2, 1)), hi=int(rng.integers(1, 4)))
        probe = random_rows(rng, P, int(rng.integers(0, 40)), 5)
        driver = random_rows(rng, D, int(rng.integers(0, 40)), 5)
        rows = vd.logical_join_rows(probe, driver)
        # Not only the same multiset: the same driver-major order.
        assert rows.tolist() == oracle_join_rows(vd, probe, driver).tolist()
        assert rows.dtype == np.uint32 and rows.shape[1] == vd.view_schema.width
        assert vd.logical_join_count(probe, driver) == oracle_join_count(vd, probe, driver)

    def test_signature_ignores_name_and_truncation(self):
        assert view("a").join_signature == view("b", omega=1, budget=9).join_signature
        assert view(hi=2).join_signature != view(hi=3).join_signature


# -- instance_at -----------------------------------------------------------------
def test_instance_bisects_like_the_linear_scan():
    rng = np.random.default_rng(0)
    db, model = GrowingDatabase(), Model({"p": P})
    db.create_table("p", P)
    now = 0
    for _ in range(40):
        now += int(rng.integers(0, 3))
        rows = random_rows(rng, P, int(rng.integers(0, 4)), now)
        db.insert(now, "p", rows)
        model.inserts.append((now, "p", rows))
    for time in range(-1, now + 2):
        expected = model.instance_at("p", time)
        assert db.instance_at("p", time).tolist() == expected.tolist()
    assert not db.instance_at("p", now).flags.writeable


# -- the mirror against the oracle, randomized ----------------------------------
#: More signatures than the mirror keeps; one self-join, one with a side
#: that never receives a row.
SPECS = (
    [view(f"w{hi}", lo, hi) for lo, hi in ((0, 0), (0, 1), (0, 2), (-1, 1), (1, 3))]
    + [view(f"x{hi}", 0, hi, probe_key="amount") for hi in (1, 2)]
    + [view(f"y{hi}", 0, hi, driver_key="sts", driver_ts="key") for hi in (2, 4)]
    + [
        view("self", -1, 1, driver="p", driver_schema=P, driver_ts="ots"),
        view("empty-driver", 0, 2, driver="e"),
        view("empty-probe", 0, 2, probe="e3", driver="d"),
    ]
)
SCHEMAS = {"p": P, "d": D, "e": D, "e3": P}


@pytest.mark.parametrize("seed", range(12))
def test_random_interleavings_match_the_oracle(seed):
    assert len({s.join_signature for s in SPECS}) > growing_db.MAX_JOIN_MIRRORS
    rng = np.random.default_rng(seed)
    db, model = GrowingDatabase(), Model(SCHEMAS)
    for name, schema in SCHEMAS.items():
        db.create_table(name, schema)
    clock = {"p": 0, "d": 0}  # independent: one table may run ahead
    last_query = (SPECS[0], 0)
    for _ in range(120):
        op = rng.random()
        if op < 0.45:
            table = "p" if rng.random() < 0.5 else "d"
            # +0 re-inserts at a time some signature has already consumed
            clock[table] += int(rng.integers(0, 3))
            rows = random_rows(
                rng, SCHEMAS[table], int(rng.integers(0, 5)), clock[table]
            )
            db.insert(clock[table], table, rows)
            model.inserts.append((clock[table], table, rows))
        elif op < 0.5:
            db.restore_state(
                {
                    name: {
                        "fields": list(db.schema(name).fields),
                        **batches.columns(),
                        **rows.columns(),
                    }
                    for name, (batches, rows) in db.table_logs().items()
                }
            )
            assert db.join_mirror_stats()["signatures"] == 0
        else:
            high = max(clock.values())
            kind = rng.random()
            if kind < 0.25:
                spec, time = last_query  # repeated
            else:
                spec = SPECS[int(rng.integers(len(SPECS)))]
                if kind < 0.6:
                    time = high  # advancing
                elif kind < 0.9:
                    time = int(rng.integers(0, high + 1))  # historical
                else:
                    time = high + 5
            last_query = (spec, time)
            rows = db.joined_at(spec, time)
            assert multiset(rows) == multiset(model.joined_at(spec, time))
            assert not rows.flags.writeable
            assert db.join_mirror_stats()["signatures"] <= growing_db.MAX_JOIN_MIRRORS


def test_unchanged_watermark_does_no_join_work_and_a_step_joins_only_its_delta(
    monkeypatch,
):
    rng = np.random.default_rng(3)
    db, model = GrowingDatabase(), Model(SCHEMAS)
    for name, schema in SCHEMAS.items():
        db.create_table(name, schema)
    for t in range(1, 61):
        for table in ("p", "d"):
            rows = random_rows(rng, SCHEMAS[table], 6, t)
            rows[:, 0] = rng.integers(0, 200, size=6)  # sparse keys
            db.insert(t, table, rows)
            model.inserts.append((t, table, rows))
    spec = SPECS[2]
    joined: list[int] = []
    kernel = JoinViewDefinition.logical_join_rows

    def counting(self, probe_rows, driver_rows):
        joined.append(len(probe_rows) + len(driver_rows))
        return kernel(self, probe_rows, driver_rows)

    monkeypatch.setattr(JoinViewDefinition, "logical_join_rows", counting)
    db.joined_at(spec, 60)
    cold_calls = len(joined)
    for time in (60, 60, 17, 59, 0):  # repeats and history: bisect + slice only
        assert multiset(db.joined_at(spec, time)) == multiset(model.joined_at(spec, time))
    assert len(joined) == cold_calls
    assert db.join_mirror_stats() == {"hits": 5, "extensions": 1, "signatures": 1}

    delta = random_rows(rng, D, 4, 61)
    db.insert(61, "d", delta)
    model.inserts.append((61, "d", delta))
    del joined[:]
    assert multiset(db.joined_at(spec, 61)) == multiset(model.joined_at(spec, 61))
    # 360 probe rows are in the mirror; the kernel saw the 4 new driver
    # rows and the probes sharing a key with them, nothing like all of D_t.
    assert 0 < sum(joined) < 40


def test_a_late_batch_behind_the_watermark_rebuilds_the_signature():
    db, model = GrowingDatabase(), Model(SCHEMAS)
    for name, schema in SCHEMAS.items():
        db.create_table(name, schema)

    def insert(time, table, rows):
        rows = np.asarray(rows, dtype=np.uint32)
        db.insert(time, table, rows)
        model.inserts.append((time, table, rows))

    spec = SPECS[2]
    insert(1, "p", [[1, 1, 10]])
    insert(5, "p", [[1, 5, 50]])
    insert(1, "d", [[1, 2]])
    assert len(db.joined_at(spec, 5)) == 1
    insert(3, "d", [[1, 3], [1, 6]])  # legal: only per-table clocks are monotone
    for time in (5, 2, 3, 4, 9):
        assert multiset(db.joined_at(spec, time)) == multiset(model.joined_at(spec, time))


def test_four_threads_query_while_the_first_extension_runs(monkeypatch):
    rng = np.random.default_rng(5)
    db, model = GrowingDatabase(), Model(SCHEMAS)
    for name, schema in SCHEMAS.items():
        db.create_table(name, schema)
    for t in range(1, 201):
        for table in ("p", "d"):
            rows = random_rows(rng, SCHEMAS[table], 5, t)
            db.insert(t, table, rows)
            model.inserts.append((t, table, rows))
    spec = SPECS[2]
    times = (200, 200, 120, 200)
    expected = {t: multiset(model.joined_at(spec, t)) for t in set(times)}

    kernel_calls = []
    kernel = JoinViewDefinition.logical_join_rows

    def counting(self, probe_rows, driver_rows):
        kernel_calls.append(threading.get_ident())
        return kernel(self, probe_rows, driver_rows)

    monkeypatch.setattr(JoinViewDefinition, "logical_join_rows", counting)
    barrier = threading.Barrier(len(times))
    results: dict[int, list] = {}
    errors: list[Exception] = []

    def worker(index: int, time: int) -> None:
        try:
            barrier.wait(timeout=10.0)
            for _ in range(20):
                results[index] = multiset(db.joined_at(spec, time))
                assert results[index] == expected[time]
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=worker, args=(i, t)) for i, t in enumerate(times)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(results) == len(times)
    stats = db.join_mirror_stats()
    assert stats["hits"] + stats["extensions"] == 20 * len(times)
    # Steps 1..200 were each joined once, by whichever threads got there
    # first — never once per thread.
    assert len(kernel_calls) <= 2 * 200


# -- through the database: logical_answers --------------------------------------
def padded(schema: Schema, rows, capacity: int) -> RecordBatch:
    rows = np.asarray(rows, dtype=np.uint32).reshape(-1, schema.width)
    return RecordBatch(schema, rows).padded_to(capacity)


def stream(seed: int, steps: int) -> list[dict[str, RecordBatch]]:
    rng = np.random.default_rng(seed)
    return [
        {
            "p": padded(P, random_rows(rng, P, int(rng.integers(0, 5)), t), 4),
            "d": padded(D, random_rows(rng, D, int(rng.integers(0, 5)), t), 4),
        }
        for t in range(1, steps + 1)
    ]


def build_database(seed: int = 11) -> IncShrinkDatabase:
    db = IncShrinkDatabase(total_epsilon=2000.0, seed=seed)
    db.register_view(ViewRegistration(view("wide", 0, 2), mode="ep"))
    db.register_view(
        ViewRegistration(view("narrow", 0, 1), mode="dp-timer", timer_interval=2)
    )
    return db


def queries() -> list[LogicalQuery]:
    wide, narrow = view("wide", 0, 2), view("narrow", 0, 1)
    return [
        LogicalQuery.for_view(wide, AggregateSpec.count()),
        LogicalQuery.for_view(
            narrow,
            AggregateSpec.count(),
            AggregateSpec.sum_of("p", "amount"),
            AggregateSpec.avg_of("d", "sts"),
        ),
        LogicalQuery.for_view(
            wide,
            AggregateSpec.count(),
            AggregateSpec.sum_of("d", "sts"),
            AggregateSpec.avg_of("p", "amount"),
            group_by=GroupBySpec("p", "key", (0, 1, 2, 3, 7)),
            predicate=ColumnRange("d", "sts", 2, 9),
        ),
        LogicalQuery.for_view(
            wide,
            AggregateSpec.sum_of("p", "amount"),
            predicate=And((ColumnRange("p", "amount", 1, 4), ColumnEquals("d", "key", 2))),
        ),
        # no registered view has this window: the NM path, a third signature
        LogicalQuery.for_view(view("adhoc", 1, 3), AggregateSpec.count()),
    ]


def oracle_answer(db: IncShrinkDatabase, model: Model, query: LogicalQuery, time: int):
    spec = db._join_spec(query)
    return aggregate_plain(
        lower_to_view_scan(query, spec), spec.view_schema, model.joined_at(spec, time)
    )


@pytest.mark.parametrize("seed", range(4))
def test_logical_answers_are_identical_to_the_full_recompute(seed):
    rng = np.random.default_rng(100 + seed)
    db, model = build_database(), Model({"p": P, "d": D})
    for t, batches in enumerate(stream(seed, 30), start=1):
        db.upload(t, batches)
        db.step(t)
        for name, batch in batches.items():
            model.inserts.append((t, name, batch.real_rows()))
        for query in queries():
            # advancing, then one repeated or historical time
            for time in (t, int(rng.integers(0, t + 1))):
                result = db.query(query, time)
                expected = oracle_answer(db, model, query, time)
                assert result.logical_answers == expected
                assert repr(result.logical_answers) == repr(expected)
                assert result.observation.logical_answer == float(expected.rows[0][0])
    assert db.logical_mirror_stats()["signatures"] == 3


def test_registered_view_queries_score_against_the_mirror():
    db, model = build_database(), Model({"p": P, "d": D})
    vd = view("wide", 0, 2)
    for t, batches in enumerate(stream(9, 20), start=1):
        db.upload(t, batches)
        db.step(t)
        for name, batch in batches.items():
            model.inserts.append((t, name, batch.real_rows()))
        probe, driver = model.instance_at("p", t), model.instance_at("d", t)
        count = db.query(LogicalQuery.for_view(vd), t).observation
        assert count.logical_answer == oracle_join_count(vd, probe, driver)
        for table, column in (("p", "amount"), ("d", "sts")):
            query = LogicalQuery.for_view(vd, AggregateSpec.sum_of(table, column))
            total = db.query(query, t).observation
            assert total.logical_answer == oracle_join_sum(vd, probe, driver, table, column)
    # one signature, extended once per step, every other call a hit
    assert db.logical_mirror_stats() == {"hits": 40, "extensions": 20, "signatures": 1}


# -- persistence -----------------------------------------------------------------
def test_a_warm_mirror_is_not_in_the_snapshot_and_a_restore_starts_cold(tmp_path):
    def run() -> IncShrinkDatabase:
        db = build_database()
        for t, batches in enumerate(stream(2, 16), start=1):
            db.upload(t, batches)
            db.step(t)
            db.query(queries()[0], t)
        return db

    plain, warm = run(), run()
    for spec in SPECS[:5]:
        for time in (16, 7, 12):
            warm.logical.joined_at(spec, time)
    assert warm.logical_mirror_stats() != plain.logical_mirror_stats()
    snapshot_database(plain, tmp_path / "plain.snap")
    snapshot_database(warm, tmp_path / "warm.snap")
    # (the receipts' digests also cover created_at, the one thing that differs)
    assert snapshot_content(tmp_path / "warm.snap") == snapshot_content(
        tmp_path / "plain.snap"
    )

    restored = restore_database(tmp_path / "warm.snap").database
    assert restored.logical_mirror_stats() == {"hits": 0, "extensions": 0, "signatures": 0}
    for query in queries():
        for time in (16, 5):
            mine, theirs = warm.query(query, time), restored.query(query, time)
            assert mine.logical_answers == theirs.logical_answers
            assert mine.answers == theirs.answers


# -- observability ----------------------------------------------------------------
def test_mirror_gauges_are_functions_of_upload_and_query_counts_only():
    # Neighbouring streams: B lacks the one real row of step 3's driver
    # batch, so B's batch is all padding — same public sizes, one logical
    # update apart.  Whether a padded batch held a real row is exactly what
    # the servers must not learn, so the gauges may not differ.
    def steps(with_row: bool):
        return [
            {"p": padded(P, [[1, 1, 5]], 4), "d": padded(D, [[1, 2]], 4)},
            {"p": padded(P, [[2, 2, 6]], 4), "d": padded(D, [], 4)},
            {"p": padded(P, [], 4), "d": padded(D, [[2, 3]] if with_row else [], 4)},
            {"p": padded(P, [], 4), "d": padded(D, [], 4)},
        ]

    servers = [DatabaseServer(build_database(), snapshot_every=None) for _ in range(2)]
    answers, traces = [], []
    for server, with_row in zip(servers, (True, False)):
        db, trace = server.database, []
        for t, batches in enumerate(steps(with_row), start=1):
            db.upload(t, batches)
            db.step(t)
            for time in (t, t, max(0, t - 2)):
                for query in queries()[:3]:
                    answers.append(db.query(query, time).logical_answers)
                trace.append(server.current_stats().to_dict()["logical_mirror"])
        traces.append(trace)
    assert traces[0] == traces[1]
    assert answers[: len(answers) // 2] != answers[len(answers) // 2 :]  # the data did differ
    final = traces[0][-1]
    assert set(final) == {"hits", "extensions", "signatures"}
    assert final["hits"] > 0 and final["extensions"] > 0
    exported = render_metrics(servers[0].observability())
    for gauge, value in final.items():
        assert f"incshrink_logical_mirror_{gauge} {value}" in exported
