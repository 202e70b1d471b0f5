"""Incremental (warm-cache) execution is provably a no-op for everything
but the gate bill.

The acceptance criterion of the incremental scan subsystem
(:mod:`repro.query.incremental`): for randomized append/query
interleavings, shard counts ∈ {1, 2, 4}, and both execution backends, a
database answering repeat queries from cached per-shard prefix
accumulators returns **byte-identical** answers, reports the
**identical realized ε**, and charges **exactly the suffix gates** —
``delta_rows × per_row_gates`` — for every warm scan, compared against
a twin deployment with incremental execution disabled.

Alongside the end-to-end property suite, this file unit-tests the
:class:`~repro.query.incremental.AccumulatorCache` (validity, LRU
eviction, side-effect-free planning reads) and the invalidation paths
(``reshard`` and ``restore_state``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.common.types import RecordBatch, Schema
from repro.core.view_def import JoinViewDefinition
from repro.query.ast import (
    AggregateSpec,
    ColumnRange,
    GroupBySpec,
    LogicalQuery,
)
from repro.query.incremental import AccumulatorCache, ShardAccumulator
from repro.query.shard_workers import shutdown_process_backend
from repro.server.database import IncShrinkDatabase, ViewRegistration

PROBE_SCHEMA = Schema(("key", "ots"))
DRIVER_SCHEMA = Schema(("key", "sts"))

SHARD_COUNTS = (1, 2, 4)
BACKENDS = ("thread", "process")


def make_view_def(name: str = "full") -> JoinViewDefinition:
    return JoinViewDefinition(
        name=name,
        probe_table="orders",
        probe_schema=PROBE_SCHEMA,
        probe_key="key",
        probe_ts="ots",
        driver_table="shipments",
        driver_schema=DRIVER_SCHEMA,
        driver_key="key",
        driver_ts="sts",
        window_lo=0,
        window_hi=2,
        omega=2,
        budget=6,
    )


def count_query(vd: JoinViewDefinition) -> LogicalQuery:
    return LogicalQuery.for_view(vd, AggregateSpec.count())


def dashboard_query(vd: JoinViewDefinition) -> LogicalQuery:
    return LogicalQuery.for_view(
        vd,
        AggregateSpec.count(),
        AggregateSpec.sum_of("shipments", "sts"),
        AggregateSpec.avg_of("shipments", "sts"),
        group_by=GroupBySpec("orders", "key", (0, 1, 2, 3)),
        predicate=ColumnRange("shipments", "sts", 0, 40),
    )


def build_database(
    n_shards: int, backend: str, incremental: bool, mode: str = "dp-timer", **kwargs
) -> IncShrinkDatabase:
    db = IncShrinkDatabase(
        total_epsilon=2000.0,
        seed=7,
        n_shards=n_shards,
        scan_backend=backend,
        incremental=incremental,
        **kwargs,
    )
    reg = (
        ViewRegistration(make_view_def("full"), mode="ep")
        if mode == "ep"
        else ViewRegistration(
            make_view_def("full"), mode="dp-timer", timer_interval=1
        )
    )
    db.register_view(reg)
    return db


def upload_step(db: IncShrinkDatabase, t: int, gen: np.random.Generator) -> None:
    probe = gen.integers(1, 5, size=(int(gen.integers(0, 4)), 1)).astype(np.uint32)
    driver = gen.integers(1, 5, size=(int(gen.integers(0, 4)), 1)).astype(np.uint32)
    ts = np.full((len(probe), 1), t, dtype=np.uint32)
    dts = np.full((len(driver), 1), t, dtype=np.uint32)
    db.upload(
        t,
        {
            "orders": RecordBatch(
                PROBE_SCHEMA, np.hstack([probe, ts]).reshape(-1, 2)
            ).padded_to(4),
            "shipments": RecordBatch(
                DRIVER_SCHEMA, np.hstack([driver, dts]).reshape(-1, 2)
            ).padded_to(4),
        },
    )
    db.step(t)


def interleaved_run(n_shards: int, seed: int, backend: str, incremental: bool):
    """One randomized append/query interleaving; the schedule is a pure
    function of ``seed``, so twin runs replay it identically."""
    db = build_database(n_shards, backend, incremental)
    vd = make_view_def("full")
    queries = [count_query(vd), dashboard_query(vd)]
    answers, reports = [], []
    sched = np.random.default_rng(1000 + seed)
    gen = np.random.default_rng(seed)
    for t in range(1, 6):
        upload_step(db, t, gen)
        # 1-3 queries per step, repeats included — repeats are exactly
        # what goes warm on the incremental twin.
        for qi in sched.integers(0, 2, size=int(sched.integers(1, 4))):
            r = db.query(queries[int(qi)], t)
            answers.append(r.answers)
            reports.append(r.scan_report)
    total_gates = sum(run.gates for run in db.runtime.runs)
    return db, answers, reports, total_gates


# -- end-to-end equivalence ----------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
@pytest.mark.parametrize("seed", [0, 1])
def test_warm_equals_cold(seed, n_shards, backend):
    """Byte-identical answers, identical ε, strictly fewer gates."""
    try:
        cold_db, cold_answers, cold_reports, cold_gates = interleaved_run(
            n_shards, seed, backend, incremental=False
        )
        warm_db, warm_answers, warm_reports, warm_gates = interleaved_run(
            n_shards, seed, backend, incremental=True
        )
    finally:
        shutdown_process_backend()

    assert warm_answers == cold_answers  # byte-identical cells
    assert warm_db.realized_epsilon() == cold_db.realized_epsilon()
    assert warm_db.accountant.snapshot_state() == cold_db.accountant.snapshot_state()

    assert all(r.mode == "off" for r in cold_reports)
    modes = [r.mode for r in warm_reports]
    assert "warm" in modes  # the schedule above always repeats a query
    # Warm scans skipped work somewhere, and skipped gates never recur.
    assert warm_gates < cold_gates
    assert sum(r.saved_gates for r in warm_reports) > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_warm_scan_charges_exactly_the_suffix(backend):
    """A warm scan's gate bill is delta_rows × the cold per-row rate."""
    try:
        # EP mode materializes exact pairs eagerly, so the view holds
        # rows from the first step on.
        db = build_database(2, backend, incremental=True, mode="ep")
        vd = make_view_def("full")
        q = dashboard_query(vd)
        gen = np.random.default_rng(3)
        for t in (1, 2):
            upload_step(db, t, gen)
        cold = db.query(q, 2).scan_report
        assert cold.mode == "cold"
        assert cold.total_rows > 0 and cold.gates > 0
        per_row, rem = divmod(cold.gates, cold.total_rows)
        assert rem == 0  # padded scans charge a flat per-row rate

        # Zero delta: the repeat charges nothing at all.
        repeat = db.query(q, 2).scan_report
        assert repeat.mode == "warm"
        assert repeat.delta_rows == 0 and repeat.gates == 0
        assert repeat.saved_gates == cold.gates

        # Append, requery: exactly the suffix is billed.
        upload_step(db, 3, gen)
        upload_step(db, 4, gen)
        warm = db.query(q, 4).scan_report
        assert warm.mode == "warm"
        assert warm.total_rows > cold.total_rows
        assert warm.delta_rows == warm.total_rows - cold.total_rows
        assert warm.cached_rows == cold.total_rows
        assert warm.gates == per_row * warm.delta_rows
    finally:
        shutdown_process_backend()


def test_noisy_release_identical_at_identical_epsilon():
    """The cache sits strictly before the Laplace release: warm and cold
    twins draw the same noise and release identical values at the same ε."""
    kwargs = dict(n_shards=2, backend="thread")
    cold = build_database(incremental=False, **kwargs)
    warm = build_database(incremental=True, **kwargs)
    vd = make_view_def("full")
    q = dashboard_query(vd)
    gen_c, gen_w = np.random.default_rng(11), np.random.default_rng(11)
    for t in (1, 2):
        upload_step(cold, t, gen_c)
        upload_step(warm, t, gen_w)
    warm.query(q, 2)  # warm up the accumulator cache (no release)
    rc = cold.query(q, 2, epsilon=0.7)
    rw = warm.query(q, 2, epsilon=0.7)
    assert rw.scan_report.mode == "warm"
    assert rw.answers == rc.answers  # identical noisy released cells
    assert rw.epsilon_spent == rc.epsilon_spent
    assert warm.query_epsilon() == cold.query_epsilon()


# -- invalidation --------------------------------------------------------------
def test_reshard_invalidates_then_rewarms():
    db = build_database(1, "thread", incremental=True)
    vd = make_view_def("full")
    q = count_query(vd)
    gen = np.random.default_rng(5)
    upload_step(db, 1, gen)
    db.query(q, 1)
    assert db.query(q, 1).scan_report.mode == "warm"
    before = db.query(q, 1).answers

    db.reshard(4)
    r = db.query(q, 1)
    assert r.scan_report.mode == "cold"  # new layout, prefixes useless
    assert r.answers == before
    assert db.query(q, 1).scan_report.mode == "warm"  # rewarms cleanly
    assert db.incremental_cache_stats()["invalidations"] >= 0


def test_restore_state_invalidates_even_with_identical_content():
    """``restore_state`` replaces shard content wholesale; the cache must
    not trust it — even when the restored bytes happen to be identical."""
    db = build_database(2, "thread", incremental=True)
    vd = make_view_def("full")
    q = count_query(vd)
    gen = np.random.default_rng(6)
    upload_step(db, 1, gen)
    expected = db.query(q, 1).answers
    assert db.query(q, 1).scan_report.mode == "warm"

    view = db.views["full"].view
    view.restore_state({"shards": view.shards, "update_count": view.update_count})
    r = db.query(q, 1)
    assert r.scan_report.mode == "cold"
    assert r.answers == expected


def test_snapshot_restore_starts_cold(tmp_path):
    """The accumulator cache is never persisted: a restored database
    answers identically but scans cold on its first repeat query."""
    from repro.server.persistence import restore_database, snapshot_database

    db = build_database(2, "thread", incremental=True)
    vd = make_view_def("full")
    q = dashboard_query(vd)
    gen = np.random.default_rng(9)
    upload_step(db, 1, gen)
    db.query(q, 1)
    warm = db.query(q, 1)
    assert warm.scan_report.mode == "warm"

    snapshot_database(db, tmp_path / "db.snap")
    restored = restore_database(tmp_path / "db.snap").database
    r = restored.query(q, 1)
    assert r.scan_report.mode == "cold"
    assert r.answers == warm.answers


# -- eviction ------------------------------------------------------------------
def test_lru_eviction_under_tiny_capacity():
    """With room for one entry, two alternating queries evict each other
    (always cold, always correct); a repeat back-to-back stays warm."""
    db = build_database(
        1, "thread", incremental=True, max_cached_queries=1
    )
    vd = make_view_def("full")
    q1, q2 = count_query(vd), dashboard_query(vd)
    gen = np.random.default_rng(4)
    upload_step(db, 1, gen)

    base1 = db.query(q1, 1).answers
    base2 = db.query(q2, 1).answers  # evicts q1's entry
    for _ in range(2):
        r1 = db.query(q1, 1)
        assert r1.scan_report.mode == "cold" and r1.answers == base1
        r2 = db.query(q2, 1)
        assert r2.scan_report.mode == "cold" and r2.answers == base2
    assert db.incremental_cache_stats()["evictions"] >= 4
    assert len(db.accumulator_cache) == 1

    db.query(q2, 1)
    assert db.query(q2, 1).scan_report.mode == "warm"


# -- cache unit tests ----------------------------------------------------------
class _FakeContainer:
    def __init__(self, uid=1, epoch=0, lengths=(3, 2)):
        self.container_uid = uid
        self.append_epoch = epoch
        self._lengths = list(lengths)

    @property
    def n_shards(self):
        return len(self._lengths)

    def shard_lengths(self):
        return tuple(self._lengths)


def _accs(watermarks):
    return [
        ShardAccumulator(
            watermark=w,
            counts=np.zeros(1, dtype=np.int64),
            sums=np.zeros((1, 0), dtype=np.uint64),
            gates=10 * w,
        )
        for w in watermarks
    ]


class TestAccumulatorCache:
    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError, match="max_cached_queries"):
            AccumulatorCache(0)

    def test_lookup_miss_then_hit(self):
        cache = AccumulatorCache()
        box = _FakeContainer()
        assert cache.lookup(box, "plan") is None
        cache.store(box, "plan", _accs([3, 2]))
        entry = cache.lookup(box, "plan")
        assert entry is not None
        assert [a.watermark for a in entry.shards] == [3, 2]
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_epoch_bump_invalidates(self):
        cache = AccumulatorCache()
        box = _FakeContainer(epoch=0)
        cache.store(box, "plan", _accs([3, 2]))
        box.append_epoch = 1
        assert cache.lookup(box, "plan") is None
        assert cache.stats()["invalidations"] == 1

    def test_shrunken_shard_invalidates(self):
        cache = AccumulatorCache()
        box = _FakeContainer(lengths=(3, 2))
        cache.store(box, "plan", _accs([3, 2]))
        box._lengths = [3, 1]  # watermark 2 > length 1: prefix gone
        assert cache.lookup(box, "plan") is None

    def test_cached_rows_has_no_side_effects(self):
        cache = AccumulatorCache()
        box = _FakeContainer()
        cache.store(box, "plan", _accs([3, 2]))
        assert cache.cached_rows(box, "plan") == 5
        assert cache.cached_rows(box, "other") == 0
        stats = cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_lru_order_and_eviction(self):
        cache = AccumulatorCache(max_cached_queries=2)
        box = _FakeContainer()
        cache.store(box, "a", _accs([1, 1]))
        cache.store(box, "b", _accs([2, 1]))
        assert cache.lookup(box, "a") is not None  # refresh a
        cache.store(box, "c", _accs([2, 2]))  # evicts b, the LRU
        assert cache.lookup(box, "b") is None
        assert cache.lookup(box, "a") is not None
        assert cache.lookup(box, "c") is not None
        assert cache.stats()["evictions"] == 1

    def test_invalidate_clears_everything(self):
        cache = AccumulatorCache()
        box = _FakeContainer()
        cache.store(box, "a", _accs([1, 1]))
        cache.invalidate()
        assert len(cache) == 0
        assert cache.lookup(box, "a") is None
