"""Tests for the query compiler: AST → rewrite → plan → one scan.

Fixture data replays the shared orders/shipments script of
``test_server_database`` into a single EP (exact) view, so every
pre-noise assertion has a hand-computable ground truth:

window [0, 2] qualifying pairs at t=4: (1,1)-(1,2), (2,1)-(2,3),
(3,2)-(3,3), (3,2)-(3,4) → COUNT 4, SUM(shipments.sts) 12,
AVG(shipments.sts) 3.0; grouped by orders.key over domain (1, 2, 3):
counts (1, 1, 2), sums (2, 3, 7), avgs (2.0, 3.0, 3.5).
"""

import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SchemaError
from repro.common.types import RecordBatch, Schema
from repro.core.view_def import JoinViewDefinition
from repro.query.ast import (
    AggregateSpec,
    And,
    ColumnEquals,
    ColumnRange,
    GroupBySpec,
    LogicalQuery,
    ViewScanPlan,
)
from repro.query.planner import NM_JOIN, VIEW_SCAN, plan_query
from repro.query.rewrite import lower_to_view_scan
from repro.server.database import IncShrinkDatabase, ViewRegistration

PROBE_SCHEMA = Schema(("key", "ots"))
DRIVER_SCHEMA = Schema(("key", "sts"))

SCRIPT = [
    ([[1, 1], [2, 1]], [[1, 2]]),
    ([[3, 2]], [[2, 3], [3, 3]]),
    ([], [[3, 4]]),
    ([[9, 4]], []),
]


def make_view(name: str = "full", window_hi: int = 2) -> JoinViewDefinition:
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
        window_hi=window_hi,
        omega=2,
        budget=6,
    )


def feed(db: IncShrinkDatabase, t: int, probe_rows, driver_rows) -> None:
    """Upload one padded step and run it."""
    probe = RecordBatch(
        PROBE_SCHEMA, np.asarray(probe_rows, dtype=np.uint32).reshape(-1, 2)
    ).padded_to(4)
    driver = RecordBatch(
        DRIVER_SCHEMA, np.asarray(driver_rows, dtype=np.uint32).reshape(-1, 2)
    ).padded_to(3)
    db.upload(t, {"orders": probe, "shipments": driver})
    db.step(t)


def build_database(seed: int = 7) -> IncShrinkDatabase:
    """One exact (EP) view over the replayed script — no truncation loss."""
    db = IncShrinkDatabase(total_epsilon=2000.0, seed=seed)
    db.register_view(ViewRegistration(make_view(), mode="ep"))
    for t, (probe_rows, driver_rows) in enumerate(SCRIPT, start=1):
        feed(db, t, probe_rows, driver_rows)
    return db


def fresh_plan(db: IncShrinkDatabase, query: LogicalQuery):
    """What scoring every candidate from scratch chooses right now —
    the reference the planner's structural cache must always agree with."""
    planner = db.planner
    probe, driver = db.tables[query.probe_table], db.tables[query.driver_table]
    return plan_query(
        query,
        planner.candidates(query),
        probe.total_rows,
        driver.total_rows,
        db.runtime.cost_model,
        nm_allowed=planner.nm_allowed(query),
        multiplicity=planner.multiplicity,
        probe_width=probe.schema.width,
        driver_width=driver.schema.width,
    )


@pytest.fixture
def database() -> IncShrinkDatabase:
    return build_database()


def query_of(*aggregates, **kwargs) -> LogicalQuery:
    return LogicalQuery.for_view(make_view(), *aggregates, **kwargs)


COUNT = AggregateSpec.count()
SUM_STS = AggregateSpec.sum_of("shipments", "sts")
AVG_STS = AggregateSpec.avg_of("shipments", "sts")


class TestASTValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError, match="kind"):
            AggregateSpec("median")

    def test_count_with_column_rejected(self):
        with pytest.raises(SchemaError, match="COUNT"):
            AggregateSpec("count", table="orders", column="ots")

    def test_sum_without_column_rejected(self):
        with pytest.raises(SchemaError, match="SUM"):
            AggregateSpec("sum", table="orders")

    def test_nonpositive_sensitivity_rejected(self):
        with pytest.raises(SchemaError, match="sensitivity"):
            AggregateSpec.sum_of("orders", "ots", sensitivity=0.0)

    def test_no_aggregates_rejected(self):
        with pytest.raises(SchemaError, match="at least one aggregate"):
            LogicalQuery(join=query_of(COUNT).join, aggregates=())

    def test_duplicate_output_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            query_of(AggregateSpec.count(alias="x"), AggregateSpec.count(alias="x"))

    def test_foreign_aggregate_table_rejected(self):
        with pytest.raises(SchemaError, match="neither side"):
            query_of(AggregateSpec.sum_of("users", "x"))

    def test_foreign_group_table_rejected(self):
        with pytest.raises(SchemaError, match="neither side"):
            query_of(COUNT, group_by=GroupBySpec("users", "x", (1, 2)))

    def test_foreign_predicate_table_rejected(self):
        with pytest.raises(SchemaError, match="neither side"):
            query_of(COUNT, predicate=ColumnEquals("users", "x", 1))

    def test_empty_group_domain_rejected(self):
        with pytest.raises(SchemaError, match="non-empty"):
            GroupBySpec("orders", "key", ())

    def test_duplicate_group_domain_rejected(self):
        with pytest.raises(SchemaError, match="distinct"):
            GroupBySpec("orders", "key", (1, 1))

    def test_oversized_group_domain_rejected(self):
        with pytest.raises(SchemaError, match="maximum"):
            GroupBySpec("orders", "key", tuple(range(4097)))

    def test_empty_predicate_range_rejected(self):
        with pytest.raises(SchemaError, match="empty range"):
            ColumnRange("orders", "ots", 5, 4)

    def test_predicate_values_outside_ring_rejected(self):
        with pytest.raises(SchemaError, match="ring"):
            ColumnEquals("orders", "key", -1)
        with pytest.raises(SchemaError, match="ring"):
            ColumnRange("orders", "ots", 0, 2**32)

    def test_group_domain_outside_ring_rejected(self):
        with pytest.raises(SchemaError, match="ring"):
            GroupBySpec("orders", "key", (-1, 2))

    def test_query_is_hashable_plan_cache_key(self):
        q = query_of(
            COUNT,
            SUM_STS,
            group_by=GroupBySpec("orders", "key", (1, 2)),
            predicate=ColumnEquals("orders", "key", 1),
        )
        twin = query_of(
            COUNT,
            SUM_STS,
            group_by=GroupBySpec("orders", "key", (1, 2)),
            predicate=ColumnEquals("orders", "key", 1),
        )
        assert hash(twin) == hash(q)
        assert q == twin


class TestLowering:
    def test_plan_resolves_prefixed_columns(self):
        plan = lower_to_view_scan(
            query_of(
                COUNT,
                SUM_STS,
                AVG_STS,
                AggregateSpec.sum_of("orders", "ots"),
                group_by=GroupBySpec("orders", "key", (1, 2, 3)),
                predicate=And(
                    (
                        ColumnEquals("orders", "key", 3),
                        ColumnRange("shipments", "sts", 0, 9),
                    )
                ),
            ),
            make_view(),
        )
        assert isinstance(plan, ViewScanPlan)
        assert [a.column for a in plan.aggregates] == [
            None,
            "d_sts",
            "d_sts",
            "p_ots",
        ]
        # SUM and AVG over shipments.sts share one accumulator slot.
        assert plan.sum_view_columns == ("d_sts", "p_ots")
        assert plan.group_column == "p_key"
        assert plan.group_domain == (1, 2, 3)
        assert [(c.column, c.lo, c.hi) for c in plan.clauses] == [
            ("p_key", 3, 3),
            ("d_sts", 0, 9),
        ]
        assert plan.predicate_words == 2

    def test_mismatched_join_rejected(self):
        with pytest.raises(SchemaError, match="does not materialize"):
            lower_to_view_scan(
                LogicalQuery.for_view(make_view(window_hi=9), COUNT), make_view()
            )

    def test_unknown_column_rejected(self):
        with pytest.raises(SchemaError):
            lower_to_view_scan(
                query_of(AggregateSpec.sum_of("orders", "ghost")), make_view()
            )


class TestSingleScanExecution:
    def test_multi_aggregate_matches_single_answers_and_ground_truth(self, database):
        multi = database.query(query_of(COUNT, SUM_STS, AVG_STS), time=4)
        assert multi.plan.kind == VIEW_SCAN
        assert multi.answers.columns == (
            "count",
            "sum_shipments_sts",
            "avg_shipments_sts",
        )
        assert multi.answers.rows == ((4, 12, 3.0),)
        # Each aggregate asked on its own returns the byte-identical cell.
        one_count = database.query(query_of(COUNT), 4)
        one_sum = database.query(query_of(SUM_STS), 4)
        assert multi.answers.rows[0][0] == one_count.answer == 4
        assert multi.answers.rows[0][1] == one_sum.answer == 12
        # EP view is exact, so the served answers equal the ground truth.
        assert multi.logical_answers.rows == multi.answers.rows

    def test_three_aggregates_cost_one_scan_not_three(self, database):
        multi = database.query(query_of(COUNT, SUM_STS, AVG_STS), time=4)
        singles = [
            database.query(query_of(agg), time=4).observation.qet_seconds
            for agg in (COUNT, SUM_STS, AVG_STS)
        ]
        ratio = sum(singles) / multi.observation.qet_seconds
        assert ratio >= 1.5

    def test_group_by_over_public_domain(self, database):
        result = database.query(
            query_of(
                COUNT,
                SUM_STS,
                AVG_STS,
                group_by=GroupBySpec("orders", "key", (1, 2, 3)),
            ),
            time=4,
        )
        assert result.answers.group_keys == (1, 2, 3)
        assert result.answers.rows == ((1, 2, 2.0), (1, 3, 3.0), (2, 7, 3.5))
        assert result.logical_answers.rows == result.answers.rows

    def test_group_outside_domain_is_excluded(self, database):
        result = database.query(
            query_of(COUNT, group_by=GroupBySpec("orders", "key", (1, 9))),
            time=4,
        )
        # key 9 never joins; keys 2 and 3 fall outside the domain.
        assert result.answers.rows == ((1,), (0,))

    def test_structural_predicate_filters_obliviously(self, database):
        result = database.query(
            query_of(COUNT, predicate=ColumnEquals("orders", "key", 3)), time=4
        )
        assert result.answers.rows == ((2,),)
        ranged = database.query(
            query_of(COUNT, predicate=ColumnRange("shipments", "sts", 3, 4)),
            time=4,
        )
        assert ranged.answers.rows == ((3,),)

    def test_nm_clauses_are_not_evaluated_for_free(self, database):
        """Residual predicates cost gates on the NM path too: the same
        query with clauses must charge strictly more than without, on
        both the live execution and the planner's estimate."""
        from repro.mpc.cost_model import DEFAULT_COST_MODEL
        from repro.query.planner import nm_join_gates

        unmatched = LogicalQuery.for_view(make_view(window_hi=3), COUNT)
        filtered = LogicalQuery.for_view(
            make_view(window_hi=3),
            COUNT,
            predicate=ColumnEquals("orders", "key", 3),
        )
        plain = database.query(unmatched, time=4)
        clause = database.query(filtered, time=4)
        assert plain.plan.kind == clause.plan.kind == NM_JOIN
        assert clause.observation.qet_seconds > plain.observation.qet_seconds
        base = nm_join_gates(DEFAULT_COST_MODEL, 100, 100, 2, 2)
        with_clauses = nm_join_gates(
            DEFAULT_COST_MODEL, 100, 100, 2, 2, n_clauses=2
        )
        assert with_clauses > base

    def test_nm_fallback_answers_identically(self, database):
        """An unmatched window forces NM; pre-noise cells must equal the
        plaintext ground truth (the NM join is exact)."""
        unmatched = LogicalQuery.for_view(
            make_view(window_hi=3),
            COUNT,
            SUM_STS,
            AVG_STS,
            group_by=GroupBySpec("orders", "key", (1, 2, 3)),
        )
        result = database.query(unmatched, time=4)
        assert result.plan.kind == NM_JOIN
        assert result.answers.rows == result.logical_answers.rows

    def test_avg_of_empty_group_is_zero(self, database):
        result = database.query(
            query_of(AVG_STS, group_by=GroupBySpec("orders", "key", (42,))),
            time=4,
        )
        assert result.answers.rows == ((0.0,),)


class TestPlanCache:
    def test_structurally_identical_queries_hit_the_cache(self, database):
        planner = database.planner
        q = query_of(COUNT, SUM_STS)
        # Only the first query of a shape misses: its execution warms the
        # accumulator cache, but a cold → warm transition re-prices the
        # cached structure, it does not evict it.
        database.query(q, time=4)
        before = planner.cache_info()
        database.query(query_of(COUNT, SUM_STS), time=4)
        after = planner.cache_info()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_different_predicates_plan_separately(self, database):
        planner = database.planner
        database.query(query_of(COUNT, predicate=ColumnEquals("orders", "key", 1)), 4)
        misses = planner.cache_info()["misses"]
        database.query(query_of(COUNT, predicate=ColumnEquals("orders", "key", 2)), 4)
        assert planner.cache_info()["misses"] == misses + 1

    def test_uploads_reprice_without_replanning(self, database):
        cold = database.query(query_of(COUNT), time=4).plan
        feed(database, 5, [[5, 5]], [[5, 5]])
        before = database.planner.cache_info()
        expected = fresh_plan(database, query_of(COUNT))
        plan = database.query(query_of(COUNT), time=5).plan
        info = database.planner.cache_info()
        assert info["hits"] == before["hits"] + 1
        assert info["misses"] == before["misses"]
        # ... and the hit is priced at the new sizes: the rows the step
        # appended past what the first execution left cached.
        assert plan == expected
        assert plan.warm and not cold.warm
        assert 0 < plan.estimated_gates < cold.estimated_gates

    def test_the_nm_plan_is_priced_once_per_base_store_size(
        self, database, monkeypatch
    ):
        from repro.server import planner as bound

        priced = []
        price = bound.price_nm_join

        def counting(*args):
            priced.append(args[1:3])
            return price(*args)

        monkeypatch.setattr(bound, "price_nm_join", counting)
        for _ in range(3):
            assert database.planner.plan(query_of(COUNT)) == fresh_plan(
                database, query_of(COUNT)
            )
        assert len(priced) == 1
        feed(database, 5, [[5, 5]], [])
        assert database.planner.plan(query_of(COUNT)) == fresh_plan(
            database, query_of(COUNT)
        )
        assert len(priced) == 2 and priced[0] != priced[1]

    def test_concurrent_readers_plan_at_the_sizes_they_read(self, database):
        """Read sessions plan concurrently and may race to store the NM
        price; whichever pair lands, every plan is the fresh plan."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for step in range(5, 9):
                expected = fresh_plan(database, query_of(COUNT))
                plans = []

                def plan_many() -> None:
                    plans.extend(
                        database.planner.plan(query_of(COUNT)) for _ in range(50)
                    )

                threads = [threading.Thread(target=plan_many) for _ in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert len(plans) == 300
                assert all(plan == expected for plan in plans)
                feed(database, step, [[step, step]], [[step, step]])
        finally:
            sys.setswitchinterval(interval)

    def test_a_hash_memoised_in_another_process_is_not_carried_over(
        self, database
    ):
        """``str`` hashes are salted per process: a query and its lowered
        scan plan pickled by a process with another hash seed must hash
        as this process's equal objects do, and hit both caches."""
        seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
        src = Path(__file__).resolve().parents[1] / "src"
        child = (
            "import pickle, sys\n"
            "from repro.query.ast import GroupBySpec\n"
            "from repro.query.rewrite import lower_to_view_scan\n"
            "from test_query_compiler import COUNT, SUM_STS, make_view, query_of\n"
            "q = query_of(COUNT, SUM_STS, group_by=GroupBySpec('orders', 'key', (1, 2)))\n"
            "plan = lower_to_view_scan(q, make_view())\n"
            "hash(q), hash(plan)\n"
            "sys.stdout.buffer.write(pickle.dumps((hash('orders'), q, plan)))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", child],
            env={
                **os.environ,
                "PYTHONHASHSEED": seed,
                "PYTHONPATH": os.pathsep.join([str(src), str(Path(__file__).parent)]),
            },
            capture_output=True,
            check=True,
        ).stdout
        salt, query, plan = pickle.loads(out)
        assert salt != hash("orders")  # the two processes hash differently
        twin = query_of(COUNT, SUM_STS, group_by=GroupBySpec("orders", "key", (1, 2)))
        assert hash(query) == hash(twin)
        assert hash(plan) == hash(lower_to_view_scan(twin, make_view()))

        database.query(twin, time=4)  # plans it, and warms its scan
        hits = database.planner.cache_hits
        database.planner.plan(query)
        assert database.planner.cache_hits == hits + 1
        view = database.views["full"].view
        assert database.accumulator_cache.lookup(view, plan) is not None

    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("upload"), st.integers(0, 3), st.integers(0, 2)),
                st.tuples(st.just("query"), st.integers(0, 3), st.booleans()),
                st.tuples(st.just("reshard"), st.integers(1, 3), st.just(0)),
            ),
            min_size=1,
            max_size=14,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_cached_plan_is_always_the_fresh_plan(self, script):
        """Whatever the interleaving of uploads, reshards and (cache-warming)
        executions, planning through the structural cache returns exactly
        what scoring every candidate from scratch returns."""
        db = IncShrinkDatabase(total_epsilon=2000.0, seed=3, nm_fallback=True)
        db.register_view(ViewRegistration(make_view(), mode="ep"))
        db.register_view(
            ViewRegistration(make_view("timed"), mode="dp-timer", timer_interval=2)
        )
        db.finalize()
        shapes = [
            query_of(COUNT),
            query_of(COUNT, SUM_STS, predicate=ColumnRange("shipments", "sts", 0, 9)),
            query_of(COUNT, group_by=GroupBySpec("orders", "key", (1, 2, 3))),
            # no view materializes this window: the NM fallback
            LogicalQuery.for_view(make_view("wide", 5), COUNT),
        ]
        time = 0
        for action, a, b in script:
            if action == "upload":
                time += 1
                feed(db, time, [[k, time] for k in range(1, a + 1)],
                     [[k, time] for k in range(1, b + 1)])
            elif action == "reshard":
                db.reshard(a)
            else:
                expected = fresh_plan(db, shapes[a])
                assert db.planner.plan(shapes[a]) == expected
                if b:  # executing warms the accumulator cache
                    assert db.query(shapes[a], time).plan == expected


class TestNoisyRelease:
    def test_epsilon_splits_across_aggregates_and_composes(self, database):
        eps = 0.9
        result = database.query(
            query_of(COUNT, AggregateSpec.sum_of("shipments", "sts", sensitivity=9.0)),
            time=4,
            epsilon=eps,
        )
        assert result.epsilon_spent == eps
        events = [
            e for e in database.accountant.events if str(e.name).startswith("query:")
        ]
        assert len(events) == 2
        assert sum(e.epsilon for e in events) == pytest.approx(eps)
        # Sensitivity-weighted split: the wide SUM takes the larger slice.
        by_name = {e.name: e.epsilon for e in events}
        assert by_name["query:sum_shipments_sts"] > by_name["query:count"]
        assert database.query_epsilon() == pytest.approx(eps)
        assert database.realized_epsilon() >= eps

    def test_noise_is_seeded_and_deterministic(self):
        a = build_database(seed=7).query(query_of(COUNT), 4, epsilon=0.5)
        b = build_database(seed=7).query(query_of(COUNT), 4, epsilon=0.5)
        assert a.answers.rows == b.answers.rows
        assert a.answers.rows[0][0] != 4  # it really is noised

    def test_pre_noise_queries_spend_nothing(self, database):
        database.query(query_of(COUNT, SUM_STS, AVG_STS), time=4)
        assert database.query_epsilon() == 0.0

    def test_avg_derived_from_noisy_sum_and_count_spends_nothing(self, database):
        """AVG alongside COUNT and SUM(x) is free post-processing: the
        budget splits over COUNT and SUM only, and the released AVG cell
        is exactly the ratio of the released (noisy) SUM and COUNT."""
        result = database.query(
            query_of(COUNT, SUM_STS, AVG_STS), time=4, epsilon=0.8
        )
        events = [
            e for e in database.accountant.events if str(e.name).startswith("query:")
        ]
        assert sorted(e.name for e in events) == [
            "query:count",
            "query:sum_shipments_sts",
        ]
        assert sum(e.epsilon for e in events) == pytest.approx(0.8)
        count_cell, sum_cell, avg_cell = result.answers.rows[0]
        expected = sum_cell / count_cell if count_cell > 0 else 0.0
        assert avg_cell == pytest.approx(expected)
        # And with a generous budget the noisy count stays positive, so
        # the ratio rule is observable directly.
        generous = build_database(seed=23)
        res = generous.query(query_of(COUNT, SUM_STS, AVG_STS), 4, epsilon=50.0)
        c, s, a = res.answers.rows[0]
        assert c > 0
        assert a == pytest.approx(s / c)

    def test_standalone_avg_is_released_at_its_own_slice(self, database):
        database.query(query_of(AVG_STS), time=4, epsilon=0.4)
        events = [
            e for e in database.accountant.events if str(e.name).startswith("query:")
        ]
        assert [e.name for e in events] == ["query:avg_shipments_sts"]
        assert events[0].epsilon == pytest.approx(0.4)

    def test_grouped_release_spends_once_but_charges_every_cell(self):
        """The whole slice is recorded regardless of grouping (cells
        compose sequentially inside it), and the per-cell noise grows
        with the domain: grouped cells are strictly noisier than the
        ungrouped release of the same aggregate at the same ε."""
        grouped_db = build_database(seed=11)
        flat_db = build_database(seed=11)
        grouped = grouped_db.query(
            query_of(COUNT, group_by=GroupBySpec("orders", "key", (1, 2, 3))),
            time=4,
            epsilon=0.5,
        )
        flat = flat_db.query(query_of(COUNT), time=4, epsilon=0.5)
        assert grouped_db.query_epsilon() == flat_db.query_epsilon() == 0.5
        # Same seed, same stream: first Laplace draw differs only by the
        # 3x scale of the grouped release.
        flat_noise = flat.answers.rows[0][0] - flat.logical_answers.rows[0][0]
        grouped_noise = (
            grouped.answers.rows[0][0] - grouped.logical_answers.rows[0][0]
        )
        assert grouped_noise == pytest.approx(3 * flat_noise)
