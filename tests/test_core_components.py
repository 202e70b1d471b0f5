"""Tests for core components: counter, budget ledger, view definition."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.common.types import RecordBatch, Schema
from repro.core.budget import ContributionLedger
from repro.core.counter import SharedCounter
from repro.core.view_def import JoinViewDefinition
from repro.dp.accountant import theorem3_epsilon
from repro.server.database import IncShrinkDatabase, ViewRegistration


class TestSharedCounter:
    def test_starts_at_zero(self, runtime):
        counter = SharedCounter()
        with runtime.protocol("p") as ctx:
            assert counter.read(ctx) == 0

    def test_add_accumulates_across_protocols(self, runtime):
        counter = SharedCounter()
        with runtime.protocol("p1") as ctx:
            assert counter.add(ctx, 5) == 5
        with runtime.protocol("p2") as ctx:
            assert counter.add(ctx, 3) == 8
            assert counter.read(ctx) == 8

    def test_reset(self, runtime):
        counter = SharedCounter()
        with runtime.protocol("p") as ctx:
            counter.add(ctx, 7)
            counter.reset(ctx)
            assert counter.read(ctx) == 0

    def test_reshare_refreshes_share_material(self, runtime):
        """Adding 0 must still re-randomise the stored shares — a server
        diffing its share across rounds learns nothing."""
        counter = SharedCounter()
        with runtime.protocol("p") as ctx:
            counter.add(ctx, 5)
            before = counter._shares.share0.copy()
            counter.add(ctx, 0)
            after = counter._shares.share0
        assert (before != after).any()

    def test_charges_counter_circuit(self, runtime):
        counter = SharedCounter()
        with runtime.protocol("p") as ctx:
            counter.add(ctx, 1)
            assert ctx.gates >= runtime.cost_model.counter_update_gates()


def realized_by_the_full_map(ledger: ContributionLedger, eps_r: float) -> float:
    """Theorem 3 over every record ever uploaded — the oracle."""
    return theorem3_epsilon(ledger.theorem3_contributions(eps_r))


class TestRealizedEpsilonOverAStream:
    def test_running_epsilon_equals_theorem3_over_every_record(self):
        """Three views (two Transform groups), 60 steps, b // ω = 3 so
        batches exhaust in-stream, and a zero-row upload mid-stream:
        after **every** step the served ε is, bit for bit, Theorem 3
        evaluated over the map of every record ever uploaded."""
        probe, driver = Schema(("key", "ots")), Schema(("key", "sts"))

        def view(name, window_hi):
            return JoinViewDefinition(
                name=name, probe_table="orders", probe_schema=probe,
                probe_key="key", probe_ts="ots", driver_table="shipments",
                driver_schema=driver, driver_key="key", driver_ts="sts",
                window_lo=0, window_hi=window_hi, omega=2, budget=6,
            )  # fmt: skip

        db = IncShrinkDatabase(total_epsilon=0.7, seed=11)
        db.register_view(ViewRegistration(view("full", 2), mode="ep"))
        db.register_view(
            ViewRegistration(view("audit", 2), mode="dp-timer", timer_interval=2)
        )
        db.register_view(
            ViewRegistration(view("recent", 1), mode="dp-ant", ant_threshold=3.0)
        )
        gen = np.random.default_rng(3)

        def rows(n, t):
            keys = gen.integers(1, 6, size=n)
            return np.column_stack([keys, np.full(n, t)]).astype(np.uint32)

        seen = set()
        for t in range(1, 61):
            n_probe = 0 if t == 20 else 4  # t=20: a zero-row upload
            db.upload(
                t,
                {
                    "orders": RecordBatch(probe, rows(n_probe, t)),
                    "shipments": RecordBatch(driver, rows(3, t)),
                },
            )
            db.step(t)
            for name, vr in db.views.items():
                if vr.mode == "ep":
                    assert db.view_realized_epsilon(name) == 0.0
                    continue
                eps_r = vr.epsilon / vr.view_def.budget
                oracle = realized_by_the_full_map(vr.group.ledger, eps_r)
                assert db.view_realized_epsilon(name) == oracle
                seen.add(oracle)
        ledger = db.views["audit"].group.ledger
        assert ledger.window("orders")[0] > 0  # exhausted in-stream
        zero_rows = db.tables["orders"].batch_at(20)
        assert len(ledger.caps("orders", zero_rows, zero_rows + 1)) == 0
        assert len(seen) > 2  # the stream ramps ε up; not one constant


class TestJoinViewDefinition:
    def test_view_schema_prefixes(self, tiny_view_def):
        assert tiny_view_def.view_schema.fields == ("p_key", "p_ots", "d_key", "d_sts")

    def test_pair_predicate_window(self, tiny_view_def):
        probe = np.asarray([1, 10], dtype=np.uint32)
        assert tiny_view_def.pair_predicate(probe, np.asarray([1, 12], dtype=np.uint32))
        assert not tiny_view_def.pair_predicate(probe, np.asarray([1, 13], dtype=np.uint32))
        assert not tiny_view_def.pair_predicate(probe, np.asarray([1, 9], dtype=np.uint32))

    def test_logical_join_count(self, tiny_view_def):
        probe = np.asarray([[1, 10], [1, 11], [2, 10]], dtype=np.uint32)
        driver = np.asarray([[1, 12], [2, 15]], dtype=np.uint32)
        # (1,10)x(1,12): delta 2 ok; (1,11)x(1,12): delta 1 ok; (2,...) delta 5 no.
        assert tiny_view_def.logical_join_count(probe, driver) == 2

    def test_logical_join_rows_match_count(self, tiny_view_def):
        probe = np.asarray([[1, 10], [1, 11]], dtype=np.uint32)
        driver = np.asarray([[1, 12]], dtype=np.uint32)
        rows = tiny_view_def.logical_join_rows(probe, driver)
        assert rows.shape == (2, 4)

    def test_empty_inputs(self, tiny_view_def):
        empty_p = np.zeros((0, 2), dtype=np.uint32)
        empty_d = np.zeros((0, 2), dtype=np.uint32)
        assert tiny_view_def.logical_join_count(empty_p, empty_d) == 0
        assert len(tiny_view_def.logical_join_rows(empty_p, empty_d)) == 0

    def test_validation(self):
        kwargs = dict(
            name="x",
            probe_table="a",
            probe_schema=Schema(("k", "t")),
            probe_key="k",
            probe_ts="t",
            driver_table="b",
            driver_schema=Schema(("k", "t")),
            driver_key="k",
            driver_ts="t",
            window_lo=0,
            window_hi=1,
        )
        with pytest.raises(ConfigurationError):
            JoinViewDefinition(omega=0, budget=1, **kwargs)
        with pytest.raises(ConfigurationError):
            JoinViewDefinition(omega=5, budget=3, **kwargs)
        with pytest.raises(ConfigurationError):
            JoinViewDefinition(
                omega=1, budget=1, **{**kwargs, "window_lo": 5, "window_hi": 4}
            )
