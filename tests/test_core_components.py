"""Tests for core components: counter, budget ledger, view definition."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError, ContributionBudgetError
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


class TestContributionLedger:
    def test_invocation_budget_lifecycle(self):
        ledger = ContributionLedger(omega=2, budget=6)
        ledger.register_batch("t", 1, n_rows=3)
        assert ledger.remaining_uses("t", 1) == 3
        ledger.charge_invocation("t", 1, at_time=1)
        ledger.charge_invocation("t", 1, at_time=2)
        ledger.charge_invocation("t", 1, at_time=3)
        assert ledger.remaining_uses("t", 1) == 0
        with pytest.raises(ContributionBudgetError, match="no remaining"):
            ledger.charge_invocation("t", 1, at_time=4)

    def test_caps_shrink_with_emissions(self):
        ledger = ContributionLedger(omega=2, budget=6)
        ledger.register_batch("t", 1, n_rows=2)
        assert ledger.caps("t", 1).tolist() == [6, 6]
        ledger.record_emissions("t", 1, np.asarray([2, 1]))
        assert ledger.caps("t", 1).tolist() == [4, 5]

    def test_per_invocation_emission_limit(self):
        ledger = ContributionLedger(omega=2, budget=6)
        ledger.register_batch("t", 1, n_rows=1)
        with pytest.raises(ContributionBudgetError, match="omega"):
            ledger.record_emissions("t", 1, np.asarray([3]))

    def test_lifetime_emission_limit(self):
        ledger = ContributionLedger(omega=2, budget=3)
        ledger.register_batch("t", 1, n_rows=1)
        ledger.record_emissions("t", 1, np.asarray([2]))
        with pytest.raises(ContributionBudgetError, match="lifetime"):
            ledger.record_emissions("t", 1, np.asarray([2]))

    def test_duplicate_registration_rejected(self):
        ledger = ContributionLedger(omega=1, budget=2)
        ledger.register_batch("t", 1, 1)
        with pytest.raises(ContributionBudgetError):
            ledger.register_batch("t", 1, 1)

    def test_unregistered_batch_rejected(self):
        ledger = ContributionLedger(omega=1, budget=2)
        with pytest.raises(ContributionBudgetError, match="never registered"):
            ledger.caps("t", 99)

    def test_emission_shape_mismatch_rejected(self):
        ledger = ContributionLedger(omega=1, budget=2)
        ledger.register_batch("t", 1, 2)
        with pytest.raises(ContributionBudgetError, match="shape"):
            ledger.record_emissions("t", 1, np.asarray([1]))

    def test_invalid_parameters(self):
        with pytest.raises(ContributionBudgetError):
            ContributionLedger(omega=0, budget=5)
        with pytest.raises(ContributionBudgetError):
            ContributionLedger(omega=5, budget=3)

    def test_theorem3_contributions_shape(self):
        ledger = ContributionLedger(omega=2, budget=4)
        ledger.register_batch("t", 1, n_rows=2)
        ledger.charge_invocation("t", 1, at_time=1)
        contributions = ledger.theorem3_contributions(per_release_epsilon=0.1)
        assert contributions[("t", 1, 0)] == [(2.0, 0.1)]
        assert contributions[("t", 1, 1)] == [(2.0, 0.1)]

    def test_max_lifetime_emissions(self):
        ledger = ContributionLedger(omega=2, budget=6)
        ledger.register_batch("t", 1, n_rows=2)
        ledger.record_emissions("t", 1, np.asarray([2, 0]))
        ledger.record_emissions("t", 1, np.asarray([1, 1]))
        assert ledger.max_lifetime_emissions() == 3


def realized_by_the_full_map(ledger: ContributionLedger, eps_r: float) -> float:
    """Theorem 3 over every record ever uploaded — the oracle."""
    return theorem3_epsilon(ledger.theorem3_contributions(eps_r))


class TestWorstContributions:
    """The ledger keeps Theorem 3's maximising record running; the full
    per-record map stays as the public form and the oracle."""

    EPS_R = 0.7 / 6  # no finite binary expansion

    def assert_worst_attains_the_maximum(self, ledger):
        full = ledger.theorem3_contributions(self.EPS_R)
        worst = ledger.worst_contributions(self.EPS_R)
        assert len(worst) <= 1 and worst.items() <= full.items()
        assert theorem3_epsilon(worst) == theorem3_epsilon(full)

    def test_tracks_the_most_charged_batch_that_holds_a_record(self):
        ledger = ContributionLedger(omega=2, budget=8)
        self.assert_worst_attains_the_maximum(ledger)
        assert ledger.worst_contributions(self.EPS_R) == {}
        ledger.register_batch("t", 1, n_rows=0)  # a zero-row upload
        ledger.register_batch("t", 2, n_rows=3)
        ledger.register_batch("u", 2, n_rows=1)
        for at_time in (2, 3, 4):
            ledger.charge_invocation("t", 1, at_time)
            # Charged most, but it holds no record: not in the map.
            self.assert_worst_attains_the_maximum(ledger)
        assert ledger.worst_contributions(self.EPS_R) == {}
        ledger.charge_invocation("u", 2, 2)
        ledger.charge_invocation("t", 2, 2)
        ledger.charge_invocation("t", 2, 3)
        self.assert_worst_attains_the_maximum(ledger)
        assert ledger.worst_contributions(self.EPS_R) == {
            ("t", 2, 0): [(2.0, self.EPS_R)] * 2
        }

    def test_rebuilt_by_restore(self):
        ledger = ContributionLedger(omega=1, budget=4)
        for time in (1, 2, 3):
            ledger.register_batch("t", time, n_rows=2)
            for at_time in range(time, 4):
                ledger.charge_invocation("t", time, at_time)
        restored = ContributionLedger(omega=1, budget=4)
        restored.restore_state(ledger.snapshot_state())
        self.assert_worst_attains_the_maximum(restored)
        assert theorem3_epsilon(
            restored.worst_contributions(self.EPS_R)
        ) == realized_by_the_full_map(ledger, self.EPS_R)
        # ... and restoring to an earlier, smaller state lowers it again.
        early = ledger.snapshot_state()
        early["groups"] = early["groups"][2:]
        restored.restore_state(early)
        self.assert_worst_attains_the_maximum(restored)
        assert len(restored.worst_contributions(self.EPS_R)[("t", 3, 0)]) == 1


class TestSettleWindow:
    """``settle_window`` ≡ ``charge_invocation`` + ``record_emissions`` per
    batch: same state after a clean window, same error after a bad one."""

    SIZES = (3, 0, 2, 4)

    def ledgers(self):
        pair = []
        for _ in range(2):
            ledger = ContributionLedger(omega=2, budget=5)
            for time, n_rows in enumerate(self.SIZES, start=1):
                ledger.register_batch("t", time, n_rows)
            pair.append(ledger)
        return pair

    @staticmethod
    def per_batch(ledger, times, at_time, counts):
        lo = 0
        for time in times:
            hi = lo + len(ledger.caps("t", time))
            ledger.charge_invocation("t", time, at_time)
            ledger.record_emissions("t", time, counts[lo:hi])
            lo = hi

    @staticmethod
    def state(ledger):
        return [
            (g["table"], g["time"], g["emitted"].tolist(), g["invocations"])
            for g in ledger.snapshot_state()["groups"]
        ]

    def test_clean_windows_leave_the_per_batch_state(self):
        gen = np.random.default_rng(5)
        window, oracle = self.ledgers()
        times = [1, 2, 3, 4]
        for at_time in (4, 5):
            caps = window.window_caps("t", times)
            assert caps.tolist() == np.concatenate(
                [oracle.caps("t", t) for t in times]
            ).tolist()
            counts = np.minimum(gen.integers(0, 3, size=caps.size), caps)
            window.settle_window("t", times, at_time, counts)
            self.per_batch(oracle, times, at_time, counts)
            assert self.state(window) == self.state(oracle)
            assert window.worst_contributions(0.1) == oracle.worst_contributions(0.1)
        assert window.window_caps("t", []).tolist() == []
        window.settle_window("t", [], 6, np.zeros(0, dtype=np.int64))
        assert self.state(window) == self.state(oracle)

    @pytest.mark.parametrize(
        "counts, message",
        [
            ([0, 0, 0, 0, 3, 0, 0, 0, 0], "omega"),  # batch 3 over ω
            ([1, 0, 0, 0, 0, 0, 0, 0, 2], "lifetime"),  # batch 4 over b
        ],
    )
    def test_a_bad_window_raises_the_per_batch_error(self, counts, message):
        window, oracle = self.ledgers()
        times = [1, 2, 3, 4]
        for ledger in (window, oracle):  # 4 of b=5 already emitted
            for _ in range(2):
                ledger.record_emissions("t", 4, np.asarray([0, 0, 0, 2]))
        counts = np.asarray(counts)
        with pytest.raises(ContributionBudgetError, match=message) as want:
            self.per_batch(oracle, times, 5, counts)
        with pytest.raises(ContributionBudgetError, match=message) as got:
            window.settle_window("t", times, 5, counts)
        assert str(got.value) == str(want.value)
        assert self.state(window) == self.state(oracle)  # stopped at the same batch

    def test_an_exhausted_batch_in_the_window_is_named(self):
        window, oracle = self.ledgers()
        zeros = np.zeros(sum(self.SIZES), dtype=np.int64)
        for at_time in (4, 5):  # b // ω = 2 uses
            window.settle_window("t", [1, 2, 3, 4], at_time, zeros)
            self.per_batch(oracle, [1, 2, 3, 4], at_time, zeros)
        window.register_batch("t", 5, 1)
        oracle.register_batch("t", 5, 1)
        with pytest.raises(ContributionBudgetError) as want:
            self.per_batch(oracle, [5, 3], 6, np.zeros(3, dtype=np.int64))
        with pytest.raises(ContributionBudgetError, match="t=3") as got:
            window.settle_window("t", [5, 3], 6, np.zeros(3, dtype=np.int64))
        assert str(got.value) == str(want.value)
        assert self.state(window) == self.state(oracle)

    def test_counts_must_cover_the_window(self):
        window, _ = self.ledgers()
        with pytest.raises(ContributionBudgetError, match="shape"):
            window.settle_window("t", [1, 3], 4, np.zeros(4, dtype=np.int64))
        with pytest.raises(ContributionBudgetError, match="never registered"):
            window.settle_window("t", [1, 99], 4, np.zeros(3, dtype=np.int64))


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
        assert ledger.remaining_uses("orders", 1) == 0  # exhausted in-stream
        assert len(ledger.caps("orders", 20)) == 0
        assert len(seen) > 2  # the stream ramps ε up; not one constant


class TestJoinViewDefinition:
    def test_window_invocations(self, tiny_view_def):
        assert tiny_view_def.window_invocations == 3  # b=6, ω=2

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
