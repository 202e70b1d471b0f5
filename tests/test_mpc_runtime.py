"""Tests for the simulated 2PC runtime: scoping, costs, transcript."""

import numpy as np
import pytest

from repro.common.errors import ProtocolError, SecurityError
from repro.common.types import Schema
from repro.mpc.cost_model import CostModel
from repro.mpc.runtime import MPCRuntime, Server
from repro.sharing.xor_sharing import share_array


class TestProtocolScoping:
    def test_reveal_inside_scope(self, runtime):
        shared = runtime.owner_share_table(
            Schema(("a",)),
            np.asarray([[5]], dtype=np.uint32),
            np.asarray([1], dtype=np.uint32),
        )
        with runtime.protocol("p") as ctx:
            rows, flags = ctx.reveal_table(shared)
        assert rows[0, 0] == 5
        assert flags[0]

    def test_reveal_after_scope_closes_raises(self, runtime):
        with runtime.protocol("p") as ctx:
            pass
        shared = runtime.owner_share_table(
            Schema(("a",)),
            np.asarray([[5]], dtype=np.uint32),
            np.asarray([1], dtype=np.uint32),
        )
        with pytest.raises(SecurityError, match="closed"):
            ctx.reveal_table(shared)

    def test_nested_protocols_rejected(self, runtime):
        with runtime.protocol("outer"):
            with pytest.raises(ProtocolError, match="do not nest"):
                with runtime.protocol("inner"):
                    pass

    def test_scope_reopens_after_exception(self, runtime):
        with pytest.raises(RuntimeError):
            with runtime.protocol("p"):
                raise RuntimeError("boom")
        # The runtime must recover: a new protocol can start.
        with runtime.protocol("q") as ctx:
            assert ctx.name == "q"

    def test_share_array_roundtrips(self, runtime):
        values = np.asarray([1, 2, 3], dtype=np.uint32)
        with runtime.protocol("p") as ctx:
            shared = ctx.share_array(values)
            assert (ctx.reveal(shared) == values).all()

    def test_share_table_roundtrips(self, runtime):
        schema = Schema(("a", "b"))
        rows = np.asarray([[1, 2]], dtype=np.uint32)
        with runtime.protocol("p") as ctx:
            t = ctx.share_table(schema, rows, np.asarray([1], dtype=np.uint32))
            out_rows, out_flags = ctx.reveal_table(t)
        assert (out_rows == rows).all()
        assert out_flags[0]


class TestShareTableStream:
    """One draw per generator must land on the shares two draws gave."""

    SHAPES = [(0, 2), (1, 1), (3, 4), (7, 3), (64, 5)]  # odd sizes included

    @staticmethod
    def _plain(n_rows, width):
        gen = np.random.default_rng(n_rows * 31 + width)
        rows = gen.integers(0, 1 << 32, size=(n_rows, width), dtype=np.uint32)
        return Schema(tuple(f"c{i}" for i in range(width))), rows, gen.integers(
            0, 2, size=n_rows
        ).astype(np.uint32)

    @staticmethod
    def _assert_same_shares(table, row_shares, flag_shares):
        assert np.array_equal(table.rows.share0, row_shares[0])
        assert np.array_equal(table.rows.share1, row_shares[1])
        assert np.array_equal(table.flags.share0, flag_shares[0])
        assert np.array_equal(table.flags.share1, flag_shares[1])

    def test_share_table_equals_rows_then_flags_in_two_draws(self):
        got_rt, ref_rt = MPCRuntime(seed=99), MPCRuntime(seed=99)
        with got_rt.protocol("p") as got, ref_rt.protocol("p") as ref:
            # Back to back on one stream: every table starts where the
            # previous one (often an odd number of words) left off.
            for shape in self.SHAPES:
                schema, rows, flags = self._plain(*shape)
                table = got.share_table(schema, rows, flags)
                ref_rows, ref_flags = ref.share_array(rows), ref.share_array(flags)
                self._assert_same_shares(
                    table,
                    (ref_rows.share0, ref_rows.share1),
                    (ref_flags.share0, ref_flags.share1),
                )
        for server in ("server0", "server1"):
            assert (
                getattr(got_rt, server).words.state
                == getattr(ref_rt, server).words.state
            )

    def test_owner_share_table_equals_rows_then_flags_in_two_draws(self):
        """The owners' ring-word stream against ``share_array`` on a plain
        generator (``Generator.integers``), draw for draw and state for
        state — odd sizes leave a half-word held between tables."""
        got_rt, ref_rt = MPCRuntime(seed=5), MPCRuntime(seed=5)
        ref_gen = ref_rt.owner_words.gen
        for shape in self.SHAPES:
            schema, rows, flags = self._plain(*shape)
            table = got_rt.owner_share_table(schema, rows, flags)
            self._assert_same_shares(
                table, share_array(rows, ref_gen), share_array(flags, ref_gen)
            )
            assert got_rt.owner_words.state == ref_gen.bit_generator.state

    def test_share_table_enters_each_server_once(self, runtime, monkeypatch):
        entered = []
        contribute = Server.contribute_u32

        def counting(self, n=1):
            entered.append(self.server_id)
            return contribute(self, n)

        monkeypatch.setattr(Server, "contribute_u32", counting)
        schema, rows, flags = self._plain(7, 3)
        with runtime.protocol("p") as ctx:
            ctx.share_table(schema, rows, flags)
        assert sorted(entered) == [0, 1]


class TestJointRandomness:
    def test_joint_uniform_changes_between_calls(self, runtime):
        with runtime.protocol("p") as ctx:
            a = ctx.joint_uniform_u32(8)
            b = ctx.joint_uniform_u32(8)
        assert (a != b).any()

    def test_joint_uniform_deterministic_per_seed(self):
        a = MPCRuntime(seed=9)
        b = MPCRuntime(seed=9)
        with a.protocol("p") as ca, b.protocol("p") as cb:
            assert (ca.joint_uniform_u32(4) == cb.joint_uniform_u32(4)).all()

    def test_servers_have_independent_streams(self, runtime):
        z0 = runtime.server0.contribute_u32(16)
        z1 = runtime.server1.contribute_u32(16)
        assert (z0 != z1).any()


class TestCostAccounting:
    def test_charges_accumulate_and_convert(self):
        model = CostModel(gates_per_second=1000.0)
        runtime = MPCRuntime(seed=0, cost_model=model)
        with runtime.protocol("p") as ctx:
            ctx.charge_gates(500)
            assert ctx.seconds == pytest.approx(0.5)
            ctx.charge_gates(500)
            assert ctx.seconds == pytest.approx(1.0)

    def test_runs_ledger_records_invocations(self, runtime):
        with runtime.protocol("alpha", time=3) as ctx:
            ctx.charge_gates(100)
        with runtime.protocol("beta", time=4) as ctx:
            ctx.charge_gates(200)
        names = [r.name for r in runtime.runs]
        assert names == ["alpha", "beta"]
        assert runtime.runs[0].time == 3
        assert runtime.runs[1].gates == 200

    def test_each_run_bills_its_own_seconds(self, runtime):
        with runtime.protocol("a") as ctx:
            ctx.charge_gates(runtime.cost_model.gates_per_second)  # 1 second
        with runtime.protocol("b") as ctx:
            ctx.charge_gates(2 * runtime.cost_model.gates_per_second)
        assert [(r.name, r.seconds) for r in runtime.runs] == [
            ("a", pytest.approx(1.0)),
            ("b", pytest.approx(2.0)),
        ]

    def test_charge_helpers_use_model_formulas(self, runtime):
        model = runtime.cost_model
        with runtime.protocol("p") as ctx:
            ctx.charge_compare_exchanges(3, payload_words=2)
            expected = 3 * model.compare_exchange_gates(2)
            assert ctx.gates == expected
            ctx.charge_scan(10, payload_words=4)
            expected += 10 * model.scan_row_gates(4)
            assert ctx.gates == expected
            ctx.charge_laplace()
            expected += model.laplace_gates
            assert ctx.gates == expected


class TestTranscript:
    def test_publish_records_public_events(self, runtime):
        with runtime.protocol("shrink", time=7) as ctx:
            ctx.publish("view-update", size=12)
        events = runtime.transcript.of_kind("view-update")
        assert len(events) == 1
        assert events[0].time == 7
        assert events[0].protocol == "shrink"
        assert events[0].payload == {"size": 12}

    def test_of_protocol_filter(self, runtime):
        with runtime.protocol("a") as ctx:
            ctx.publish("x")
        with runtime.protocol("b") as ctx:
            ctx.publish("x")
        assert len(runtime.transcript.of_protocol("a")) == 1
        assert len(runtime.transcript) == 2


class TestCostModelFormulas:
    def test_compare_exchange_scales_with_payload(self):
        m = CostModel()
        assert m.compare_exchange_gates(4) > m.compare_exchange_gates(1)

    def test_scan_row_scales_with_predicate(self):
        m = CostModel()
        assert m.scan_row_gates(2, predicate_words=3) > m.scan_row_gates(2, 1)

    def test_seconds_linear_in_gates(self):
        m = CostModel(gates_per_second=2.0)
        assert m.seconds(10) == pytest.approx(5.0)
