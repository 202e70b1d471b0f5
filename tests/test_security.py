"""Security boundary and failure-injection tests.

These validate the simulated threat model: the places where a real
deployment relies on cryptography are, here, guarded interfaces — and
crossing them must fail loudly, not silently leak.
"""

import numpy as np
import pytest

from repro.common.errors import (
    ContributionBudgetError,
    ProtocolError,
    SecurityError,
)
from repro.common.rng import spawn
from repro.common.types import RecordBatch, Schema
from repro.experiments.harness import RunConfig, deploy_single_view, run_experiment
from repro.mpc.runtime import MPCRuntime
from repro.server.database import ViewRegistration
from repro.sharing.shared_value import SharedArray


def deploy(view_def, mode, **knobs):
    """``(database, view)`` for one view in ``mode``."""
    return deploy_single_view(
        ViewRegistration(view_def, mode=mode, **knobs), epsilon=1.5
    )


def upload(database, view_def, t, probe, driver):
    database.upload(
        t, [(view_def.probe_table, probe), (view_def.driver_table, driver)]
    )


class TestShareConfidentiality:
    def test_single_server_share_store_is_uniform_noise(self, tiny_view_def):
        """What server 0 stores about an upload carries no signal: its
        share of a constant column should look uniform, not constant."""
        database, view = deploy(tiny_view_def, "otm")
        rows = np.asarray([[7, 1]] * 64, dtype=np.uint32)
        probe = RecordBatch(tiny_view_def.probe_schema, rows)
        driver = RecordBatch.empty(tiny_view_def.driver_schema).padded_to(3)
        upload(database, tiny_view_def, 1, probe, driver)
        share0 = view.group.probe_log.batch(0).rows.share0
        # 64 identical plaintext rows; shares must not repeat that way.
        assert len({int(v) for v in share0[:, 0]}) > 32

    def test_counter_shares_refresh_every_round(self, tiny_view_def):
        database, view = deploy(tiny_view_def, "dp-timer", timer_interval=1)
        driver = RecordBatch.empty(tiny_view_def.driver_schema).padded_to(3)
        probe = RecordBatch.empty(tiny_view_def.probe_schema).padded_to(4)
        snapshots = []
        for t in (1, 2, 3):
            upload(database, tiny_view_def, t, probe, driver)
            database.step(t)
            snapshots.append(int(view.group.transform.counter._shares.share0[0]))
        # Counter value is 0 throughout, yet the stored shares change.
        assert len(set(snapshots)) > 1


class TestProtocolBoundaries:
    def test_no_plaintext_reveal_outside_protocol(self, runtime):
        shared = runtime.owner_share_table(
            Schema(("a",)),
            np.asarray([[5]], dtype=np.uint32),
            np.asarray([1], dtype=np.uint32),
        )
        with runtime.protocol("p") as ctx:
            pass  # scope opens and closes
        with pytest.raises(SecurityError):
            ctx.reveal_table(shared)

    def test_share_array_outside_scope_raises(self, runtime):
        with runtime.protocol("p") as ctx:
            pass
        with pytest.raises(SecurityError):
            ctx.share_array(np.asarray([1], dtype=np.uint32))

    def test_joint_uniform_outside_scope_raises(self, runtime):
        with runtime.protocol("p") as ctx:
            pass
        with pytest.raises(SecurityError):
            ctx.joint_uniform_u32()

    def test_charging_outside_scope_raises(self, runtime):
        with runtime.protocol("p") as ctx:
            pass
        with pytest.raises(SecurityError):
            ctx.charge_gates(1)


class TestTamperingAndMisuse:
    def test_mismatched_share_shapes_rejected(self):
        with pytest.raises(ProtocolError):
            SharedArray(np.zeros(4, dtype=np.uint32), np.zeros(5, dtype=np.uint32))

    def test_truncated_share_store_detected_on_recover(self):
        arr = SharedArray.from_plain(np.arange(8, dtype=np.uint32), spawn(0, "s"))
        arr.share1 = arr.share1[:4]  # a corrupted/truncated store
        runtime = MPCRuntime(seed=0)
        with runtime.protocol("p") as ctx:
            with pytest.raises(ProtocolError):
                ctx.reveal(arr)

    def test_budget_exhaustion_blocks_further_use(self, tiny_view_def):
        """Running Transform past a batch's lifetime budget must fail
        inside the budget machinery, never silently reuse retired data."""
        database, view = deploy(tiny_view_def, "ep")
        probe = RecordBatch(
            tiny_view_def.probe_schema, np.asarray([[1, 1]], dtype=np.uint32)
        ).padded_to(4)
        empty_probe = RecordBatch.empty(tiny_view_def.probe_schema).padded_to(4)
        driver = RecordBatch.empty(tiny_view_def.driver_schema).padded_to(3)
        upload(database, tiny_view_def, 1, probe, driver)
        database.step(1)
        for t in (2, 3, 4, 5):
            upload(database, tiny_view_def, t, empty_probe, driver)
            database.step(t)
        # Batch from t=1 was active for exactly b//ω = 3 invocations.
        probe_table = tiny_view_def.probe_table
        ledger = view.group.ledger
        assert ledger.window(probe_table) == (3, 5)
        with pytest.raises(ContributionBudgetError, match="t=1"):
            ledger.settle(probe_table, 0, 1, 99, np.zeros(4, dtype=np.int64))

    def test_double_upload_same_time_rejected(self, tiny_view_def):
        database, _ = deploy(tiny_view_def, "otm")
        probe = RecordBatch.empty(tiny_view_def.probe_schema).padded_to(4)
        driver = RecordBatch.empty(tiny_view_def.driver_schema).padded_to(3)
        upload(database, tiny_view_def, 1, probe, driver)
        with pytest.raises(ProtocolError, match="one batch per table and time"):
            upload(database, tiny_view_def, 1, probe, driver)


class TestLeakageSurface:
    def test_transcript_contains_no_plaintext_rows(self, tiny_view_def):
        """Nothing resembling uploaded payloads may appear in any public
        event — the transcript is sizes, times, and booleans only."""
        database, _ = deploy(tiny_view_def, "dp-ant", ant_threshold=2.0)
        secret_value = 3_141_592
        probe = RecordBatch(
            tiny_view_def.probe_schema,
            np.asarray([[secret_value % (1 << 32), 1]], dtype=np.uint32),
        ).padded_to(4)
        driver = RecordBatch.empty(tiny_view_def.driver_schema).padded_to(3)
        upload(database, tiny_view_def, 1, probe, driver)
        database.step(1)
        for event in database.runtime.transcript:
            for value in event.payload.values():
                assert value != secret_value % (1 << 32)

    def test_dp_update_sizes_not_exact_counts_across_runs(self):
        """Aggregate check over seeds: released sizes differ from true
        window counts in the vast majority of updates (Laplace noise is
        continuous; ties are rounding flukes)."""
        exact = 0
        total = 0
        for seed in range(3):
            res = run_experiment(
                RunConfig(dataset="tpcds", mode="dp-timer", n_steps=40, seed=seed)
            )
            sizes = [
                e.payload["size"]
                for e in res.database.runtime.transcript.of_kind("view-update")
            ]
            total += len(sizes)
            exact += sum(1 for s in sizes if s == 0)
        assert total > 0
        assert exact < total  # not all updates degenerate
