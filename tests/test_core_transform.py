"""Tests for the Transform protocol (Algorithm 1)."""

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.common.errors import ProtocolError
from repro.common.types import RecordBatch
from repro.core.budget import ContributionLedger
from repro.core.transform import TransformProtocol
from repro.core.view_def import JoinViewDefinition
from repro.experiments.harness import MultiViewRunConfig, build_multiview_deployment
from repro.mpc.runtime import MPCRuntime
from repro.server.database import IncShrinkDatabase
from repro.storage.outsourced_table import OutsourcedTable
from repro.storage.secure_cache import SecureCache


@dataclass
class Pipeline:
    runtime: MPCRuntime
    view_def: JoinViewDefinition
    probe_store: OutsourcedTable
    driver_store: OutsourcedTable
    ledger: ContributionLedger
    transform: TransformProtocol
    cache: SecureCache

    def upload(self, time, probe_rows, driver_rows, probe_cap=4, driver_cap=3):
        for store, rows, cap in (
            (self.probe_store, probe_rows, probe_cap),
            (self.driver_store, driver_rows, driver_cap),
        ):
            batch = RecordBatch(
                store.schema,
                np.asarray(rows, dtype=np.uint32).reshape(-1, 2),
            ).padded_to(cap)
            shared = self.runtime.owner_share_table(
                store.schema, batch.rows, batch.is_real.astype(np.uint32)
            )
            store.append_batch(shared, time)


def make_pipeline(view_def, join_impl="sort-merge", seed=0) -> Pipeline:
    runtime = MPCRuntime(seed=seed)
    probe_store = OutsourcedTable(view_def.probe_schema, view_def.probe_table)
    driver_store = OutsourcedTable(view_def.driver_schema, view_def.driver_table)
    ledger = ContributionLedger(
        view_def.omega, view_def.budget, (probe_store, driver_store)
    )
    transform = TransformProtocol(
        runtime, view_def, probe_store, driver_store, ledger, join_impl
    )
    return Pipeline(
        runtime, view_def, probe_store, driver_store, ledger, transform,
        SecureCache(view_def.view_schema),
    )


class TestTransform:
    def test_counts_and_caches_new_view_entries(self, tiny_view_def):
        p = make_pipeline(tiny_view_def)
        p.upload(1, [[1, 1], [2, 1]], [[1, 2]])
        report = p.transform.run(1, p.cache)
        assert report.real_entries == 1  # (1,1) ⋈ (1,2) within window 2
        assert report.counter_value == 1
        assert report.cache_delta == tiny_view_def.omega * 3  # ω × driver capacity
        assert len(p.cache) == report.cache_delta

    def test_counter_accumulates_across_invocations(self, tiny_view_def):
        p = make_pipeline(tiny_view_def)
        p.upload(1, [[1, 1]], [[1, 1]])
        p.transform.run(1, p.cache)
        p.upload(2, [[2, 2]], [[2, 2]])
        report = p.transform.run(2, p.cache)
        assert report.counter_value == 2

    def test_probe_window_spans_budgeted_invocations(self, tiny_view_def):
        """b=6, ω=2 → a probe batch joins drivers for 3 invocations."""
        p = make_pipeline(tiny_view_def)
        p.upload(1, [[7, 1]], [])
        p.transform.run(1, p.cache)
        p.upload(2, [], [[7, 2]])
        r2 = p.transform.run(2, p.cache)
        assert r2.real_entries == 1  # still active at its 2nd invocation
        p.upload(3, [], [[7, 3]])
        r3 = p.transform.run(3, p.cache)
        assert r3.real_entries == 1  # 3rd (final) invocation, Δts=2 ok
        assert r3.counter_value == 2  # cumulative since no Shrink ran

    def test_retired_probe_no_longer_joins(self, tiny_view_def):
        p = make_pipeline(tiny_view_def)
        p.upload(1, [[7, 1]], [])
        p.transform.run(1, p.cache)
        for t in (2, 3):
            p.upload(t, [], [])
            p.transform.run(t, p.cache)
        # Budget exhausted after 3 invocations; a 4th-step driver with a
        # timestamp inside the window must find nothing.
        p.upload(4, [], [[7, 3]])
        report = p.transform.run(4, p.cache)
        assert report.real_entries == 0

    def test_truncation_drops_counted(self, tiny_view_def):
        """ω=2: a driver matching 3 probes drops one pair."""
        p = make_pipeline(tiny_view_def)
        p.upload(1, [[5, 1], [5, 1], [5, 1]], [[5, 2]])
        report = p.transform.run(1, p.cache)
        assert report.real_entries == 2
        assert report.dropped == 1

    def test_transcript_reveals_only_public_delta(self, tiny_view_def):
        p = make_pipeline(tiny_view_def)
        p.upload(1, [[1, 1], [2, 1]], [[1, 2]])
        p.transform.run(1, p.cache)
        events = p.runtime.transcript.of_protocol("transform")
        assert len(events) == 1
        assert set(events[0].payload) == {"cache_delta"}
        # The published size is the padded length, not the real count.
        assert events[0].payload["cache_delta"] == tiny_view_def.omega * 3

    def test_padded_delta_size_is_data_independent(self, tiny_view_def):
        sizes = []
        for rows in ([[1, 1]], [[1, 1], [2, 1], [3, 1], [4, 1]]):
            p = make_pipeline(tiny_view_def)
            p.upload(1, rows, [[1, 2]])
            report = p.transform.run(1, p.cache)
            sizes.append(report.cache_delta)
        assert sizes[0] == sizes[1]

    def test_missing_driver_batch_raises(self, tiny_view_def):
        p = make_pipeline(tiny_view_def)
        with pytest.raises(ProtocolError, match="no driver batch"):
            p.transform.run(1, p.cache)

    def test_nested_loop_impl_produces_same_counts(self, tiny_view_def):
        reports = []
        for impl in ("sort-merge", "nested-loop"):
            p = make_pipeline(tiny_view_def, join_impl=impl)
            p.upload(1, [[1, 1], [2, 1], [1, 1]], [[1, 2], [2, 3]])
            reports.append(p.transform.run(1, p.cache))
        assert reports[0].real_entries == reports[1].real_entries
        assert reports[0].dropped == reports[1].dropped

    def test_invalid_join_impl_rejected(self, tiny_view_def):
        p = make_pipeline(tiny_view_def)
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            TransformProtocol(
                p.runtime, tiny_view_def, p.probe_store, p.driver_store,
                p.ledger, join_impl="hash-join",
            )

    def test_simulated_seconds_positive(self, tiny_view_def):
        p = make_pipeline(tiny_view_def)
        p.upload(1, [[1, 1]], [[1, 2]])
        report = p.transform.run(1, p.cache)
        assert report.seconds > 0


# -- whole-deployment golden ---------------------------------------------------
GOLDEN_STEPS = Path(__file__).parent / "golden" / "transform_steps.json"

#: Deployments the golden covers: the ``bigview-*`` benchmark shape (one
#: dp-timer view, 4 shards) and the ``tpcds-small`` one (three views,
#: two Transform groups over one table pair with different bands), the
#: latter also through the nested-loop kernel.
GOLDEN_SHAPES = ("bigview", "tpcds-small", "tpcds-small/nested-loop")


def _digest(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _state(database) -> dict:
    # The cache is one table in append order; the record keeps the
    # per-shard form it was taken in, so the cache's k shards are its
    # strided faces: rows s, s + k, s + 2k, ….
    k = database.n_shards
    shares = {}
    for name, vr in database.views.items():
        cache = vr.cache.table
        cache_faces = [cache.take(slice(s, None, k)) for s in range(k)]
        for kind, tables in (("cache", cache_faces), ("view", vr.view.shards)):
            shares[f"{name}.{kind}"] = [
                [len(t), _digest(t.rows.share0, t.rows.share1,
                                 t.flags.share0, t.flags.share1)]
                for t in tables
            ]
    ledgers = {}
    for g, group in enumerate(database.groups.values()):
        for table in (group.probe_log.name, group.driver_log.name):
            columns = group.ledger.snapshot_state(table)
            ledgers[f"{g}.{table}"] = {
                "uses": columns["uses"].tolist(),
                "emitted": _digest(columns["emitted"].astype("<i8")),
            }
    runtime = database.runtime
    return {
        "shares": shares,
        "streams": [
            {k: v for k, v in server.words.state.items() if k != "bit_generator"}
            for server in (runtime.server0, runtime.server1)
        ],
        "ledgers": ledgers,
    }


def transform_steps_record(shape: str, n_steps: int = 30, seed: int = 3) -> dict:
    """One deployment as ``transform_steps.json`` stores it: after step
    ``n_steps - 1`` (caches full) and after step ``n_steps`` (the flush),
    every cache and view shard's shares (SHA-256), both servers' word
    streams and each ledger's ``uses`` and ``emitted`` columns; and every
    protocol run's gates."""
    join_impl = "nested-loop" if shape.endswith("/nested-loop") else "sort-merge"
    deployment = build_multiview_deployment(
        MultiViewRunConfig(
            dataset="tpcds", n_steps=n_steps, seed=seed, join_impl=join_impl
        )
    )
    database = deployment.database
    if shape == "bigview":
        database = IncShrinkDatabase(
            total_epsilon=database.total_epsilon, seed=seed, n_shards=4
        )
        database.register_view(deployment.database.registrations[0])
    states = {}
    for step in deployment.workload.steps:
        database.upload(step.time, deployment.upload_items(step))
        database.step(step.time)
        if step.time >= n_steps - 1:
            states[str(step.time)] = _state(database)
    runs = [[r.name, r.time, r.gates] for r in database.runtime.runs]
    return {"states": states, "runs": runs}


class TestGoldenTransformSteps:
    @pytest.mark.parametrize("shape", GOLDEN_SHAPES)
    def test_steps_reproduce_the_recorded_state(self, shape):
        """Recorded before Transform's one-pass rewrite: the padded
        deltas, the re-share draws, the charges and the ledger after 30
        steps must not move by a bit."""
        golden = json.loads(GOLDEN_STEPS.read_text())[shape]
        assert transform_steps_record(shape) == golden
