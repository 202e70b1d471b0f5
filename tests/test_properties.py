"""Property-based tests (hypothesis) on cross-cutting system invariants.

Module-local property tests live next to their units; this file holds
the whole-pipeline properties that span several modules.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import RecordBatch, Schema
from repro.core.view_def import JoinViewDefinition
from repro.experiments.harness import deploy_single_view, query_own_view
from repro.mpc.joint_noise import laplace_from_u32
from repro.oblivious.sort import apply_network, network_comparator_count
from repro.server.database import ViewRegistration


def small_view_def(omega: int, budget: int) -> JoinViewDefinition:
    return JoinViewDefinition(
        name="prop",
        probe_table="p",
        probe_schema=Schema(("k", "ts")),
        probe_key="k",
        probe_ts="ts",
        driver_table="d",
        driver_schema=Schema(("k", "ts")),
        driver_key="k",
        driver_ts="ts",
        window_lo=0,
        window_hi=3,
        omega=omega,
        budget=budget,
    )


steps_strategy = st.lists(
    st.tuples(
        st.lists(st.tuples(st.integers(1, 4), st.integers(0, 0)), max_size=3),
        st.lists(st.tuples(st.integers(1, 4), st.integers(0, 0)), max_size=2),
    ),
    min_size=1,
    max_size=6,
)


class TestEndToEndProperties:
    @given(steps_strategy, st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_ep_view_real_content_equals_window_joins(self, script, omega):
        """For any upload script, EP's view holds exactly the logical
        joins that fall inside the contribution window (here the window
        covers the whole horizon, so EP must be exact)."""
        vd = small_view_def(omega=omega, budget=omega * 10)
        database, view = deploy_single_view(
            ViewRegistration(vd, mode="ep"), epsilon=1.5
        )
        for t, (probe_rows, driver_rows) in enumerate(script, start=1):
            probe_rows = [[k, t] for k, _ in probe_rows]
            driver_rows = [[k, t] for k, _ in driver_rows]
            probe = RecordBatch(
                vd.probe_schema,
                np.asarray(probe_rows, dtype=np.uint32).reshape(-1, 2),
            ).padded_to(4)
            driver = RecordBatch(
                vd.driver_schema,
                np.asarray(driver_rows, dtype=np.uint32).reshape(-1, 2),
            ).padded_to(3)
            database.upload(t, {"p": probe, "d": driver})
            database.step(t)
        horizon = len(script)
        logical = vd.logical_join_count(
            database.logical.instance_at("p", horizon),
            database.logical.instance_at("d", horizon),
        )
        # ω can truncate when a key repeats more than ω times per step —
        # filter to the cases where truncation cannot bite.
        obs = query_own_view(database, view, horizon)
        if view.metrics.summary().query_count and logical <= omega:
            assert obs.l1 == 0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_joint_noise_mapping_total(self, z):
        """Every 32-bit word maps to a finite Laplace draw."""
        draw = laplace_from_u32(np.uint32(z), 1.0)
        assert np.isfinite(draw)
        assert abs(draw) < 32 * np.log(2) + 1  # -ln(2^-31) bound

    @given(st.integers(1, 512))
    @settings(max_examples=50, deadline=None)
    def test_sort_network_size_monotone(self, n):
        """More inputs never need fewer comparators."""
        assert network_comparator_count(n + 1) >= network_comparator_count(n)

    @given(
        st.lists(st.integers(0, 100), min_size=2, max_size=40),
    )
    @settings(max_examples=50, deadline=None)
    def test_sort_is_idempotent(self, values):
        keys = np.asarray(values, dtype=np.uint64)
        once, _ = apply_network(keys)
        twice, _ = apply_network(once)
        assert (once == twice).all()


class TestPaddingProperties:
    @given(
        st.integers(0, 6),
        st.integers(6, 12),
    )
    @settings(max_examples=30, deadline=None)
    def test_padded_batch_hides_real_count(self, n_real, capacity):
        """Two batches with different real counts but equal capacity are
        indistinguishable by public shape."""
        schema = Schema(("k", "ts"))
        rows_a = np.asarray([[i + 1, 1] for i in range(n_real)], dtype=np.uint32)
        rows_b = np.asarray([[9, 1]], dtype=np.uint32)
        a = RecordBatch(schema, rows_a.reshape(-1, 2)).padded_to(capacity)
        b = RecordBatch(schema, rows_b).padded_to(capacity)
        assert len(a) == len(b) == capacity
