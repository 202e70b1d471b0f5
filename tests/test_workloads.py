"""Tests for the synthetic workload generators."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.workload.cpdb import cpdb_view_def, make_cpdb_workload
from repro.workload.stream import Workload
from repro.workload.tpcds import make_tpcds_workload, tpcds_view_def
from repro.workload.variants import FIGURE9_SCALES, make_workload


class TestTpcdsWorkload:
    def test_deterministic_per_seed(self):
        a = make_tpcds_workload(seed=5, n_steps=20)
        b = make_tpcds_workload(seed=5, n_steps=20)
        for sa, sb in zip(a.steps, b.steps):
            assert (sa.probe.rows == sb.probe.rows).all()
            assert (sa.driver.rows == sb.driver.rows).all()

    def test_different_seeds_differ(self):
        a = make_tpcds_workload(seed=1, n_steps=20)
        b = make_tpcds_workload(seed=2, n_steps=20)
        assert any(
            (sa.probe.rows != sb.probe.rows).any()
            for sa, sb in zip(a.steps, b.steps)
        )

    def test_padded_batch_sizes_constant(self):
        wl = make_tpcds_workload(seed=0, n_steps=30)
        probe_sizes = {len(s.probe) for s in wl.steps}
        driver_sizes = {len(s.driver) for s in wl.steps}
        assert len(probe_sizes) == 1
        assert len(driver_sizes) == 1

    def test_view_rate_near_paper_figure(self):
        """The paper reports ≈2.7 new view entries per step for TPC-ds."""
        wl = make_tpcds_workload(seed=0, n_steps=400)
        assert 1.8 <= wl.average_view_rate() <= 3.6

    def test_returns_reference_existing_sales(self):
        wl = make_tpcds_workload(seed=0, n_steps=50)
        sale_pids = {int(p) for p in wl.all_probe_rows()[:, 0]}
        return_pids = {int(p) for p in wl.all_driver_rows()[:, 0]}
        assert return_pids <= sale_pids

    def test_view_def_parameters_match_paper(self):
        vd = tpcds_view_def()
        assert vd.omega == 1
        assert vd.budget == 10

    def test_recommended_timer_interval(self):
        wl = make_tpcds_workload(seed=0, n_steps=200)
        t = wl.recommended_timer_interval(theta=30.0)
        assert 8 <= t <= 17  # ⌊30/rate⌋ with rate ≈ 2-3.6


class TestCpdbWorkload:
    def test_view_rate_near_paper_figure(self):
        """The paper reports ≈9.8 new view entries per step for CPDB."""
        wl = make_cpdb_workload(seed=0, n_steps=300)
        assert 6.0 <= wl.average_view_rate() <= 14.0

    def test_multiplicity_exceeds_one(self):
        """Q2's join multiplicity > 1 is what exercises ω > 1."""
        wl = make_cpdb_workload(seed=0, n_steps=200)
        vd = wl.view_def
        probe = wl.all_probe_rows()
        driver = wl.all_driver_rows()
        per_probe = {}
        for row in probe:
            per_probe.setdefault(int(row[0]), 0)
        pairs = vd.logical_join_rows(probe, driver)
        for row in pairs:
            per_probe[int(row[0])] = per_probe.get(int(row[0]), 0)
        # At least one allegation joins 2+ awards.
        counts = {}
        for row in pairs:
            key = (int(row[0]), int(row[1]))
            counts[key] = counts.get(key, 0) + 1
        assert max(counts.values(), default=0) >= 2

    def test_view_def_parameters_match_paper(self):
        vd = cpdb_view_def()
        assert vd.omega == 10
        assert vd.budget == 20
        assert vd.driver_public

    def test_deterministic_per_seed(self):
        a = make_cpdb_workload(seed=3, n_steps=15)
        b = make_cpdb_workload(seed=3, n_steps=15)
        for sa, sb in zip(a.steps, b.steps):
            assert (sa.driver.rows == sb.driver.rows).all()

    def test_hot_fraction_validation(self):
        with pytest.raises(ConfigurationError):
            make_cpdb_workload(hot_fraction=1.5)


class TestVariantsAndScaling:
    def test_sparse_reduces_rate(self):
        std = make_workload("tpcds", seed=0, n_steps=200, variant="standard")
        sparse = make_workload("tpcds", seed=0, n_steps=200, variant="sparse")
        assert sparse.average_view_rate() < 0.4 * std.average_view_rate()

    def test_burst_increases_rate(self):
        # Spike steps are clamped by the fixed public capacity, so the
        # realised volume gain sits below the nominal spike multiplier.
        std = make_workload("tpcds", seed=0, n_steps=200, variant="standard")
        burst = make_workload("tpcds", seed=0, n_steps=200, variant="burst")
        assert burst.average_view_rate() > 1.3 * std.average_view_rate()

    def test_burst_is_bursty_not_just_bigger(self):
        """Burst concentrates arrivals into spike steps: the per-step
        variance-to-mean ratio must exceed the standard workload's."""
        import numpy as np

        def per_step_entries(wl):
            vd = wl.view_def
            probe = wl.all_probe_rows()
            counts = []
            for step in wl.steps:
                counts.append(
                    vd.logical_join_count(probe, step.driver.real_rows())
                )
            return np.asarray(counts, dtype=float)

        std = per_step_entries(
            make_workload("tpcds", seed=0, n_steps=150, variant="standard")
        )
        burst = per_step_entries(
            make_workload("tpcds", seed=0, n_steps=150, variant="burst")
        )
        assert burst.var() / max(burst.mean(), 1e-9) > std.var() / max(
            std.mean(), 1e-9
        )

    def test_variants_keep_padded_sizes(self):
        std = make_workload("tpcds", seed=0, n_steps=20, variant="standard")
        sparse = make_workload("tpcds", seed=0, n_steps=20, variant="sparse")
        assert len(std.steps[0].probe) == len(sparse.steps[0].probe)
        assert len(std.steps[0].driver) == len(sparse.steps[0].driver)

    def test_scale_grows_batches(self):
        one = make_workload("cpdb", seed=0, n_steps=10, scale=1.0)
        four = make_workload("cpdb", seed=0, n_steps=10, scale=4.0)
        assert len(four.steps[0].probe) > len(one.steps[0].probe)

    def test_figure9_scales_constant(self):
        assert FIGURE9_SCALES == (0.5, 1.0, 2.0, 4.0)

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ConfigurationError):
            make_workload("mysterydata")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigurationError):
            make_workload("tpcds", variant="tsunami")

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            make_workload("tpcds", scale=0)

    def test_omega_override_passes_through(self):
        wl = make_workload("cpdb", n_steps=5, omega=4, budget=8)
        assert wl.view_def.omega == 4
        assert wl.view_def.budget == 8


class TestWorkloadValidation:
    def test_needs_steps(self, tiny_view_def):
        with pytest.raises(ConfigurationError):
            Workload("w", tiny_view_def, [])

    def test_strictly_increasing_times(self):
        wl = make_tpcds_workload(seed=0, n_steps=5)
        times = [s.time for s in wl.steps]
        assert times == sorted(times)
        assert len(set(times)) == len(times)
