"""Tests for the plaintext sparse-vector mechanism (Algorithm 5)."""

import numpy as np
import pytest

from repro.common.errors import PrivacyBudgetError
from repro.common.rng import spawn
from repro.dp.svt import LocalNoiseSource, NumericAboveNoisyThreshold


def make_nant(epsilon=1.0, sensitivity=1.0, threshold=10.0, seed=0):
    return NumericAboveNoisyThreshold(
        epsilon, sensitivity, threshold, LocalNoiseSource(spawn(seed, "svt"))
    )


class TestNANT:
    def test_never_triggers_far_below_threshold(self):
        nant = make_nant(epsilon=50.0, threshold=1000.0)
        for c in range(20):
            assert nant.observe(c) is None

    def test_triggers_far_above_threshold(self):
        nant = make_nant(epsilon=50.0, threshold=5.0)
        out = nant.observe(1000.0)
        assert out is not None
        assert out == pytest.approx(1000.0, abs=5.0)

    def test_halts_after_release(self):
        nant = make_nant(epsilon=50.0, threshold=5.0)
        nant.observe(1000.0)
        with pytest.raises(PrivacyBudgetError, match="already released"):
            nant.observe(1.0)

    def test_budget_split_is_half_half(self):
        nant = make_nant(epsilon=2.0)
        assert nant.eps1 == pytest.approx(1.0)
        assert nant.eps2 == pytest.approx(1.0)

    def test_invalid_parameters(self):
        source = LocalNoiseSource(spawn(0, "svt"))
        with pytest.raises(PrivacyBudgetError):
            NumericAboveNoisyThreshold(0.0, 1.0, 5.0, source)
        with pytest.raises(PrivacyBudgetError):
            NumericAboveNoisyThreshold(1.0, 0.0, 5.0, source)

    def test_noisy_threshold_varies_with_randomness(self):
        thresholds = {make_nant(seed=s).noisy_threshold for s in range(5)}
        assert len(thresholds) > 1

    def test_release_noise_has_expected_scale(self):
        """Releases are count + Lap(Δ/ε₂); check spread over many runs."""
        errors = []
        for seed in range(400):
            nant = make_nant(epsilon=2.0, sensitivity=1.0, threshold=0.0, seed=seed)
            out = nant.observe(50.0)
            assert out is not None  # threshold 0 ⇒ always triggers
            errors.append(out - 50.0)
        errors = np.asarray(errors)
        # Lap(Δ/ε₂) = Lap(1.0): std = sqrt(2).
        assert errors.std() == pytest.approx(np.sqrt(2), rel=0.3)
