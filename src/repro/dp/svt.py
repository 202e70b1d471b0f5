"""Numeric Above Noisy Threshold in plaintext — the sparse vector technique.

Algorithm 5 of the paper (restated): split ε into ε₁ = ε₂ = ε/2; perturb
the threshold once with Laplace noise; each step perturb the running
count and compare against the noisy threshold; on the first crossing,
release the count with fresh Laplace noise and stop.

This is the trusted-curator SVT: :class:`~repro.core.dpsync.DPAboveThresholdOwnerSync`
re-arms it after every release, and the statistical tests check it.
sDPANT (:mod:`repro.core.shrink_ant`) runs the same steps inside MPC on
joint noise and does not use this module.

The noise scales follow Algorithm 3's ``JointNoise`` calls (the executable
protocol): threshold noise ``Lap(2Δ/ε₁)``, per-step comparison noise
``Lap(4Δ/ε₁)``, and release noise ``Lap(Δ/ε₂)``.  (Algorithm 5's prose
uses ``2Δ/ε₂`` for the release; we follow the protocol pseudocode and note
the discrepancy here.)

The mechanism is noise-source agnostic: anything exposing
``laplace(scale) -> float`` (:class:`LocalNoiseSource` wraps a numpy
generator).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from ..common.errors import PrivacyBudgetError
from .laplace import laplace_noise


class NoiseSource(Protocol):
    """Anything that can draw a centred Laplace sample with a given scale."""

    def laplace(self, scale: float) -> float: ...


@dataclass
class LocalNoiseSource:
    """Trusted-curator noise source backed by a numpy generator."""

    gen: np.random.Generator

    def laplace(self, scale: float) -> float:
        return float(laplace_noise(self.gen, scale))


class NumericAboveNoisyThreshold:
    """One-shot SVT instance: halts after its first release.

    Parameters
    ----------
    epsilon:
        Total privacy budget of this instance.
    sensitivity:
        Query sensitivity Δ (the contribution bound ``b`` in IncShrink).
    threshold:
        The public target θ the noisy count is compared against.
    noise:
        Laplace sampler (joint inside MPC, local in tests).
    """

    def __init__(
        self,
        epsilon: float,
        sensitivity: float,
        threshold: float,
        noise: NoiseSource,
    ) -> None:
        if epsilon <= 0:
            raise PrivacyBudgetError(f"epsilon must be positive, got {epsilon}")
        if sensitivity <= 0:
            raise PrivacyBudgetError(f"sensitivity must be positive, got {sensitivity}")
        self.epsilon = epsilon
        self.sensitivity = sensitivity
        self.threshold = threshold
        self._noise = noise
        self.eps1 = epsilon / 2.0
        self.eps2 = epsilon / 2.0
        self.noisy_threshold = threshold + noise.laplace(2.0 * sensitivity / self.eps1)
        self.halted = False

    def observe(self, count: float) -> float | None:
        """Feed the current running count; return the release if triggered.

        Returns ``None`` while below the noisy threshold.  Raises if the
        instance already released (its budget is spent).
        """
        if self.halted:
            raise PrivacyBudgetError(
                "this NANT instance already released; create a fresh one"
            )
        noisy_count = count + self._noise.laplace(4.0 * self.sensitivity / self.eps1)
        if noisy_count >= self.noisy_threshold:
            self.halted = True
            return count + self._noise.laplace(self.sensitivity / self.eps2)
        return None
