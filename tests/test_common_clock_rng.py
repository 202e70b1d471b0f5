"""Unit tests for RNG derivation."""

import numpy as np

from repro.common.rng import random_ring_elements, spawn


class TestSpawn:
    def test_deterministic(self):
        a = spawn(7, "x").integers(0, 1000, 5)
        b = spawn(7, "x").integers(0, 1000, 5)
        assert (a == b).all()

    def test_different_paths_differ(self):
        a = spawn(7, "server", 0).integers(0, 2**32, 16)
        b = spawn(7, "server", 1).integers(0, 2**32, 16)
        assert (a != b).any()

    def test_different_seeds_differ(self):
        a = spawn(1, "x").integers(0, 2**32, 16)
        b = spawn(2, "x").integers(0, 2**32, 16)
        assert (a != b).any()

    def test_string_and_int_labels_accepted(self):
        assert spawn(0, "a", 3, "b") is not None


class TestRingHelpers:
    def test_random_ring_elements_dtype_and_range(self):
        vals = random_ring_elements(spawn(0, "r"), 1000)
        assert vals.dtype == np.uint32
        assert len(vals) == 1000
