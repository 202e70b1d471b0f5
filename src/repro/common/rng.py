"""Deterministic randomness utilities.

Every stochastic component in the library (owner data streams, each MPC
server's local randomness, DP noise seeds) draws from an independently
seeded :class:`numpy.random.Generator` derived from a single experiment
seed.  This keeps whole-simulation runs reproducible while still modelling
*independent* randomness per principal, which the security arguments
require (e.g. joint noise generation assumes each server samples its
contribution independently).
"""

from __future__ import annotations

import numpy as np

#: Modulus of the secret-sharing ring Z_{2^32} used throughout the paper.
RING_BITS = 32
RING_MOD = 1 << RING_BITS


def spawn(seed: int, *path: object) -> np.random.Generator:
    """Derive an independent generator from ``seed`` and a label path.

    ``spawn(7, "server", 0)`` and ``spawn(7, "server", 1)`` return
    generators with statistically independent streams, stable across runs.
    """
    material = [seed] + [_label_to_int(p) for p in path]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(material)))


def _label_to_int(label: object) -> int:
    if isinstance(label, (int, np.integer)):
        return int(label) & 0xFFFFFFFF
    # Stable, platform-independent hash of the string form.
    acc = 2166136261
    for ch in str(label).encode("utf8"):
        acc = ((acc ^ ch) * 16777619) & 0xFFFFFFFF
    return acc


def random_ring_elements(gen: np.random.Generator, n: int) -> np.ndarray:
    """Sample ``n`` uniform elements of Z_{2^32} as ``uint32``."""
    return gen.integers(0, RING_MOD, size=n, dtype=np.uint32)


class RingWordStream:
    """The ring words of :func:`random_ring_elements`, at bit-generator speed.

    ``gen.integers(0, 2**32, n, dtype=uint32)`` calls PCG64's
    ``next_uint32`` once per word, which returns the low half of a fresh
    64-bit output and buffers the high half for the next call.  Taking
    ``random_raw(⌈n/2⌉)`` viewed as little-endian ``uint32`` yields the
    same words in the same order, in one C call instead of ``n``; an odd
    trailing high half is *held* here, in Python, and handed out first
    on the next draw — exactly where ``integers`` would have found it.

    The held half lives outside the bit generator, so
    :attr:`state` is the accessor pair that keeps the two views equal:
    reading it folds the half into numpy's ``has_uint32``/``uinteger``
    fields, and assigning it splits them back out.  A stream read through
    ``state`` therefore equals, dict for dict, a generator that drew the
    same sizes through :func:`random_ring_elements`.

    Not thread-safe: the held half is plain Python state.  Only
    whole-state protocol scopes (shard contexts refuse to draw) and
    owner sharing draw words, and the serving runtime runs both inside
    its ingest step under the exclusive write lock, where snapshots also
    read :attr:`state`; queries draw none.

    >>> a = RingWordStream(spawn(3, "doc"))
    >>> b = spawn(3, "doc")
    >>> all(
    ...     (a.draw(n) == random_ring_elements(b, n)).all() for n in (1, 0, 5, 2)
    ... ) and a.state == b.bit_generator.state
    True
    """

    __slots__ = ("gen", "_random_raw", "_has_half", "_half")

    def __init__(self, gen: np.random.Generator) -> None:
        #: the generator whose bit generator this stream draws from
        self.gen = gen
        self._random_raw = gen.bit_generator.random_raw
        self.state = gen.bit_generator.state

    def draw(self, n: int) -> np.ndarray:
        """The next ``n`` words, as a fresh writable ``uint32`` array."""
        if n <= 0:
            return np.empty(0, dtype=np.uint32)
        if not self._has_half:
            return self._draw_raw(n)
        self._has_half = False
        if n == 1:
            return np.array([self._half], dtype=np.uint32)
        out = np.empty(n, dtype=np.uint32)
        out[0] = self._half
        out[1:] = self._draw_raw(n - 1)
        return out

    def _draw_raw(self, n: int) -> np.ndarray:
        """``n >= 1`` words from fresh outputs, no half held on entry."""
        words = self._random_raw((n + 1) >> 1).astype("<u8", copy=False).view("<u4")
        # After a pair numpy's buffer slot still holds its last high half
        # (with ``has_uint32`` cleared); after an odd count it is live.
        self._half = int(words[-1])
        self._has_half = bool(n & 1)
        return words[:n]

    @property
    def state(self) -> dict:
        """The bit generator's state dict with the held half folded in."""
        state = self.gen.bit_generator.state
        state["has_uint32"] = int(self._has_half)
        state["uinteger"] = self._half
        return state

    @state.setter
    def state(self, value: dict) -> None:
        self._has_half = bool(value["has_uint32"])
        self._half = int(value["uinteger"])
        self.gen.bit_generator.state = {**value, "has_uint32": 0, "uinteger": 0}
