"""Oblivious sorting via Batcher's odd-even merge sorting network [5].

A sorting network performs a *fixed*, data-independent sequence of
compare-exchange operations, which is what makes it usable inside MPC:
the circuit topology depends only on the (public) input length.

**What is charged.**  :func:`oblivious_sort` charges the protocol's cost
model one compare-exchange gate cost per comparator of the network for
the padded input length (:func:`charge_oblivious_sort`).  The comparator
count is Batcher's closed form (:func:`network_comparator_count`); no
network is built to count it.

**What is computed.**  The simulator needs the permutation the network
would produce, not its intermediate wire values.  A correct sorting
network returns its input in ascending order, and when all keys are
*distinct* there is exactly one such order — so on tie-free keys the
permutation is one ``np.argsort`` and agrees with the network bit for
bit.  Every protocol caller sorts distinct keys by construction: the
join packs the original position into the key (:func:`composite_key`).

**The cache read's sort is a partition.**  Figure 3 sorts the cache on
``(¬isView, position)``.  Those keys are distinct and take only two
primary values, so their one ascending order is a stable partition —
real rows first, each side in position order.
:func:`oblivious_compact` charges that sort's network and computes the
partition directly (two :func:`np.flatnonzero` calls), with no key,
argsort or tie check, and with host work that does not depend on the
comparison pattern of the real/dummy bits.

**When the network runs.**  The order among *equal* keys is a property
of the particular network, so when the sorted keys contain a tie — and
only then — :func:`oblivious_sort` executes the network's
compare-exchanges (:func:`apply_network`).  The choice is made from the
keys alone; there is no switch.  :func:`batcher_network` and
:func:`apply_network` are the executable specification: the tests
compare the argsort path against them key for key, and their comparator
count against the closed form.

Inputs whose length is not a power of two are padded with a large
sentinel key (:data:`PAD_KEY`) up to the network's width; the padding
slots are recognised by index and cut off afterwards, so the charge is
that of the padded network, exactly as a real implementation would pay.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from ..mpc.runtime import ProtocolContext

#: Key the padding slots carry.  It sorts after every :func:`composite_key`
#: whose primary word is below 2^31, but a caller's uint64 key may equal or
#: exceed it, so nothing relies on its order: :func:`apply_network` is
#: correct for any key because it drops padding by slot index, never by
#: comparing against this value.
PAD_KEY = np.uint64(1 << 63)

#: Networks kept by :func:`batcher_network`'s cache.  Only tied keys and
#: the tests execute a network, so a handful of sizes is plenty; a
#: 16 384-wide network alone holds 12 MB of index arrays.
NETWORK_CACHE_SIZE = 4


@lru_cache(maxsize=NETWORK_CACHE_SIZE)
def batcher_network(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Compare-exchange stages of Batcher's odd-even mergesort for size ``n``.

    ``n`` must be a power of two.  Returns a tuple of stages; each stage is
    a pair of index arrays ``(i, j)`` whose comparators are disjoint and
    can be applied in parallel (vectorised).
    """
    if n <= 1:
        return ()
    if n & (n - 1):
        raise ValueError(f"network size must be a power of two, got {n}")
    stages: list[tuple[np.ndarray, np.ndarray]] = []
    p = 1
    while p < n:
        k = p
        while k >= 1:
            # Vectorized form of the classic double loop
            #   for j in range(k % p, n - k, 2k):
            #       for i in range(min(k, n - j - k)): ...
            # — an outer-product index grid masked to the loop bounds and
            # the same-block condition, flattened row-major so comparator
            # order matches the loops exactly.
            j = np.arange(k % p, n - k, 2 * k, dtype=np.int64)
            if j.size:
                i = np.arange(k, dtype=np.int64)
                lo = j[:, None] + i[None, :]
                # Same-block check: p is a power of two, so division by
                # 2p is a right shift.
                shift = (2 * p).bit_length() - 1
                keep = (i[None, :] < n - k - j[:, None]) & (
                    lo >> shift == (lo + k) >> shift
                )
                lo = lo[keep]
                if lo.size:
                    stages.append((lo, lo + k))
            k //= 2
        p *= 2
    return tuple(stages)


def network_comparator_count(n: int) -> int:
    """Number of compare-exchanges the network for ``n`` inputs performs.

    ``n`` is padded up to the next power of two ``m = 2^t`` first,
    because that is what execution does.  Batcher's odd-even mergesort
    on ``2^t`` inputs has ``(t² − t + 4)·2^(t−2) − 1`` comparators
    (0, 1, 5, 19, 63, …), so nothing is built to count them.
    """
    t = _next_pow2(n).bit_length() - 1
    return ((t * t - t + 4) << t) // 4 - 1


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length() if n > 1 else 1


def apply_network(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run the sorting network over ``keys``; return (sorted_keys, perm).

    ``perm`` is the permutation the comparators produced:
    ``sorted_keys == keys[perm]``.  Padding is added and removed here.
    """
    n = len(keys)
    m = _next_pow2(n)
    work = np.full(m, PAD_KEY, dtype=np.uint64)
    work[:n] = np.asarray(keys, dtype=np.uint64)
    idx = np.arange(m, dtype=np.int64)
    for lo, hi in batcher_network(m):
        a = work[lo]
        b = work[hi]
        swap = a > b
        work[lo] = np.where(swap, b, a)
        work[hi] = np.where(swap, a, b)
        ia = idx[lo]
        ib = idx[hi]
        idx[lo] = np.where(swap, ib, ia)
        idx[hi] = np.where(swap, ia, ib)
    keep = idx < n  # drop padding slots
    return work[keep][: n], idx[keep][: n]


def charge_oblivious_sort(ctx: ProtocolContext, n: int, payload_words: int) -> None:
    """Charge one oblivious sort of ``n`` tuples without performing it.

    The cost is ``comparators × compare_exchange_gates(payload_words)``,
    where ``payload_words`` is the total tuple width being swapped.  For
    circuits whose sorted order the simulator never reads (the NM join
    aggregates fold commutative accumulators), this is the whole sort.
    """
    ctx.charge_compare_exchanges(network_comparator_count(n), payload_words)


def oblivious_sort(
    ctx: ProtocolContext,
    keys: np.ndarray,
    payloads: Sequence[np.ndarray],
    payload_words: int,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Sort ``payloads`` by ``keys`` inside a protocol scope.

    All payload arrays receive the same permutation, and the cost model
    is charged as :func:`charge_oblivious_sort` describes.  Distinct
    keys have one sorted order, which an argsort finds; the order among
    tied keys is the network's own, so ties execute the network.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    charge_oblivious_sort(ctx, len(keys), payload_words)
    perm = keys.argsort()
    sorted_keys = keys[perm]
    if np.count_nonzero(sorted_keys[1:] == sorted_keys[:-1]):
        sorted_keys, perm = apply_network(keys)
    return sorted_keys, [p[perm] for p in payloads]


def oblivious_compact(
    ctx: ProtocolContext,
    flags: np.ndarray,
    payloads: Sequence[np.ndarray],
    payload_words: int,
) -> tuple[int, list[np.ndarray]]:
    """Move the flagged rows to the head, each side in its original order.

    The circuit is :func:`oblivious_sort` on the keys
    ``composite_key(¬flag, position)`` and is charged as exactly that
    sort (:func:`charge_oblivious_sort` of ``len(flags)`` tuples of
    ``payload_words``).  Those keys are distinct, so the network's output
    order is the unique ascending one: every flagged position in order,
    then every unflagged one — a stable partition, which
    :func:`np.flatnonzero` computes without building a key or comparing
    one.  Returns ``(count, permuted)``: after the permutation the flags
    read ``count`` ones followed by zeros, so the caller needs no gather
    of its own.

    >>> from repro.mpc.runtime import MPCRuntime
    >>> with MPCRuntime(seed=0).protocol("doc") as ctx:
    ...     count, [rows] = oblivious_compact(
    ...         ctx, np.array([0, 1, 0, 1], bool), [np.arange(4)], 2)
    >>> count, rows.tolist()
    (2, [1, 3, 0, 2])
    """
    flags = np.asarray(flags, dtype=bool)
    charge_oblivious_sort(ctx, len(flags), payload_words)
    head = np.flatnonzero(flags)
    perm = np.concatenate((head, np.flatnonzero(~flags)))
    return len(head), [np.take(p, perm, axis=0) for p in payloads]


def composite_key(primary: np.ndarray, secondary: np.ndarray) -> np.ndarray:
    """Pack two 32-bit columns into one uint64 sort key (primary major).

    Used to sort by join attribute with a deterministic tiebreak (e.g.
    "T1 records are ordered before T2 records" in Example 5.1).
    """
    return (np.asarray(primary, dtype=np.uint64) << np.uint64(32)) | np.asarray(
        secondary, dtype=np.uint64
    )
