"""XOR-based secret sharing over Z_{2^32} (paper Section 3, Appendix A.2).

The paper uses (2,2) XOR sharing for the two-server deployment and a
(k,k) generalisation for the multi-server extension (Section 8).  Shares
of ``x`` are ``x_1, ..., x_{k-1}`` uniform and ``x_k = x ⊕ x_1 ⊕ ... ⊕
x_{k-1}``; any strict subset of shares is uniform and independent of
``x`` (Lemma 9), while XOR-ing all of them recovers it.

All functions operate element-wise on ``uint32`` arrays so a whole table
column (or a whole table) is shared in one call.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..common.errors import ProtocolError
from ..common.rng import random_ring_elements


def share_array(values: np.ndarray, gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Split ``values`` into two XOR shares: ``(x1, x ⊕ x1)``.

    ``x1`` is sampled uniformly from Z_{2^32}, so each share on its own is
    a uniform array carrying no information about ``values``.
    """
    values = np.ascontiguousarray(values, dtype=np.uint32)
    x1 = random_ring_elements(gen, values.size).reshape(values.shape)
    x2 = values ^ x1
    return x1, x2


def recover_array(share0: np.ndarray, share1: np.ndarray) -> np.ndarray:
    """Recombine two XOR shares into the plaintext array."""
    if share0.shape != share1.shape:
        raise ProtocolError(
            f"share shapes differ: {share0.shape} vs {share1.shape}"
        )
    return (np.asarray(share0, dtype=np.uint32) ^ np.asarray(share1, dtype=np.uint32))


def share_array_k(values: np.ndarray, k: int, gen: np.random.Generator) -> list[np.ndarray]:
    """(k, k) XOR sharing: ``k-1`` uniform shares plus one correction share."""
    if k < 2:
        raise ProtocolError(f"(k,k) sharing requires k >= 2, got {k}")
    values = np.ascontiguousarray(values, dtype=np.uint32)
    shares = [
        random_ring_elements(gen, values.size).reshape(values.shape) for _ in range(k - 1)
    ]
    last = values.copy()
    for s in shares:
        last ^= s
    shares.append(last)
    return shares


def recover_array_k(shares: Sequence[np.ndarray]) -> np.ndarray:
    """Recombine a full set of (k, k) shares."""
    if len(shares) < 2:
        raise ProtocolError("need at least two shares to recover")
    out = np.asarray(shares[0], dtype=np.uint32).copy()
    for s in shares[1:]:
        out ^= np.asarray(s, dtype=np.uint32)
    return out


def reshare_from_contributions(
    value: np.ndarray, z0: np.ndarray, z1: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Re-share ``value`` inside MPC from server-contributed randomness.

    Implements the technique of Section 5.1 ("Secret-sharing inside MPC"):
    each server S_i contributes a uniform ``z_i``; the protocol internally
    computes ``c0 = z0 ⊕ z1`` and ``c1 = c0 ⊕ value``.  Neither server can
    predict or bias the resulting shares as long as the *other* server's
    contribution is honest-uniform, which is exactly the non-colluding
    assumption.

    The shares are written into the contribution buffers — ``z0`` becomes
    ``c0`` and ``z1`` becomes ``c1`` — so re-sharing allocates nothing.
    ``z0`` and ``z1`` must be writable ``uint32`` arrays of ``value``'s
    shape, freshly drawn and owned by the caller (the runtime's
    ``contribute_u32`` draws are).
    """
    np.bitwise_xor(z0, z1, out=z0)
    np.bitwise_xor(z0, value, out=z1)
    return z0, z1
