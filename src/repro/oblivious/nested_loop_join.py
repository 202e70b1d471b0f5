"""Truncated oblivious nested-loop join (paper Algorithm 4, Appendix A.1.2).

For each driver tuple the operator scans the entire probe table, appends a
(real or dummy) candidate per probe tuple, obliviously sorts the per-driver
intermediate so real joins come first, and cuts it to ``ω`` slots.  The
result is logically identical to the truncated sort-merge join for the
same inputs and caps, but the circuit is quadratic: ``n_driver × n_probe``
probes plus ``n_driver`` small sorts, instead of one big sort plus a
linear scan.

The operator exists (a) because the paper specifies it, and (b) as the
ablation point contrasting circuit shapes — see
``benchmarks/test_ablation_join.py``.
"""

from __future__ import annotations

import numpy as np

from ..mpc.runtime import ProtocolContext
from .join_common import JoinResult, emit_padded, match_pairs_truncated
from .sort import network_comparator_count
from .sort_merge_join import PairPredicate, _predicate_keep_mask


def truncated_nested_loop_join(
    ctx: ProtocolContext,
    probe_rows: np.ndarray,
    probe_flags: np.ndarray,
    probe_key_col: int,
    probe_caps: np.ndarray,
    driver_rows: np.ndarray,
    driver_flags: np.ndarray,
    driver_key_col: int,
    driver_caps: np.ndarray,
    omega: int,
    pair_predicate: PairPredicate | None = None,
    output_left: str = "probe",
) -> JoinResult:
    """Nested-loop variant of the ω-truncated join.

    Same signature and output layout as
    :func:`~repro.oblivious.sort_merge_join.truncated_sort_merge_join`:
    driver slot ``i`` owns output rows ``[i·ω, (i+1)·ω)``.
    """
    n_probe, w_probe = probe_rows.shape if probe_rows.size else (0, probe_rows.shape[1])
    n_driver, w_driver = (
        driver_rows.shape if driver_rows.size else (0, driver_rows.shape[1])
    )
    out_width = w_probe + w_driver

    # Candidate collection: Algorithm 4 scans T1 sequentially and, per
    # driver, the probe table in storage order.  The quadratic circuit is
    # charged in one multiplied-out call — every driver (real or dummy)
    # pays n_probe probes plus one size-n_probe sort-and-cut — and the
    # candidate scan itself is a broadcast key-equality matrix whose
    # row-major nonzero order reproduces the loop's visit order exactly.
    if n_driver:
        ctx.charge_join_probes(n_driver * n_probe, out_width)
        # Per-driver intermediate o_i is obliviously sorted then cut to ω
        # (Algorithm 4 lines 12-13); charge those sorts' comparators.
        ctx.charge_compare_exchanges(
            n_driver * network_comparator_count(n_probe), out_width
        )
    probe_live = np.asarray(probe_flags, dtype=bool)[:n_probe]
    driver_live = np.asarray(driver_flags, dtype=bool)[:n_driver]
    pair_mask = (
        (driver_rows[:, driver_key_col][:, None] == probe_rows[:, probe_key_col][None, :])
        & driver_live[:, None]
        & probe_live[None, :]
    )
    d_idx, p_idx = np.nonzero(pair_mask)
    if pair_predicate is not None and d_idx.size:
        keep = _predicate_keep_mask(
            pair_predicate, probe_rows[p_idx], driver_rows[d_idx]
        )
        d_idx, p_idx = d_idx[keep], p_idx[keep]
    match = match_pairs_truncated(
        d_idx, p_idx, driver_rows[:, driver_key_col], omega, driver_caps, probe_caps
    )
    return emit_padded(probe_rows, driver_rows, omega, output_left, match)
