"""Gate-level cost model for the simulated two-party computation.

The paper's prototype compiles Transform/Shrink to garbled circuits with
EMP-Toolkit; execution time there is dominated by the number of non-free
(AND) gates evaluated, which in turn is dominated by oblivious sorting
networks and padded linear scans.  We charge every oblivious operation
its asymptotically exact gate count and convert gates to *simulated
seconds* through a single throughput constant.

The default throughput (5 million AND gates/second) is in the range
reported for semi-honest EMP on commodity LAN setups and was chosen so
that a full paper-scale run (daily TPC-ds batches of ~1.2k rows over five
years) lands near the paper's reported Transform time (~10 s/invocation).
Because every candidate system is priced by the same model, the
*ratios* the evaluation section reports (NM vs EP vs DP) are insensitive
to the constant.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.rng import RING_BITS


@dataclass(frozen=True)
class CostModel:
    """Converts oblivious-operation counts into gates and seconds.

    Parameters
    ----------
    gates_per_second:
        Simulated AND-gate throughput of the 2PC engine.
    compare_gates_per_bit:
        AND gates to compare two ring words, per bit (a standard
        less-than circuit uses ~1 AND/bit; we budget 2 to cover the
        equality logic fused into compare-exchange).
    mux_gates_per_bit:
        AND gates to conditionally swap one bit (one AND per output bit).
    laplace_gates:
        Fixed circuit size of the joint noise sampler: fixed-point ``ln``
        plus sign handling.  A constant because input size is constant.
    max_parallel_workers:
        Simulated evaluator lanes the deployment can run concurrently —
        the cap on how many shard scans overlap.  A sharded query's
        wall-clock estimate divides the serial time by
        :meth:`effective_workers`; shard counts beyond the cap still
        split the data but no longer shorten the critical path.
    """

    gates_per_second: float = 5.0e6
    compare_gates_per_bit: int = 2
    mux_gates_per_bit: int = 1
    laplace_gates: int = 20_000
    max_parallel_workers: int = 8

    # -- primitive costs -------------------------------------------------
    def compare_exchange_gates(self, payload_words: int, key_words: int = 1) -> int:
        """Gates for one compare-exchange on tuples of ``payload_words``.

        A compare-exchange comprises a key comparison plus a conditional
        swap of both full tuples (2 × payload bits of muxing).
        """
        cmp_g = key_words * RING_BITS * self.compare_gates_per_bit
        mux_g = 2 * payload_words * RING_BITS * self.mux_gates_per_bit
        return cmp_g + mux_g

    def scan_row_gates(self, payload_words: int, predicate_words: int = 1) -> int:
        """Gates to evaluate one row of a padded oblivious scan.

        Covers predicate evaluation over ``predicate_words`` columns, the
        isView conjunction, and a ripple-carry accumulate.
        """
        pred_g = predicate_words * RING_BITS * self.compare_gates_per_bit
        flag_g = RING_BITS * self.mux_gates_per_bit
        acc_g = RING_BITS  # 32-bit adder
        return pred_g + flag_g + acc_g

    def join_probe_gates(self, payload_words: int) -> int:
        """Gates to test one candidate pair in a join scan and emit a row."""
        eq_g = RING_BITS * self.compare_gates_per_bit  # key equality
        filt_g = RING_BITS * self.compare_gates_per_bit  # temporal predicate
        emit_g = payload_words * RING_BITS * self.mux_gates_per_bit
        return eq_g + filt_g + emit_g

    def counter_update_gates(self) -> int:
        """Gates to recover, increment, and re-share the cardinality counter."""
        return 4 * RING_BITS

    def predicate_eval_gates(self, n_clauses: int) -> int:
        """Gates to evaluate ``n_clauses`` residual interval clauses once.

        One ring-word comparison per clause — the same per-word charge
        the padded scan's ``predicate_words`` term and the join probe's
        temporal predicate use, so residual predicates cost the same
        wherever they are evaluated (view scan row or NM join pair).
        """
        return n_clauses * RING_BITS * self.compare_gates_per_bit

    def aggregate_slot_gates(
        self,
        need_count: bool,
        n_sum_columns: int,
        n_groups: int = 1,
        grouped: bool = False,
    ) -> int:
        """Extra per-row gates of a multi-aggregate scan beyond the base touch.

        :meth:`scan_row_gates` already includes one 32-bit accumulator —
        the COUNT slot of the paper's original padded counting scan.  A
        unified scan computing several aggregates over several GROUP BY
        cells in one pass pays, per row, for everything beyond that:

        * one further 32-bit count accumulator per *additional* group
          (the first group's count rides on the base charge);
        * one 64-bit accumulator per distinct summed column per group
          (sums live in Z_{2^64});
        * when grouping, one ring-word equality test per group cell to
          obliviously route the row into its accumulator set (the group
          key is secret, so every row is tested against every public
          domain value).

        COUNT, SUM and AVG aggregates of one query share these slots: AVG
        is SUM/COUNT over the same accumulators, and any number of COUNTs
        costs one slot — that sharing is where the single-scan
        multi-aggregate speedup comes from.
        """
        gates = 0
        if need_count and n_groups > 1:
            gates += (n_groups - 1) * RING_BITS
        gates += 64 * n_sum_columns * n_groups
        if grouped:
            gates += n_groups * RING_BITS * self.compare_gates_per_bit
        return gates

    # -- conversion --------------------------------------------------------
    def seconds(self, gates: int | float) -> float:
        """Simulated wall-clock seconds for ``gates`` AND gates."""
        return float(gates) / self.gates_per_second

    def effective_workers(self, n_shards: int) -> int:
        """Evaluator lanes a scan over ``n_shards`` shards actually uses."""
        return max(1, min(int(n_shards), self.max_parallel_workers))

    def parallel_seconds(self, gates: int | float, n_shards: int = 1) -> float:
        """Wall-clock estimate of ``gates`` spread over ``n_shards`` shards.

        ``gates / (throughput × effective_workers)``: the round-robin
        layout balances shard sizes to within one row, so the critical
        path is the serial time divided by the usable lanes.  One shard
        degenerates to :meth:`seconds` exactly — single-shard deployments
        price (and report) identically to the pre-sharding engine.
        """
        return self.seconds(gates) / self.effective_workers(n_shards)


#: Model used throughout unless an experiment overrides it.
DEFAULT_COST_MODEL = CostModel()
