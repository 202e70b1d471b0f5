"""Simulated two-party secure computation runtime.

This module stands in for the EMP-Toolkit deployment of the paper.  The
simulation is faithful in the three ways that matter for reproducing the
evaluation:

1. **Data flow** — servers only ever hold XOR shares.  Plaintext exists
   exclusively inside a *protocol scope* (the analogue of a garbled
   circuit evaluation): :meth:`ProtocolContext.reveal` recombines shares,
   and calling it outside a scope raises
   :class:`~repro.common.errors.SecurityError`.  The scan kernel's reveal,
   :meth:`ProtocolContext.reveal_columns`, recombines one block of the
   columns a plan names and learns which of its rows are real by
   comparing the two flag shares (``f0 != f1`` is ``f0 ^ f1 != 0``), so
   the flag words are never recombined; a process worker's
   :class:`WorkerShardContext` offers the same reveal.

2. **Obliviousness** — everything executed inside a scope uses
   data-independent algorithms (sorting networks, exhaustively padded
   scans) whose operation sequence depends only on public sizes, so the
   simulated access pattern equals the real one.

3. **Cost** — every oblivious operation charges its exact gate count to a
   :class:`~repro.mpc.cost_model.CostModel`; protocol runtimes reported by
   experiments are ``gates / throughput`` seconds.

Each :class:`Server` owns an independent RNG used for its randomness
contributions (joint noise, in-MPC resharing), mirroring the paper's
requirement that no single party controls protocol randomness.  Those
streams, and the owners' sharing stream, are drawn through
:class:`~repro.common.rng.RingWordStream`: raw PCG64 outputs cut into
ring words, the exact words ``Generator.integers`` would return, with
the state read and restored through its ``state`` accessor.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..common.errors import ProtocolError, SecurityError
from ..common.rng import RingWordStream, spawn
from ..common.types import Schema
from ..sharing.shared_value import SharedArray, SharedTable
from ..sharing.xor_sharing import reshare_from_contributions
from .cost_model import DEFAULT_COST_MODEL, CostModel
from .transcript import Transcript


def _recombine_columns(
    table: SharedTable,
    columns: Sequence[int],
    start: int,
    stop: int,
    out: np.ndarray,
    live: np.ndarray | None = None,
) -> None:
    """XOR rows ``[start, stop)`` of ``columns`` into ``out``, and mark
    the real rows among them in ``live``.

    Row ``j`` of ``out`` receives column ``columns[j]``; only the first
    ``stop - start`` positions of each are written.  ``live`` (when
    given) receives whether each row is real: its two flag shares
    differ, the same test as ``f0 ^ f1 != 0``, so no flag word is
    recombined.  Nothing is allocated, and no word of a column the
    caller did not name is touched.
    """
    m = stop - start
    rows0, rows1 = table.rows.share0, table.rows.share1
    for j, column in enumerate(columns):
        np.bitwise_xor(
            rows0[start:stop, column], rows1[start:stop, column], out=out[j, :m]
        )
    if live is not None:
        np.not_equal(
            table.flags.share0[start:stop],
            table.flags.share1[start:stop],
            out=live[:m],
        )


@dataclass
class Server:
    """One of the two non-colluding outsourcing servers.

    Holds only an identifier and a private randomness source.  Shares
    themselves live in :class:`~repro.sharing.shared_value.SharedArray`
    pairs; slot 0 of every pair belongs to server 0 and slot 1 to
    server 1.
    """

    server_id: int
    words: RingWordStream

    def contribute_u32(self, n: int = 1) -> np.ndarray:
        """Fresh uniform ring elements for a joint-randomness protocol.

        A new writable array each call (callers XOR into it in place),
        drawn as :class:`~repro.common.rng.RingWordStream` describes:
        the words ``gen.integers(0, 2**32, n, dtype=uint32)`` would give.
        """
        return self.words.draw(n)


@dataclass
class ProtocolRun:
    """Bookkeeping for one completed protocol invocation."""

    name: str
    time: int
    gates: int
    seconds: float


class ProtocolContext:
    """Handle available while a secure protocol is executing.

    Created by :meth:`MPCRuntime.protocol`; all reveal/share/charge
    operations of oblivious operators go through this object.
    """

    def __init__(
        self,
        runtime: "MPCRuntime",
        name: str,
        time: int,
        shard: tuple[int, int] | None = None,
    ) -> None:
        self._runtime = runtime
        self.name = name
        self.time = time
        #: ``(shard_index, n_shards)`` when this context evaluates one
        #: shard of a parallel protocol; None for whole-state protocols.
        self.shard = shard
        self.gates = 0
        self._open = True

    # -- lifecycle --------------------------------------------------------
    def __enter__(self) -> "ProtocolContext":
        runtime = self._runtime
        if runtime._active is not None:
            raise ProtocolError(
                f"protocol {runtime._active.name!r} is already executing; "
                "protocols are independent circuits and do not nest"
            )
        runtime._active = self
        return self

    def __exit__(self, *exc_info) -> None:
        self._close()
        runtime = self._runtime
        runtime._active = None
        runtime.runs.append(ProtocolRun(self.name, self.time, self.gates, self.seconds))

    def _close(self) -> None:
        self._open = False

    def _describe(self) -> str:
        if self.shard is None:
            return f"protocol scope {self.name!r}"
        index, total = self.shard
        return f"protocol scope {self.name!r} (shard {index + 1}/{total})"

    def _require_open(self, operation: str = "plaintext operation") -> None:
        if not self._open:
            raise SecurityError(
                f"{operation} on {self._describe()} rejected: the scope is "
                "already closed, and plaintext operations are permitted "
                "only while the protocol is executing"
            )

    def _require_unsharded(self, operation: str) -> None:
        """Randomness-consuming operations are whole-state only.

        Shard contexts of a parallel protocol run on worker threads;
        letting them draw from the servers' RNG streams would interleave
        ``contribute_u32`` calls nondeterministically across threads and
        silently break the byte-identical-restore guarantee.  Fail loudly
        instead.
        """
        if self.shard is not None:
            raise ProtocolError(
                f"{operation} on {self._describe()} rejected: shard "
                "contexts are reveal/charge surfaces only — "
                "randomness-consuming operations must run in a "
                "whole-state protocol scope so the servers' RNG streams "
                "stay deterministic"
            )

    # -- plaintext boundary -------------------------------------------------
    def reveal(self, shared: SharedArray) -> np.ndarray:
        """Recombine shares inside the protocol (never leaves the scope)."""
        self._require_open("reveal")
        return shared._recover()

    def reveal_table(self, table: SharedTable) -> tuple[np.ndarray, np.ndarray]:
        """Recombine a shared table into ``(rows, flag_bits)``."""
        self._require_open("reveal_table")
        rows = table.rows._recover()
        flags = table.flags._recover().astype(bool)
        return rows, flags

    def reveal_columns(
        self,
        table: SharedTable,
        columns: Sequence[int],
        start: int,
        stop: int,
        out: np.ndarray,
        live: np.ndarray | None = None,
    ) -> None:
        """Recombine one block of the named columns, and which rows are real.

        The scan kernel's reveal: rows ``[start, stop)`` of each of
        ``columns`` into ``out[j]``, and into ``live`` (when given)
        whether each row's two flag shares differ — the row is real
        exactly when they do, so the flag words themselves are never
        recombined.  Both are caller-owned scratch, so the plaintext of
        a block exists only until the next block overwrites it, and the
        columns a plan does not read are never recombined at all.
        """
        self._require_open("reveal_columns")
        _recombine_columns(table, columns, start, stop, out, live)

    def share_array(self, values: np.ndarray) -> SharedArray:
        """Re-share protocol-internal plaintext using joint randomness.

        The mask is derived from fresh contributions of *both* servers
        (Section 5.1), so neither can predict the resulting shares.
        """
        self._require_open("share_array")
        self._require_unsharded("share_array")
        values = np.asarray(values, dtype=np.uint32)
        z0 = self._runtime.server0.contribute_u32(values.size).reshape(values.shape)
        z1 = self._runtime.server1.contribute_u32(values.size).reshape(values.shape)
        return SharedArray.wrap(*reshare_from_contributions(values, z0, z1))

    def share_table(
        self,
        schema: Schema,
        rows: np.ndarray,
        flags: np.ndarray,
        lead: Sequence[int] | None = None,
    ) -> SharedTable | tuple[SharedArray, SharedTable]:
        """Re-share a protocol-internal table (rows, then the flag column).

        Each server contributes its randomness for everything re-shared
        in one draw, split in order: the words of ``lead`` (when given —
        a Transform's counters), then the rows, then the flag column,
        which is where separate draws would have found them in the
        server's stream.  The shares are XORed into those fresh buffers
        in place, so the draws are the only allocations besides the
        plaintext's one concatenation.  With ``lead`` the result is
        ``(lead shares, table)``.
        """
        self._require_open("share_table")
        self._require_unsharded("share_table")
        rows = np.asarray(rows, dtype=np.uint32)
        if rows.ndim != 2:
            rows = rows.reshape(-1, schema.width)
        k = 0 if lead is None else len(lead)
        n = k + rows.size
        plain = np.concatenate(
            (() if lead is None else (lead,)) + (rows.reshape(-1), flags),
            dtype=np.uint32,
            casting="unsafe",
        )
        z0 = self._runtime.server0.contribute_u32(plain.size)
        z1 = self._runtime.server1.contribute_u32(plain.size)
        reshare_from_contributions(plain, z0, z1)
        table = SharedTable.wrap(
            schema,
            SharedArray.wrap(z0[k:n].reshape(rows.shape), z1[k:n].reshape(rows.shape)),
            SharedArray.wrap(z0[n:], z1[n:]),
        )
        if lead is None:
            return table
        return SharedArray.wrap(z0[:k], z1[:k]), table

    def joint_uniform_u32(self, n: int = 1) -> np.ndarray:
        """XOR of one fresh uniform contribution from each server.

        This is the randomness source of the joint noise protocol: uniform
        as long as at least one server samples honestly.
        """
        self._require_open("joint_uniform_u32")
        self._require_unsharded("joint_uniform_u32")
        z0 = self._runtime.server0.contribute_u32(n)
        z1 = self._runtime.server1.contribute_u32(n)
        return z0 ^ z1

    # -- cost accounting --------------------------------------------------
    @property
    def cost_model(self) -> CostModel:
        return self._runtime.cost_model

    def charge_gates(self, gates: int | float) -> None:
        self._require_open("charge_gates")
        self.gates += int(gates)

    def charge_compare_exchanges(self, count: int, payload_words: int) -> None:
        self.charge_gates(count * self.cost_model.compare_exchange_gates(payload_words))

    def charge_scan(self, n_rows: int, payload_words: int, predicate_words: int = 1) -> None:
        self.charge_gates(
            n_rows * self.cost_model.scan_row_gates(payload_words, predicate_words)
        )

    def charge_join_probes(self, count: int, payload_words: int) -> None:
        self.charge_gates(count * self.cost_model.join_probe_gates(payload_words))

    def charge_laplace(self) -> None:
        self.charge_gates(self.cost_model.laplace_gates)

    def charge_counter_update(self) -> None:
        self.charge_gates(self.cost_model.counter_update_gates())

    @property
    def seconds(self) -> float:
        """Simulated seconds consumed by this invocation so far."""
        return self.cost_model.seconds(self.gates)

    # -- public outputs ----------------------------------------------------
    def publish(self, kind: str, **payload: object) -> None:
        """Record an adversary-observable output of this protocol.

        Anything passed here is *leakage*: tests assert it is limited to
        public parameters and DP-protected quantities.
        """
        self._runtime.transcript.publish(self.time, self.name, kind, **payload)


class WorkerShardContext:
    """Charge-only context for shard scans running in worker *processes*.

    Out-of-process shard workers (:mod:`repro.query.shard_workers`) hold
    no reference to the coordinator's :class:`MPCRuntime`: they recover
    shares from shared memory themselves and only need the charge
    surface of a :class:`ProtocolContext` — a local gate counter plus
    the (picklable, frozen) :class:`~repro.mpc.cost_model.CostModel`.
    The worker returns its gate total and the coordinator replays it
    onto the real shard context with :meth:`ProtocolContext.charge_gates`,
    so the merged :class:`ProtocolRun` is byte-identical to the
    in-process backends.  Like shard contexts, this exposes **no**
    randomness or resharing operations: worker scans are pure
    reveal/charge computations.
    """

    def __init__(self, cost_model: CostModel) -> None:
        self.cost_model = cost_model
        self.gates = 0

    def reveal_columns(
        self,
        table: SharedTable,
        columns: Sequence[int],
        start: int,
        stop: int,
        out: np.ndarray,
        live: np.ndarray | None = None,
    ) -> None:
        """:meth:`ProtocolContext.reveal_columns` for a worker's own copy.

        A worker process *is* the protocol for the shard it was handed
        (its whole lifetime is the scope), so there is no scope to check.
        """
        _recombine_columns(table, columns, start, stop, out, live)

    def charge_gates(self, gates: int | float) -> None:
        self.gates += int(gates)

    def charge_compare_exchanges(self, count: int, payload_words: int) -> None:
        self.charge_gates(count * self.cost_model.compare_exchange_gates(payload_words))

    def charge_scan(self, n_rows: int, payload_words: int, predicate_words: int = 1) -> None:
        self.charge_gates(
            n_rows * self.cost_model.scan_row_gates(payload_words, predicate_words)
        )

    def charge_join_probes(self, count: int, payload_words: int) -> None:
        self.charge_gates(count * self.cost_model.join_probe_gates(payload_words))

    @property
    def seconds(self) -> float:
        return self.cost_model.seconds(self.gates)


class ParallelProtocolGroup:
    """One protocol invocation fanned out over per-shard contexts.

    Created by :meth:`MPCRuntime.parallel_protocol`.  Each shard scan
    runs against its own :class:`ProtocolContext` — an independent gate
    counter, safe to drive from a worker thread — while the group as a
    whole still occupies the runtime's single protocol slot (shard scans
    of *one* query overlap; distinct protocols still never nest).  On
    exit the group logs **one** :class:`ProtocolRun` whose gate total is
    the sum over shards — byte-identical to the unsharded charge — and
    whose seconds are the cost model's parallelism-aware wall-clock
    estimate :meth:`~repro.mpc.cost_model.CostModel.parallel_seconds`.

    Shard contexts are reveal/charge surfaces only: they own no
    randomness, so concurrent shard scans cannot perturb (or race on)
    the servers' deterministic RNG streams.

    A shard scanned as two ranges at once gets a second context for the
    second range (:meth:`range_context`); it charges toward that shard
    and the group, closes with the group, and changes neither the
    shard count the group is priced by nor the gate total.
    """

    def __init__(
        self, runtime: "MPCRuntime", name: str, time: int, n_shards: int
    ) -> None:
        if n_shards < 1:
            raise ProtocolError(f"n_shards must be >= 1, got {n_shards}")
        self._runtime = runtime
        self.name = name
        self.time = time
        self.contexts = [
            ProtocolContext(runtime, name, time, shard=(i, n_shards))
            for i in range(n_shards)
        ]
        self._range_contexts: list[ProtocolContext] = []

    @property
    def n_shards(self) -> int:
        return len(self.contexts)

    def range_context(self, shard: int) -> ProtocolContext:
        """A further context for ``shard``, for a range of it scanned
        beside the one its own context scans."""
        ctx = ProtocolContext(
            self._runtime, self.name, self.time, shard=(shard, self.n_shards)
        )
        self._range_contexts.append(ctx)
        return ctx

    def shard_gates(self, shard: int) -> int:
        """Gates charged for ``shard`` so far, over all of its contexts."""
        gates = self.contexts[shard].gates
        for ctx in self._range_contexts:
            if ctx.shard[0] == shard:
                gates += ctx.gates
        return gates

    @property
    def gates(self) -> int:
        """Total gates charged across every context so far."""
        gates = sum(ctx.gates for ctx in self.contexts)
        for ctx in self._range_contexts:
            gates += ctx.gates
        return gates

    def seconds(self, cost_model: CostModel) -> float:
        return cost_model.parallel_seconds(self.gates, self.n_shards)

    def _close(self) -> None:
        for ctx in self.contexts + self._range_contexts:
            ctx._close()


class MPCRuntime:
    """Owns the two servers, the transcript, and the protocol ledger."""

    def __init__(
        self,
        seed: int = 0,
        cost_model: CostModel | None = None,
    ) -> None:
        self.server0 = Server(0, RingWordStream(spawn(seed, "server", 0)))
        self.server1 = Server(1, RingWordStream(spawn(seed, "server", 1)))
        self.cost_model = cost_model or DEFAULT_COST_MODEL
        self.transcript = Transcript()
        self.runs: list[ProtocolRun] = []
        self._active: ProtocolContext | ParallelProtocolGroup | None = None
        #: ring words for owner-side sharing (outside any protocol scope)
        self.owner_words = RingWordStream(spawn(seed, "owner-sharing"))

    def protocol(self, name: str, time: int = 0) -> ProtocolContext:
        """Open a protocol scope (a ``with`` block); on exit the invocation
        is logged.

        Nesting is rejected: the paper's Transform and Shrink are compiled
        as independent circuits and never call into one another.
        """
        return ProtocolContext(self, name, time)

    @contextmanager
    def parallel_protocol(
        self, name: str, time: int = 0, n_shards: int = 1
    ) -> Iterator[ParallelProtocolGroup]:
        """Open one protocol as a group of per-shard contexts.

        The group occupies the same single protocol slot as
        :meth:`protocol` — a parallel scan is still *one* circuit
        invocation from the deployment's point of view; only its shard
        lanes overlap — and logs one merged :class:`ProtocolRun` on exit
        (total gates summed over shards, seconds from
        :meth:`~repro.mpc.cost_model.CostModel.parallel_seconds`).
        """
        if self._active is not None:
            raise ProtocolError(
                f"protocol {self._active.name!r} is already executing; "
                "protocols are independent circuits and do not nest"
            )
        group = ParallelProtocolGroup(self, name, time, n_shards)
        self._active = group
        try:
            yield group
        finally:
            group._close()
            self._active = None
            self.runs.append(
                ProtocolRun(name, time, group.gates, group.seconds(self.cost_model))
            )

    # -- convenience for owners (outside protocol scopes) -------------------
    def owner_share_table(
        self, schema: Schema, rows: np.ndarray, flags: np.ndarray
    ) -> SharedTable:
        """Owner-side secret sharing of an upload batch.

        Owners run locally and are trusted with their own data, so this
        does not require a protocol scope.  The shares are those
        :meth:`SharedTable.from_plain` gives on the owners' generator:
        one mask draw covers the rows, then the flag column.
        """
        mask = self.owner_words.draw(np.size(rows) + np.size(flags))
        return SharedTable.from_mask(schema, rows, flags, mask)
