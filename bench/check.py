"""The correctness gate: the served system against a serial, cold reference.

After the timed phases the run takes a snapshot and then re-issues the
steady phase's distinct queries at the final watermark twice: over the
socket against the live server (sharded, incremental, whatever backend
``auto`` resolved to), and in-process against the snapshot-restored copy
resharded to one shard with incremental execution off — the serial cold
engine.  Answers, ground truth, gate totals and realized ε must be
identical: that one comparison covers wire ≡ in-process, warm / sharded /
process ≡ serial cold, and snapshot fidelity (the restored copy continues
the same query-noise stream, so even ε-released answers match bit for bit).

A warm scan charges only its delta; ``gates + saved_gates`` is the bill a
cold scan of the same rows pays, and that sum is what is compared.

The planner prices a view scan by shard count and cache warmth, so at one
shard and cold it could prefer the NM join where the served system scanned
a view — and the ``bigview`` preload exists only in the view.  The
reference therefore follows the served plan's kind (``nm_fallback`` is
switched off for a query the served system answered from a view) and the
chosen view's name is part of what must match.
"""

from __future__ import annotations

from repro.net.protocol import RemoteError

#: Distinct queries re-issued at most; an ad-hoc workload has hundreds,
#: and each is a cold full-view scan on both sides.
MAX_CHECKED_QUERIES = 8


def distinct_queries(inputs) -> list:
    """The steady phase's distinct ``(query, epsilon)`` pairs, thinned
    evenly (first and last kept) to :data:`MAX_CHECKED_QUERIES`."""
    seen: dict = {}
    for mix in inputs.queries[: inputs.steady_steps]:
        for pair in mix:
            seen.setdefault(pair, None)
    pairs = list(seen)
    if len(pairs) <= MAX_CHECKED_QUERIES:
        return pairs
    last = len(pairs) - 1
    picks = sorted({round(i * last / (MAX_CHECKED_QUERIES - 1))
                    for i in range(MAX_CHECKED_QUERIES)})
    return [pairs[i] for i in picks]


def _total_gates(scan_report) -> int | None:
    if scan_report is None:
        return None
    if not isinstance(scan_report, dict):
        scan_report = {"gates": scan_report.gates,
                       "saved_gates": scan_report.saved_gates}
    return scan_report["gates"] + scan_report["saved_gates"]


def served(client, pairs: list) -> list:
    """Observations of ``pairs`` over the socket, at the watermark."""
    out = []
    for query, epsilon in pairs:
        try:
            result = client.query(query, epsilon=epsilon)
        except (RemoteError, ConnectionError) as exc:
            out.append(exc)
            continue
        out.append((result.view_name, result.answers, result.logical_answers,
                    _total_gates(result.scan_report)))
    return out


def reference(
    server, pairs: list, served_obs: list, tenant: str | None
) -> tuple[list, float]:
    """The same queries on the restored copy: 1 shard, serial, cold."""
    database = server.database
    database.reshard(1)
    database.set_incremental(False)
    out = []
    for (query, epsilon), got in zip(pairs, served_obs):
        if not isinstance(got, Exception):
            database.nm_fallback = got[0] is None
        result = database.query(
            query, server.last_time, epsilon=epsilon, tenant=tenant
        )
        out.append((result.plan.view_name, result.answers,
                    result.logical_answers, _total_gates(result.scan_report)))
    return out, database.realized_epsilon()


def mismatches(
    served_obs: list, served_state: dict, reference_obs: list,
    reference_epsilon: float,
) -> list[str]:
    """Every way the served system disagreed with the reference."""
    problems = []
    if served_state["ingest_error"]:
        problems.append(f"ingest_error: {served_state['ingest_error']}")
    for i, (got, want) in enumerate(zip(served_obs, reference_obs)):
        if isinstance(got, Exception):
            problems.append(f"query {i}: error frame: {got}")
        elif got != want:
            problems.append(f"query {i}: served {got} != reference {want}")
    if served_state["realized_epsilon"] != reference_epsilon:
        problems.append(
            f"realized_epsilon: served {served_state['realized_epsilon']!r} "
            f"!= reference {reference_epsilon!r}"
        )
    return problems
