"""Privacy accounting: composition, stability, and Theorem 3.

The paper's privacy argument has three layers:

1. each Shrink release is an ε_r-DP Laplace/SVT mechanism **over the
   cached view tuples** in a window;
2. windows are disjoint, so releases combine by *parallel* composition
   (max, not sum) over the transformed stream;
3. the Transform pipeline is a *q-stable* transformation of the logical
   database (Lemma 1), so by Lemma 2 the end-to-end loss w.r.t. a logical
   update is ``q · ε_r`` — and Theorem 3 generalises this to a family of
   transformations where a record's total loss is
   ``Σ_{i : τ_i(u) > 0} q_i ε_i``.

The :class:`PrivacyAccountant` tracks all three, and the engine asserts at
the end of a run that the realised loss matches the configured ε.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping

from ..common.errors import PrivacyBudgetError


@dataclass(frozen=True)
class MechanismEvent:
    """One invocation of a DP mechanism over some data segment."""

    name: str
    epsilon: float
    segment: Hashable  # identifies the disjoint data the mechanism touched


#: Marker element of a tenant-scoped segment key.  A tenant-attributed
#: spend extends the mechanism's segment tuple with ``("tenant", id)``,
#: so every existing prefix filter (``segment[:1] == ("query",)``) and
#: sequence-number recovery (``segment[1]``) keeps working while the
#: per-tenant ledger can be recovered from the events alone — including
#: after a snapshot/restore round trip.
TENANT_SEGMENT_MARK = "tenant"


def tenant_scoped_segment(segment: tuple, tenant_id: str) -> tuple:
    """Attribute a segment key to one tenant's ledger.

    >>> tenant_scoped_segment(("query", 3), "alice")
    ('query', 3, 'tenant', 'alice')
    """
    return (*segment, TENANT_SEGMENT_MARK, str(tenant_id))


def segment_tenant(segment: Hashable) -> str | None:
    """The tenant a segment key is attributed to, or ``None``.

    >>> segment_tenant(("query", 3, "tenant", "alice"))
    'alice'
    >>> segment_tenant(("query", 3)) is None
    True
    """
    if (
        isinstance(segment, tuple)
        and len(segment) >= 4
        and segment[-2] == TENANT_SEGMENT_MARK
        and isinstance(segment[-1], str)
    ):
        return segment[-1]
    return None


def _is_query_segment(segment: Hashable) -> bool:
    return isinstance(segment, tuple) and segment[:1] == ("query",)


@dataclass
class PrivacyAccountant:
    """Ledger of mechanism invocations with composition rules.

    ``events`` is the durable source of truth: snapshots write it and a
    restore rebuilds from it.  The query-segment and per-tenant totals
    are *running* answers over a counted prefix of it, so the budget
    gate, ``stats`` and ``/metrics`` cost the same after a million
    releases as after one.
    """

    events: list[MechanismEvent] = field(default_factory=list)
    # ``(events, n, query_total, tenant_totals)``: the totals over
    # ``events[:n]`` of that very list.  Counting on from the log's own
    # length keeps a direct ``events.append`` correct; a replaced list
    # (``restore_events``) recounts from zero.  Each total is the same
    # left-to-right float additions a fresh walk over ``events`` makes,
    # so the running answer equals the recomputed one to the last bit.
    # One tuple holding a never-mutated dict, replaced whole: readers
    # race only to store the same value.
    _running: tuple = field(
        default=(None, 0, 0, {}), init=False, repr=False, compare=False
    )

    def spend(self, name: str, epsilon: float, segment: Hashable) -> None:
        # ``not ε > 0`` alone would let NaN through every later cap check.
        if not (math.isfinite(epsilon) and epsilon > 0):
            raise PrivacyBudgetError(
                f"epsilon must be finite and positive, got {epsilon}"
            )
        self.events.append(MechanismEvent(name, epsilon, segment))

    # -- persistence hooks --------------------------------------------------
    def snapshot_state(self) -> list[tuple[str, float, Hashable]]:
        """Every recorded mechanism event, oldest first.

        The spent-ε ledger **must** survive restarts: replaying releases
        against a fresh accountant would silently double-spend privacy
        budget (the Shrinkwrap/DP-Sync durability argument).
        """
        return [(e.name, e.epsilon, e.segment) for e in self.events]

    def restore_events(self, events: list[MechanismEvent]) -> None:
        """Adopt ``events``, oldest first, as the log: a checkpoint's
        reader builds each event once and hands the list over."""
        self.events = events

    # -- running totals -----------------------------------------------------
    def _current_totals(self) -> tuple[float, dict[str, float]]:
        events = self.events
        counted_log, counted, query_total, tenants = self._running
        n = len(events)
        if counted_log is events and counted == n:
            return query_total, tenants
        if counted_log is not events or counted > n:
            # ``0``, not ``0.0``: what ``sum()`` over no events returns.
            counted, query_total, tenants = 0, 0, {}
        copied = False
        for e in events[counted:n]:
            if _is_query_segment(e.segment):
                query_total = query_total + e.epsilon
            tenant = segment_tenant(e.segment)
            if tenant is not None:
                if not copied:
                    tenants, copied = dict(tenants), True
                tenants[tenant] = tenants.get(tenant, 0.0) + e.epsilon
        self._running = (events, n, query_total, tenants)
        return query_total, tenants

    def query_epsilon(self) -> float:
        """Total ε of every ``("query", seq, ...)`` segment — a plain sum,
        because queries touch the whole scanned state and so compose
        sequentially across invocations."""
        return self._current_totals()[0]

    # -- per-tenant ledgers -------------------------------------------------
    def tenant_epsilons(self) -> dict[str, float]:
        """Spent ε per tenant, from tenant-attributed segment keys.

        Events without a tenant attribution (view releases, pre-tenancy
        query spends) belong to no ledger and are excluded — they are
        still part of every *global* composition below.
        """
        return dict(self._current_totals()[1])

    def tenant_epsilon(self, tenant_id: str) -> float:
        """One tenant's total spent ε (0.0 for an unknown tenant)."""
        return self._current_totals()[1].get(str(tenant_id), 0.0)

    # -- composition -------------------------------------------------------
    def sequential_epsilon(self) -> float:
        """Worst-case bound: sum over all events (Theorem 31 of [31])."""
        return sum(e.epsilon for e in self.events)

    def parallel_epsilon(self) -> float:
        """Parallel composition: sum *within* a segment, max across segments.

        Mechanisms applied to disjoint data segments (e.g. counts of view
        tuples cached in non-overlapping windows) compose in parallel:
        a single record lives in one segment only, so its loss is the
        worst segment's sequential total.
        """
        per_segment: dict[Hashable, float] = {}
        for e in self.events:
            per_segment[e.segment] = per_segment.get(e.segment, 0.0) + e.epsilon
        return max(per_segment.values(), default=0.0)


def stability_composed_epsilon(q: float, epsilon: float) -> float:
    """Lemma 2: an ε-DP mechanism after a q-stable transform is qε-DP."""
    if q < 0:
        raise PrivacyBudgetError(f"stability must be non-negative, got {q}")
    return q * epsilon


def theorem3_epsilon(
    contributions: Mapping[Hashable, Iterable[tuple[float, float]]],
) -> float:
    """Worst-case loss over records per Theorem 3.

    ``contributions[u]`` lists ``(q_i, ε_i)`` for every transformation
    ``T_i`` with ``τ_i(u) > 0`` — i.e. every mechanism whose input the
    record ``u`` actually influenced.  The bound is
    ``max_u Σ q_i·ε_i``; it is finite iff each record touches finitely
    many mechanism inputs, which the contribution budget enforces.
    """
    worst = 0.0
    for pairs in contributions.values():
        total = sum(q * eps for q, eps in pairs)
        worst = max(worst, total)
    return worst


def event_to_user_epsilon(event_epsilon: float, max_tuples_per_user: int) -> float:
    """Group-privacy conversion: ε-event DP gives ℓ·ε user-level DP.

    Section 4.2: if one user owns at most ℓ tuples of the growing
    database, event-level ε implies user-level ℓ·ε (and conversely, a
    user-level target ε can be met by running the event-level mechanisms
    at ε/ℓ).
    """
    if max_tuples_per_user < 1:
        raise PrivacyBudgetError(
            f"a user owns at least one tuple, got {max_tuples_per_user}"
        )
    return event_epsilon * max_tuples_per_user


def sequential_system_epsilon(*epsilons: float) -> float:
    """Sequential composition across sub-systems (Section 8, DP-Sync).

    Combining an ε₁-DP owner-side synchronisation strategy with an ε₂-DP
    IncShrink deployment reveals at most (ε₁+ε₂)-DP leakage in total.
    """
    if any(e < 0 for e in epsilons):
        raise PrivacyBudgetError("epsilons must be non-negative")
    return float(sum(epsilons))
