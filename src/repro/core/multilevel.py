"""Multi-level "Transform-and-Shrink" pipelines (paper Section 8).

A complex query plan can be decomposed into a chain of operators, each
carrying its *own* Transform-and-Shrink instance: the DP-resized output
stream of level i is the input stream of level i+1.  The paper sketches
this as future work together with an operator-level privacy-budget
allocation (Appendix D.2), which :mod:`repro.dp.allocation` solves.

This module implements the two-level case that covers the paper's
motivating shape — a join view (level 1, one DP view of an
:class:`~repro.server.database.IncShrinkDatabase`) feeding a selection
(level 2, :class:`SelectionStage`):

    owners → Transform₁ → σ₁ → Shrink₁ → V₁
                                  │ (deltas)
                                  ▼
                         Transform₂ (oblivious filter) → σ₂ → Shrink₂ → V₂

Each level runs its own sDPTimer with its own ε share; queries are
answered from V₂.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..common.errors import ConfigurationError
from ..mpc.runtime import MPCRuntime
from ..oblivious.filter import oblivious_select
from ..sharing.shared_value import SharedTable
from ..storage.materialized_view import MaterializedView
from ..storage.secure_cache import SecureCache
from .counter import SharedCounter
from .shrink_timer import SDPTimer, ShrinkReport

#: Plaintext predicate over view rows, evaluated inside the protocol
#: scope: receives an (n, width) array, returns a boolean mask.
RowPredicate = Callable[[np.ndarray], np.ndarray]


@dataclass
class StageReport:
    time: int
    transform_seconds: float
    shrink: ShrinkReport | None


class SelectionStage:
    """Second-level operator: oblivious selection with its own Shrink.

    ``ingest`` is this level's Transform: it filters an incoming delta
    (flipping isView bits, size unchanged — selection is 1-stable so no
    truncation is needed), caches it, and maintains this level's own
    secret-shared cardinality counter.  ``step`` runs the level's
    sDPTimer.
    """

    def __init__(
        self,
        runtime: MPCRuntime,
        schema,
        predicate: RowPredicate,
        epsilon: float,
        b: int,
        interval: int,
        predicate_words: int = 1,
    ) -> None:
        if epsilon <= 0:
            raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
        self.runtime = runtime
        self.schema = schema
        self.predicate = predicate
        self.predicate_words = predicate_words
        self.cache = SecureCache(schema)
        self.view = MaterializedView(schema)
        self.counter = SharedCounter()
        self.shrink = SDPTimer(runtime, self.counter, epsilon, b, interval)

    def ingest(self, time: int, delta: SharedTable) -> float:
        """Transform an upstream delta into this level's cache."""
        if delta.schema != self.schema:
            raise ConfigurationError("delta schema does not match stage schema")
        with self.runtime.protocol("transform-select", time) as ctx:
            rows, flags = ctx.reveal_table(delta)
            mask = (
                np.asarray(self.predicate(rows), dtype=bool)
                if len(rows)
                else np.zeros(0, dtype=bool)
            )
            rows, new_flags = oblivious_select(
                ctx, rows, flags, mask, self.schema.width, self.predicate_words
            )
            self.counter.add(ctx, int(new_flags.sum()))
            self.cache.append(ctx.share_table(self.schema, rows, new_flags))
            ctx.publish("transform-select", cache_delta=len(rows))
            return ctx.seconds

    def step(self, time: int) -> ShrinkReport | None:
        return self.shrink.step(time, self.cache, self.view)


class MultiLevelIncShrink:
    """A database's join view (level 1) chained into a selection stage.

    The total ε is split across the levels; by sequential composition the
    pipeline's update-pattern leakage is (ε₁+ε₂)-DP.  Pass an allocation
    from :func:`repro.dp.allocation.allocate_budget` to tune the split.
    ``database`` is any :class:`~repro.server.database.IncShrinkDatabase`
    with a DP view named ``view_name``; level 1 is that view, at the ε
    the database allocated it.
    """

    def __init__(
        self,
        database,
        view_name: str,
        predicate: RowPredicate,
        epsilon_level2: float,
        interval: int,
        predicate_words: int = 1,
    ) -> None:
        database.finalize()
        self.database = database
        self.level1 = database.views[view_name]
        self.stage2 = SelectionStage(
            database.runtime,
            self.level1.view_def.view_schema,
            predicate,
            epsilon_level2,
            self.level1.view_def.budget,
            interval,
            predicate_words,
        )
        self._seen_view_rows = 0

    def process_step(self, time: int) -> StageReport:
        """Advance level 1, forward any new V₁ delta into level 2."""
        self.database.step(time)
        view = self.level1.view
        transform2_seconds = 0.0
        new_rows = len(view) - self._seen_view_rows
        if new_rows > 0:
            delta = view.table.take(
                slice(self._seen_view_rows, self._seen_view_rows + new_rows)
            )
            transform2_seconds = self.stage2.ingest(time, delta)
            self._seen_view_rows += new_rows
        shrink2 = self.stage2.step(time)
        return StageReport(time, transform2_seconds, shrink2)

    def total_epsilon(self) -> float:
        """Sequentially composed leakage bound across both levels."""
        return self.level1.epsilon + self.stage2.shrink.epsilon


def plan_two_level_budget(
    total_epsilon: float,
    join_input_sizes: tuple[int, int],
    filter_input_size: int,
    join_output_size: int,
    filter_output_size: int,
    budget_b: int,
    expected_updates: int,
    grid_steps: int = 20,
) -> tuple[float, float]:
    """Split ε across a join→filter pipeline per Appendix D.2 (Eq. 15).

    Builds the two :class:`~repro.dp.allocation.OperatorSpec` entries —
    the join's inputs carry upstream DP dummies on both sides, the
    filter's single input carries the join level's — and maximises the
    output-weighted query efficiency over the ε-simplex.  Returns
    ``(ε_join, ε_filter)``.
    """
    from ..dp.allocation import OperatorSpec, allocate_budget, expected_dummy_volume

    dummy_model = expected_dummy_volume(budget_b, expected_updates)
    join_spec = OperatorSpec(
        name="join",
        kind="join",
        input_sizes=join_input_sizes,
        dummy_models=(dummy_model, dummy_model),
        output_size=join_output_size,
    )
    filter_spec = OperatorSpec(
        name="filter",
        kind="filter",
        input_sizes=(filter_input_size,),
        dummy_models=(dummy_model,),
        output_size=filter_output_size,
    )
    (eps_join, eps_filter), _ = allocate_budget(
        [join_spec, filter_spec], total_epsilon, grid_steps=grid_steps
    )
    return eps_join, eps_filter
