"""Accuracy and efficiency metrics (Section 4.1 of the paper).

* **L1 query error** ``L_qt = || q̃_t(V_t) - q_t(D_t) ||_1`` — absolute
  difference between the view-based answer and the logical ground truth.
* **Relative error** — L1 error divided by the logical answer (the paper
  reports OTM's relative error as exactly 1 because its answer is 0).
* **Query execution time (QET)** — simulated seconds to run the rewritten
  query over the materialized view, from the MPC cost model.

A :class:`MetricLog` accumulates per-step observations as columns; a
:class:`MetricSummary` aggregates them into the quantities Table 2 and the
figures report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .column_log import Column, ColumnLog


def l1_error(view_answer: float, logical_answer: float) -> float:
    """Absolute (L1) difference between view-based and logical answers."""
    return abs(float(view_answer) - float(logical_answer))


def relative_error(view_answer: float, logical_answer: float) -> float:
    """L1 error normalised by the logical answer.

    When the logical answer is 0 the error is defined as 0 if the view also
    answers 0 and 1 otherwise, matching the convention needed for the
    paper's "OTM relative error = 1" row.
    """
    err = l1_error(view_answer, logical_answer)
    if logical_answer == 0:
        return 0.0 if err == 0 else 1.0
    return err / abs(float(logical_answer))


@dataclass
class QueryObservation:
    """One issued query: answers, error, and simulated execution time."""

    time: int
    logical_answer: float
    view_answer: float
    qet_seconds: float

    @property
    def l1(self) -> float:
        return l1_error(self.view_answer, self.logical_answer)

    @property
    def relative(self) -> float:
        return relative_error(self.view_answer, self.logical_answer)


#: A query observation as its log's columns hold it, in order.
QUERY_COLUMNS = (
    Column("query_time", np.int64),
    Column("query_logical_answer", np.float64),
    Column("query_view_answer", np.float64),
    Column("query_qet_seconds", np.float64),
)
#: The per-step fields, each a one-column log of its own (a step appends
#: to some of them only), in the order a checkpoint writes them.
STEP_FIELDS = (
    ("transform_seconds", np.float64),
    ("shrink_seconds", np.float64),
    ("view_size_rows", np.int64),
    ("view_size_bytes", np.int64),
    ("cache_size_rows", np.int64),
    ("deferred_counts", np.int64),
)


class MetricLog:
    """Per-run accumulator for all reported quantities, as append-only
    columns: a checkpoint writes each log from its mark, a restore adopts
    the arrays it read.

    ``queries`` holds one row per :meth:`record_query`; each field of
    :data:`STEP_FIELDS` is a one-column log the scheduler appends a
    step's value to.  ``owner`` names the logs in a restore's refusals.
    """

    transform_seconds: ColumnLog
    shrink_seconds: ColumnLog
    view_size_rows: ColumnLog
    view_size_bytes: ColumnLog
    cache_size_rows: ColumnLog
    deferred_counts: ColumnLog

    def __init__(self, owner: str = "run") -> None:
        self.queries = ColumnLog(f"{owner} query metrics", QUERY_COLUMNS)
        for field, dtype in STEP_FIELDS:
            setattr(self, field, ColumnLog(f"{owner} {field} metrics", [Column(field, dtype)]))

    def logs(self) -> tuple[ColumnLog, ...]:
        """Every log, in the order a checkpoint writes their columns."""
        return (self.queries, *(getattr(self, field) for field, _ in STEP_FIELDS))

    def column(self, name: str) -> np.ndarray:
        """One column's content, a face: a ``query_*`` column or a step field."""
        return (self.queries if name.startswith("query_") else getattr(self, name))[name]

    def adopt(self, columns: dict) -> None:
        """Take ``columns`` (as :meth:`logs` write them) as every log's
        content, each once its checks pass: no row is converted."""
        for log in self.logs():
            log.adopt(columns)

    def record_query(self, obs: QueryObservation) -> None:
        self.queries.append_row(obs.time, obs.logical_answer, obs.view_answer, obs.qet_seconds)

    def l1_errors(self) -> list[float]:
        """Each recorded query's :func:`l1_error`."""
        return list(map(l1_error, *self._answers()))

    def relative_errors(self) -> list[float]:
        """Each recorded query's :func:`relative_error`."""
        return list(map(relative_error, *self._answers()))

    def _answers(self) -> tuple[list[float], list[float]]:
        queries = self.queries.view()
        return queries["query_view_answer"].tolist(), queries["query_logical_answer"].tolist()

    def summary(self) -> "MetricSummary":
        return MetricSummary.from_log(self)


def _mean(xs: Sequence[float]) -> float:
    # statistics.mean's exact rounding is what Table 2 reports; the module
    # loads here, not with every serving process.
    from statistics import mean

    return float(mean(xs)) if xs else 0.0


@dataclass(frozen=True)
class MetricSummary:
    """Aggregates in the shape of Table 2's rows."""

    avg_l1_error: float
    avg_relative_error: float
    avg_qet_seconds: float
    total_qet_seconds: float
    avg_transform_seconds: float
    avg_shrink_seconds: float
    total_mpc_seconds: float
    avg_view_size_rows: float
    avg_view_size_mb: float
    max_deferred: int
    query_count: int

    @classmethod
    def from_log(cls, log: MetricLog) -> "MetricSummary":
        qets = log.column("query_qet_seconds").tolist()
        transform = log.column("transform_seconds").tolist()
        shrink = log.column("shrink_seconds").tolist()
        return cls(
            avg_l1_error=_mean(log.l1_errors()),
            avg_relative_error=_mean(log.relative_errors()),
            avg_qet_seconds=_mean(qets),
            total_qet_seconds=float(sum(qets)),
            avg_transform_seconds=_mean(transform),
            avg_shrink_seconds=_mean(shrink),
            total_mpc_seconds=float(sum(transform) + sum(shrink)),
            avg_view_size_rows=_mean([float(v) for v in log.column("view_size_rows").tolist()]),
            avg_view_size_mb=_mean([v / 1e6 for v in log.column("view_size_bytes").tolist()]),
            max_deferred=max(log.column("deferred_counts").tolist(), default=0),
            query_count=len(log.queries),
        )


def improvement(baseline: float, candidate: float) -> float:
    """How many times better ``candidate`` is than ``baseline``.

    Used for the "Imp." rows of Table 2 (e.g. NM QET / DP QET).  Returns
    ``inf`` when the candidate cost is 0 and the baseline is positive, and
    1.0 when both are 0.
    """
    if candidate == 0:
        return float("inf") if baseline > 0 else 1.0
    return baseline / candidate
