"""Query representation: the relational AST the query compiler consumes.

A query is a :class:`LogicalQuery`: one temporal-join spec
(:class:`LogicalJoinQuery`), an optional structural residual predicate,
an optional GROUP BY over a small *public* domain, and a **list** of
pluggable aggregate specs (:class:`AggregateSpec` — COUNT, SUM, and
AVG = SUM/COUNT) each carrying its own DP sensitivity.
:mod:`repro.query.rewrite` lowers it against a matching view definition
into one :class:`ViewScanPlan`, which the executor answers with a
**single** oblivious padded scan computing every aggregate of every
group at once.

The paper's evaluation queries (Q1, Q2) are the one-COUNT case,
``LogicalQuery.for_view(view_def)``; its SUM example is
``LogicalQuery.for_view(view_def, AggregateSpec.sum_of(table, column))``.

Predicates are *structural* (:class:`ColumnEquals` /
:class:`ColumnRange` / :class:`And`): they name logical table columns,
are hashable (so plans for them cache), and lower to both the view scan
and the NM join.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..common.errors import SchemaError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.view_def import JoinViewDefinition


class _HashedOnce:
    """Hash a frozen dataclass's fields once per object.

    A served request hashes its :class:`LogicalQuery` for the plan cache
    and the cached :class:`ViewScanPlan` for the accumulator cache; both
    would otherwise re-hash every field (the GROUP BY domain included)
    on every lookup.  The memo is the dataclass's own field hash, and it
    is never pickled: ``str`` hashes are salted per process, so a hash
    carried into another process would miss every cache there.  A class
    opts in with ``__hash__ = _HashedOnce.__hash__`` (``@dataclass``
    replaces an inherited one).
    """

    __slots__ = ()

    def __hash__(self) -> int:
        try:
            return self.__dict__["_hash"]
        except KeyError:
            value = hash(tuple(getattr(self, f) for f in self.__dataclass_fields__))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


@dataclass(frozen=True)
class LogicalJoinQuery:
    """The join structure of a :class:`LogicalQuery`.

    Field names refer to the logical tables; ``window_lo``/``window_hi``
    bound ``driver.ts − probe.ts`` exactly as in the view definitions.
    A view can answer a query iff these eight fields match its
    definition — the aggregates on top are then one padded scan.
    """

    probe_table: str
    driver_table: str
    probe_key: str
    driver_key: str
    probe_ts: str
    driver_ts: str
    window_lo: int
    window_hi: int

    @classmethod
    def for_view(cls, view_def: "JoinViewDefinition") -> "LogicalJoinQuery":
        """Exactly the join a view definition materializes."""
        return cls(
            probe_table=view_def.probe_table,
            driver_table=view_def.driver_table,
            probe_key=view_def.probe_key,
            driver_key=view_def.driver_key,
            probe_ts=view_def.probe_ts,
            driver_ts=view_def.driver_ts,
            window_lo=view_def.window_lo,
            window_hi=view_def.window_hi,
        )


# -- structural residual predicates ------------------------------------------
def _require_ring_value(value: int, what: str) -> None:
    if not 0 <= value < 2**32:
        raise SchemaError(
            f"{what} {value} is not a uint32 ring element (all stored "
            "values live in Z_{2^32})"
        )


@dataclass(frozen=True)
class ColumnEquals:
    """``table.column == value`` over one logical column."""

    table: str
    column: str
    value: int

    def __post_init__(self) -> None:
        _require_ring_value(self.value, "predicate value")

    def columns(self) -> tuple[tuple[str, str], ...]:
        return ((self.table, self.column),)

    def bounds(self) -> tuple[int, int]:
        return (self.value, self.value)


@dataclass(frozen=True)
class ColumnRange:
    """``lo <= table.column <= hi`` over one logical column."""

    table: str
    column: str
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise SchemaError(f"empty range [{self.lo}, {self.hi}]")
        _require_ring_value(self.lo, "predicate bound")
        _require_ring_value(self.hi, "predicate bound")

    def columns(self) -> tuple[tuple[str, str], ...]:
        return ((self.table, self.column),)

    def bounds(self) -> tuple[int, int]:
        return (self.lo, self.hi)


@dataclass(frozen=True)
class And:
    """Conjunction of interval clauses (the only connective we compile)."""

    clauses: tuple["ColumnEquals | ColumnRange", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "clauses", tuple(self.clauses))
        if not self.clauses:
            raise SchemaError("And() needs at least one clause")

    def columns(self) -> tuple[tuple[str, str], ...]:
        out: list[tuple[str, str]] = []
        for clause in self.clauses:
            out.extend(clause.columns())
        return tuple(out)


def predicate_clauses(
    predicate: "ColumnEquals | ColumnRange | And | None",
) -> tuple["ColumnEquals | ColumnRange", ...]:
    """Flatten a structural predicate into its interval clauses."""
    if predicate is None:
        return ()
    if isinstance(predicate, And):
        return predicate.clauses
    return (predicate,)


# -- pluggable aggregates ------------------------------------------------------
#: Aggregate kinds the executor knows how to fold in one scan.
AGGREGATE_KINDS = ("count", "sum", "avg")


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate of a logical query, with its DP sensitivity.

    ``count`` takes no column; ``sum``/``avg`` name a logical column via
    ``table`` (which side of the join it lives on) and ``column``.
    ``sensitivity`` is the aggregate's DP sensitivity — how much one
    record can move the *pre-noise* answer — used by
    :func:`repro.dp.allocation.split_query_epsilon` when a query is
    released with noise.  It defaults to 1 (exact for COUNT; for
    SUM/AVG callers should pass the public per-record value bound).
    """

    kind: str
    table: str | None = None
    column: str | None = None
    alias: str | None = None
    sensitivity: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in AGGREGATE_KINDS:
            raise SchemaError(
                f"aggregate kind must be one of {AGGREGATE_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.kind == "count":
            if self.table is not None or self.column is not None:
                raise SchemaError("COUNT(*) takes no table/column")
        elif self.table is None or self.column is None:
            raise SchemaError(
                f"{self.kind.upper()} needs both a table and a column"
            )
        if self.sensitivity <= 0:
            raise SchemaError(
                f"sensitivity must be positive, got {self.sensitivity}"
            )

    # -- constructors --------------------------------------------------------
    @classmethod
    def count(cls, alias: str | None = None) -> "AggregateSpec":
        return cls("count", alias=alias)

    @classmethod
    def sum_of(
        cls,
        table: str,
        column: str,
        alias: str | None = None,
        sensitivity: float = 1.0,
    ) -> "AggregateSpec":
        return cls("sum", table, column, alias, sensitivity)

    @classmethod
    def avg_of(
        cls,
        table: str,
        column: str,
        alias: str | None = None,
        sensitivity: float = 1.0,
    ) -> "AggregateSpec":
        return cls("avg", table, column, alias, sensitivity)

    @property
    def output_name(self) -> str:
        if self.alias is not None:
            return self.alias
        if self.kind == "count":
            return "count"
        return f"{self.kind}_{self.table}_{self.column}"


# -- GROUP BY ------------------------------------------------------------------
#: Largest admissible GROUP BY domain: the padded result has one row per
#: domain value regardless of the data, so the domain must stay small for
#: the single-scan cost to stay near one aggregate's.
MAX_GROUP_DOMAIN = 1024


@dataclass(frozen=True)
class GroupBySpec:
    """GROUP BY one logical column over a small public value domain.

    The domain is public (it parameterizes the circuit), so the padded
    answer always has exactly ``len(domain)`` rows — groups that match no
    record report 0, and rows whose key falls outside the domain are
    excluded.  Nothing about the realized group sizes leaks from the
    scan's access pattern.
    """

    table: str
    column: str
    domain: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "domain", tuple(int(v) for v in self.domain))
        if not self.domain:
            raise SchemaError("GROUP BY domain must be non-empty")
        if len(set(self.domain)) != len(self.domain):
            raise SchemaError("GROUP BY domain values must be distinct")
        if any(not 0 <= v < 2**32 for v in self.domain):
            raise SchemaError(
                "GROUP BY domain values must be uint32 ring elements"
            )
        if len(self.domain) > MAX_GROUP_DOMAIN:
            raise SchemaError(
                f"GROUP BY domain of {len(self.domain)} exceeds the "
                f"supported maximum of {MAX_GROUP_DOMAIN} public values"
            )


# -- the unified logical query -------------------------------------------------
@dataclass(frozen=True)
class LogicalQuery(_HashedOnce):
    """One relational aggregate query against the logical tables.

    The compiler pipeline consumes this AST: :func:`repro.query.rewrite.
    lower_to_view_scan` matches it against a view definition and lowers
    it to a :class:`ViewScanPlan`; :func:`repro.query.planner.plan_query`
    prices that plan against the NM fallback; the executor answers all
    aggregates and all groups in one oblivious padded scan.
    """

    join: LogicalJoinQuery
    aggregates: tuple[AggregateSpec, ...]
    group_by: GroupBySpec | None = None
    predicate: "ColumnEquals | ColumnRange | And | None" = None

    __hash__ = _HashedOnce.__hash__

    def __post_init__(self) -> None:
        object.__setattr__(self, "aggregates", tuple(self.aggregates))
        if not self.aggregates:
            raise SchemaError("a query needs at least one aggregate")
        names = [a.output_name for a in self.aggregates]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate aggregate output names in {names}")
        tables = {self.join.probe_table, self.join.driver_table}
        for agg in self.aggregates:
            if agg.table is not None and agg.table not in tables:
                raise SchemaError(
                    f"aggregate over {agg.table!r} is neither side of the "
                    f"join ({self.join.probe_table} ⋈ {self.join.driver_table})"
                )
        if self.group_by is not None and self.group_by.table not in tables:
            raise SchemaError(
                f"GROUP BY table {self.group_by.table!r} is neither side of "
                f"the join ({self.join.probe_table} ⋈ {self.join.driver_table})"
            )
        for clause in predicate_clauses(self.predicate):
            for table, _column in clause.columns():
                if table not in tables:
                    raise SchemaError(
                        f"predicate over {table!r} is neither side of the join "
                        f"({self.join.probe_table} ⋈ {self.join.driver_table})"
                    )

    @classmethod
    def for_view(
        cls,
        view_def: "JoinViewDefinition",
        *aggregates: AggregateSpec,
        group_by: GroupBySpec | None = None,
        predicate: "ColumnEquals | ColumnRange | And | None" = None,
    ) -> "LogicalQuery":
        """A query over exactly the join a view definition materializes."""
        return cls(
            join=LogicalJoinQuery.for_view(view_def),
            aggregates=tuple(aggregates) or (AggregateSpec.count(),),
            group_by=group_by,
            predicate=predicate,
        )

    # -- join-spec pass-throughs (what view matching keys on) ---------------
    @property
    def probe_table(self) -> str:
        return self.join.probe_table

    @property
    def driver_table(self) -> str:
        return self.join.driver_table

    # -- structure ----------------------------------------------------------
    @property
    def need_count(self) -> bool:
        """Whether the scan needs a count accumulator (COUNT or AVG)."""
        return any(a.kind in ("count", "avg") for a in self.aggregates)

    @property
    def sum_columns(self) -> tuple[tuple[str, str], ...]:
        """Distinct summed logical columns, in first-use order.

        SUM and AVG aggregates over the same column share one 64-bit
        accumulator slot — the source of the multi-aggregate amortization.
        """
        seen: list[tuple[str, str]] = []
        for agg in self.aggregates:
            if agg.kind in ("sum", "avg"):
                key = (agg.table, agg.column)
                if key not in seen:
                    seen.append(key)
        return tuple(seen)

    @property
    def n_groups(self) -> int:
        return 1 if self.group_by is None else len(self.group_by.domain)

    @property
    def predicate_words(self) -> int:
        """Scan predicate width in ring words (min 1, the base charge)."""
        return max(1, len(predicate_clauses(self.predicate)))


# -- lowered plan and answers --------------------------------------------------
@dataclass(frozen=True)
class ScanAggregate:
    """One aggregate lowered onto view columns (``p_…``/``d_…``)."""

    kind: str
    name: str
    column: str | None = None  # view column for sum/avg; None for count


@dataclass(frozen=True)
class ScanClause:
    """One lowered predicate clause: ``lo <= view.column <= hi``."""

    column: str
    lo: int
    hi: int


@dataclass(frozen=True)
class ViewScanPlan(_HashedOnce):
    """Everything one oblivious padded scan needs to answer a query.

    Produced by :func:`repro.query.rewrite.lower_to_view_scan`; executed
    by :class:`repro.query.parallel.ParallelScanExecutor` in **one** pass
    over the padded view (one kernel call per shard) regardless of how
    many aggregates, groups, or predicate clauses it carries.
    """

    view_name: str
    aggregates: tuple[ScanAggregate, ...]
    group_column: str | None = None
    group_domain: tuple[int, ...] | None = None
    clauses: tuple[ScanClause, ...] = ()

    __hash__ = _HashedOnce.__hash__

    @property
    def need_count(self) -> bool:
        return any(a.kind in ("count", "avg") for a in self.aggregates)

    @property
    def sum_view_columns(self) -> tuple[str, ...]:
        """Distinct summed view columns, in first-use order."""
        seen: list[str] = []
        for agg in self.aggregates:
            if agg.kind in ("sum", "avg") and agg.column not in seen:
                seen.append(agg.column)
        return tuple(seen)

    @property
    def aggregate_slots(self) -> tuple[tuple[str, str, int | None], ...]:
        """``(kind, output name, sum slot)`` per aggregate.

        The slot indexes :attr:`sum_view_columns` (``None`` for a COUNT)
        — the shape :func:`repro.query.executor.assemble_answer` folds
        the scan's ``(counts, sums)`` accumulators with.
        """
        sum_columns = self.sum_view_columns
        return tuple(
            (
                agg.kind,
                agg.name,
                None if agg.column is None else sum_columns.index(agg.column),
            )
            for agg in self.aggregates
        )

    @property
    def n_groups(self) -> int:
        return 1 if self.group_domain is None else len(self.group_domain)

    @property
    def predicate_words(self) -> int:
        return max(1, len(self.clauses))


@dataclass(frozen=True)
class QueryAnswer:
    """The padded result table of one executed logical query.

    ``rows`` is aligned with ``group_keys`` (or a single row for an
    ungrouped query); each row is aligned with ``columns``.  COUNT/SUM
    cells are exact integers pre-noise, AVG cells are floats (0.0 for an
    empty group).
    """

    columns: tuple[str, ...]
    group_keys: tuple[int, ...] | None
    rows: tuple[tuple[float, ...], ...]

    def scalar(self) -> float:
        """The single cell of an ungrouped single-aggregate query."""
        if self.group_keys is not None or len(self.columns) != 1:
            raise SchemaError(
                f"scalar() needs an ungrouped single-aggregate answer, got "
                f"{len(self.columns)} columns x {len(self.rows)} rows"
            )
        return self.rows[0][0]

    def cell(self, column: str, group: int | None = None) -> float:
        """One cell by output name (and group key, when grouped)."""
        col = self.columns.index(column) if column in self.columns else None
        if col is None:
            raise SchemaError(
                f"no aggregate named {column!r}; columns: {self.columns}"
            )
        if self.group_keys is None:
            if group is not None:
                raise SchemaError("query has no GROUP BY; omit the group key")
            return self.rows[0][col]
        if group not in self.group_keys:
            raise SchemaError(
                f"group {group!r} not in domain {self.group_keys}"
            )
        return self.rows[self.group_keys.index(group)][col]
