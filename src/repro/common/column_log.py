"""One append-only log of aligned columns: everything that grows with the stream.

The outsourced table is an append-only log of padded batches whose sizes
and times are public (paper Sections 2.2 and 4.1), and so is every
structure beside it: a transform group's budget, a view shard, the
owners' logical mirror.  A :class:`ColumnLog` is that log, once: its
columns declare a dotted name (as the snapshot file nests it:
``rows.s0``), a dtype, the trailing shape of an entry, the memory order
(``"F"``: each trailing column one contiguous run) and the invariants
their values keep, and one component grows it, hands out zero-copy
prefixes and suffixes, and checks a snapshot's arrays before adopting
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import PersistenceError

#: A log that outgrows its buffers moves into buffers this many times what
#: it needs (at least :data:`MIN_CAPACITY_ROWS`), one column at a time: a
#: growth never holds two copies of more than one column, and an entry is
#: moved once on average.  ``docs/SHARDING.md`` measures the factor both
#: ways: the ingest share of growths, and ``peak_rss_mb`` once buffers of
#: 4 MiB and up are backed by huge pages (twice reads what an exact fit
#: reads on the 400k-row benchmark view; four times does not).
CAPACITY_FACTOR = 2
MIN_CAPACITY_ROWS = 64


@dataclass(frozen=True)
class Increasing:
    strict: bool = True

    def holds(self, values: np.ndarray) -> bool:
        steps = np.diff(values)
        return not (steps <= 0 if self.strict else steps < 0).any()

    def __str__(self) -> str:
        return "strictly increasing" if self.strict else "non-decreasing"


@dataclass(frozen=True)
class InRange:
    """Every value in ``[lo, hi]`` (none, when ``lo > hi``)."""

    lo: int
    hi: int

    def holds(self, values: np.ndarray) -> bool:
        return not len(values) or bool(self.lo <= values.min() and values.max() <= self.hi)

    def __str__(self) -> str:
        return f"in [{self.lo}, {self.hi}]"


@dataclass(frozen=True)
class Positive:
    def holds(self, values: np.ndarray) -> bool:
        return bool((np.isfinite(values) & (values > 0)).all())

    def __str__(self) -> str:
        return "finite and > 0"


@dataclass(frozen=True, eq=False)
class Tiles:
    """Run lengths that tile ``log``: each in ``0..len(log)``, summing to it."""

    log: ColumnLog

    def holds(self, values: np.ndarray) -> bool:
        n = len(self.log)  # bounded first, so the sum cannot wrap around to n
        return not ((values < 0) | (values > n)).any() and int(values.sum()) == n

    def __str__(self) -> str:
        return f"run lengths that tile the {len(self.log)} rows of {self.log.name}"


@dataclass(frozen=True)
class Column:
    name: str
    dtype: np.dtype
    shape: tuple[int, ...] = ()
    order: str = "C"
    invariants: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "dtype", np.dtype(self.dtype))


class ColumnLog:
    """Named, aligned, append-only columns with one growth policy.

    Content is never overwritten by an append, and a growth moves into
    fresh zeroed arrays, so a :meth:`view` taken earlier keeps exactly the
    prefix it was taken over — a reader may keep folding over it while
    another thread appends.  ``len(log)`` is published last, so a reader
    that takes it without a lock finds the content behind it.
    """

    def __init__(
        self, name: str, columns: Sequence[Column], aligned_to: ColumnLog | None = None
    ) -> None:
        self.name = name
        self.schema = tuple(columns)
        self._index = {c.name: i for i, c in enumerate(self.schema)}
        #: a log whose length this one must have when adopted
        self.aligned_to = aligned_to
        self._buffers = [np.empty((0, *c.shape), c.dtype, order=c.order) for c in self.schema]
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, name: str) -> np.ndarray:
        """One column's content: a face."""
        return self._buffers[self._index[name]][: self._n]

    def append(self, *parts) -> None:
        """Add rows: one array-like per column, in declared order, each of
        the same number of entries."""
        lo = self._n
        hi = lo + len(parts[0])
        if hi > len(self._buffers[0]):
            self._grow(hi)
        for buf, part in zip(self._buffers, parts):
            buf[lo:hi] = part
        self._n = hi

    def append_row(self, *values) -> None:
        """Add one row: one value per column, in declared order — what a
        per-step or per-query log appends, without :meth:`append`'s
        conversion of a one-entry part per column."""
        n = self._n
        if n == len(self._buffers[0]):
            self._grow(n + 1)
        for buf, value in zip(self._buffers, values):
            buf[n] = value
        self._n = n + 1

    def pad(self, n: int) -> None:
        """Lengthen the log to ``n`` rows, the new ones zero: past the
        content a buffer holds only zeros, so nothing is written."""
        if n > self._n:
            if n > len(self._buffers[0]):
                self._grow(n)
            self._n = n

    def _grow(self, needed: int) -> None:
        n, capacity = self._n, CAPACITY_FACTOR * max(needed, MIN_CAPACITY_ROWS)
        for i, column in enumerate(self.schema):
            new = np.zeros((capacity, *column.shape), column.dtype, order=column.order)
            new[:n] = self._buffers[i][:n]
            self._buffers[i] = new

    def view(self, n: int | None = None) -> dict[str, np.ndarray]:
        """The first ``n`` rows (all, by default) of every column: faces."""
        n = self._n if n is None else n
        return {c.name: buf[:n] for c, buf in zip(self.schema, self._buffers)}

    def since(self, mark: int) -> dict[str, np.ndarray]:
        """The rows appended after the first ``mark``: faces."""
        return {c.name: buf[mark : self._n] for c, buf in zip(self.schema, self._buffers)}

    def columns(self, mark: int = 0) -> dict:
        """The content for the writer — the rows after the first ``mark``
        (all, by default) — nested as the dotted names say."""
        out: dict = {}
        for name, face in self.since(mark).items():
            *path, leaf = name.split(".")
            node = out
            for key in path:
                node = node.setdefault(key, {})
            node[leaf] = face
        return out

    def adopt(self, columns: dict) -> None:
        """Take ``columns`` (nested as :meth:`columns` writes them) as the
        log's content and buffers — no copy of an array already in its
        column's order — once :meth:`check` passes."""
        arrays = self.resolve(columns)
        n = self.check(arrays)
        self._buffers = [np.asarray(a, order=c.order) for c, a in zip(self.schema, arrays)]
        self._n = n

    def resolve(self, columns: dict) -> list:
        """The entries of ``columns`` (nested as :meth:`columns` writes
        them) that are this log's columns, in declared order."""
        arrays = []
        for column in self.schema:
            node = columns
            for key in column.name.split("."):
                if not isinstance(node, dict) or key not in node:
                    raise PersistenceError(f"{self.name}: has no column {column.name!r}")
                node = node[key]
            arrays.append(node)
        return arrays

    def check(self, arrays: Sequence) -> int:
        """The length of the log ``arrays`` (one per column, in declared
        order) describe, if each has its column's dtype and trailing shape
        and keeps its invariants, and all are aligned."""
        for c, arr in zip(self.schema, arrays):
            if not (
                isinstance(arr, np.ndarray)
                and arr.dtype == c.dtype
                and arr.ndim == 1 + len(c.shape)
                and arr.shape[1:] == c.shape
            ):
                raise PersistenceError(
                    f"{self.name}: column {c.name!r} is not an array of "
                    f"{c.dtype} entries of shape {c.shape}"
                )
        lengths = sorted({len(arr) for arr in arrays})
        if len(lengths) > 1:
            raise PersistenceError(f"{self.name}: its columns have lengths {lengths}")
        n = lengths[0] if lengths else 0
        if self.aligned_to is not None and n != len(self.aligned_to):
            raise PersistenceError(
                f"{self.name}: {n} rows, not aligned to the {len(self.aligned_to)} "
                f"of {self.aligned_to.name}"
            )
        for c, arr in zip(self.schema, arrays):
            for invariant in c.invariants:
                if not invariant.holds(arr):
                    raise PersistenceError(f"{self.name}: column {c.name!r} is not {invariant}")
        return n


def starts_log(name: str, lengths) -> ColumnLog:
    """Where each run of ``lengths`` starts, then where the last one ends
    (``len(lengths) + 1`` entries in column ``start``): a log that grows
    by one entry per appended run, for a caller that slices runs."""
    log = ColumnLog(name, [Column("start", np.int64)])
    log.append([0])
    log.append(np.cumsum(lengths, dtype=np.int64))
    return log
