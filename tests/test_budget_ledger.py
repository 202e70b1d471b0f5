"""The columnar contribution ledger against the per-batch one it replaced.

:class:`~repro.core.budget.ContributionLedger` keeps a transform group's
budget as columns aligned to its tables' upload logs and settles a whole
Transform window with one check and three slice updates.
:class:`PerBatchLedger` and :func:`oracle_window` are the ledger and the
active-window filter it replaced, one record group per uploaded batch:
they still define it.  Every window, cap, refusal (type and message),
state column and Theorem 3 export must come out equal.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ContributionBudgetError
from repro.common.rng import spawn
from repro.common.types import Schema
from repro.core.budget import ContributionLedger
from repro.dp.accountant import theorem3_epsilon
from repro.sharing.shared_value import SharedTable
from repro.storage.outsourced_table import OutsourcedTable

SCHEMA = Schema(("k", "ts"))
EPS_R = 0.7 / 6  # no finite binary expansion


class PerBatchLedger:
    """The per-batch ledger: one record group per ``(table, time)``."""

    def __init__(self, omega: int, budget: int) -> None:
        self.omega, self.budget = omega, budget
        self.groups: dict[tuple[str, int], dict] = {}
        self.worst: tuple[int, tuple[str, int] | None] = (0, None)

    def register_batch(self, table: str, time: int, n_rows: int) -> None:
        self.groups[(table, time)] = {
            "emitted": np.zeros(n_rows, dtype=np.int64),
            "invocations": [],
        }

    def remaining_uses(self, table: str, time: int) -> int:
        return self.budget // self.omega - len(self.groups[(table, time)]["invocations"])

    def charge_invocation(self, table: str, time: int, at_time: int) -> None:
        group = self.groups[(table, time)]
        if self.remaining_uses(table, time) <= 0:
            raise ContributionBudgetError(
                f"batch ({table!r}, t={time}) has no remaining contribution "
                f"budget (b={self.budget}, omega={self.omega})"
            )
        group["invocations"].append(at_time)
        uses = len(group["invocations"])
        if len(group["emitted"]) and uses > self.worst[0]:
            self.worst = (uses, (table, time))

    def caps(self, table: str, time: int) -> np.ndarray:
        return np.maximum(self.budget - self.groups[(table, time)]["emitted"], 0)

    def record_emissions(self, table: str, time: int, counts: np.ndarray) -> None:
        group = self.groups[(table, time)]
        if (counts > self.omega).any():
            raise ContributionBudgetError(
                f"a record emitted more than omega={self.omega} rows in one "
                "invocation"
            )
        totals = group["emitted"] + counts
        if (totals > self.budget).any():
            raise ContributionBudgetError(
                f"a record exceeded its lifetime budget b={self.budget}"
            )
        group["emitted"] = totals

    def settle(self, table: str, times: list[int], at_time: int, counts) -> None:
        lo = 0
        for time in times:
            hi = lo + len(self.groups[(table, time)]["emitted"])
            self.charge_invocation(table, time, at_time)
            self.record_emissions(table, time, counts[lo:hi])
            lo = hi

    def worst_contributions(self, eps: float) -> dict:
        uses, key = self.worst
        return {} if key is None else {(*key, 0): [(float(self.omega), eps)] * uses}

    def theorem3_contributions(self, eps: float) -> dict:
        return {
            (table, time, row): [(float(self.omega), eps)] * len(g["invocations"])
            for (table, time), g in self.groups.items()
            for row in range(len(g["emitted"]))
        }


def oracle_window(oracle: PerBatchLedger, table: str, times: list[int]) -> list[int]:
    """The active window: every batch of ``table`` with uses left."""
    return [t for t in times if oracle.remaining_uses(table, t) > 0]


def upload(log: OutsourcedTable, time: int, n_rows: int) -> None:
    rows = np.full((n_rows, 2), time, dtype=np.uint32)
    flags = np.ones(n_rows, dtype=np.uint32)
    log.append_batch(SharedTable.from_plain(SCHEMA, rows, flags, spawn(time, "b")), time)


def ledger_state(ledger: ContributionLedger, log: OutsourcedTable) -> list:
    """Per batch of ``log``: time, emissions, invocation times."""
    columns = ledger.snapshot_state(log.name)
    starts = log.starts
    return [
        (
            int(time),
            columns["emitted"][starts[k] : starts[k + 1]].tolist(),
            columns["invocations"][k, : columns["uses"][k]].tolist(),
        )
        for k, time in enumerate(log.times)
    ]


def oracle_state(oracle: PerBatchLedger, table: str, times) -> list:
    return [
        (
            int(t),
            oracle.groups[(table, int(t))]["emitted"].tolist(),
            list(oracle.groups[(table, int(t))]["invocations"]),
        )
        for t in times
    ]


def outcome(call):
    try:
        call()
    except ContributionBudgetError as exc:
        return type(exc), str(exc)
    return None


class Pair:
    """The columnar ledger over two logs and the oracle, fed alike."""

    def __init__(self, omega: int, budget: int) -> None:
        self.logs = (OutsourcedTable(SCHEMA, "p"), OutsourcedTable(SCHEMA, "d"))
        self.ledger = ContributionLedger(omega, budget, self.logs)
        self.oracle = PerBatchLedger(omega, budget)

    def upload(self, time: int, sizes: tuple[int, int]) -> None:
        for log, n_rows in zip(self.logs, sizes):
            upload(log, time, n_rows)
            self.oracle.register_batch(log.name, time, n_rows)

    def assert_equal(self) -> None:
        for log in self.logs:
            assert ledger_state(self.ledger, log) == oracle_state(
                self.oracle, log.name, log.times
            )
        assert self.ledger.worst_contributions(EPS_R) == self.oracle.worst_contributions(EPS_R)
        assert self.ledger.theorem3_contributions(EPS_R) == self.oracle.theorem3_contributions(EPS_R)
        assert theorem3_epsilon(self.ledger.worst_contributions(EPS_R)) == theorem3_epsilon(
            self.oracle.theorem3_contributions(EPS_R)
        )


steps = st.lists(
    st.tuples(
        st.integers(0, 4),  # probe batch rows
        st.integers(0, 3),  # driver batch rows
        st.lists(st.integers(0, 6), max_size=40),  # emission counts, unclipped
        st.booleans(),  # clip the counts to what the join may emit?
    ),
    min_size=1,
    max_size=14,
)


@settings(max_examples=150, deadline=None)
@given(omega=st.integers(1, 3), extra=st.integers(0, 6), steps=steps)
def test_runs_equal_the_per_batch_ledger(omega, extra, steps):
    """A stream of uploads and Transform settlements — probe window plus
    the driver batch, as a run charges them — with counts the join could
    emit and counts over ω or over ``b``: equal windows, caps, refusals,
    state, and Theorem 3 exports after every step."""
    pair = Pair(omega, omega + extra)
    probe, driver = pair.logs
    for time, (n_probe, n_driver, raw, clip) in enumerate(steps, start=1):
        pair.upload(time, (n_probe, n_driver))
        lo, hi = pair.ledger.window("p")
        times = probe.times.tolist()
        assert times[lo:hi] == oracle_window(pair.oracle, "p", times)
        d = driver.n_batches - 1
        for log, a, b in ((probe, lo, hi), (driver, d, d + 1)):
            window = log.times[a:b].tolist()
            caps = pair.ledger.caps(log.name, a, b)
            want_caps = [pair.oracle.caps(log.name, t) for t in window]
            assert caps.tolist() == np.concatenate([np.zeros(0, np.int64), *want_caps]).tolist()
            counts = np.resize(np.asarray(raw or [0], dtype=np.int64), caps.shape)
            if clip:
                counts = np.minimum(counts, np.minimum(caps, omega))
            want = outcome(lambda: pair.oracle.settle(log.name, window, time, counts))
            got = outcome(lambda: pair.ledger.settle(log.name, a, b, time, counts))
            assert got == want
        pair.assert_equal()


def test_an_exhausted_batch_in_a_window_is_named():
    """Settling a range that holds a spent batch refuses it by name after
    charging the batches before it, as charging batch by batch does."""
    pair = Pair(omega=2, budget=4)  # b // ω = 2 uses
    for time in (1, 2, 3):
        pair.upload(time, (2, 1))
    for at_time in (3, 4):
        zeros = np.zeros(6, dtype=np.int64)
        pair.ledger.settle("p", 0, 3, at_time, zeros)
        pair.oracle.settle("p", [1, 2, 3], at_time, zeros)
    pair.upload(4, (1, 1))
    assert pair.ledger.window("p") == (3, 4)
    zeros = np.zeros(7, dtype=np.int64)
    want = outcome(lambda: pair.oracle.settle("p", [1, 2, 3, 4], 5, zeros))
    assert want is not None and "('p', t=1)" in want[1]
    assert outcome(lambda: pair.ledger.settle("p", 0, 4, 5, zeros)) == want
    pair.assert_equal()


def test_counts_must_cover_the_window():
    pair = Pair(omega=1, budget=2)
    pair.upload(1, (2, 1))
    with pytest.raises(ContributionBudgetError, match="shape"):
        pair.ledger.settle("p", 0, 1, 1, np.zeros(3, dtype=np.int64))
    with pytest.raises(ContributionBudgetError, match="not read by"):
        pair.ledger.window("q")


def test_invalid_parameters():
    with pytest.raises(ContributionBudgetError):
        ContributionLedger(omega=0, budget=5, logs=())
    with pytest.raises(ContributionBudgetError):
        ContributionLedger(omega=5, budget=3, logs=())
    log = OutsourcedTable(SCHEMA, "p")
    with pytest.raises(ContributionBudgetError, match="distinct"):
        ContributionLedger(1, 2, (log, log))


def test_the_ledger_grows_to_the_log_when_read():
    """Batches uploaded since the last read have spent nothing, however
    many of them arrive in between."""
    pair = Pair(omega=1, budget=3)
    for time in range(1, 200):
        pair.upload(time, (time % 3, 1))
        if time % 50 == 0:
            lo, hi = pair.ledger.window("p")
            counts = np.zeros(int(probe_rows(pair, lo, hi)), dtype=np.int64)
            pair.ledger.settle("p", lo, hi, time, counts)
            pair.oracle.settle("p", pair.logs[0].times[lo:hi].tolist(), time, counts)
    pair.assert_equal()


def probe_rows(pair: Pair, lo: int, hi: int) -> int:
    starts = pair.logs[0].starts
    return starts[hi] - starts[lo]


@settings(max_examples=60, deadline=None)
@given(omega=st.integers(1, 3), extra=st.integers(0, 4), steps=steps)
def test_restore_rebuilds_the_worst_batch_the_live_ledger_keeps(omega, extra, steps):
    """Adopting a ledger's columns keeps Theorem 3's worst entry: the
    batch the live ledger found first, in charge order."""
    pair = Pair(omega, omega + extra)
    probe, driver = pair.logs
    for time, (n_probe, n_driver, raw, _) in enumerate(steps, start=1):
        pair.upload(time, (n_probe, n_driver))
        lo, hi = pair.ledger.window("p")
        d = driver.n_batches - 1
        for name, a, b in (("p", lo, hi), ("d", d, d + 1)):
            caps = pair.ledger.caps(name, a, b)
            counts = np.minimum(np.resize(np.asarray(raw or [0]), caps.shape), caps)
            pair.ledger.settle(name, a, b, time, np.minimum(counts, omega))
    restored = ContributionLedger(omega, omega + extra, pair.logs)
    restored.restore_state(
        {
            log.name: {k: v.copy() for k, v in pair.ledger.snapshot_state(log.name).items()}
            for log in pair.logs
        },
    )
    assert restored.worst_contributions(EPS_R) == pair.ledger.worst_contributions(EPS_R)
    assert restored.window("p") == pair.ledger.window("p")
    for log in pair.logs:
        assert ledger_state(restored, log) == ledger_state(pair.ledger, log)


def restored_copy(ledger: ContributionLedger, logs) -> ContributionLedger:
    restored = ContributionLedger(ledger.omega, ledger.budget, logs)
    restored.restore_state(
        {log.name: {k: v.copy() for k, v in ledger.snapshot_state(log.name).items()} for log in logs},
    )
    return restored


def test_restore_keeps_the_earliest_of_equally_charged_batches():
    """b // ω = 1: a driver batch with a record reaches one use at t=1,
    the first probe batch with a record only at t=2.  The worst batch is
    the driver's, live and after a restore, though the probe table is
    charged first within a run."""
    pair = Pair(omega=2, budget=2)
    for time, sizes in ((1, (0, 1)), (2, (2, 1))):
        pair.upload(time, sizes)
        lo, hi = pair.ledger.window("p")
        pair.ledger.settle("p", lo, hi, time, np.zeros(int(probe_rows(pair, lo, hi)), np.int64))
        pair.ledger.settle("d", time - 1, time, time, np.zeros(1, np.int64))
    want = {("d", 1, 0): [(2.0, EPS_R)]}
    assert pair.ledger.worst_contributions(EPS_R) == want
    assert restored_copy(pair.ledger, pair.logs).worst_contributions(EPS_R) == want


def test_a_window_over_the_lifetime_budget_is_refused():
    """ω uses of at most ω entries never pass ``b``, so only a state
    restored at the edge of it can: refused as the per-batch ledger
    refuses a record over ``b``, after the batches before it settled."""
    pair = Pair(omega=2, budget=5)
    pair.upload(1, (2, 1))
    pair.upload(2, (1, 1))
    columns = {log.name: pair.ledger.snapshot_state(log.name) for log in pair.logs}
    columns["p"]["emitted"][2] = 4  # the t=2 batch's one record
    pair.oracle.groups[("p", 2)]["emitted"][0] = 4
    pair.ledger.restore_state(columns)
    counts = np.asarray([1, 2, 2])
    want = outcome(lambda: pair.oracle.settle("p", [1, 2], 3, counts))
    assert want == (ContributionBudgetError, "a record exceeded its lifetime budget b=5")
    assert outcome(lambda: pair.ledger.settle("p", 0, 2, 3, counts)) == want
    pair.assert_equal()
