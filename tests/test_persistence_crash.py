"""The crash loop: a checkpoint stopped at every write boundary.

A checkpoint is a directory of four files, each a base plus append-only
segments, ``public`` written last with the commit record (see
:mod:`repro.storage.chain`).  Here the writer is stopped — by an
injected failure, not a signal — at every write, truncate, fsync,
rename, mkdir and unlink of a segment append, of a fresh base written
over a committed checkpoint, and of a compaction; each stop then
restores from what is on disk and asserts:

* the restore is **prefix-consistent**: it equals the last committed
  checkpoint — the one before the stop, or the one being written if its
  commit made it out first — never a mixture;
* no ε spent before that commit is restored as unspent;
* every tenant refusal made before it is still refused;

and the restored database, continuing the same stream and checkpointing
to the same path (over whatever torn tail the stop left), restores
again into the live state.

The failure is injected from here only: the module's ``open`` and
``os`` are swapped for ones that count the operations and fail the
k-th, a write after writing half its bytes.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

import pytest

from repro.common.errors import PersistenceError, PrivacyBudgetError
from repro.server import persistence
from repro.server.persistence import restore_database, snapshot_database
from repro.storage import chain as chain_file

from test_persistence import (
    build_database,
    count_query,
    feed,
    fingerprint,
    multi_query,
    share_state,
    sum_query,
)

#: What the tenant ``ana`` may spend, and what she asks for: her second
#: release is refused before the first commit.
CAP, RELEASE = 0.6, 0.5


class Crash(Exception):
    """The injected failure: the writer stops here."""


class Faults:
    """Counts the writer's operations and fails the ``fail_at``-th — and,
    the process being dead, every one after it (the writer's clean-up
    included)."""

    def __init__(self, fail_at: int) -> None:
        self.fail_at = fail_at
        self.count = 0
        self.ops: list[str] = []

    def tick(self, op: str) -> bool:
        self.count += 1
        self.ops.append(op)
        return 0 < self.fail_at <= self.count

    @property
    def stopped_at(self) -> str:
        return self.ops[self.fail_at - 1]


class FaultyFile:
    def __init__(self, fh, faults: Faults) -> None:
        self._fh, self._faults = fh, faults

    def write(self, data) -> int:
        if self._faults.tick("write"):
            if self._faults.count == self._faults.fail_at:
                raw = memoryview(data).cast("B")
                self._fh.write(raw[: len(raw) // 2])  # a torn write
            raise Crash("write")
        return self._fh.write(data)

    def truncate(self, *args):
        if self._faults.tick("truncate"):
            raise Crash("truncate")
        return self._fh.truncate(*args)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()


class FaultyOs:
    """``os`` with its mutating calls counted."""

    OPS = ("fsync", "rename", "mkdir", "unlink", "rmdir", "truncate")

    def __init__(self, faults: Faults) -> None:
        self._faults = faults

    def __getattr__(self, name):
        real = getattr(os, name)
        if name not in self.OPS:
            return real

        def op(*args, **kwargs):
            if self._faults.tick(name):
                raise Crash(name)
            return real(*args, **kwargs)

        return op


def checkpoint_with_fault(monkeypatch, db, path, fail_at: int, metadata):
    """Checkpoint ``db`` to ``path``, failing the ``fail_at``-th operation
    (none, if it is 0): the operations counted, and the receipt if the
    checkpoint ran to the end."""
    faults, info = Faults(fail_at), None

    def faulty_open(*args, **kwargs):
        return FaultyFile(open(*args, **kwargs), faults)

    with monkeypatch.context() as patch:
        patch.setattr(chain_file, "open", faulty_open, raising=False)
        patch.setattr(chain_file, "os", FaultyOs(faults))
        try:
            info = snapshot_database(db, path, metadata=metadata)
        except Crash:
            pass
    return faults, info


def tenant_refused(db) -> bool:
    try:
        db.query(multi_query(), 2, epsilon=RELEASE, tenant="ana")
    except PrivacyBudgetError:
        return True
    return False


def committed_state(db) -> tuple:
    return fingerprint(db), share_state(db)


def more_stream(db, step: int) -> None:
    """One step and two releases — one a tenant's, within her cap."""
    feed(db, step)
    db.query(multi_query(), step, epsilon=0.05)
    db.query(multi_query(), step, epsilon=0.05, tenant="zed")


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    """Checkpoints to copy from: ``segment`` (a base and a segment, the
    next checkpoint appends), ``compaction`` (segments past the base's
    size, the next checkpoint compacts), each with ana's refusal
    committed."""
    root = tmp_path_factory.mktemp("prepared")
    db = build_database()
    for t in (1, 2):
        feed(db, t)
    db.set_tenant_budgets({"ana": CAP, "zed": 10.0})
    db.query(multi_query(), 2, epsilon=RELEASE, tenant="ana")
    assert tenant_refused(db)
    snapshot_database(db, root / "segment")
    more_stream(db, 3)
    assert snapshot_database(db, root / "segment").kind == "segment"
    shutil.copytree(root / "segment", root / "compaction")
    restored = restore_database(root / "compaction").database
    while True:
        info = snapshot_database(restored, root / "compaction", metadata={"n": 1})
        chain = persistence._CHAINS[restored][os.path.abspath(root / "compaction")].chain
        assert info.kind == "segment"
        if chain.segment_bytes > chain.base_bytes:
            return root


def trial(monkeypatch, prepared, tmp_path, kind: str, fail_at: int) -> Faults:
    path = tmp_path / f"{kind}-{fail_at}"
    shutil.copytree(prepared / ("compaction" if kind == "compaction" else "segment"), path)
    db = restore_database(path).database
    before = committed_state(db)
    epsilon_before = db.realized_epsilon()
    events_before = db.accountant.snapshot_state()
    if kind == "base":
        db.reshard(2)  # a new configuration: the next checkpoint is a base
    more_stream(db, 4)
    after = committed_state(db)
    faults, _ = checkpoint_with_fault(monkeypatch, db, path, fail_at, {"n": 2})

    restored = restore_database(path)
    state = committed_state(restored.database)
    assert state in (before, after), f"{kind} stopped at {faults.stopped_at} #{fail_at}"
    rdb = restored.database
    assert rdb.accountant.snapshot_state()[: len(events_before)] == events_before
    assert rdb.realized_epsilon() >= epsilon_before
    assert tenant_refused(rdb)

    # The resumed writer continues the stream on the same path.
    if state == before:
        if kind == "base":
            rdb.reshard(2)
        more_stream(rdb, 4)
    more_stream(rdb, 5)
    more_stream(db, 5)
    snapshot_database(rdb, path, metadata={"n": 3})
    again = restore_database(path)
    assert again.info.discarded_bytes == 0
    assert committed_state(again.database) == committed_state(db)
    return faults


@pytest.mark.parametrize("kind", ["segment", "base", "compaction"])
def test_a_checkpoint_stopped_at_every_write_boundary_restores_the_last_commit(
    monkeypatch, prepared, tmp_path, kind
):
    written, info = checkpoint_with_fault(
        monkeypatch, *_ready(prepared, tmp_path, kind), 0, {"n": 2}
    )
    assert info.kind == kind
    boundaries = written.count
    assert boundaries >= (12 if kind == "segment" else 20)
    torn = 0
    for fail_at in range(1, boundaries + 1):
        faults = trial(monkeypatch, prepared, tmp_path, kind, fail_at)
        assert faults.count >= fail_at
        torn += faults.stopped_at == "write"
    assert torn, "some stops must tear a write"


def _ready(prepared, tmp_path, kind: str):
    """A database about to take the checkpoint ``kind`` at its path."""
    path = tmp_path / f"{kind}-count"
    shutil.copytree(prepared / ("compaction" if kind == "compaction" else "segment"), path)
    db = restore_database(path).database
    if kind == "base":
        db.reshard(2)
    more_stream(db, 4)
    return db, path


def test_a_torn_tail_is_reported_and_truncated_by_the_next_append(tmp_path, prepared):
    """Bytes past the last commit — in ``public`` and in a party's file —
    are left behind by a restore, reported, and cut by the next append."""
    path = tmp_path / "torn"
    shutil.copytree(prepared / "segment", path)
    committed = restore_database(path)
    for name, junk in (("public", b"incshrink-seg"), ("party0", b"\0" * 40)):
        with open(path / name, "ab") as fh:
            fh.write(junk)
    restored = restore_database(path)
    assert restored.info.discarded_bytes == 13 + 40
    assert restored.info.sha256 == committed.info.sha256
    assert committed_state(restored.database) == committed_state(committed.database)
    db = restored.database
    more_stream(db, 4)
    assert snapshot_database(db, path).kind == "segment"
    again = restore_database(path)
    assert again.info.discarded_bytes == 0
    assert committed_state(again.database) == committed_state(db)
    # Space a crash left unwritten reads as zeros, at any length; a tail
    # with any other byte that is not a segment is refused.
    zeros, ones = tmp_path / "zeros", tmp_path / "ones"
    for target, fill in ((zeros, b"\0"), (ones, b"\x01")):
        shutil.copytree(prepared / "segment", target)
        with open(target / "public", "ab") as fh:
            fh.write(fill * 200)
    with pytest.raises(PersistenceError, match="no segment at byte"):
        restore_database(ones)
    restored = restore_database(zeros)
    assert restored.info.discarded_bytes == 200
    assert restored.info.sha256 == committed.info.sha256
    db = restored.database
    more_stream(db, 4)
    assert snapshot_database(db, zeros).kind == "segment"
    assert restore_database(zeros).info.discarded_bytes == 0


def test_a_restore_with_no_checkpoint_at_the_path_reads_the_retired_one(tmp_path, prepared):
    """A base swap stopped between its two renames leaves the last commit
    beside the path; the restore reads it, and the next checkpoint puts
    a fresh base at the path."""
    path = tmp_path / "swap"
    shutil.copytree(prepared / "segment", Path(str(path) + chain_file.RETIRED_SUFFIX))
    restored = restore_database(path)
    assert restored.info.segments == 1
    with pytest.raises(PersistenceError, match="cannot read"):
        restore_database(tmp_path / "nothing")
    assert snapshot_database(restored.database, path).kind == "base"
    assert not Path(str(path) + chain_file.RETIRED_SUFFIX).exists()
    assert committed_state(restore_database(path).database) == committed_state(
        restored.database
    )


def released_noise(db, query, epsilon: float) -> float:
    """Release ``query`` at ``epsilon``; return the noise it carried (the
    released answer less the same query's answer without noise)."""
    exact = db.query(query, 3).answer
    return db.query(query, 3, epsilon=epsilon).answer - exact


@pytest.mark.xfail(strict=True, reason="ROADMAP item 18")
def test_a_release_after_the_last_commit_survives_a_crash(tmp_path):
    """A COUNT released after the last checkpoint, then a crash.  The
    restore must still charge the COUNT's ε, and the next release must
    draw fresh noise.  Neither holds while a checkpoint is the only
    durable record: the restored ledger un-spends the COUNT, and the
    rewound noise stream gives the SUM the COUNT's noise again."""
    db = build_database()
    for t in (1, 2, 3):
        feed(db, t)
    path = tmp_path / "crash.snap"
    snapshot_database(db, path)
    count_noise = released_noise(db, count_query(), 0.5)
    spent = db.realized_epsilon()
    restored = restore_database(path).database  # the process died here
    assert restored.realized_epsilon() >= spent
    assert released_noise(restored, sum_query(), 0.5) != count_noise
