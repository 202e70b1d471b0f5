"""Snapshot/restore round-trips for the persistence layer.

The acceptance criterion: a database snapshotted mid-stream and restored
(in this process or a fresh one) must answer queries **byte-identically**
to the uninterrupted run and report the identical ``realized_epsilon()``
— restarting the server must never double-spend privacy budget.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.column_log import InRange, Increasing, Positive, Tiles
from repro.common.errors import PersistenceError
from repro.common.metrics import QueryObservation
from repro.common.types import RecordBatch, Schema
from repro.core.view_def import JoinViewDefinition
from repro.query.ast import (
    AggregateSpec,
    GroupBySpec,
    LogicalJoinQuery,
    LogicalQuery,
)
from repro.server.database import IncShrinkDatabase, ViewRegistration
from repro.server import persistence
from repro.server.persistence import restore_database, snapshot_database
from repro.storage.chain import SNAPSHOT_MAGIC, SNAPSHOT_VERSION, commit

from test_storage import assert_cache_sizes_exact, assert_counters_exact

#: Bytes that are neither a snapshot nor decodable text.
NOT_UTF8 = b"\xae\xff\x00\x01" * 40

PROBE_SCHEMA = Schema(("key", "ots"))
DRIVER_SCHEMA = Schema(("key", "sts"))

SCRIPT = [
    ([[1, 1], [2, 1]], [[1, 2]]),
    ([[3, 2]], [[2, 3], [3, 3]]),
    ([], [[3, 4]]),
    ([[9, 4]], []),
    ([[3, 5]], [[9, 5]]),
    ([], [[3, 6]]),
]


def make_view(name: str, window_hi: int, omega: int = 2, budget: int = 6):
    return JoinViewDefinition(
        name=name,
        probe_table="orders",
        probe_schema=PROBE_SCHEMA,
        probe_key="key",
        probe_ts="ots",
        driver_table="shipments",
        driver_schema=DRIVER_SCHEMA,
        driver_key="key",
        driver_ts="sts",
        window_lo=0,
        window_hi=window_hi,
        omega=omega,
        budget=budget,
    )


def build_database(flush_interval: int = 2000, **view_kwargs) -> IncShrinkDatabase:
    """Three views covering all three persistent policy shapes."""
    db = IncShrinkDatabase(total_epsilon=2000.0, seed=7)
    db.register_view(
        ViewRegistration(
            make_view("full", 2, **view_kwargs),
            mode="ep",
            flush_interval=flush_interval,
        )
    )
    db.register_view(
        ViewRegistration(
            make_view("audit", 2, **view_kwargs),
            mode="dp-timer",
            timer_interval=1,
            flush_interval=flush_interval,
        )
    )
    db.register_view(
        ViewRegistration(
            make_view("recent", 1, **view_kwargs),
            mode="dp-ant",
            ant_threshold=1.0,
            flush_interval=flush_interval,
        )
    )
    return db


def feed(db: IncShrinkDatabase, time: int) -> None:
    probe_rows, driver_rows = SCRIPT[time - 1]
    probe = RecordBatch(
        PROBE_SCHEMA, np.asarray(probe_rows, dtype=np.uint32).reshape(-1, 2)
    ).padded_to(4)
    driver = RecordBatch(
        DRIVER_SCHEMA, np.asarray(driver_rows, dtype=np.uint32).reshape(-1, 2)
    ).padded_to(3)
    db.upload(time, {"orders": probe, "shipments": driver})
    db.step(time)


def join_spec(window_hi: int = 2) -> LogicalJoinQuery:
    return LogicalJoinQuery(
        probe_table="orders",
        driver_table="shipments",
        probe_key="key",
        driver_key="key",
        probe_ts="ots",
        driver_ts="sts",
        window_lo=0,
        window_hi=window_hi,
    )


def count_query(window_hi: int = 2) -> LogicalQuery:
    return LogicalQuery(join_spec(window_hi), (AggregateSpec.count(),))


def sum_query() -> LogicalQuery:
    return LogicalQuery(join_spec(), (AggregateSpec.sum_of("shipments", "sts"),))


def answer_mix(db: IncShrinkDatabase, time: int) -> list[float]:
    """The full query surface: two view scans, a SUM, and the NM fallback."""
    return [
        db.query(count_query(2), time).answer,
        db.query(count_query(1), time).answer,
        db.query(sum_query(), time).answer,
        db.query(count_query(7), time).answer,  # no matching view → NM
    ]


def fingerprint(db: IncShrinkDatabase) -> dict:
    return {
        "realized": db.realized_epsilon(),
        "per_view": {
            name: db.view_realized_epsilon(name) for name in db.views
        },
        "sequential": db.accountant.sequential_epsilon(),
        "events": db.accountant.snapshot_state(),
        "upload_counts": db.upload_counts(),
        "view_rows": {name: len(vr.view) for name, vr in db.views.items()},
        "cache_rows": {name: len(vr.cache) for name, vr in db.views.items()},
    }


def share_state(db: IncShrinkDatabase) -> dict:
    """Every stored share half, byte for byte, and where each randomness
    stream stands — what "continues byte-identically" means."""
    digest = hashlib.sha256()
    for vr in db.views.values():
        for table in (vr.view.table, vr.cache.table):
            for half in (
                table.rows.share0, table.rows.share1,
                table.flags.share0, table.flags.share1,
            ):
                digest.update(np.ascontiguousarray(half).tobytes())
    return {
        "shares": digest.hexdigest(),
        "streams": [words.state for words in ring_word_streams(db)],
    }


def ring_word_streams(db: IncShrinkDatabase) -> list:
    runtime = db.runtime
    return [runtime.server0.words, runtime.server1.words, runtime.owner_words]


@pytest.mark.parametrize(
    "snapshot_at, half_held",
    [
        pytest.param(1, True, id="1"),
        pytest.param(2, True, id="2"),
        pytest.param(4, False, id="4"),
        pytest.param(5, True, id="5"),  # only the owners' stream holds one
    ],
)
def test_mid_stream_roundtrip_is_byte_identical(tmp_path, snapshot_at, half_held):
    """Stop at any step, restore, continue: identical answers and ε.

    A ring-word stream that drew an odd number of words holds the high
    half of its last PCG64 output; the snapshot must carry it (folded
    into numpy's ``has_uint32``/``uinteger``) or the restored stream
    skips a word.  ``half_held`` pins which snapshot points cover that.
    """
    n_steps = len(SCRIPT)
    uninterrupted = build_database()
    for t in range(1, n_steps + 1):
        feed(uninterrupted, t)
    expected_answers = answer_mix(uninterrupted, n_steps)

    interrupted = build_database()
    for t in range(1, snapshot_at + 1):
        feed(interrupted, t)
    held = [words.state["has_uint32"] for words in ring_word_streams(interrupted)]
    assert any(held) == half_held
    path = tmp_path / "mid.snap"
    snapshot_database(interrupted, path)

    restored = restore_database(path).database
    for t in range(snapshot_at + 1, n_steps + 1):
        feed(restored, t)

    assert answer_mix(restored, n_steps) == expected_answers
    assert fingerprint(restored) == fingerprint(uninterrupted)
    assert share_state(restored) == share_state(uninterrupted)


def test_queries_do_not_perturb_the_stream(tmp_path):
    """Read load is RNG-neutral: a replica that answered hundreds of
    queries evolves identically to one that answered none — the property
    that lets the serving runtime run reads concurrently with ingestion."""
    chatty = build_database()
    quiet = build_database()
    for t in range(1, len(SCRIPT) + 1):
        feed(chatty, t)
        answer_mix(chatty, t)  # extra reads between every step
        feed(quiet, t)
    assert answer_mix(chatty, len(SCRIPT)) == answer_mix(quiet, len(SCRIPT))
    assert fingerprint(chatty)["events"] == fingerprint(quiet)["events"]


def test_mid_flush_roundtrip(tmp_path):
    """Snapshot between two flushes: the pending flush fires identically."""
    n_steps = len(SCRIPT)

    def build():
        return build_database(flush_interval=2)

    uninterrupted = build()
    for t in range(1, n_steps + 1):
        feed(uninterrupted, t)

    interrupted = build()
    for t in range(1, 4):  # t=3: flush ran at 2, next due at 4
        feed(interrupted, t)
    assert any(len(vr.cache) for vr in interrupted.views.values()), (
        "the mid-flush scenario needs a non-empty cache at snapshot time"
    )
    path = tmp_path / "midflush.snap"
    snapshot_database(interrupted, path)
    restored = restore_database(path).database
    for t in range(4, n_steps + 1):
        feed(restored, t)

    assert answer_mix(restored, n_steps) == answer_mix(uninterrupted, n_steps)
    assert fingerprint(restored) == fingerprint(uninterrupted)


def test_empty_cache_roundtrip(tmp_path):
    """Snapshot a finalized deployment that has not ingested anything."""
    fresh = build_database()
    fresh.finalize()
    path = tmp_path / "empty.snap"
    snapshot_database(fresh, path)
    restored = restore_database(path).database
    assert all(len(vr.cache) == 0 for vr in restored.views.values())

    baseline = build_database()
    for t in range(1, len(SCRIPT) + 1):
        feed(baseline, t)
        feed(restored, t)
    assert answer_mix(restored, len(SCRIPT)) == answer_mix(baseline, len(SCRIPT))
    assert fingerprint(restored) == fingerprint(baseline)


def test_exhausted_budget_roundtrip(tmp_path):
    """Retired batches stay retired: restoring must not refill the
    contribution budget a batch already spent."""
    n_steps = len(SCRIPT)
    # omega == budget → every batch participates in exactly one Transform.
    uninterrupted = build_database(omega=2, budget=2)
    for t in range(1, n_steps + 1):
        feed(uninterrupted, t)

    interrupted = build_database(omega=2, budget=2)
    for t in range(1, 4):
        feed(interrupted, t)
    exhausted = [
        g.ledger.snapshot_state("orders")["uses"].tolist()
        for g in interrupted.groups.values()
    ]
    assert all(uses[0] == 1 for uses in exhausted), (
        "scenario must contain budget-exhausted batches"
    )

    path = tmp_path / "budget.snap"
    snapshot_database(interrupted, path)
    restored = restore_database(path).database

    for live_g, rest_g in zip(
        interrupted.groups.values(), restored.groups.values()
    ):
        live = live_g.ledger.snapshot_state("orders")["uses"].tolist()
        rest = rest_g.ledger.snapshot_state("orders")["uses"].tolist()
        assert live == rest
        # The live ledger answers from the exhausted prefix it kept over
        # three steps, the restored one counts it afresh: same window.
        still_active = (rest.count(1), len(rest))
        for group in (live_g, rest_g):
            assert group.ledger.window("orders") == still_active
    for name in interrupted.views:
        assert restored.view_realized_epsilon(
            name
        ) == interrupted.view_realized_epsilon(name)

    for t in range(4, n_steps + 1):
        feed(restored, t)
    assert answer_mix(restored, n_steps) == answer_mix(uninterrupted, n_steps)
    assert fingerprint(restored) == fingerprint(uninterrupted)


def test_restored_groups_read_the_physical_logs(tmp_path):
    db = build_database()
    for t in range(1, 3):
        feed(db, t)
    path = tmp_path / "alias.snap"
    snapshot_database(db, path)
    restored = restore_database(path).database
    for group in restored.groups.values():
        for log, name in ((group.probe_log, "orders"), (group.driver_log, "shipments")):
            assert log is restored.tables[name], (
                "every group reads the physical log — uploads are stored once"
            )
        assert group.transform.probe_store is group.probe_log
    for live, rest in zip(db.groups.values(), restored.groups.values()):
        for name in ("orders", "shipments"):
            want = live.ledger.snapshot_state(name)
            for key, column in rest.ledger.snapshot_state(name).items():
                assert np.array_equal(column, want[key])


def test_metadata_roundtrip(tmp_path):
    db = build_database()
    feed(db, 1)
    path = tmp_path / "meta.snap"
    metadata = {"last_time": 1, "note": "hello", "nested": {"k": [1, 2]}}
    info = snapshot_database(db, path, metadata=metadata)
    restored = restore_database(path)
    assert restored.metadata == metadata
    assert restored.info.sha256 == info.sha256
    assert restored.info.bytes_written == info.bytes_written


@pytest.mark.parametrize(
    "metadata, plain",
    [
        ({"a": {"dtype": "<u4", "shape": [1], "offset": 0}}, True),
        ({"a": np.arange(3)}, False),
        ({"n": np.int64(3)}, False),
    ],
    ids=["array-entry-lookalike", "ndarray", "numpy-scalar"],
)
def test_metadata_is_plain_json(tmp_path, metadata, plain):
    """Metadata comes back exactly as given, whatever it looks like, or is
    refused before any file is created."""
    db = build_database()
    feed(db, 1)
    path = tmp_path / "meta.snap"
    if plain:
        snapshot_database(db, path, metadata=metadata)
        assert restore_database(path).metadata == metadata
    else:
        with pytest.raises(PersistenceError, match="plain JSON"):
            snapshot_database(db, path, metadata=metadata)
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "segment",
    [
        ("audit",),
        ("audit", 1.5),
        ("audit", True),
        ("audit", np.int64(3)),
        ("query", 1, "tenant", 7),
        ("query", 1, "owner", "ana"),
        ("query", 1 << 63),
        ["audit", 1],
        "audit",
    ],
    ids=repr,
)
def test_accountant_segments_of_other_shapes_are_refused(tmp_path, segment):
    """Only the two segment shapes the database writes are columns; any
    other event is refused before any file is created."""
    db = build_database()
    feed(db, 1)
    db.accountant.spend("custom", 0.25, segment)
    with pytest.raises(PersistenceError, match="cannot persist accountant"):
        snapshot_database(db, tmp_path / "odd.snap")
    assert list(tmp_path.iterdir()) == []


# -- the checkpoint files, read by their documented layout and not through the module
#: magic, version, head length, array length: how a base starts
_BASE = struct.Struct(">18sHQQ")
#: magic, head length, array length, check
_SEGMENT = struct.Struct(">17sQQ8s")
_DIGEST_BYTES = 32
_ARRAY_KEYS = {"dtype", "shape", "offset"}
_ORDERED_ARRAY_KEYS = _ARRAY_KEYS | {"order"}
#: A checkpoint's files, ``public`` (the one with the commit record) last.
FILES = ("party0", "party1", "trusted", "public")


def base_length(raw: bytes) -> int:
    _, _, head_len, array_len = _BASE.unpack_from(raw)
    return _BASE.size + head_len + array_len + _DIGEST_BYTES


def read_container(path, name: str = "public") -> tuple[dict, bytes, bytes]:
    """The base of one checkpoint file as (head, array section, trailer)."""
    raw = (Path(path) / name).read_bytes()
    magic, version, head_len, array_len = _BASE.unpack_from(raw)
    assert (magic, version) == (SNAPSHOT_MAGIC, SNAPSHOT_VERSION)
    head_end = _BASE.size + head_len
    end = head_end + array_len
    return (
        json.loads(raw[_BASE.size : head_end]),
        raw[head_end:end],
        raw[end : end + _DIGEST_BYTES],
    )


def snapshot_content(path) -> list[tuple[str, bytes]]:
    """Everything in a checkpoint's bases that is about the database: per
    file, the head less ``created_at`` and the commit record, whose
    digests cover it (as text — key order counts), and the array
    section.  Two checkpoints of the same state differ in nothing else."""
    content = []
    for name in FILES:
        head, arrays, _ = read_container(path, name)
        del head["created_at"]
        head.pop("commit", None)
        content.append((json.dumps(head), arrays))
    return content


def checkpoint_bytes(path) -> list[bytes]:
    return [(Path(path) / name).read_bytes() for name in FILES]


def write_container(
    path, head: dict, arrays: bytes, trailer: bytes | None = None,
    version: int = SNAPSHOT_VERSION,
) -> None:
    """Assemble one base file; the trailer is computed unless one is forced."""
    text = json.dumps(head, separators=(",", ":")).encode("utf8")
    payload = _BASE.pack(SNAPSHOT_MAGIC, version, len(text), len(arrays)) + text + arrays
    if trailer is None:
        trailer = hashlib.sha256(payload).digest()
    Path(path).parent.mkdir(exist_ok=True)
    Path(path).write_bytes(payload + trailer)


def copy_checkpoint(source, target) -> Path:
    target = Path(target)
    target.mkdir()
    for name in FILES:
        (target / name).write_bytes((Path(source) / name).read_bytes())
    return target


@pytest.fixture
def never_rebuilt(monkeypatch):
    """Fails the test if a refused file reaches the state-applying step."""

    def rebuild(body):
        raise AssertionError("_rebuild ran on a file that must be refused")

    monkeypatch.setattr(persistence, "_rebuild", rebuild)


class TestIntegrity:
    def _snapshot(self, tmp_path) -> Path:
        db = build_database()
        feed(db, 1)
        path = tmp_path / "ok.snap"
        snapshot_database(db, path)
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistenceError, match="cannot read"):
            restore_database(tmp_path / "nope.snap")

    @pytest.mark.parametrize(
        "content", [b"not json {", NOT_UTF8, b""], ids=["text", "binary", "empty"]
    )
    def test_not_a_snapshot(self, tmp_path, content):
        path = tmp_path / "garbage.snap"
        path.write_bytes(content)
        with pytest.raises(PersistenceError, match="not an IncShrink snapshot"):
            restore_database(path)

    def test_cli_reports_an_unreadable_file_without_a_traceback(self, tmp_path):
        """Non-UTF-8 bytes used to escape as ``UnicodeDecodeError``."""
        from repro.__main__ import main

        path = tmp_path / "garbage.snap"
        path.write_bytes(NOT_UTF8)
        for argv in (
            ["resume", "--snapshot", str(path)],
            ["query", "--snapshot", str(path), "--count"],
        ):
            with pytest.raises(SystemExit, match="cannot restore snapshot"):
                main(argv)

    @pytest.mark.parametrize("name", FILES)
    def test_wrong_magic(self, tmp_path, name):
        path = self._snapshot(tmp_path)
        raw = (path / name).read_bytes()
        (path / name).write_bytes(b"some-other-format!" + raw[18:])
        with pytest.raises(PersistenceError, match="not an IncShrink snapshot"):
            restore_database(path)

    def test_unknown_version(self, tmp_path, never_rebuilt):
        path = self._snapshot(tmp_path)
        head, arrays, _ = read_container(path)
        write_container(path / "public", head, arrays, version=99)
        with pytest.raises(PersistenceError, match="format version 99"):
            restore_database(path)

    def test_one_file_of_a_checkpoint_names_its_directory(self, tmp_path):
        path = self._snapshot(tmp_path)
        with pytest.raises(PersistenceError, match="restore the directory"):
            restore_database(path / "public")

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_a_json_document_is_refused_naming_its_version(
        self, tmp_path, never_rebuilt, version
    ):
        """Versions 1-3 were one JSON document; this build reads none."""
        path = tmp_path / "old.snap"
        document = {"magic": "incshrink-snapshot", "version": version, "body": {}}
        path.write_text(json.dumps(document), encoding="utf8")
        with pytest.raises(
            PersistenceError, match=f"format version {version}; this build reads version 8"
        ):
            restore_database(path)

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7, 9])
    def test_a_base_of_another_version_is_refused_naming_it(
        self, tmp_path, never_rebuilt, version
    ):
        """Any other version, as a checkpoint's ``public`` base or as one
        file (the one-file containers of versions 4-7)."""
        path = self._snapshot(tmp_path)
        head, arrays, _ = read_container(path)
        write_container(path / "public", head, arrays, version=version)
        write_container(tmp_path / "one.snap", head, arrays, version=version)
        for target in (path, tmp_path / "one.snap"):
            with pytest.raises(
                PersistenceError,
                match=f"format version {version}; this build reads version 8",
            ):
                restore_database(target)

    @pytest.mark.parametrize("command", ["resume", "query"])
    @pytest.mark.parametrize("version", [3, 7, 9])
    def test_the_cli_refuses_another_version_in_one_line(
        self, tmp_path, never_rebuilt, command, version
    ):
        """``resume`` and ``query`` end in one line naming the version: a
        JSON document (v3), a one-file container (v7), a checkpoint whose
        base is from a later build (v9)."""
        from repro.__main__ import main

        if version == 3:
            target = tmp_path / "old.snap"
            document = {"magic": "incshrink-snapshot", "version": version, "body": {}}
            target.write_text(json.dumps(document), encoding="utf8")
        else:
            path = self._snapshot(tmp_path)
            head, arrays, _ = read_container(path)
            target = path if version == 9 else tmp_path / "one.snap"
            write_container(
                path / "public" if version == 9 else target, head, arrays, version=version
            )
        argv = [command, "--snapshot", str(target)]
        with pytest.raises(SystemExit) as exited:
            main(argv + (["--count"] if command == "query" else []))
        [line] = str(exited.value.code).splitlines()
        assert line.startswith("cannot restore snapshot: ")
        assert line.endswith(f"format version {version}; this build reads version 8")

    def test_tampered_body_fails_digest(self, tmp_path, never_rebuilt):
        """A refund with a recomputed head but the stale trailer."""
        path = self._snapshot(tmp_path)
        head, arrays, trailer = read_container(path)
        spent = head["body"]["accountant"]["epsilon"]
        assert spent["shape"] != [0], "the scenario needs spent budget"
        # An attacker refunding spent budget must be caught by the digest.
        refunded = bytearray(arrays)
        at = spent["offset"]
        refunded[at : at + 8 * spent["shape"][0]] = bytes(8 * spent["shape"][0])
        write_container(path / "public", head, bytes(refunded), trailer=trailer)
        with pytest.raises(PersistenceError, match="integrity check"):
            restore_database(path)

    @pytest.mark.parametrize("name", FILES)
    def test_truncation_at_every_offset_is_refused(
        self, tmp_path, never_rebuilt, name
    ):
        path = self._snapshot(tmp_path)
        raw = (path / name).read_bytes()
        cut = copy_checkpoint(path, tmp_path / "cut.snap")
        for length in range(len(raw)):
            (cut / name).write_bytes(raw[:length])
            with pytest.raises(PersistenceError):
                restore_database(cut)

    @pytest.mark.parametrize("name", FILES)
    def test_a_flipped_byte_anywhere_fails_the_integrity_check(
        self, tmp_path, never_rebuilt, name
    ):
        """In a base or in a segment after it, in any of the four files."""
        db = build_database()
        feed(db, 1)
        path = tmp_path / "ok.snap"
        snapshot_database(db, path)
        feed(db, 2)
        db.query(multi_query(), 2, epsilon=0.5)
        assert snapshot_database(db, path).kind == "segment"
        raw = (path / name).read_bytes()
        head_end = _BASE.size + _BASE.unpack_from(raw)[2]
        base_end = base_length(raw)
        trailer_start = base_end - _DIGEST_BYTES
        assert head_end < trailer_start, "the scenario needs an array section"
        if name.startswith("party"):
            assert column_major_entries(path), "…with a column-major array in it"
        rng = random.Random(20221)
        offsets = [
            # the head- and array-length fields, then head, array section
            # and trailer; then anywhere in the segment
            *range(_BASE.size - 16, _BASE.size),
            *rng.sample(range(_BASE.size, head_end), 60),
            *rng.sample(range(head_end, trailer_start), min(30, trailer_start - head_end)),
            *rng.sample(range(trailer_start, base_end), 8),
            *range(base_end, base_end + _SEGMENT.size),
            *rng.sample(range(base_end + _SEGMENT.size, len(raw)), 60),
        ]
        flipped = copy_checkpoint(path, tmp_path / "flipped.snap")
        for offset in offsets:
            damaged = bytearray(raw)
            damaged[offset] ^= 1 << rng.randrange(8)
            (flipped / name).write_bytes(damaged)
            with pytest.raises(PersistenceError, match="integrity check"):
                restore_database(flipped)

    def test_declared_sizes_are_checked_before_anything_is_allocated(
        self, tmp_path, never_rebuilt
    ):
        """Authentic trailers, impossible sizes: refused as malformed,
        without attempting the terabyte allocations they ask for."""
        path = self._snapshot(tmp_path)
        head, arrays, _ = read_container(path)
        text = json.dumps(head, separators=(",", ":")).encode("utf8")
        for head_len, array_len in ((1 << 62, len(arrays)), (len(text), 1 << 62)):
            payload = _BASE.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, head_len, array_len) + text
            (path / "public").write_bytes(
                payload + arrays + hashlib.sha256(payload + arrays).digest()
            )
            with pytest.raises(PersistenceError, match="base declares"):
                restore_database(path)

        for entry in (
            {"dtype": "<u4", "shape": [1 << 40], "offset": 0},
            {"dtype": "<u4", "shape": [0, 1 << 62], "offset": 0},
            {"dtype": "O", "shape": [1], "offset": 0},
            {"dtype": ",u4", "shape": [1], "offset": 0},
            {"dtype": "<u4", "shape": [-1], "offset": 0},
            {"dtype": "<u4", "shape": [1], "offset": 4},
        ):
            write_container(
                path / "public", {"created_at": 0.0, "body": {"x": entry}}, b"\0" * 4
            )
            with pytest.raises(PersistenceError, match="malformed"):
                restore_database(path)

    def test_receipt_is_the_trailer_over_everything_before_it(self, tmp_path):
        """A base's receipt: ``public``'s trailer, and every file's bytes."""
        db = build_database()
        feed(db, 1)
        info = snapshot_database(db, tmp_path / "ok.snap")
        raw = (tmp_path / "ok.snap" / "public").read_bytes()
        assert info.sha256 == hashlib.sha256(raw[:-32]).hexdigest() == raw[-32:].hex()
        assert info.bytes_written == sum(map(len, checkpoint_bytes(tmp_path / "ok.snap")))
        assert (info.kind, info.segments) == ("base", 0)
        assert read_container(tmp_path / "ok.snap")[0]["created_at"] == info.created_at

    def test_magic_constant_is_stable(self, tmp_path):
        for raw in checkpoint_bytes(self._snapshot(tmp_path)):
            assert raw.startswith(SNAPSHOT_MAGIC)
        assert SNAPSHOT_MAGIC == b"incshrink-snapshot"

    def test_restored_arrays_are_owned_and_writable(self, tmp_path):
        """Each array is its own allocation — none is a view pinning a
        file-sized buffer, none is read-only.  A view shard's half is the
        transposed face of the buffer the shard adopted: that buffer is
        the allocation, and it is exactly as large as its content."""
        db = build_database()
        for t in (1, 2, 3):
            feed(db, t)
        snapshot_database(db, tmp_path / "own.snap")
        restored = restore_database(tmp_path / "own.snap").database
        arrays = []
        for store in restored.tables.values():
            log = {**store.batches.columns(), **store.rows.columns()}
            arrays += [*log["rows"].values(), *log["flags"].values(), log["times"]]
        for group in restored.groups.values():
            for name in ("orders", "shipments"):
                arrays += group.ledger.snapshot_state(name).values()
        for vr in restored.views.values():
            for t in vr.view.shards:
                arrays += [
                    t.rows.share0, t.rows.share1, t.flags.share0, t.flags.share1
                ]
            if vr.counter is not None:
                arrays.append(vr.counter.snapshot_state().share0)
        assert len(arrays) > 20
        for arr in arrays:
            buffer = arr if arr.flags.owndata else arr.base
            assert buffer.flags.owndata and buffer.flags.writeable
            assert buffer.nbytes == arr.nbytes and arr.flags.writeable

    def test_snapshot_restore_snapshot_is_byte_identical(self, tmp_path):
        """…apart from ``created_at``, the one thing that is about the
        file and not about the database."""
        db = build_sharded_database(4)
        for t in (1, 2, 3):
            feed(db, t)
        db.set_tenant_budgets({"zed": 1.0, "ana": 2.0})
        db.query(multi_query(), 3, epsilon=0.5, tenant="zed")
        snapshot_database(db, tmp_path / "a.snap", metadata={"last_time": 3})
        restored = restore_database(tmp_path / "a.snap")
        snapshot_database(
            restored.database, tmp_path / "b.snap", metadata=restored.metadata
        )
        assert snapshot_content(tmp_path / "a.snap") == snapshot_content(
            tmp_path / "b.snap"
        )


def test_restore_in_fresh_process(tmp_path):
    """The acceptance scenario end-to-end: restore in a *fresh process*
    and compare answers and realized ε against the uninterrupted run."""
    n_steps = len(SCRIPT)
    uninterrupted = build_database()
    for t in range(1, n_steps + 1):
        feed(uninterrupted, t)
    expected = {
        "answers": answer_mix(uninterrupted, n_steps),
        "realized": uninterrupted.realized_epsilon(),
    }

    interrupted = build_database()
    for t in range(1, 3):
        feed(interrupted, t)
    path = tmp_path / "fresh-process.snap"
    snapshot_database(interrupted, path)

    repo_root = Path(__file__).resolve().parents[1]
    script = (
        "import json, sys; sys.path.insert(0, 'tests');"
        "from test_persistence import SCRIPT, answer_mix, feed;"
        "from repro.server.persistence import restore_database;"
        f"db = restore_database({str(path)!r}).database;"
        f"[feed(db, t) for t in range(3, {n_steps} + 1)];"
        "print(json.dumps({'answers': answer_mix(db, len(SCRIPT)),"
        " 'realized': db.realized_epsilon()}))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(repo_root / "src"), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=repo_root,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == expected


def multi_query() -> LogicalQuery:
    """A unified-AST query: three aggregates, grouped, in one scan."""
    return LogicalQuery.for_view(
        make_view("full", 2),
        AggregateSpec.count(),
        AggregateSpec.sum_of("shipments", "sts"),
        AggregateSpec.avg_of("shipments", "sts"),
        group_by=GroupBySpec("orders", "key", (1, 2, 3)),
    )


def test_unified_query_roundtrip_byte_identical(tmp_path):
    """Grouped multi-aggregate answers survive a snapshot bit-for-bit."""
    db = build_database()
    for t in (1, 2, 3):
        feed(db, t)
    original = db.query(multi_query(), 3).answers
    snapshot_database(db, tmp_path / "compiler.snap")
    restored = restore_database(tmp_path / "compiler.snap").database
    assert restored.query(multi_query(), 3).answers == original


def test_noisy_query_budget_and_noise_stream_roundtrip(tmp_path):
    """Budget-exact restore: spent query-release ε round-trips, and the
    restored query-noise stream continues *identically* — a restart can
    neither double-spend nor replay noise."""
    db = build_database()
    for t in (1, 2):
        feed(db, t)
    db.query(multi_query(), 2, epsilon=0.6)
    snapshot_database(db, tmp_path / "noisy.snap")
    restored = restore_database(tmp_path / "noisy.snap").database
    assert restored.query_epsilon() == db.query_epsilon() == pytest.approx(0.6)
    assert restored.realized_epsilon() == db.realized_epsilon()
    # Identical continuation of the noise stream and of the accountant's
    # query-segment sequence on both sides of the restart boundary.
    live = db.query(multi_query(), 2, epsilon=0.6)
    resumed = restored.query(multi_query(), 2, epsilon=0.6)
    assert live.answers == resumed.answers
    assert (
        restored.accountant.snapshot_state() == db.accountant.snapshot_state()
    )


def test_restore_is_plan_cache_free(tmp_path):
    """The plan cache is session state: a restored database replans from
    its restored (identical) public sizes instead of trusting any cached
    comparison."""
    db = build_database()
    for t in (1, 2):
        feed(db, t)
    before = db.query(multi_query(), 2)
    assert db.planner.cache_info()["entries"] >= 1
    snapshot_database(db, tmp_path / "cache.snap")
    restored = restore_database(tmp_path / "cache.snap").database
    info = restored.planner.cache_info()
    assert info["entries"] == 0 and info["hits"] == 0
    after = restored.query(multi_query(), 2)
    assert after.plan == before.plan  # replanning lands on the same plan


# -- sharded deployments: the shard layout round-trips -------------------------
def build_sharded_database(n_shards: int) -> IncShrinkDatabase:
    db = IncShrinkDatabase(total_epsilon=2000.0, seed=7, n_shards=n_shards)
    db.register_view(
        ViewRegistration(make_view("full", 2), mode="ep", flush_interval=2000)
    )
    db.register_view(
        ViewRegistration(
            make_view("audit", 2),
            mode="dp-timer",
            timer_interval=1,
            flush_interval=2000,
        )
    )
    db.register_view(
        ViewRegistration(
            make_view("recent", 1),
            mode="dp-ant",
            ant_threshold=1.0,
            flush_interval=2000,
        )
    )
    return db


def test_v2_roundtrip_preserves_shard_layout(tmp_path):
    """A sharded deployment restores with its layout — and its answers."""
    db = build_sharded_database(4)
    for t in range(1, 5):
        feed(db, t)
    expected = answer_mix(db, 4)
    shard_lengths = {n: vr.view.shard_lengths() for n, vr in db.views.items()}
    snapshot_database(db, tmp_path / "sharded.snap")

    head, _, _ = read_container(tmp_path / "sharded.snap")  # asserts the version
    assert head["body"]["config"]["n_shards"] == 4
    assert all(len(v["view"]["shards"]) == 4 for v in head["body"]["views"])

    restored = restore_database(tmp_path / "sharded.snap").database
    assert restored.n_shards == 4
    for name, vr in restored.views.items():
        assert_counters_exact(vr.view)
        # The cache is not sharded: its length, bytes and version.
        cache = db.views[name].cache
        assert_cache_sizes_exact(vr.cache)
        assert (len(vr.cache), vr.cache.byte_size) == (len(cache), cache.byte_size)
        assert vr.cache.content_version > 0  # the restore replaced it
    assert {
        n: vr.view.shard_lengths() for n, vr in restored.views.items()
    } == shard_lengths
    assert answer_mix(restored, 4) == expected
    assert fingerprint(restored) == fingerprint(db)

    # Reshard the restored deployment in place: answers and ε hold.
    restored.reshard(2)
    assert all(vr.view.n_shards == 2 for vr in restored.views.values())
    assert answer_mix(restored, 4) == expected
    assert fingerprint(restored)["realized"] == fingerprint(db)["realized"]


# -- the v8 golden, column-major view shards, columnar logs --------------------
#: ``golden_v8_states()``, checkpointed by the first writer of format 8:
#: a base of the first state, then one segment of the second.
GOLDEN_V8 = Path(__file__).parent / "golden" / "snapshot_v8"
#: What the v8 golden's base carries as the caller's metadata.
GOLDEN_METADATA = {"last_time": 3, "note": "golden v4"}
#: ... and what the v8 golden's segment carries.
GOLDEN_V8_SEGMENT_METADATA = {"last_time": 4, "note": "golden v8 segment"}


def array_entries(path) -> list[dict]:
    """Every array entry of a checkpoint's base heads, file by file."""
    found = []

    def walk(node):
        if isinstance(node, list):
            for item in node:
                walk(item)
        elif isinstance(node, dict):
            if node.keys() in (_ARRAY_KEYS, _ORDERED_ARRAY_KEYS):
                found.append(node)
            else:
                for value in node.values():
                    walk(value)

    for name in FILES:
        walk(read_container(path, name)[0])
    return found


def column_major_entries(path) -> list[dict]:
    """The array entries of a container that are stored one column at a time."""
    return [e for e in array_entries(path) if "order" in e]


def query_gates(db: IncShrinkDatabase) -> list[int]:
    return [run.gates for run in db.runtime.runs if run.name.startswith("query")]


def golden_v8_states():
    """What the v8 golden's base and segment hold: three shards, three
    steps and a tenant's release, then the same deployment a step and a
    release later."""
    live = build_sharded_database(3)
    for t in (1, 2, 3):
        feed(live, t)
    live.set_tenant_budgets({"ana": 1.0})
    live.query(multi_query(), 3, epsilon=0.6, tenant="ana")
    yield live
    feed(live, 4)
    live.query(multi_query(), 4, epsilon=0.2, tenant="ana")
    yield live


def write_golden_v8(path, created_at: float, monkeypatch):
    """Checkpoint :func:`golden_v8_states` to ``path`` as the v8 golden
    was written; returns the live database."""
    monkeypatch.setattr(persistence._time, "time", lambda: created_at)
    states = golden_v8_states()
    snapshot_database(next(states), path, metadata=GOLDEN_METADATA)
    live = next(states)
    assert snapshot_database(live, path, metadata=GOLDEN_V8_SEGMENT_METADATA).kind == "segment"
    return live


def test_the_writer_reproduces_the_v8_golden_byte_for_byte(tmp_path, monkeypatch):
    """The writer writes the golden's bytes — base and segment — for its
    states, and the golden restores into the second state: a fresh
    checkpoint of either writes the same bytes."""
    created_at = read_container(GOLDEN_V8)[0]["created_at"]
    live = write_golden_v8(tmp_path / "live.snap", created_at, monkeypatch)
    assert checkpoint_bytes(tmp_path / "live.snap") == checkpoint_bytes(GOLDEN_V8)
    restored = restore_database(GOLDEN_V8)
    assert restored.metadata == GOLDEN_V8_SEGMENT_METADATA
    assert (restored.info.kind, restored.info.segments) == ("segment", 1)
    for db, name in ((live, "a.snap"), (restored.database, "b.snap")):
        snapshot_database(db, tmp_path / name, metadata=GOLDEN_V8_SEGMENT_METADATA)
    assert checkpoint_bytes(tmp_path / "a.snap") == checkpoint_bytes(tmp_path / "b.snap")


def test_the_v8_golden_continues_as_the_live_database():
    """Restored from the committed files: identical answers, gates and ε,
    and the stream continues identically."""
    db = restore_database(GOLDEN_V8).database
    *_, live = golden_v8_states()
    live.accumulator_cache.invalidate()  # a restored database starts cold
    assert db.n_shards == 3 and db.tenant_budgets == {"ana": 1.0}
    assert db.tenant_epsilons() == live.tenant_epsilons()
    assert fingerprint(db) == fingerprint(live)
    assert share_state(db) == share_state(live)
    assert (
        db.query(multi_query(), 4, epsilon=0.1, tenant="ana").answers
        == live.query(multi_query(), 4, epsilon=0.1, tenant="ana").answers
    )
    for t in range(5, len(SCRIPT) + 1):
        feed(db, t)
        feed(live, t)
    assert answer_mix(db, len(SCRIPT)) == answer_mix(live, len(SCRIPT))
    assert query_gates(db) == query_gates(live)[-len(query_gates(db)):]
    assert fingerprint(db) == fingerprint(live)
    assert share_state(db) == share_state(live)


def test_array_count_does_not_grow_with_the_stream(tmp_path):
    """Batch logs are columns: two steps in or six, the same arrays."""
    db = build_database()
    for t in (1, 2):
        feed(db, t)
    snapshot_database(db, tmp_path / "early.snap")
    for t in range(3, len(SCRIPT) + 1):
        feed(db, t)
    snapshot_database(db, tmp_path / "late.snap")
    early = array_entries(tmp_path / "early.snap")
    late = array_entries(tmp_path / "late.snap")
    assert len(early) == len(late)
    assert sum(math.prod(e["shape"]) for e in early) < sum(
        math.prod(e["shape"]) for e in late
    )


#: Bytes a head may gain between two snapshots of one deployment: each
#: array entry's offset and shape, and a few counters and stream states,
#: take more digits as the stream grows, and nothing else may.
HEAD_GROWTH_BOUND = 256
_NUMBER = re.compile(rb"-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?")
#: A chain digest named by a commit record.
_DIGEST_TEXT = re.compile(rb'"[0-9a-f]{64}"')


def _normalized(head: bytes) -> bytes:
    """A head with every number and digest zeroed: what stays put."""
    return _NUMBER.sub(b"0", _DIGEST_TEXT.sub(b'"0"', head))


def test_snapshot_head_does_not_grow_with_the_stream(tmp_path):
    """The canonical tpcds deployment, four queries per step and one of
    them a tenant's ε-release: every log that grows with steps, releases
    and served queries is a column, so 80 more steps add array bytes and
    not one head entry."""
    from repro.experiments.harness import (
        MultiViewRunConfig,
        build_multiview_deployment,
    )

    deployment = build_multiview_deployment(
        MultiViewRunConfig(dataset="tpcds", n_steps=120, seed=3)
    )
    db = deployment.database
    db.set_tenant_budgets({"analyst": 1.0e6})
    release = deployment.step_queries[3]
    events = []
    for step in deployment.workload.steps:
        db.upload(step.time, deployment.upload_items(step))
        db.step(step.time)
        for query in deployment.step_queries:
            if query is release:
                db.query(query, step.time, epsilon=0.01, tenant="analyst")
            else:
                db.query(query, step.time)
        if step.time in (40, 120):
            snapshot_database(db, tmp_path / f"{step.time}.snap")
            events.append(len(db.accountant.events))
    assert events[1] - events[0] > 2 * 80, "each step spends a release's ε"
    early, late = (tmp_path / "40.snap", tmp_path / "120.snap")
    assert len(array_entries(early)) == len(array_entries(late))
    heads = []
    for path in (early, late):
        heads.append([])
        for name in FILES:
            raw = (path / name).read_bytes()
            heads[-1].append(raw[_BASE.size : _BASE.size + _BASE.unpack_from(raw)[2]])
    assert 0 <= sum(map(len, heads[1])) - sum(map(len, heads[0])) <= HEAD_GROWTH_BOUND
    for head_early, head_late in zip(*heads):
        assert _normalized(head_early) == _normalized(head_late)


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(
            lambda b: b["accountant"].update(strings=[1, 2]),
            "string table is not a list of strings",
            id="accountant-strings",
        ),
    ],
)
def test_columns_that_do_not_fit_are_refused(tmp_path, edit, message):
    """Authentic files whose columns disagree: refused, never sliced or
    indexed into a state that differs from the one written."""
    db = build_database()
    for t in (1, 2):
        feed(db, t)
    db.query(multi_query(), 2)
    db.query(multi_query(), 2, epsilon=0.5)
    body = persistence._snapshot_body(db, {})
    edit(body)
    commit(tmp_path / "bad.snap", persistence._split(body), 0.0)
    with pytest.raises(PersistenceError, match=message):
        restore_database(tmp_path / "bad.snap")


def _set(column: np.ndarray, values) -> None:
    column[: len(values)] = values


def column_in(head: dict, section: bytearray, *keys) -> np.ndarray:
    """The array the head entry at ``keys`` names: a writable face of its
    bytes in ``section``."""
    entry = head["body"]
    for key in keys:
        entry = entry[key]
    return np.frombuffer(
        section,
        dtype=entry["dtype"],
        count=math.prod(entry["shape"]),
        offset=entry["offset"],
    ).reshape(entry["shape"])


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(  # uses [3, 2, 1] -> [2, 3, 1]: batch 2 spent, batch 1 not
            lambda col: _set(col("groups", 0, "probe", "uses"), [2, 3, 1]),
            "table 'orders': its exhausted batches are not a prefix of the log",
            id="exhausted-not-a-prefix",
        ),
        pytest.param(  # the t=3 batch took part in one run of three
            lambda col: col("groups", 0, "probe", "invocations").__setitem__((2, 2), 5),
            "table 'orders': a batch has an invocation time past its uses",
            id="invocation-past-uses",
        ),
        pytest.param(
            lambda col: col("groups", 0, "probe", "invocations").__setitem__((2, 0), 2),
            "table 'orders': a batch was charged before it was uploaded",
            id="charged-before-upload",
        ),
        pytest.param(  # [1, 2, 3] -> [3, 2, 3]
            lambda col: col("groups", 0, "probe", "invocations").__setitem__((0, 0), 3),
            "table 'orders': a batch's invocation times are out of order",
            id="invocations-out-of-order",
        ),
    ],
)
def test_budget_columns_that_disagree_are_refused(tmp_path, edit, message):
    """Every budget a snapshot holds — each group's columns per table and
    the accountant's spends — must describe one a stream can reach.  An
    authentic file (its trailer recomputed) that does not is refused
    naming the group and the table, instead of restoring a ledger that
    refuses the next upload or a spent ε no cap can compare against."""
    db = build_database()
    for t in (1, 2, 3):
        feed(db, t)
    snapshot_database(db, tmp_path / "good.snap")
    head, section, _ = read_container(tmp_path / "good.snap")
    section = bytearray(section)

    def col(*keys) -> np.ndarray:
        return column_in(head, section, *keys)

    assert col("groups", 0, "probe", "uses").tolist() == [3, 2, 1]
    assert col("groups", 0, "probe", "invocations").tolist() == [[1, 2, 3], [2, 3, 0], [3, 0, 0]]
    edit(col)
    bad = copy_checkpoint(tmp_path / "good.snap", tmp_path / "bad.snap")
    write_container(bad / "public", head, bytes(section))
    with pytest.raises(PersistenceError, match=message):
        restore_database(bad)


def _orders_log(body: dict) -> dict:
    return body["tables"]["orders"]["log"]


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(  # batch_at(2) would answer None
            lambda b: _orders_log(b).update(times=np.array([1, 1, 3])),
            id="times-not-increasing",
        ),
        pytest.param(
            lambda b: _orders_log(b).update(times=_orders_log(b)["times"].astype(np.float64)),
            id="times-float64",
        ),
        pytest.param(
            lambda b: _orders_log(b).update(
                lengths=_orders_log(b)["lengths"].astype(np.float64)
            ),
            id="lengths-float64",
        ),
        pytest.param(
            lambda b: _orders_log(b)["rows"].update(
                s0=_orders_log(b)["rows"]["s0"].astype(np.int64)
            ),
            id="rows-int64",
        ),
        pytest.param(  # the next upload would die broadcasting into it
            lambda b: _orders_log(b)["flags"].update(
                s0=_orders_log(b)["flags"]["s0"].reshape(-1, 1)
            ),
            id="flags-reshaped",
        ),
    ],
)
def test_table_logs_a_stream_could_not_write_are_refused(tmp_path, edit):
    """An upload log is two declared logs: batch times strictly
    increasing, every column of its dtype and trailing shape.  An
    authentic file that breaks one is refused naming the log."""
    db = build_database()
    for t in (1, 2, 3):
        feed(db, t)
    body = persistence._snapshot_body(db, {})
    edit(body)
    commit(tmp_path / "bad.snap", persistence._split(body), 0.0)
    with pytest.raises(PersistenceError, match=r"^table 'orders' (batches|rows): column "):
        restore_database(tmp_path / "bad.snap")


@pytest.mark.parametrize(
    "times",
    [
        pytest.param([5, 6, 7], id="past-the-uploads"),  # empty through t=3
        pytest.param([1, 1, 3], id="repeated"),  # 3 rows at t=1, not 1
        pytest.param([1, 3, 3], id="repeated-last"),  # 1 row at t=2, not 3
        pytest.param([0, 2, 3], id="not-an-upload-time"),  # 1 row at t=0, not 0
    ],
)
def test_logical_times_other_than_the_uploads_are_refused(tmp_path, times):
    """An owner inserts once beside an upload, at its time: mirror times
    that are not strictly increasing upload times of the table would
    change the logical answers while the view's stay, so the file is
    refused."""
    db = build_database()
    for t in (1, 2, 3):
        feed(db, t)
    body = persistence._snapshot_body(db, {})
    assert body["logical"]["shipments"]["times"].tolist() == [1, 2, 3]
    body["logical"]["shipments"]["times"] = np.array(times)
    commit(tmp_path / "bad.snap", persistence._split(body), 0.0)
    with pytest.raises(
        PersistenceError,
        match=r"^logical table 'shipments' batches: column 'times' is not strictly "
        r"increasing upload times of table 'shipments'$",
    ):
        restore_database(tmp_path / "bad.snap")


# -- metric logs and accountant events: adopted, not rebuilt row by row ---------
def serve_round(db: IncShrinkDatabase, time: int, queries: int) -> None:
    """``queries`` served queries, every fourth one an ε-release."""
    for k in range(queries):
        epsilon = 0.01 if k % 4 == 3 else None
        db.query(LogicalQuery.for_view(make_view("full", 2)), time, epsilon=epsilon)


def metric_logs(db: IncShrinkDatabase) -> dict:
    return {"database": db.metrics, **{name: vr.metrics for name, vr in db.views.items()}}


def test_a_restore_builds_no_query_observation(tmp_path, monkeypatch):
    """A restore adopts the metric columns it read: over a base and a
    segment holding 1,200 served queries it constructs no
    ``QueryObservation`` — while a query served afterwards still does."""
    db = build_database()
    for t in (1, 2, 3):
        feed(db, t)
    serve_round(db, 3, 600)
    snapshot_database(db, tmp_path / "served.snap")
    serve_round(db, 3, 600)
    assert snapshot_database(db, tmp_path / "served.snap").kind == "segment"
    built = []
    init = QueryObservation.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(QueryObservation, "__init__", counted)
    restored = restore_database(tmp_path / "served.snap").database
    assert len(restored.metrics.queries) == 1200
    assert built == []
    restored.query(LogicalQuery.for_view(make_view("full", 2)), 3)
    assert len(built) == 1


def test_restored_metric_columns_are_the_arrays_read(tmp_path, monkeypatch):
    """Each restored metric column is the array the reader joined, taken
    as its log's buffer: no row is converted or copied."""
    db = build_database()
    for t in (1, 2, 3):
        feed(db, t)
        serve_round(db, t, 5)
        snapshot_database(db, tmp_path / "adopt.snap")
    bodies = []
    rebuild = persistence._rebuild

    def spy(body):
        bodies.append(body)
        return rebuild(body)

    monkeypatch.setattr(persistence, "_rebuild", spy)
    restored = restore_database(tmp_path / "adopt.snap").database
    (body,) = bodies
    held = {"database": body["metrics"], **{v["name"]: v["metrics"] for v in body["views"]}}
    for owner, log in metric_logs(restored).items():
        for column_log in log.logs():
            for column in column_log.schema:
                read = held[owner][column.name]
                face = log.column(column.name)
                assert face.base is read and len(face) == len(read), (owner, column.name)
    assert len(restored.metrics.queries) == 15


def test_restored_metric_summaries_equal_the_uninterrupted_run(tmp_path):
    """Every metric log of a database restored from a base and segments
    summarises exactly as the live one's — the same floats in the same
    order through the same ``statistics.mean`` — and keeps doing so as
    both go on stepping (the adopted columns grow like live ones).  The
    accountant holds the same events."""
    db = build_database()
    for t in (1, 2, 3):
        feed(db, t)
        serve_round(db, t, 7)
        snapshot_database(db, tmp_path / "mid.snap")
    restored = restore_database(tmp_path / "mid.snap")
    assert restored.info.segments == 2
    resumed = restored.database

    def assert_same() -> None:
        want, got = metric_logs(db), metric_logs(resumed)
        assert want.keys() == got.keys()
        for owner in want:
            assert got[owner].summary() == want[owner].summary(), owner
        assert resumed.accountant.events == db.accountant.events

    assert_same()
    assert resumed.metrics.summary().query_count == 21
    for t in (4, 5, 6):
        feed(db, t)
        feed(resumed, t)
    assert_same()
    assert len(resumed.views["full"].metrics.view_size_rows) == 6


# -- every declared column, pushed outside what it declares ---------------------
def registered_logs(db: IncShrinkDatabase, body: dict) -> list[tuple[tuple, str, object]]:
    """Every log a snapshot of ``db`` holds as columns: where its columns
    sit in ``body``, the name a refusal must carry, and the log."""
    logs = []
    for name, store in db.tables.items():
        logs += [(("tables", name, "log"), log.name, log) for log in (store.rows, store.batches)]
    for name in db.logical.tables():
        table = db.logical._log(name)
        logs += [(("logical", name), log.name, log) for log in (table.rows, table.batches)]
    for index, group in enumerate(db.groups.values()):
        where = f"transform group {index} ({group.probe_log.name} x {group.driver_log.name}), "
        for role, table in (("probe", group.probe_log), ("driver", group.driver_log)):
            side = group.ledger._logs[table.name]
            logs += [
                (("groups", index, role), where + log.name, log)
                for log in (side.batches, side.rows)
            ]
    event_log = persistence._event_log(len(body["accountant"]["strings"]))
    logs.append((("accountant",), event_log.name, event_log))
    owners = [(("metrics",), db.metrics)] + [
        (("views", i, "metrics"), vr.metrics) for i, vr in enumerate(db.views.values())
    ]
    for path, metrics in owners:
        logs += [(path, log.name, log) for log in metrics.logs()]
    return logs


def columns_at(body: dict, path: tuple) -> dict:
    for key in path:
        body = body[key]
    return body


def column_value(columns: dict, name: str) -> np.ndarray:
    for key in name.split("."):
        columns = columns[key]
    return columns


def set_column(columns: dict, name: str, value: np.ndarray) -> None:
    *parents, leaf = name.split(".")
    for key in parents:
        columns = columns[key]
    columns[leaf] = value


@pytest.fixture(scope="module")
def corruptible(tmp_path_factory):
    """A deployment with every log non-empty — tenant and unattributed
    releases, query observations, exhausted batches — and the logs its
    snapshot holds, as a restore declares them."""
    db = build_database()
    for t in (1, 2, 3, 4):
        feed(db, t)
    db.set_tenant_budgets({"ana": 2.0})
    db.query(multi_query(), 4)
    db.query(multi_query(), 4, epsilon=0.5, tenant="ana")
    db.query(multi_query(), 4, epsilon=0.25)
    directory = tmp_path_factory.mktemp("corruptible")
    snapshot_database(db, directory / "good.snap")
    restored = restore_database(directory / "good.snap").database
    return db, registered_logs(restored, persistence._snapshot_body(db, {})), directory


def test_every_column_the_file_holds_is_a_registered_log(corruptible):
    """The property below reaches every array of every log: all of them
    but the share tables, counters and thresholds, which are not logs."""
    db, logs, _ = corruptible
    body = persistence._snapshot_body(db, {})
    declared = {
        (*path, *column.name.split(".")) for path, _, log in logs for column in log.schema
    }

    def arrays(node, path=()):
        if isinstance(node, np.ndarray):
            yield path
        elif isinstance(node, dict):
            for key, value in node.items():
                yield from arrays(value, (*path, key))
        elif isinstance(node, list):
            for i, value in enumerate(node):
                yield from arrays(value, (*path, i))

    held = {
        path
        for path in arrays(body)
        if path[0] != "shared_tables" and path[2:3] not in (("counter",), ("policy",))
    }
    assert held == declared


def violations(logs, body: dict) -> dict[str, list]:
    """Every way to break a column of a registered log, by kind: its
    dtype, its trailing shape, its log's alignment, or an invariant it
    declares — where ``body`` has the entries to break it with."""
    kinds: dict[str, list] = {}
    for path, name, log in logs:
        for column in log.schema:
            n = len(column_value(columns_at(body, path), column.name))
            ways = ["dtype", "shape"]
            if len(log.schema) > 1 and n:
                ways.append("misaligned")
            if log.aligned_to is not None and n:
                ways.append("not-aligned")
            ways += [
                rule for rule in column.invariants
                if n >= (2 if isinstance(rule, Increasing) else 1)
                and not (isinstance(rule, InRange) and rule.lo > rule.hi)
            ]
            for way in ways:
                kind = str(way) if isinstance(way, (str, Increasing)) else type(way).__name__
                kinds.setdefault(kind, []).append((path, name, log, column, way))
    return kinds


def choices(column, way) -> list:
    """The finite ways to break ``column`` as ``way`` names, each of which
    :func:`broken` applies at any entry: another dtype; how far an entry
    drops below the one before it; a value outside the range, above and
    below; a value that is not finite and positive; a run made longer or
    shorter."""
    if way == "dtype":
        return [d for d in (np.int64, np.float64, np.int32, np.uint32) if d != column.dtype]
    if isinstance(way, Increasing):
        return [0, 1, 5] if way.strict else [1, 5]
    if isinstance(way, InRange):
        return [way.hi + 1, way.hi + 10, way.lo - 1, way.lo - 10]
    if isinstance(way, Positive):
        return [0.0, -0.5, np.nan, np.inf, -np.inf]
    if isinstance(way, Tiles):
        return [-2, -1, 1, 2]
    return [None]  # shape, misaligned, not-aligned


def entries(way, values: np.ndarray) -> int:
    """How many entries :func:`broken` can break ``way`` at."""
    return len(values) - 1 if isinstance(way, Increasing) else len(values)


def broken(log, column, way, values: np.ndarray, choice, at: int) -> dict[str, np.ndarray]:
    """New values for ``column`` (and, to misalign a whole log, its
    siblings) that break what ``way`` names, by ``choice`` at ``at``."""
    if way == "dtype":
        return {column.name: values.astype(choice)}
    if way == "shape":
        return {column.name: values[..., None]}
    if way == "misaligned":
        return {column.name: values[:-1]}
    if way == "not-aligned":
        return {c.name: column_value(log.columns(), c.name)[:-1] for c in log.schema}
    new = values.copy()
    if isinstance(way, Increasing):
        new[at + 1] = new[at] - choice
    elif isinstance(way, Tiles):
        new[at] += choice
    else:
        new[at] = choice
    return {column.name: new}


def refused_when_broken(db, directory, target, choice, at: int) -> None:
    """``db``'s snapshot with ``target`` broken — its trailer recomputed —
    is refused naming the log."""
    path, name, log, column, way = target
    body = persistence._snapshot_body(db, {})
    columns = columns_at(body, path)
    values = column_value(columns, column.name)
    for key, value in broken(log, column, way, values, choice, at).items():
        set_column(columns, key, value)
    commit(directory / "bad.snap", persistence._split(body), 0.0)
    with pytest.raises(PersistenceError, match="^" + re.escape(name + ": ")):
        restore_database(directory / "bad.snap")


KINDS = [
    "InRange", "Positive", "Tiles", "dtype", "misaligned", "non-decreasing",
    "not-aligned", "shape", "strictly increasing",
]


def test_every_invariant_kind_has_a_column_to_break(corruptible):
    db, logs, _ = corruptible
    assert sorted(violations(logs, persistence._snapshot_body(db, {}))) == KINDS


@pytest.mark.parametrize("kind", KINDS)
def test_every_column_broken_every_way_is_refused(corruptible, kind):
    """Each way of each kind, on every column of every registered log
    that declares it, at its first and last entry: refused naming the
    log, on every run."""
    db, logs, directory = corruptible
    body = persistence._snapshot_body(db, {})
    for target in violations(logs, body)[kind]:
        path, _, _, column, way = target
        values = column_value(columns_at(body, path), column.name)
        for choice in choices(column, way):
            for at in sorted({0, max(entries(way, values) - 1, 0)}):
                refused_when_broken(db, directory, target, choice, at)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_a_column_outside_what_its_log_declares_is_refused(corruptible, data):
    """Any column of any registered log pushed outside its dtype, trailing
    shape, alignment or an invariant, at any entry — the file's trailer
    recomputed — is refused with a PersistenceError that names the log."""
    db, logs, directory = corruptible
    kinds = violations(logs, persistence._snapshot_body(db, {}))
    kind = data.draw(st.sampled_from(sorted(kinds)), label="kind")
    target = data.draw(st.sampled_from(kinds[kind]), label="target")
    path, _, _, column, way = target
    values = column_value(columns_at(persistence._snapshot_body(db, {}), path), column.name)
    choice = data.draw(st.sampled_from(choices(column, way)), label="choice")
    at = data.draw(st.integers(0, max(entries(way, values) - 1, 0)), label="at")
    refused_when_broken(db, directory, target, choice, at)


def feed_without_orders(db: IncShrinkDatabase, time: int) -> None:
    """``feed``, but every ``orders`` upload is an empty batch."""
    _, driver_rows = SCRIPT[time - 1]
    driver = RecordBatch(
        DRIVER_SCHEMA, np.asarray(driver_rows, dtype=np.uint32).reshape(-1, 2)
    ).padded_to(3)
    empty = RecordBatch(PROBE_SCHEMA, np.zeros((0, 2), dtype=np.uint32))
    db.upload(time, {"orders": empty, "shipments": driver})
    db.step(time)


@pytest.mark.parametrize(
    "steps, step",
    [(0, feed), (3, feed_without_orders)],
    ids=["no-uploads", "empty-batches"],
)
def test_empty_logs_roundtrip(tmp_path, steps, step):
    """The edge cases of concatenating a log: no batch at all, and a table
    whose every batch is empty."""
    live = build_database()
    live.finalize()
    for t in range(1, steps + 1):
        step(live, t)
    if steps:
        assert live.tables["orders"].total_rows == 0
        assert live.tables["orders"].n_batches == steps
    snapshot_database(live, tmp_path / "a.snap")
    restored = restore_database(tmp_path / "a.snap").database
    snapshot_database(restored, tmp_path / "b.snap")
    assert snapshot_content(tmp_path / "a.snap") == snapshot_content(
        tmp_path / "b.snap"
    )
    for t in range(steps + 1, len(SCRIPT) + 1):
        step(live, t)
        step(restored, t)
    assert answer_mix(restored, len(SCRIPT)) == answer_mix(live, len(SCRIPT))
    assert fingerprint(restored) == fingerprint(live)
    assert share_state(restored) == share_state(live)


@pytest.mark.parametrize("n_shards", [1, 3])
def test_column_major_sections_roundtrip_byte_identically(
    tmp_path, monkeypatch, n_shards
):
    """Snapshot → restore → snapshot: the same SHA-256, whether the shard
    buffers had spare capacity (live) or none (restored)."""
    monkeypatch.setattr(persistence._time, "time", lambda: 1234.5)
    db = build_sharded_database(n_shards)
    for t in (1, 2, 3, 4):
        feed(db, t)
    first = snapshot_database(db, tmp_path / "a.snap", metadata={"last_time": 4})
    assert column_major_entries(tmp_path / "a.snap")
    restored = restore_database(tmp_path / "a.snap")
    second = snapshot_database(
        restored.database, tmp_path / "b.snap", metadata=restored.metadata
    )
    assert second.sha256 == first.sha256
    assert checkpoint_bytes(tmp_path / "a.snap") == checkpoint_bytes(tmp_path / "b.snap")
    # and the restored shards keep serving and growing
    feed(db, 5)
    feed(restored.database, 5)
    assert answer_mix(restored.database, 5) == answer_mix(db, 5)
    assert share_state(restored.database) == share_state(db)


def _released(db: IncShrinkDatabase) -> IncShrinkDatabase:
    for t in (1, 2):
        feed(db, t)
    db.query(multi_query(), 2, epsilon=0.5)
    return db


def _three_steps(db: IncShrinkDatabase) -> IncShrinkDatabase:
    for t in (1, 2, 3):
        feed(db, t)
    return db


def _resharded(db: IncShrinkDatabase) -> IncShrinkDatabase:
    _three_steps(db).reshard(2)
    return db


@pytest.mark.parametrize(
    "live",
    [
        pytest.param(lambda: _released(build_database()), id="noisy-release"),
        pytest.param(lambda: next(golden_v8_states()), id="tenant-release"),
        pytest.param(lambda: _resharded(build_sharded_database(3)), id="resharded"),
        pytest.param(lambda: _three_steps(build_database(flush_interval=1)), id="flushed"),
    ],
)
def test_a_checkpoint_of_a_restore_writes_the_bytes_it_restored(
    tmp_path, monkeypatch, live
):
    """One writer lays out every state: a base restores into a database
    whose fresh checkpoint, with the same ``created_at``, is the same
    bytes in every file."""
    monkeypatch.setattr(persistence._time, "time", lambda: 4321.5)
    first = snapshot_database(live(), tmp_path / "a.snap", metadata={"note": "a"})
    restored = restore_database(tmp_path / "a.snap")
    assert restored.info == first
    again = snapshot_database(
        restored.database, tmp_path / "b.snap", metadata=restored.metadata
    )
    assert again.sha256 == first.sha256
    assert checkpoint_bytes(tmp_path / "b.snap") == checkpoint_bytes(tmp_path / "a.snap")


def test_malformed_order_keys_are_refused(tmp_path, never_rebuilt):
    for entry in (
        {"dtype": "<u4", "shape": [2, 2], "offset": 0, "order": "C"},
        {"dtype": "<u4", "shape": [4], "offset": 0, "order": "F"},
        {"dtype": "<u4", "shape": [1, 2, 2], "offset": 0, "order": "F"},
    ):
        write_container(
            tmp_path / "bad.snap" / "public",
            {"created_at": 0.0, "body": {"x": entry}},
            b"\0" * 16,
        )
        with pytest.raises(PersistenceError, match="malformed"):
            restore_database(tmp_path / "bad.snap")


# -- format 8: four files per checkpoint, each a base plus segments -------------
def file_entries(path, name: str) -> list[tuple[int, dict, int]]:
    """Every entry of one checkpoint file — its base, then each segment —
    as (where it starts, its head, its array-section length), read by the
    documented layout."""
    raw = (Path(path) / name).read_bytes()
    _, _, head_len, array_len = _BASE.unpack_from(raw)
    entries = [(0, json.loads(raw[_BASE.size : _BASE.size + head_len]), array_len)]
    at = base_length(raw)
    while at < len(raw):
        magic, head_len, array_len, _ = _SEGMENT.unpack_from(raw, at)
        assert magic == b"incshrink-segment"
        start = at + _SEGMENT.size
        entries.append((at, json.loads(raw[start : start + head_len]), array_len))
        at = start + head_len + array_len + _DIGEST_BYTES
    return entries


def file_heads(path, name: str) -> list[tuple[dict, int]]:
    """Every head of one checkpoint file with its array-section length."""
    return [(head, array_len) for _, head, array_len in file_entries(path, name)]


def keys_in(node, path=()):
    """Every key path of a head."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield (*path, key)
            yield from keys_in(value, (*path, key))
    elif isinstance(node, list):
        for value in node:
            yield from keys_in(value, path)


def state_of(db: IncShrinkDatabase) -> tuple:
    """Answers aside, everything "continues identically" compares: the ε
    ledger and sizes, every share half and stream, the noise stream."""
    return (
        fingerprint(db),
        share_state(db),
        db.query_noise_gen.bit_generator.state,
        db.tenant_budgets,
    )


def probe(db: IncShrinkDatabase, time: int) -> tuple:
    """What a restored copy answers, and at what gate cost."""
    answers = answer_mix(db, time) + [db.query(multi_query(), time, epsilon=0.1).answers]
    return answers, query_gates(db), db.realized_epsilon()


def streamed_checkpoint(tmp_path) -> tuple[IncShrinkDatabase, Path]:
    """A base, then two segments: uploads, releases and a tenant's."""
    db = build_sharded_database(3)
    path = tmp_path / "chain.snap"
    feed(db, 1)
    db.set_tenant_budgets({"ana": 1.0})
    assert snapshot_database(db, path).kind == "base"
    for t in (2, 3):
        feed(db, t)
        db.query(multi_query(), t, epsilon=0.2, tenant="ana")
        assert snapshot_database(db, path, metadata={"t": t}).kind == "segment"
    return db, path


def test_each_party_file_holds_its_own_half_and_stream_only(tmp_path):
    """``party1`` alone — base and segments — has no ``s0`` array, no other
    server's stream and neither the owners' nor the query-noise
    generator; ``party0`` the same with the roles swapped.  The owners'
    plaintext mirror and their generators are in ``trusted`` only."""
    _, path = streamed_checkpoint(tmp_path)
    held = {
        name: {key for head, _ in file_heads(path, name) for key in keys_in(head["body"])}
        for name in FILES
    }
    for name, mine, theirs in (("party0", "0", "1"), ("party1", "1", "0")):
        leaves = {key[-1] for key in held[name]}
        assert f"s{mine}" in leaves and f"s{theirs}" not in leaves
        assert {key[:2] for key in held[name] if key[0] == "rng"} == {
            ("rng",), ("rng", f"server{mine}")
        }
        assert not {key for key in held[name] if key[0] == "logical"}
    for name in ("public", "trusted"):
        assert not {key for key in held[name] if key[-1] in ("s0", "s1")}
    assert {key[:2] for key in held["trusted"] if key[0] == "rng"} == {
        ("rng",), ("rng", "owner"), ("rng", "query_noise")
    }
    assert {key[0] for key in held["trusted"]} == {"logical", "rng"}
    assert not {key for key in held["public"] if key[0] in ("rng", "logical")}


def test_a_restored_chain_is_the_live_database_and_a_fresh_checkpoint(tmp_path, monkeypatch):
    """Base plus segments replays into the state a fresh full checkpoint
    holds, byte for byte — and a compaction is that fresh checkpoint."""
    monkeypatch.setattr(persistence._time, "time", lambda: 1234.5)
    db, path = streamed_checkpoint(tmp_path)
    restored = restore_database(path)
    assert (restored.info.kind, restored.info.segments) == ("segment", 2)
    assert state_of(restored.database) == state_of(db)
    snapshot_database(restored.database, tmp_path / "again.snap", metadata=restored.metadata)
    snapshot_database(db, tmp_path / "fresh.snap", metadata=restored.metadata)
    assert checkpoint_bytes(tmp_path / "again.snap") == checkpoint_bytes(tmp_path / "fresh.snap")

    chain = persistence._CHAINS[db][os.path.abspath(path)].chain
    chain.base_bytes = 0  # the segments have outgrown it
    assert snapshot_database(db, path, metadata=restored.metadata).kind == "compaction"
    assert checkpoint_bytes(path) == checkpoint_bytes(tmp_path / "fresh.snap")


def test_a_segment_costs_the_delta(tmp_path):
    """Nothing uploaded: no upload log, shard, mirror or cache rows, and
    no segment at all for the party files — only the noise stream the
    release drew from and what it logged."""
    db, _ = streamed_checkpoint(tmp_path)
    path = tmp_path / "delta.snap"
    snapshot_database(db, path)
    db.query(multi_query(), 3, epsilon=0.2)
    info = snapshot_database(db, path)
    assert info.kind == "segment"
    heads = {name: file_heads(path, name) for name in FILES}
    for name in ("party0", "party1"):  # not a share or a stream moved
        assert len(heads[name]) == 1
    bodies = {name: heads[name][-1][0]["body"] for name in ("trusted", "public")}
    assert bodies["trusted"] == {"rng": {"query_noise": db.query_noise_gen.bit_generator.state}}
    assert set(bodies["public"]) == {
        "accountant", "metrics", "views", "tenant_budgets", "metadata"
    }


def test_files_of_two_checkpoints_are_refused(tmp_path, never_rebuilt):
    db, path = streamed_checkpoint(tmp_path)
    earlier = tmp_path / "earlier.snap"
    snapshot_database(build_sharded_database(3), earlier)
    for name in FILES[:-1]:
        mixed = copy_checkpoint(path, tmp_path / f"mixed-{name}.snap")
        (mixed / name).write_bytes((earlier / name).read_bytes())
        with pytest.raises(PersistenceError, match="another checkpoint"):
            restore_database(mixed)


def _rewrite_base(version: int):
    def edit(path: Path, tmp_path: Path) -> None:
        head, arrays, _ = read_container(path)
        write_container(path / "public", head, arrays, version=version)

    return edit


def _flip_a_byte(path: Path, tmp_path: Path) -> None:
    raw = bytearray((path / "public").read_bytes())
    raw[base_length(raw) - _DIGEST_BYTES - 1] ^= 0xFF
    (path / "public").write_bytes(bytes(raw))


def _swap_party0(path: Path, tmp_path: Path) -> None:
    snapshot_database(build_sharded_database(3), tmp_path / "other.snap")
    (path / "party0").write_bytes((tmp_path / "other.snap" / "party0").read_bytes())


def _cut_party0(path: Path, tmp_path: Path) -> None:
    raw = (path / "party0").read_bytes()
    (path / "party0").write_bytes(raw[:-1])


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(_rewrite_base(7), "format version 7", id="version-7"),
        pytest.param(_rewrite_base(9), "format version 9", id="version-9"),
        pytest.param(_flip_a_byte, "integrity check", id="tampered"),
        pytest.param(_swap_party0, "another checkpoint", id="mixed"),
        pytest.param(_cut_party0, "another checkpoint", id="cut"),
    ],
)
def test_a_refused_restore_leaves_every_file_as_it_was(
    tmp_path, never_rebuilt, edit, message
):
    """A restore only reads: what it refuses is still there, byte for
    byte, for the operator to inspect or restore from a copy."""
    _, path = streamed_checkpoint(tmp_path)
    edit(path, tmp_path)
    before = {p.name: p.read_bytes() for p in path.iterdir()}
    with pytest.raises(PersistenceError, match=message):
        restore_database(path)
    assert {p.name: p.read_bytes() for p in path.iterdir()} == before


@pytest.mark.parametrize("version", [7, 9])
def test_a_checkpoint_of_another_version_is_replaced_by_a_base(tmp_path, version):
    """A checkpoint at ``path`` whose base is of another version is
    overwritten whole by a base, and the chain grows from it as usual."""
    _, path = streamed_checkpoint(tmp_path)
    _rewrite_base(version)(path, tmp_path)
    fresh = build_sharded_database(3)
    feed(fresh, 1)
    assert snapshot_database(fresh, path).kind == "base"
    assert state_of(restore_database(path).database) == state_of(fresh)
    feed(fresh, 2)
    assert snapshot_database(fresh, path).kind == "segment"
    assert state_of(restore_database(path).database) == state_of(fresh)


@pytest.mark.parametrize("name", FILES[:-1])
def test_a_cut_inside_a_committed_segment_is_refused(tmp_path, never_rebuilt, name):
    _, path = streamed_checkpoint(tmp_path)
    raw = (path / name).read_bytes()
    for cut in (len(raw) - 1, len(raw) - _DIGEST_BYTES, base_length(raw) + 5):
        (path / name).write_bytes(raw[:cut])
        with pytest.raises(PersistenceError, match="another checkpoint"):
            restore_database(path)


def test_a_torn_public_tail_restores_the_commit_before_it(tmp_path):
    """Every cut inside ``public``'s last segment leaves the commit before
    it; the restore reports the bytes it left behind."""
    db, path = streamed_checkpoint(tmp_path)
    raw = (path / "public").read_bytes()
    entries = file_entries(path, "public")
    before, last = entries[-2][1], entries[-1][0]
    # The other files' last segments were committed by the cut one.
    orphaned = sum(
        len((path / name).read_bytes()) - before["commit"][name][0] for name in FILES[:-1]
    )
    assert orphaned > 0
    assert restore_database(path).metadata == {"t": 3}
    for cut in sorted({last, last + 1, last + _SEGMENT.size, len(raw) - 1}):
        torn = copy_checkpoint(path, tmp_path / f"torn-{cut}.snap")
        (torn / "public").write_bytes(raw[:cut])
        restored = restore_database(torn)
        assert restored.info.segments == 1
        assert restored.metadata == {"t": 2}
        assert restored.info.discarded_bytes == cut - last + orphaned


def test_the_writer_writes_a_base_over_files_it_did_not_write(tmp_path):
    """Two databases checkpointing to one path never append to each
    other's chains, and a chain copied over the path is replaced whole."""
    one, path = streamed_checkpoint(tmp_path)
    two = build_sharded_database(3)
    feed(two, 1)
    assert snapshot_database(two, path).kind == "base"
    assert snapshot_database(one, path).kind == "base"
    assert state_of(restore_database(path).database) == state_of(one)
    other = tmp_path / "other.snap"
    snapshot_database(two, other)
    for name in FILES:
        (path / name).write_bytes((other / name).read_bytes())
    assert snapshot_database(one, path).kind == "base"
    assert state_of(restore_database(path).database) == state_of(one)


def test_a_directory_that_is_not_a_checkpoint_is_not_replaced(tmp_path):
    keep = tmp_path / "keep"
    keep.mkdir()
    (keep / "notes.txt").write_text("mine")
    with pytest.raises(PersistenceError, match="not a checkpoint"):
        snapshot_database(build_database(), keep)
    assert (keep / "notes.txt").read_text() == "mine"


ACTIONS = ["upload", "release", "tenant", "checkpoint", "restore"]


@settings(max_examples=30, deadline=None)
@given(actions=st.lists(st.sampled_from(ACTIONS), min_size=1, max_size=14))
def test_checkpoints_of_any_interleaving_replay_the_live_database(tmp_path_factory, actions):
    """Uploads, ε-releases (a tenant's among them), checkpoints and
    restore-and-continue, in any order: after each checkpoint, the chain
    restores into the live state and into what a fresh full checkpoint
    restores into — the same answers, gates, realized ε and streams."""
    directory = tmp_path_factory.mktemp("interleaving")
    path = directory / "chain.snap"
    live = build_sharded_database(2)
    live.set_tenant_budgets({"ana": 5.0})
    step, fresh = 0, 0
    for action in actions:
        if action == "upload" and step < len(SCRIPT):
            step += 1
            feed(live, step)
        elif action == "release" and step:
            live.query(multi_query(), step, epsilon=0.1)
        elif action == "tenant" and step:
            live.query(multi_query(), step, epsilon=0.1, tenant="ana")
        elif action == "restore" and path.exists():
            live = restore_database(path).database
        elif action == "checkpoint":
            snapshot_database(live, path, metadata={"step": step})
            chained = restore_database(path).database
            fresh += 1
            snapshot_database(live, directory / f"fresh-{fresh}.snap")
            full = restore_database(directory / f"fresh-{fresh}.snap").database
            assert state_of(chained) == state_of(live) == state_of(full)
            if step:
                assert probe(chained, step) == probe(full, step)


def ep_stream_database() -> IncShrinkDatabase:
    """One exhaustively padded view: every step appends the same padded
    sizes everywhere, and spends no ε."""
    db = IncShrinkDatabase(total_epsilon=1.0, seed=3)
    db.register_view(ViewRegistration(make_view("full", 2), mode="ep", flush_interval=10**6))
    return db


def ep_step(db: IncShrinkDatabase, t: int) -> None:
    probe = RecordBatch(PROBE_SCHEMA, np.asarray([[t % 5, t]], dtype=np.uint32)).padded_to(4)
    driver = RecordBatch(DRIVER_SCHEMA, np.asarray([[t % 5, t]], dtype=np.uint32)).padded_to(3)
    db.upload(t, {"orders": probe, "shipments": driver})
    db.step(t)


def test_a_one_step_segment_costs_the_same_at_step_960_as_at_step_60(tmp_path):
    """The delta of one step is the same arrays whatever the stream's
    length: a segment written at step 960 has the array bytes of one
    written at step 60, and only the digits of its head differ."""
    db = ep_stream_database()
    segments = {}
    for t in range(1, 961):
        ep_step(db, t)
        if t in (59, 959):
            snapshot_database(db, tmp_path / f"{t + 1}.snap")
        if t in (60, 960):
            assert snapshot_database(db, tmp_path / f"{t}.snap").kind == "segment"
            segments[t] = [file_heads(tmp_path / f"{t}.snap", name)[-1] for name in FILES]
    for (head_60, bytes_60), (head_960, bytes_960) in zip(segments[60], segments[960]):
        assert bytes_60 == bytes_960
        del head_60["created_at"], head_960["created_at"]
        texts = [json.dumps(h, separators=(",", ":")).encode("utf8") for h in (head_60, head_960)]
        assert _normalized(texts[0]) == _normalized(texts[1])
