"""Hash-chained checkpoint files: how a checkpoint survives on disk.

This module knows no database.  A checkpoint at ``PATH`` is a directory
of named files; a commit takes one JSON body per file, in order, and the
last file's head carries the **commit record**.  What the bodies hold
and which file holds what is the caller's (:mod:`repro.server.persistence`);
the layout, the check bytes, the torn-tail rule, the commit record, the
two-rename swap and the fsyncs are this module's.

Each file is a **base** plus **append-only segments**::

    base:    magic (18 B) | version (u16) | head len (u64) | array len (u64)
             | head | arrays | SHA-256 of everything before it
    segment: "incshrink-segment" (17 B) | head len (u64) | array len (u64)
             | check (8 B) | head | arrays | SHA-256(previous digest ‖ segment)

so each file's digests form a chain, and ``check`` — the first eight
bytes of SHA-256(previous digest ‖ magic ‖ lengths) — vouches for a
segment's lengths before they are trusted.  A head is compact UTF-8 JSON
(``{"created_at": …, "body": …}``) in which every array is reduced to
``{"dtype", "shape", "offset"}``, plus ``"order": "F"`` for a matrix each
of whose columns is one run (written one column's run after another,
read back into a buffer whose transposed face the caller adopts) and, in
a segment, ``"from"``: the row of the log the array (a :class:`Tail`)
continues at.  The arrays follow as raw bytes in the order the head
names them.

The last file is written last, and each of its heads carries the commit
record: the committed length and chain digest of every other file.  A
checkpoint is committed once its last file's entry is on disk.  Every
file is fsynced, so a committed checkpoint survives a crash; a fresh
base is written to a staging directory, fsynced, and swapped in by two
renames (``PATH`` → ``PATH.incshrink-old``, staging → ``PATH``) and a
directory fsync, and a read that finds no ``PATH`` reads
``PATH.incshrink-old``.  A segment is appended to each file whose body
holds something (to the last file always), past any torn tail.

:func:`read` reads the last file to its last complete segment, then each
other file to exactly the length the commit names, checking every digest
in the chain before anything is returned.  A torn tail — an incomplete
segment after the last commit, in any file — reads as that commit, and
the bytes left behind show in each :class:`FileRecord`'s identity (the
next append truncates them); so do zero bytes after the last file's last
segment, at any length — space a crash allocated but never wrote.  Any
other damage — a flipped byte anywhere, a cut inside a base, files of
two different checkpoints — raises
:class:`~repro.common.errors.PersistenceError`.

This build reads format 8 and nothing else.  A file at ``PATH``, or a
base of any other version, is refused naming its version (versions 1–3
were one JSON document, 4–7 one file holding both servers' halves);
none of them was released.  The change that writes version 9 adds one
``v8 → v9`` function and the subcommand that runs it.

Usage::

    chain, written = commit(path, {"a": body_a, "last": body}, created_at)
    chain, written = commit(path, {"a": {}, "last": change}, created_at, chain)
    directory, bodies, chain = read(path, ("a", "last"))
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import re
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from ..common.errors import PersistenceError

#: File magic — identifies a checkpoint's base.
SNAPSHOT_MAGIC = b"incshrink-snapshot"
#: Starts every segment appended after a base.
SEGMENT_MAGIC = b"incshrink-segment"
#: Bump on any incompatible change to the files or the body layout; a
#: restore refuses every other version.
SNAPSHOT_VERSION = 8
#: Where a base is built, and where the checkpoint it replaces waits
#: until the new one is in place.
STAGING_SUFFIX = ".incshrink-new"
RETIRED_SUFFIX = ".incshrink-old"

#: magic, format version, head length, array length — how a base starts.
_BASE = struct.Struct(f">{len(SNAPSHOT_MAGIC)}sHQQ")
#: magic, head length, array length, check.
_SEGMENT = struct.Struct(f">{len(SEGMENT_MAGIC)}sQQ8s")
_DIGEST_BYTES = hashlib.sha256().digest_size
#: Read size for hashing bytes that are not read into an array.
_CHUNK_BYTES = 1 << 20
#: A checkpoint whose first file is this large is read a file a thread.
_THREADED_BYTES = 1 << 22
#: An array section this small is read and hashed whole, then split.
_SMALL_SECTION_BYTES = 1 << 16


class Tail:
    """A log's rows from row ``start`` on: what a segment holds of it."""

    __slots__ = ("rows", "start")

    def __init__(self, rows, start: int) -> None:
        self.rows = rows
        self.start = start


# -- arrays: out of the head on the way out, back into it on the way in --------
#: An array leaves ``{"dtype", "shape", "offset"}`` behind in the head,
#: with ``"order"`` if column-major and ``"from"`` if a segment's rows of
#: a log.  The key sets are reserved: the reader takes any JSON object
#: with exactly such keys for an array.
#: A list's tail: the items appended since the last segment.
_LIST_TAIL_KEYS = frozenset(("from", "items"))
_DTYPE_STR = re.compile(r"[<>|][biuf][0-9]{1,2}")


class _ArraySection:
    """The arrays of one head being written, in file order.

    The body holds its arrays as ``ndarray`` leaves (or :class:`Tail`
    ones).  :meth:`lift` is the JSON encoder's ``default`` hook: it moves
    each array here — as the contiguous chunks to write, none of them a
    copy of an array that already is one run or one run per column — and
    leaves its dtype, shape and byte offset within the section in the
    head.
    """

    def __init__(self) -> None:
        self.chunks: list[np.ndarray] = []
        self.nbytes = 0

    def lift(self, value: object) -> dict:
        if isinstance(value, Tail):
            if isinstance(value.rows, list):
                return {"from": value.start, "items": value.rows}
            return {**self.lift(value.rows), "from": value.start}
        if not isinstance(value, np.ndarray):
            raise TypeError(
                f"cannot persist a value of type {type(value).__name__}"
            )
        entry = {
            "dtype": value.dtype.str,
            "shape": list(value.shape),
            "offset": self.nbytes,
        }
        if by_columns(value):
            entry["order"] = "F"
            self.chunks.extend(value.T)
        elif value.nbytes:
            self.chunks.append(np.ascontiguousarray(value))
        self.nbytes += value.nbytes
        return entry


def by_columns(arr: np.ndarray) -> bool:
    """A matrix each of whose columns is one contiguous run.

    True of a view shard's face whether or not its buffer has spare
    capacity.  Matrices with a single row or column read the same in
    either order and are written as C, so that what a head says depends
    on an array's shape and never on how its holder came by it.
    """
    return (
        arr.ndim == 2
        and min(arr.shape) > 1
        and arr.strides[0] == arr.itemsize
    )


@functools.lru_cache(maxsize=None)
def _plain_dtype(text: str) -> np.dtype:
    """Only what ``ndarray.dtype.str`` spells for plain numbers:
    ``np.dtype`` parses a whole language of strings otherwise."""
    if not (isinstance(text, str) and _DTYPE_STR.fullmatch(text)):
        raise TypeError(f"unusable dtype {text!r}")
    return np.dtype(text)


def _start_of(entry: dict) -> int:
    start = entry["from"]
    if type(start) is not int or start < 0:
        raise PersistenceError(f"malformed array entry {entry!r}: unusable 'from'")
    return start


class _ArrayLoader:
    """Allocates the arrays a head names — never more than the file holds.

    :meth:`claim` is the JSON decoder's ``object_hook``: each array entry
    becomes an empty, owned ``ndarray`` of its dtype and shape, to be
    filled from the array section in the order claimed — a column-major
    entry the transposed face of a C-contiguous buffer, filled in the
    same single pass.  An entry that is not where the previous one
    ended, or that reaches past the ``limit`` bytes the section holds,
    is refused before it is allocated.
    """

    def __init__(self, limit: int) -> None:
        self.arrays: list[np.ndarray] = []
        self.nbytes = 0
        self.limit = limit

    def claim(self, entry: dict) -> object:
        offset = entry.get("offset")
        if offset is None:
            if entry.keys() == _LIST_TAIL_KEYS:
                if not isinstance(entry["items"], list):
                    raise PersistenceError(f"malformed list tail {entry!r}")
                return Tail(entry["items"], _start_of(entry))
            return entry
        order, start = entry.get("order"), entry.get("from")
        if (
            len(entry) != 3 + (order is not None) + (start is not None)
            or "dtype" not in entry
            or "shape" not in entry
        ):
            return entry
        shape = entry["shape"]
        try:
            if type(shape) is not list or not all(type(d) is int and d >= 0 for d in shape):
                raise TypeError("unusable shape")
            if order is not None and (order != "F" or len(shape) != 2):
                raise TypeError("unusable order")
            dtype = _plain_dtype(entry["dtype"])
            nbytes = dtype.itemsize * math.prod(shape)
            if offset != self.nbytes or nbytes > self.limit - self.nbytes:
                raise ValueError(
                    f"{nbytes} bytes do not continue the array section at "
                    f"{self.nbytes} of {self.limit}"
                )
            arr = np.empty(shape if order is None else shape[::-1], dtype)
        except (TypeError, ValueError) as exc:
            raise PersistenceError(
                f"malformed array entry {entry!r}: {exc}"
            ) from exc
        self.arrays.append(arr)
        self.nbytes += nbytes
        face = arr if order is None else arr.T
        return face if start is None else Tail(face, _start_of(entry))


# -- the chain record: what a writer appends to, and what a read returns ---------
@dataclass(frozen=True)
class FileRecord:
    """One file of a checkpoint at its last commit."""

    #: ``(st_dev, st_ino, size)`` as last seen on disk
    identity: tuple
    #: committed bytes
    length: int
    #: the chain's digest at the commit
    digest: bytes
    #: the base's bytes, the rest being segments
    base_bytes: int


@dataclass
class Chain:
    """A checkpoint's files as this process last committed or read them."""

    #: per file, in commit order: the last one's digest vouches for the rest
    files: dict[str, FileRecord]
    #: when the last commit was made
    created_at: float
    #: segments on top of the base
    segments: int = 0
    #: the base's bytes across the files
    base_bytes: int = field(init=False)

    def __post_init__(self) -> None:
        self.base_bytes = sum(f.base_bytes for f in self.files.values())

    @property
    def segment_bytes(self) -> int:
        return sum(f.length - f.base_bytes for f in self.files.values())

    @property
    def digest(self) -> bytes:
        """The last file's chain digest at the commit."""
        return next(reversed(self.files.values())).digest

    def on_disk(self, path: str) -> bool:
        """The files at ``path`` are the ones this chain last saw."""
        try:
            return all(
                _identity(os.stat(os.path.join(path, name))) == f.identity
                for name, f in self.files.items()
            )
        except OSError:
            return False


def _identity(st: os.stat_result) -> tuple:
    return (st.st_dev, st.st_ino, st.st_size)


# -- writing -----------------------------------------------------------------------
def _segment_check(previous: bytes, magic_and_lengths: bytes) -> bytes:
    return hashlib.sha256(previous + magic_and_lengths).digest()[:8]


def _entry(head: dict, previous: bytes | None) -> tuple[list, bytes]:
    """One entry's bytes, as the chunks to write, and the chain's digest
    after it: a base (``previous`` None) or a segment continuing the
    chain at digest ``previous``."""
    section = _ArraySection()
    text = json.dumps(head, separators=(",", ":"), default=section.lift).encode("utf8")
    if previous is None:
        preamble = _BASE.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, len(text), section.nbytes)
        digest = hashlib.sha256()
    else:
        lengths = _SEGMENT.pack(SEGMENT_MAGIC, len(text), section.nbytes, b"")[:-8]
        preamble = lengths + _segment_check(previous, lengths)
        digest = hashlib.sha256(previous)
    chunks = [preamble, text, *section.chunks]
    for chunk in chunks:
        digest.update(chunk)
    chunks.append(digest.digest())
    return chunks, chunks[-1]


def _fsync_directory(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _remove_checkpoint(path: str, names) -> None:
    """Delete a checkpoint directory this module wrote — its files, then
    the directory, which must then be empty — or a file at ``path``."""
    if os.path.isdir(path) and not os.path.islink(path):
        for name in names:
            if os.path.lexists(os.path.join(path, name)):
                os.unlink(os.path.join(path, name))
        os.rmdir(path)
    elif os.path.lexists(path):
        os.unlink(path)


def commit(
    path: str, bodies: dict[str, dict], created_at: float, chain: Chain | None = None
) -> tuple[Chain, int]:
    """Commit one body per file, in order, the last file's head carrying
    the commit record: where each file before it now ends.

    With no ``chain``, a fresh base of every file: written into a staging
    directory, each fsynced, the directory fsynced, then swapped in for
    whatever was at ``path``.  With the ``chain`` the files at ``path``
    last committed, a segment appended to each file whose body holds
    something (to the last file's always), over any torn tail, each
    fsynced.  Returns the chain after the commit and the bytes written.
    """
    names = tuple(bodies)
    if chain is None:
        if os.path.isdir(path) and not set(os.listdir(path)) <= set(names):
            raise PersistenceError(
                f"{path!r} is a directory that is not a checkpoint; refusing to replace it"
            )
        beside = os.path.normpath(path)  # the staging and retired names sit beside it
        directory, retired = beside + STAGING_SUFFIX, beside + RETIRED_SUFFIX
        _remove_checkpoint(directory, names)
        os.mkdir(directory)
    else:
        directory = path
    files: dict[str, FileRecord] = {}
    written = 0
    try:
        for name in names:
            held = None if chain is None else chain.files[name]
            target = os.path.join(directory, name)
            if held is not None and not bodies[name] and name != names[-1]:
                if held.identity[2] > held.length:
                    os.truncate(target, held.length)  # a torn tail
                    held = replace(held, identity=(*held.identity[:2], held.length))
                files[name] = held
                continue
            head: dict = {"created_at": created_at}
            if name == names[-1]:
                head["commit"] = {n: [f.length, f.digest.hex()] for n, f in files.items()}
            head["body"] = bodies[name]
            chunks, digest = _entry(head, None if held is None else held.digest)
            with open(target, "wb" if held is None else "r+b") as fh:
                if held is not None:
                    fh.seek(held.length)
                    fh.truncate()  # a torn tail past the last commit
                for chunk in chunks:
                    fh.write(chunk)
                fh.flush()
                os.fsync(fh.fileno())
                length = fh.tell()
                files[name] = FileRecord(
                    _identity(os.fstat(fh.fileno())),
                    length,
                    digest,
                    length if held is None else held.base_bytes,
                )
            written += length - (0 if held is None else held.length)
        if chain is None:
            _fsync_directory(directory)
            if os.path.lexists(path):
                # ``path`` is the last commit: any older one retired beside
                # it can go.  With no ``path``, the retired one is the last
                # commit.
                _remove_checkpoint(retired, names)
                os.rename(path, retired)
            os.rename(directory, path)
    except BaseException:
        if chain is None and os.path.lexists(directory):
            _remove_checkpoint(directory, names)
        raise
    if chain is None:
        _fsync_directory(os.path.dirname(os.path.abspath(path)))
        _remove_checkpoint(retired, names)
    segments = 0 if chain is None else chain.segments + 1
    return Chain(files, created_at, segments), written


# -- reading -------------------------------------------------------------------------
def _integrity_error(path: str, why: str = "") -> PersistenceError:
    return PersistenceError(
        f"snapshot {path!r} failed its integrity check"
        f"{f' ({why})' if why else ''}; refusing to restore — resuming "
        "from corrupt state could double-spend budget"
    )


def _version_error(path: str, version: int) -> PersistenceError:
    return PersistenceError(
        f"snapshot {path!r} has format version {version}; this build "
        f"reads version {SNAPSHOT_VERSION}"
    )


def _refuse_file(path: str) -> PersistenceError:
    """Why the file at ``path`` is not a checkpoint: one file of a
    checkpoint, a snapshot of another version, or something else."""
    with open(path, "rb") as fh:
        preamble = fh.read(_BASE.size)
        if preamble[:1] == b"{":  # versions 1-3 were one JSON document
            version = _document_version(preamble + fh.read())
            if version is not None:
                return _version_error(path, version)
    if len(preamble) == _BASE.size and preamble.startswith(SNAPSHOT_MAGIC):
        version = _BASE.unpack(preamble)[1]
        if version == SNAPSHOT_VERSION:
            return PersistenceError(
                f"{path!r} is one file of a checkpoint: restore the directory "
                "that holds it"
            )
        return _version_error(path, version)
    return PersistenceError(f"{path!r} is not an IncShrink snapshot")


def _document_version(raw: bytes) -> int | None:
    """The format version a JSON snapshot document declares, if ``raw``
    is one."""
    try:
        document = json.loads(raw)
    except (ValueError, RecursionError):  # incl. invalid UTF-8
        return None
    if not isinstance(document, dict) or document.get("magic") != SNAPSHOT_MAGIC.decode():
        return None
    version = document.get("version")
    return version if type(version) is int else None


def _read_entry(fh, path: str, digest, head_len: int, array_len: int, end: int) -> dict:
    """A head and its arrays, hashed as read, then the digest checked
    against the trailer at ``end``.

    Damage to the file can surface as a structural error first (a
    flipped digit in a size); the rest of the entry is then still hashed,
    so that damage is reported as the failed integrity check it is and
    "malformed" is left for files whose writer was wrong.
    """
    raw = fh.read(head_len)
    digest.update(raw)
    try:
        loader = _ArrayLoader(limit=array_len)
        try:
            head = json.loads(raw, object_hook=loader.claim)
        except (ValueError, RecursionError) as exc:  # incl. invalid UTF-8
            raise PersistenceError(f"head is not valid JSON: {exc}") from exc
        if loader.nbytes != array_len:
            raise PersistenceError(
                f"head accounts for {loader.nbytes} array bytes, the entry "
                f"declares {array_len}"
            )
        if (
            not isinstance(head, dict)
            or not isinstance(head.get("body"), dict)
            or not isinstance(head.get("created_at"), (int, float))
        ):
            raise PersistenceError("head has no body or no created_at")
        if array_len <= _SMALL_SECTION_BYTES:
            # Small arrays — a segment's, mostly — in one read and one
            # digest update, then copied out.
            section = memoryview(bytearray(array_len))
            if fh.readinto(section) != array_len:
                raise PersistenceError("file shrank while it was being read")
            digest.update(section)
            at = 0
            for arr in loader.arrays:
                if arr.nbytes:
                    arr.data.cast("B")[:] = section[at : at + arr.nbytes]
                    at += arr.nbytes
        else:
            for arr in loader.arrays:
                if arr.nbytes and fh.readinto(arr) != arr.nbytes:
                    raise PersistenceError("file shrank while it was being read")
                digest.update(arr)
    except PersistenceError as exc:
        while chunk := fh.read(min(_CHUNK_BYTES, end - fh.tell())):
            digest.update(chunk)
        if fh.read(_DIGEST_BYTES) != digest.digest():
            raise _integrity_error(path) from exc
        raise PersistenceError(f"snapshot {path!r} is malformed: {exc}") from exc
    if fh.read(_DIGEST_BYTES) != digest.digest():
        raise _integrity_error(path)
    return head


def _read_chain(path: str, committed: list | None) -> tuple[list[dict], FileRecord]:
    """Read one file's base and segments and check its chain: to its last
    complete segment (the last file, ``committed`` None) or to exactly
    the committed length, ending at the committed digest.  Returns its
    heads and its record."""
    with open(path, "rb") as fh:
        st = os.fstat(fh.fileno())
        end = st.st_size if committed is None else committed[0]
        preamble = fh.read(_BASE.size)
        if preamble[: len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
            raise PersistenceError(f"{path!r} is not an IncShrink snapshot")
        if committed is not None and end > st.st_size:
            raise _not_committed(path)
        if len(preamble) < _BASE.size:
            raise _integrity_error(path, f"cut: {st.st_size} bytes on disk")
        _, version, head_len, array_len = _BASE.unpack(preamble)
        if version != SNAPSHOT_VERSION:
            raise _version_error(path, version)
        base_end = _BASE.size + head_len + array_len
        if base_end + _DIGEST_BYTES > end:
            raise _integrity_error(
                path, f"its base declares {base_end + _DIGEST_BYTES} bytes of {end}"
            )
        digest = hashlib.sha256(preamble)
        heads = [_read_entry(fh, path, digest, head_len, array_len, base_end)]
        chained = digest.digest()
        length = base_bytes = fh.tell()
        while length < end:
            left = end - length
            raw = fh.read(min(_SEGMENT.size, left))
            if len(raw) < _SEGMENT.size:
                break
            magic, head_len, array_len, check = _SEGMENT.unpack(raw)
            if magic != SEGMENT_MAGIC or check != _segment_check(chained, raw[:-8]):
                if _zeros_to(fh, raw, end):  # space a crash left unwritten
                    break
                raise _integrity_error(path, f"no segment at byte {length}")
            seg_end = length + _SEGMENT.size + head_len + array_len
            if seg_end + _DIGEST_BYTES > end:
                break
            digest = hashlib.sha256(chained + raw)
            heads.append(_read_entry(fh, path, digest, head_len, array_len, seg_end))
            chained = digest.digest()
            length = fh.tell()
    if committed is not None and (length != end or chained.hex() != committed[1]):
        raise _not_committed(path)
    return heads, FileRecord(_identity(st), length, chained, base_bytes)


def _zeros_to(fh, chunk: bytes, end: int) -> bool:
    """Whether ``chunk`` and the rest of ``fh`` up to ``end`` are zero
    bytes: a torn tail, at any length."""
    while chunk:
        if chunk.strip(b"\0"):
            return False
        chunk = fh.read(min(_CHUNK_BYTES, end - fh.tell()))
    return True


def _not_committed(path: str) -> PersistenceError:
    return _integrity_error(
        path,
        "it is not the file its commit names: cut short, or a file of "
        "another checkpoint",
    )


def _commit_of(head: dict, path: str, names: tuple[str, ...]) -> dict:
    commit = head.get("commit")
    if not (
        isinstance(commit, dict)
        and commit.keys() == set(names[:-1])
        and all(
            isinstance(entry, list)
            and len(entry) == 2
            and type(entry[0]) is int
            and isinstance(entry[1], str)
            for entry in commit.values()
        )
    ):
        raise PersistenceError(f"snapshot {path!r} has no usable commit record")
    return commit


def read(path: str, names: tuple[str, ...]) -> tuple[str, dict[str, list[dict]], Chain]:
    """The checkpoint of files ``names`` at ``path`` to its last commit —
    or, with nothing at ``path``, the one a cut-short base swap retired
    beside it.  Returns the directory read, each file's bodies (its
    base's, then each segment's) and the chain they form; every digest
    is checked first."""
    directory = path
    try:
        if not os.path.isdir(path):
            if os.path.lexists(path):
                raise _refuse_file(path)
            retired = os.path.normpath(path) + RETIRED_SUFFIX
            if os.path.isdir(retired):  # a base swap was cut short
                directory = retired
        last = _read_chain(os.path.join(directory, names[-1]), None)
        commit = _commit_of(last[0][-1], directory, names)
        reads = {name: (os.path.join(directory, name), commit[name]) for name in names[:-1]}
        if commit[names[0]][0] >= _THREADED_BYTES:
            # Each of the other files on a thread of its own: reads and
            # SHA-256 updates of large buffers release the GIL (small
            # files would only trade it back and forth).
            with ThreadPoolExecutor(max_workers=len(reads)) as pool:
                futures = {name: pool.submit(_read_chain, *args) for name, args in reads.items()}
                files = {name: future.result() for name, future in futures.items()}
        else:
            files = {name: _read_chain(*args) for name, args in reads.items()}
    except OSError as exc:
        raise PersistenceError(f"cannot read snapshot {path!r}: {exc}") from exc
    files[names[-1]] = last
    chain = Chain(
        {name: files[name][1] for name in names},
        float(last[0][-1]["created_at"]),
        len(last[0]) - 1,
    )
    return directory, {name: [head["body"] for head in files[name][0]] for name in names}, chain
