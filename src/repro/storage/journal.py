"""Append-only commit journal: write-ahead durability for the store.

The store's delta-chain model is naturally append-only — every commit adds
one completed delta (or a whole new document, or a deletion mark) and never
rewrites history — so a log of :class:`~repro.storage.store.CommitEvent`
records *is* a faithful serialization of everything that happened since the
last checkpoint.  :class:`CommitJournal` subscribes to a
:class:`~repro.storage.store.TemporalDocumentStore` and appends one record
per commit; recovery (:mod:`~repro.storage.recover`) replays the tail of
that log on top of the newest valid checkpoint.

**On-disk format (v3).**  An 8-byte magic header (``TXJRNL3\\n``) followed
by framed records::

    +-----------------+----------------+---------------------------+
    | length (u32 BE) | crc32 (u32 BE) | stored bytes (length B)   |
    +-----------------+----------------+---------------------------+
    stored := raw-length varint, data   (0: data is the record itself;
                                         n: data inflates to n bytes)
    record := kind byte, doc id, name, version, ts, optional nextxid, body
    body   := length-prefixed bytes: the stamped initial tree (create), the
              redo form of the completed delta (update), nothing (delete,
              snapshot), or the member records back to back (group)

Everything inside a record is written by :mod:`~repro.storage.binfmt`.
An update keeps only the *redo half* of the completed delta the paper's
storage model stores (:func:`~repro.storage.binfmt.write_redo`): a node
that exists names itself by XID alone — a delete its victim, a move the
node and where it goes, a root replacement its old root — a text or
attribute update carries its new value only, an inserted subtree's root
carries no stamps (the commit time, and the XID the allocator handed out
after the subtree inserted before it), and a commit's stamps are one
marker (the Section 4 rule implies them).  Replay applies the record to
the very version the delta was computed against, which holds everything
dropped, and :func:`~repro.diff.apply.apply_script` completes the delta
from it as it applies it.  Every other field is kept, and so is every
check forward application makes except two a redo record cannot make:
an update cannot say what it expected to overwrite, and a delete or move
where it expected its node to stand, only that the node exists (and is
not the root).  In their place no inserted XID may reach the record's
``nextxid``.  A record of 128 bytes or more is deflated when that
shrinks it (the rule CAS objects use).  The CRC covers the *stored*
bytes, so a torn append or a flipped bit is detected before anything is
inflated or decoded, inflation is capped at the declared raw length, and
the scan stops at the first invalid frame — everything before it is
intact by construction.

**Lazy bodies.**  A commit is encoded to bytes when it happens
(:meth:`CommitJournal.document_committed`); a scan validates frames and
record envelopes and leaves every ``body`` an undecoded byte slice.
:meth:`JournalRecord.initial_tree` / :meth:`JournalRecord.script` decode on
demand, which recovery reaches only after its idempotence check — a record
the checkpoint already covers costs its envelope and nothing else.

**One format.**  A file whose first 8 bytes are not the v3 magic is
refused with :class:`~repro.errors.UnsupportedFormatError` and left as
it is; the v1 and v2 journals of older releases are read only by
``repro upgrade`` (:mod:`~repro.storage.legacy`).

``fsync_policy`` selects the durability/latency trade:

``"commit"``
    flush + ``fsync`` after every record — a crash loses nothing that was
    acknowledged (the ``durability="fsync"`` knob).

``"flush"``
    flush to the OS after every record, ``fsync`` only at checkpoints and
    on ``close()`` — a crash of the *process* loses nothing, a crash of
    the *machine* may lose the un-synced suffix (``durability="journal"``).

**Commit groups.**  A batch of commits
(:meth:`~repro.storage.store.TemporalDocumentStore.batch`) is journaled as
*one* physical record of kind ``"group"`` whose body is its member records.
One frame, one CRC, one write, one fsync — the group-commit amortization —
and the frame-level checksum makes the group atomic by construction: a torn
or corrupt group record drops *all* of its members, never a prefix of them,
so recovery replays commit groups all-or-nothing (see
``docs/DURABILITY.md``).  Between :meth:`CommitJournal.begin_group` and
:meth:`CommitJournal.commit_group` appended records are staged in memory
(their bodies already bytes, never live trees);
:meth:`CommitJournal.abort_group` discards them without touching the file.
"""

from __future__ import annotations

import struct
import weakref
import zlib
from dataclasses import dataclass, field

from ..errors import StorageError, TornJournalError, UnsupportedFormatError
from .binfmt import (
    Reader,
    Writer,
    decode_redo,
    decode_tree,
    deflate,
    encode_redo,
    encode_tree,
    inflate,
)
from .faults import REAL_FS

#: The format this module writes, and its file magic.
FORMAT_VERSION = 3
MAGIC = b"TXJRNL3\n"

_FRAME = struct.Struct(">II")  # stored length, crc32 of the stored bytes

#: Record kinds the journal understands.  ``"group"`` is an envelope whose
#: body nests the member records of one commit group.  A kind's byte in
#: a record is its 1-based position here, so this tuple only ever grows.
KINDS = ("create", "update", "delete", "snapshot", "group")

#: Kinds allowed *inside* a group envelope (groups never nest).
MEMBER_KINDS = ("create", "update", "delete", "snapshot")

_KIND_BYTE = {kind: byte for byte, kind in enumerate(KINDS, 1)}


@dataclass
class JournalStats:
    """Counters exposed for the bench harness and the CLI.

    ``records_written`` counts *physical* records (a whole commit group is
    one); ``by_kind`` counts *logical* records (group members individually),
    so ``fsyncs / records_written`` is the amortization the group-commit
    benchmark measures while ``by_kind`` still reflects commit traffic.
    ``bytes_written`` is what reached the file (frame header + stored
    bytes per physical record); ``raw_bytes`` is the same records before
    deflate.
    """

    records_written: int = 0
    bytes_written: int = 0
    raw_bytes: int = 0
    fsyncs: int = 0
    rolls: int = 0
    groups_written: int = 0
    group_members: int = 0
    by_kind: dict = field(default_factory=dict)


@dataclass
class JournalRecord:
    """One journaled commit (or snapshot materialization, or a group).

    ``body`` is the commit's content as :mod:`~repro.storage.binfmt` bytes
    — the stamped version-1 tree of a ``create``, the redo form of the
    completed delta of an ``update``, empty otherwise — and stays
    undecoded until :meth:`initial_tree` / :meth:`script` is asked for it.

    For ``kind == "group"`` the record is an envelope: ``members`` holds
    the batched commit records in application order, ``version`` carries
    the member count, and ``ts`` the last member's timestamp.
    """

    kind: str
    doc_id: int
    name: str
    version: int
    ts: int
    nextxid: int = None
    body: bytes = b""
    members: list = None  # group envelopes only

    @classmethod
    def group(cls, members):
        """Build a group envelope over ``members`` (commit records)."""
        if not members:
            raise StorageError("a commit group must contain records")
        for member in members:
            if member.kind not in MEMBER_KINDS:
                raise StorageError(
                    f"commit groups cannot nest {member.kind!r} records"
                )
        return cls(
            kind="group",
            doc_id=0,
            name="",
            version=len(members),
            ts=members[-1].ts,
            members=list(members),
        )

    # -- encoding -------------------------------------------------------------

    def encode(self):
        """The record as bytes: envelope, then the length-prefixed body
        (for a group, its encoded members back to back)."""
        if self.kind not in _KIND_BYTE:
            raise StorageError(f"unknown journal record kind {self.kind!r}")
        w = Writer()
        w.byte(_KIND_BYTE[self.kind])
        w.u(self.doc_id)
        w.s(self.name)
        w.u(self.version)
        w.u(self.ts)
        w.opt_u(self.nextxid)
        if self.kind == "group":
            w.blob(b"".join(member.encode() for member in self.members))
        else:
            w.blob(self.body)
        return w.getvalue()

    @classmethod
    def decode(cls, data):
        """Decode :meth:`encode`'s bytes, bodies left undecoded; raises
        :class:`StorageError` when they are not exactly one record."""
        r = Reader(data)
        record = cls._read(r)
        if not r.exhausted:
            raise StorageError("trailing bytes after a journal record")
        return record

    @classmethod
    def _read(cls, r, nested=False):
        byte = r.byte()
        if not 1 <= byte <= len(KINDS):
            raise StorageError(f"unknown journal record kind byte {byte:#04x}")
        record = cls(
            kind=KINDS[byte - 1],
            doc_id=r.u(),
            name=r.s(),
            version=r.u(),
            ts=r.u(),
            nextxid=r.opt_u(),
            body=r.blob(),
        )
        if record.kind != "group":
            return record
        if nested:
            raise StorageError("commit groups cannot nest")
        inner = Reader(record.body)
        members = []
        while not inner.exhausted:
            members.append(cls._read(inner, nested=True))
        if len(members) != record.version:
            raise StorageError(
                "commit group member count does not match its header"
            )
        return cls.group(members)

    # -- body decoding (used by recovery, after its idempotence check) --------

    def initial_tree(self):
        """The stamped version-1 tree of a ``create`` record."""
        return decode_tree(self.body)

    def script(self):
        """The :class:`EditScript` of an ``update`` record, in its redo
        form: :func:`~repro.diff.apply.apply_script` completes it while
        applying it to the version it was computed against.  No XID it
        inserts reaches the record's ``nextxid``."""
        return decode_redo(self.body, self.nextxid)


class CommitJournal:
    """Store observer that appends every commit to the journal file.

    Attach with :meth:`TemporalDocumentStore.attach_journal` (or ``bind`` +
    ``subscribe`` manually); the store reference is needed to capture the
    per-document XID-allocator state alongside each record, which recovery
    restores exactly.
    """

    def __init__(self, path, fsync_policy="commit", fs=None):
        if fsync_policy not in ("commit", "flush"):
            raise StorageError(
                f"unknown journal fsync policy {fsync_policy!r}"
            )
        self.path = str(path)
        self.fsync_policy = fsync_policy
        self.fs = fs if fs is not None else REAL_FS
        self.stats = JournalStats()
        self._store = None
        self._handle = None
        self._staged = None  # list while a commit group is open
        self._open()

    def _open(self):
        fs = self.fs
        if fs.exists(self.path):
            size = fs.size(self.path)
            if 0 < size < len(MAGIC):
                # A crash tore the header itself; nothing to preserve.
                fs.truncate(self.path, 0)
            elif size:
                check_head(fs.read_bytes(self.path, len(MAGIC)), self.path)
        self._handle = fs.open_append(self.path)
        if self._handle.tell() == 0:
            fs.write(self._handle, MAGIC)
            self._sync_or_flush()

    # -- observer protocol ---------------------------------------------------

    def bind(self, store):
        """Remember the store so appends can capture allocator state.  A
        weak reference: the store owns this journal, and a cycle would
        leave a dropped store to the cycle collector."""
        self._store = weakref.ref(store)
        return self

    def document_committed(self, event):
        """Append the journal record(s) for one commit event."""
        nextxid = None
        store = self._store() if self._store is not None else None
        repository = store.repository if store is not None else None
        if repository is not None:
            record = repository.record(event.doc_id)
            nextxid = record.allocator.next_xid
        # Encoded here, not when the frame is written: a staged group member
        # is bytes from the moment it is appended and holds no live tree.
        if event.kind == "create":
            body = encode_tree(event.root)
        elif event.kind == "update":
            body = encode_redo(event.script)
        else:  # delete
            body = b""
        self.append(
            JournalRecord(
                kind=event.kind,
                doc_id=event.doc_id,
                name=event.name,
                version=event.version_number,
                ts=event.timestamp,
                nextxid=nextxid,
                body=body,
            )
        )
        # Intermediate snapshots materialized by this commit are journaled
        # too, so recovery rebuilds the same physical layout.
        if (
            event.kind == "update"
            and repository is not None
            and event.version_number in record.snapshots
        ):
            self.append(
                JournalRecord(
                    kind="snapshot",
                    doc_id=event.doc_id,
                    name=event.name,
                    version=event.version_number,
                    ts=event.timestamp,
                )
            )

    # -- writing -------------------------------------------------------------

    def append(self, record):
        """Frame, checksum, and append one record per the fsync policy.

        Inside an open commit group the record is only *staged*; nothing
        reaches the file until :meth:`commit_group` writes the whole group
        as one physical record."""
        if self._staged is not None:
            self._staged.append(record)
            return
        self._write_record(record)

    def _write_record(self, record):
        payload = record.encode()
        frame = _frame(payload)
        self.fs.write(self._handle, frame)
        self._sync_or_flush()
        self.stats.records_written += 1
        self.stats.bytes_written += len(frame)
        self.stats.raw_bytes += len(payload)
        for member in record.members or (record,):
            self.stats.by_kind[member.kind] = (
                self.stats.by_kind.get(member.kind, 0) + 1
            )

    # -- commit groups -------------------------------------------------------

    @property
    def in_group(self):
        return self._staged is not None

    def begin_group(self):
        """Start staging: subsequent appends collect in memory."""
        if self._staged is not None:
            raise StorageError("a commit group is already open")
        self._staged = []

    def commit_group(self):
        """Write every staged record as one group envelope — one frame,
        one write, one fsync (under the ``"commit"`` policy).  An empty
        group writes nothing.  Returns the number of member records."""
        if self._staged is None:
            raise StorageError("no commit group is open")
        staged, self._staged = self._staged, None
        if not staged:
            return 0
        self._write_record(JournalRecord.group(staged))
        self.stats.groups_written += 1
        self.stats.group_members += len(staged)
        return len(staged)

    def abort_group(self):
        """Discard the staged records; the file is untouched."""
        if self._staged is None:
            raise StorageError("no commit group is open")
        self._staged = None

    def _sync_or_flush(self):
        if self.fsync_policy == "commit":
            self.fs.fsync(self._handle)
            self.stats.fsyncs += 1
        else:
            self.fs.flush(self._handle)

    def sync(self):
        """Force everything appended so far to stable storage."""
        self.fs.fsync(self._handle)
        self.stats.fsyncs += 1

    def roll(self, prev_path=None):
        """Rotate after a checkpoint: archive the full journal and start
        fresh.  The rotated generation (``<path>.prev`` by default) is kept
        for one checkpoint cycle so recovery can fall back to the previous
        checkpoint without losing its tail."""
        if self._staged is not None:
            raise StorageError("cannot roll the journal inside a commit group")
        self.sync()
        self.fs.close(self._handle)
        self._handle = None
        prev = str(prev_path) if prev_path is not None else self.path + ".prev"
        self.fs.replace(self.path, prev)
        self._open()
        self.stats.rolls += 1

    def close(self):
        if self._handle is not None:
            self.sync()
            self.fs.close(self._handle)
            self._handle = None


# -- reading -----------------------------------------------------------------


@dataclass
class JournalScan:
    """Result of a tolerant journal scan.

    ``records`` are the valid records in append order (bodies undecoded);
    ``valid_size`` is the byte offset the file should be truncated to when
    the tail is torn; ``torn`` tells whether anything after that offset had
    to be dropped, with ``reason`` saying why the scan stopped.  ``version``
    is the file's format (``None`` without a header) and
    ``raw_bytes`` what its valid records measure before deflate.
    """

    records: list
    valid_size: int
    total_size: int
    torn: bool
    reason: str = ""
    version: int = None
    raw_bytes: int = 0

    @property
    def dropped_bytes(self):
        return self.total_size - self.valid_size


def _frame(payload):
    """One frame around a record's bytes: deflated when that helps,
    CRC over whatever is stored."""
    deflated = deflate(payload)
    head = Writer()
    head.u(0 if deflated is None else len(payload))
    stored = head.getvalue() + (payload if deflated is None else deflated)
    return _FRAME.pack(len(stored), zlib.crc32(stored) & 0xFFFFFFFF) + stored


def _unframe(stored):
    """The record bytes inside a frame's stored bytes (CRC already
    verified), inflated when the frame says they were deflated."""
    r = Reader(stored)
    raw_length = r.u()
    data = r.rest()
    return inflate(data, raw_length) if raw_length else data


def check_head(head, path):
    """Refuse a journal whose first bytes ``head`` are not :data:`MAGIC`;
    fewer bytes, from a file at least that long, are a short read."""
    if len(head) < len(MAGIC):
        raise StorageError(
            f"journal {str(path)!r}: reading its first {len(MAGIC)} bytes "
            f"returned {len(head)} (short read)"
        )
    if head != MAGIC:
        raise UnsupportedFormatError(
            f"journal {str(path)!r} starts with {head!r}, not {MAGIC!r}"
        )


def scan_journal(path, fs=None):
    """Read a journal, stopping (not failing) at the first invalid record.

    A missing file scans as empty; so does one shorter than the magic, as
    torn (a crash cut its header).  Any other head but :data:`MAGIC` is
    refused (:func:`check_head`).  Records before the first length/CRC
    violation are returned; everything at and after it is reported via
    ``torn``/``valid_size`` so recovery can truncate the tail.  Frames and
    record envelopes are validated; bodies are not decoded.
    """
    fs = fs if fs is not None else REAL_FS
    if not fs.exists(path):
        return JournalScan([], 0, 0, torn=False, reason="missing")
    data = fs.read_bytes(path)
    if len(data) < len(MAGIC):
        return JournalScan([], 0, len(data), torn=bool(data),
                           reason="bad header" if data else "empty")
    check_head(data[: len(MAGIC)], path)
    return scan_frames(data, _read_record)


def _read_record(stored):
    payload = _unframe(stored)
    return JournalRecord.decode(payload), len(payload)


def scan_frames(data, read_record, version=FORMAT_VERSION):
    """The :class:`JournalScan` of the frames after a journal's magic in
    ``data``: ``read_record`` turns the stored bytes of a frame whose CRC
    held into ``(record, raw length)``, or raises :class:`StorageError`
    (or ``ValueError``) for a bad record, where the scan stops."""
    scan = JournalScan([], len(MAGIC), len(data), torn=True, version=version)
    while scan.valid_size < len(data):
        start = scan.valid_size + _FRAME.size
        if start > len(data):
            scan.reason = "torn frame"
            return scan
        length, crc = _FRAME.unpack_from(data, scan.valid_size)
        payload = data[start : start + length]
        if len(payload) < length:
            scan.reason = "torn payload"
            return scan
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            scan.reason = "checksum mismatch"
            return scan
        try:
            record, raw_bytes = read_record(payload)
        except (StorageError, ValueError):
            scan.reason = "bad record"
            return scan
        scan.records.append(record)
        scan.raw_bytes += raw_bytes
        scan.valid_size = start + length
    scan.torn, scan.reason = False, "clean"
    return scan


def verify_journal(path, fs=None):
    """Strict scan: returns the records or raises :class:`TornJournalError`."""
    scan = scan_journal(path, fs=fs)
    if scan.torn:
        raise TornJournalError(
            f"journal {scan.reason}; {scan.dropped_bytes} trailing bytes "
            "unreadable",
            path=str(path),
            offset=scan.valid_size,
        )
    return scan.records
