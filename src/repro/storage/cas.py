"""Content-addressed object store: dedup, compression, and GC.

The one checkpoint format of a durable directory.  An XML archive is one
monolithic text file — rewriting it at every checkpoint and re-parsing
it at every cold open grows linearly with history even though
consecutive versions are nearly identical — so it is only the export
file (and what older releases checkpointed to).  This store (modelled
on castor's ``casq_core``: ``store.rs`` / ``gc.rs``) is a directory of
immutable objects keyed by content hash:

* Every checkpointed document becomes three byte streams (current tree,
  delta chain, snapshots) in the binary encoding of
  :mod:`~repro.storage.binfmt`, held as objects named by their SHA-256
  and listed, per stream, in a *document manifest*.  A checkpoint costs
  what changed since the last one (the paper's append-only model, §7.1):
  a document whose current version, deletion, next XID and snapshot set
  are unchanged keeps its manifest hash and is not encoded at all; a
  changed one stores its current tree as one object and *appends* one
  segment of the deltas and one of the snapshots it did not store yet to
  its manifest.  A tail segment under :data:`SEGMENT_FOLD_BYTES` is
  folded into the next, so a stream holds about one segment per 4 KiB.
  Storing an object whose hash already exists is free.
* Objects above a size threshold are transparently zlib-compressed; a
  per-object CRC32 over the raw content detects torn writes and flipped
  bits, surfacing as :class:`~repro.errors.CorruptArchiveError` naming
  the object hash.
* A tiny *pointer file* (``checkpoint.cas``) names the root manifest of
  the newest checkpoint; the previous generation keeps its own pointer
  (``checkpoint.cas.prev``), so a crash at any moment leaves at least
  one intact generation.
* :func:`collect_garbage` is a mark-and-sweep from the retained
  pointers: everything reachable (root manifests → document manifests →
  stream objects) is live — which by construction is the set {current
  versions, live snapshots, retained checkpoints} — and every other
  object is deleted.  Rotating a checkpoint really reclaims bytes.

Root manifest format 2 names segmented streams.  Format 1 cut each
stream, written whole as one segment, into content-defined chunks; its
chunk list is the one-segment case of the same reader, so a format-1
directory opens and its lists are extended by new segments.

Object file format (after the 4-byte magic)::

    +------+-------+------------------+----------------+-----------+
    | CAS1 | flags | raw length (u32) | crc32 raw (u32)| payload   |
    +------+-------+------------------+----------------+-----------+

``flags & 1`` marks a zlib-compressed payload, inflated to at most its
declared raw length.  The CRC always covers the *raw* (uncompressed)
content, so verification happens after decompression and a corrupt
compressed stream is equally caught.
"""

from __future__ import annotations

import hashlib
import os
import struct
import zlib
from dataclasses import dataclass, field

from ..errors import CorruptArchiveError
from .binfmt import (
    DEFLATE_THRESHOLD,
    Reader,
    Writer,
    decode_delta_stream,
    decode_snapshot_stream,
    decode_tree,
    deflate,
    encode_delta_segment,
    encode_snapshot_segment,
    encode_tree,
    inflate,
)
from .faults import REAL_FS

#: The checkpoint pointer file; ``.prev`` names the previous generation.
CAS_POINTER_FILE = "checkpoint.cas"

#: Subdirectory holding the hash-addressed objects.
OBJECTS_DIR = "objects"

#: CAS root-manifest format version written; :data:`READABLE_VERSIONS`
#: are read.
FORMAT_VERSION = 2
READABLE_VERSIONS = (1, 2)

#: A stream's last segment smaller than this many raw bytes is folded
#: into the segment the next checkpoint appends.
SEGMENT_FOLD_BYTES = 4096

_MAGIC = b"CAS1"
_FLAG_ZLIB = 0x01
_HEADER = struct.Struct(">II")  # raw length, crc32 of raw content
_POINTER_MAGIC = "CASPTR1"

#: Stream kinds a checkpoint stores per document, in encoding order.
_STREAM_KINDS = ("current", "deltas", "snapshots")


# -- statistics ----------------------------------------------------------------


@dataclass
class CASStats:
    """Dedup/compression/GC counters for one object store.

    ``raw_bytes`` counts every byte *presented* to :meth:`CASObjectStore.put`
    (dedup hits included); ``stored_bytes`` counts what actually reached
    disk (new objects, after compression).  Their quotient is the store's
    effective dedup+compression ratio.
    """

    objects_written: int = 0
    objects_deduped: int = 0
    compressed_objects: int = 0
    raw_bytes: int = 0
    stored_bytes: int = 0
    reads: int = 0
    read_bytes: int = 0
    gc_runs: int = 0
    gc_deleted_objects: int = 0
    gc_deleted_bytes: int = 0
    by_kind: dict = field(default_factory=dict)  # kind -> per-kind counters

    def _kind(self, kind):
        bucket = self.by_kind.get(kind)
        if bucket is None:
            bucket = self.by_kind[kind] = {
                "objects": 0, "deduped": 0, "raw": 0, "stored": 0,
            }
        return bucket

    @property
    def dedup_ratio(self):
        if not self.stored_bytes:
            return 0.0
        return round(self.raw_bytes / self.stored_bytes, 3)

    def as_dict(self):
        return {
            "objects_written": self.objects_written,
            "objects_deduped": self.objects_deduped,
            "compressed_objects": self.compressed_objects,
            "raw_bytes": self.raw_bytes,
            "stored_bytes": self.stored_bytes,
            "dedup_ratio": self.dedup_ratio,
            "reads": self.reads,
            "read_bytes": self.read_bytes,
            "gc_runs": self.gc_runs,
            "gc_deleted_objects": self.gc_deleted_objects,
            "gc_deleted_bytes": self.gc_deleted_bytes,
            "by_kind": {
                kind: dict(counters)
                for kind, counters in sorted(self.by_kind.items())
            },
        }

    def snapshot(self):
        """Flat counters for the metrics-registry delta protocol."""
        out = {
            "objects_written": self.objects_written,
            "objects_deduped": self.objects_deduped,
            "compressed_objects": self.compressed_objects,
            "raw_bytes": self.raw_bytes,
            "stored_bytes": self.stored_bytes,
            "reads": self.reads,
            "read_bytes": self.read_bytes,
            "gc_runs": self.gc_runs,
            "gc_deleted_objects": self.gc_deleted_objects,
            "gc_deleted_bytes": self.gc_deleted_bytes,
        }
        for kind, counters in self.by_kind.items():
            for key, value in counters.items():
                out[f"by_kind.{kind}.{key}"] = value
        return out


@dataclass
class GCReport:
    """What one mark-and-sweep pass found and freed."""

    roots: list = field(default_factory=list)
    objects_scanned: int = 0
    objects_live: int = 0
    objects_deleted: int = 0
    bytes_deleted: int = 0
    tmp_files_removed: int = 0

    def as_dict(self):
        return {
            "roots": list(self.roots),
            "objects_scanned": self.objects_scanned,
            "objects_live": self.objects_live,
            "objects_deleted": self.objects_deleted,
            "bytes_deleted": self.bytes_deleted,
            "tmp_files_removed": self.tmp_files_removed,
        }


# -- the object store ----------------------------------------------------------


def hash_bytes(data):
    """The content address of ``data`` (SHA-256 hex)."""
    return hashlib.sha256(data).hexdigest()


class CASObjectStore:
    """Immutable hash-addressed objects under ``<directory>/objects/``.

    Objects are written atomically (temp + fsync + rename) through the
    pluggable filesystem, so the crash matrix exercises every step; an
    object, once written, is never modified — dedup makes re-puts free
    and GC is the only deleter.
    """

    def __init__(self, directory, fs=None,
                 compress_threshold=DEFLATE_THRESHOLD):
        self.directory = str(directory)
        self.fs = fs if fs is not None else REAL_FS
        self.compress_threshold = compress_threshold
        self.stats = CASStats()
        #: doc id -> :class:`_Stored`: what the newest checkpoint this
        #: store published (or :func:`read_checkpoint` loaded) holds, so
        #: the next :func:`write_checkpoint` writes only what changed.
        self.published = {}

    @property
    def objects_dir(self):
        return os.path.join(self.directory, OBJECTS_DIR)

    def object_path(self, object_hash):
        return os.path.join(
            self.objects_dir, object_hash[:2], object_hash[2:]
        )

    # -- write side ----------------------------------------------------------

    def put(self, data, kind="object"):
        """Store ``data``; returns its hash.  Existing objects dedup."""
        object_hash = hash_bytes(data)
        stats = self.stats
        bucket = stats._kind(kind)
        stats.raw_bytes += len(data)
        bucket["raw"] += len(data)
        path = self.object_path(object_hash)
        if self.fs.exists(path):
            stats.objects_deduped += 1
            bucket["deduped"] += 1
            return object_hash
        flags = 0
        payload = data
        compressed = deflate(data, self.compress_threshold)
        if compressed is not None:
            payload = compressed
            flags |= _FLAG_ZLIB
        blob = (
            _MAGIC
            + bytes([flags])
            + _HEADER.pack(len(data), zlib.crc32(data) & 0xFFFFFFFF)
            + payload
        )
        os.makedirs(os.path.dirname(path), exist_ok=True)
        # Atomic and fsynced: a torn object write leaves only a temp file
        # (swept by GC), never a half-written addressable object.
        from .persistence import atomic_write_bytes

        atomic_write_bytes(path, blob, fs=self.fs)
        stats.objects_written += 1
        stats.stored_bytes += len(blob)
        bucket["objects"] += 1
        bucket["stored"] += len(blob)
        if flags & _FLAG_ZLIB:
            stats.compressed_objects += 1
        return object_hash

    # -- read side -----------------------------------------------------------

    def get(self, object_hash):
        """Fetch and verify one object's raw content."""
        path = self.object_path(object_hash)
        try:
            blob = self.fs.read_bytes(path)
        except FileNotFoundError:
            raise CorruptArchiveError(
                f"missing object {object_hash}", path=path
            ) from None
        self.stats.reads += 1
        self.stats.read_bytes += len(blob)
        header_size = len(_MAGIC) + 1 + _HEADER.size
        if len(blob) < header_size or blob[: len(_MAGIC)] != _MAGIC:
            raise CorruptArchiveError(
                f"object {object_hash} has a corrupt header", path=path
            )
        flags = blob[len(_MAGIC)]
        raw_len, crc = _HEADER.unpack_from(blob, len(_MAGIC) + 1)
        payload = blob[header_size:]
        if flags & _FLAG_ZLIB:
            try:
                payload = inflate(payload, raw_len)
            except CorruptArchiveError as exc:
                raise CorruptArchiveError(
                    f"object {object_hash}: {exc}", path=path
                ) from None
        if len(payload) != raw_len or zlib.crc32(payload) & 0xFFFFFFFF != crc:
            raise CorruptArchiveError(
                f"object {object_hash} failed its checksum", path=path
            )
        return payload

    # -- enumeration ----------------------------------------------------------

    def iter_objects(self):
        """Yield ``(hash, path, on-disk size)`` for every stored object."""
        root = self.objects_dir
        if not os.path.isdir(root):
            return
        for bucket in sorted(os.listdir(root)):
            bucket_dir = os.path.join(root, bucket)
            if not os.path.isdir(bucket_dir):
                continue
            for name in sorted(os.listdir(bucket_dir)):
                path = os.path.join(bucket_dir, name)
                if name.endswith(".tmp"):
                    continue
                yield bucket + name, path, os.path.getsize(path)

    def stored_bytes(self):
        """Total on-disk bytes of all objects (GC'd space excluded)."""
        return sum(size for _, _, size in self.iter_objects())


# -- checkpoint pointer files --------------------------------------------------


def pointer_bytes(root_hash):
    """The pointer-file content naming a checkpoint's root manifest."""
    line = f"{_POINTER_MAGIC} {root_hash}"
    crc = zlib.crc32(line.encode("ascii")) & 0xFFFFFFFF
    return f"{line} {crc:08x}\n".encode("ascii")


def read_pointer(path, fs=None):
    """Read and verify a pointer file; returns the root manifest hash."""
    fs = fs if fs is not None else REAL_FS
    try:
        data = fs.read_bytes(path)
    except FileNotFoundError:
        raise CorruptArchiveError("missing pointer file", path=path) from None
    parts = data.decode("ascii", errors="replace").split()
    if len(parts) != 3 or parts[0] != _POINTER_MAGIC:
        raise CorruptArchiveError(
            "not a CAS checkpoint pointer", path=path
        )
    magic, root_hash, stored_crc = parts
    line = f"{magic} {root_hash}"
    if f"{zlib.crc32(line.encode('ascii')) & 0xFFFFFFFF:08x}" != stored_crc:
        raise CorruptArchiveError(
            "pointer file failed its checksum", path=path
        )
    return root_hash


# -- checkpoint write ----------------------------------------------------------


@dataclass(frozen=True)
class _Stored:
    """What one checkpoint holds of one document.

    ``key`` is ``(current version, deleted_at, next XID, snapshot
    numbers)`` — a document whose key is unchanged needs nothing written.
    ``manifests`` is ``(length, [object hashes])`` per stream kind, and
    ``tails`` the raw length of the delta and snapshot streams' last
    object when that object is one whole segment (``None`` otherwise).
    Deltas and snapshots are only ever added, so what a stream lacks is
    the versions past the stored current one and the snapshot numbers
    not in the stored set."""

    key: tuple
    doc_hash: str
    manifests: tuple
    tails: tuple


_NOTHING = _Stored((0, None, 0, frozenset()), "", ((0, []),) * 3, (None, None))


def _key(record):
    return (
        record.dindex.current_number,
        record.dindex.deleted_at,
        record.allocator.next_xid,
        frozenset(record.snapshots),
    )


def write_checkpoint(store, directory, fs=None, objstore=None, rotate=False):
    """Checkpoint ``store`` into ``directory``'s object store.

    Only documents changed since ``objstore``'s last published
    checkpoint are written (a fresh object store writes every document).
    Objects land first (invisible until named by a pointer), then the
    pointer file is rotated (when ``rotate``) and atomically replaced —
    two generations, so a crash at any operation leaves a recoverable
    directory.  ``objstore`` only
    learns the new checkpoint once its pointer is published.  Returns the
    root manifest hash.
    """
    fs = fs if fs is not None else REAL_FS
    directory = str(directory)
    if objstore is None:
        objstore = CASObjectStore(directory, fs=fs)
    published = {}
    for record in sorted(store.repository.records(), key=lambda r: r.doc_id):
        key = _key(record)
        stored = objstore.published.get(record.doc_id, _NOTHING)
        if stored.key != key:
            stored = _write_document(objstore, record, key, stored)
        published[record.doc_id] = stored
    root = Writer()
    root.u(FORMAT_VERSION)
    root.u(store.clock.now())
    root.u(len(published))
    for stored in published.values():
        root.blob(bytes.fromhex(stored.doc_hash))
    root_hash = objstore.put(root.getvalue(), kind="checkpoint")

    pointer = os.path.join(directory, CAS_POINTER_FILE)
    if rotate and fs.exists(pointer):
        fs.replace(pointer, pointer + ".prev")
    from .persistence import atomic_write_bytes

    atomic_write_bytes(pointer, pointer_bytes(root_hash), fs=fs)
    objstore.published = published
    return root_hash


def _write_document(objstore, record, key, stored):
    """Store what ``record`` gained since ``stored``: its current tree,
    one delta segment and one snapshot segment, then its manifest."""
    number, _deleted_at, _next_xid, snapshots = key
    was_number, _, _, was_snapshots = stored.key
    current, deltas, snaps = stored.manifests
    delta_tail, snap_tail = stored.tails
    if number != was_number:
        data = encode_tree(record.current_root)
        current = (len(data), [objstore.put(data, kind="current")])
    deltas, delta_tail = _append_segment(
        objstore, "deltas", deltas, delta_tail,
        range(max(was_number, 1), number), record, encode_delta_segment,
    )
    snaps, snap_tail = _append_segment(
        objstore, "snapshots", snaps, snap_tail,
        sorted(snapshots - was_snapshots), record, encode_snapshot_segment,
    )
    manifests = (current, deltas, snaps)
    doc_hash = objstore.put(
        _encode_document_meta(record, manifests), kind="checkpoint"
    )
    return _Stored(key, doc_hash, manifests, (delta_tail, snap_tail))


def _append_segment(objstore, kind, manifest, tail, numbers, record, encode):
    """``manifest`` with one segment of ``numbers`` appended (the tail
    segment folded into it when small) and the new tail's length."""
    if not numbers:
        return manifest, tail
    length, hashes = manifest
    folded = None
    if tail is not None and tail < SEGMENT_FOLD_BYTES:
        folded = objstore.get(hashes[-1])
        length -= len(folded)
        hashes = hashes[:-1]
    segment = encode(record, numbers, folded)
    hashes = hashes + [objstore.put(segment, kind=kind)]
    return (length + len(segment), hashes), len(segment)


def _encode_document_meta(record, manifests):
    w = Writer()
    w.u(record.doc_id)
    w.s(record.name)
    w.u(record.allocator.next_xid)
    w.opt_u(record.dindex.deleted_at)
    entries = record.dindex.entries
    w.u(len(entries))
    for entry in entries:
        w.u(entry.number)
        w.u(entry.timestamp)
    for length, hashes in manifests:
        w.u(length)
        w.u(len(hashes))
        for object_hash in hashes:
            w.blob(bytes.fromhex(object_hash))
    return w.getvalue()


# -- checkpoint read -----------------------------------------------------------


def resolve_pointer_path(source, fs=None):
    """``source`` (a CAS directory or a pointer file path) →
    ``(pointer path, directory)``."""
    fs = fs if fs is not None else REAL_FS
    source = str(source)
    base = os.path.basename(source)
    if base.startswith(CAS_POINTER_FILE):
        return source, os.path.dirname(source) or "."
    return os.path.join(source, CAS_POINTER_FILE), source


def _read_root(objstore, root_hash, where=None):
    """``(clock, [document manifest hashes])`` of a root manifest."""
    r = Reader(objstore.get(root_hash))
    version = r.u()
    if version not in READABLE_VERSIONS:
        raise CorruptArchiveError(
            f"unsupported CAS checkpoint format {version} under root "
            f"{root_hash}", path=where,
        )
    clock_now = r.u()
    return clock_now, [r.blob().hex() for _ in range(r.u())]


def read_checkpoint(source, store=None, fs=None, objstore=None):
    """Restore a CAS checkpoint into ``store`` (see
    :func:`~repro.storage.persistence.load_store`), which is returned.

    ``source`` is the database directory or an explicit pointer file
    (e.g. ``checkpoint.cas.prev`` during recovery fallback).  Every
    object on the path is CRC-verified and every document decoded before
    the first one is installed; corruption raises
    :class:`CorruptArchiveError` naming the object hash and leaves
    ``store`` untouched.  On success ``objstore.published`` describes
    the loaded checkpoint, so the next :func:`write_checkpoint` through
    ``objstore`` writes only what changed after it.
    """
    from .persistence import build_record, empty_store, install_records

    store = empty_store(store)
    fs = fs if fs is not None else REAL_FS
    pointer, directory = resolve_pointer_path(source, fs=fs)
    if objstore is None:
        objstore = CASObjectStore(directory, fs=fs)
    clock_now, doc_hashes = _read_root(
        objstore, read_pointer(pointer, fs=fs), where=pointer
    )
    records = []
    published = {}
    for doc_hash in doc_hashes:
        meta = _decode_document_meta(objstore.get(doc_hash), doc_hash)
        current, deltas, snaps = (
            _fetch_stream(objstore, doc_hash, kind, length, hashes)
            for kind, (length, hashes) in zip(
                _STREAM_KINDS, meta["manifests"]
            )
        )
        delta_starts, snap_starts = [], []
        record = build_record(
            doc_id=meta["doc_id"],
            name=meta["name"],
            nextxid=meta["nextxid"],
            deleted_at=meta["deleted_at"],
            entries=meta["entries"],
            deltas=decode_delta_stream(deltas[0], delta_starts),
            snapshots=decode_snapshot_stream(snaps[0], snap_starts),
            current_root=decode_tree(current[0]),
        )
        records.append(record)
        published[record.doc_id] = _Stored(
            _key(record), doc_hash, tuple(meta["manifests"]),
            (_whole_tail(deltas, delta_starts),
             _whole_tail(snaps, snap_starts)),
        )
    install_records(store, clock_now, records)
    objstore.published = published
    return store


def _whole_tail(stream, starts):
    """The raw length of ``stream``'s last object when a segment starts
    where it does (a format-1 chunk does not), else ``None``."""
    data, last = stream
    if last and len(data) - last in starts:
        return last
    return None


def _decode_document_meta(data, doc_hash):
    r = Reader(data)
    meta = {
        "doc_id": r.u(),
        "name": r.s(),
        "nextxid": r.u(),
        "deleted_at": r.opt_u(),
        "entries": [],
        "manifests": [],
    }
    for _ in range(r.u()):
        number = r.u()
        meta["entries"].append((number, r.u()))
    for _kind in _STREAM_KINDS:
        length = r.u()
        hashes = [r.blob().hex() for _ in range(r.u())]
        meta["manifests"].append((length, hashes))
    if not r.exhausted:
        raise CorruptArchiveError(
            f"document manifest {doc_hash} has trailing bytes"
        )
    return meta


def _fetch_stream(objstore, doc_hash, kind, length, hashes):
    """``(stream bytes, raw length of its last object)``."""
    parts = [objstore.get(object_hash) for object_hash in hashes]
    stream = b"".join(parts)
    if len(stream) != length:
        raise CorruptArchiveError(
            f"document manifest {doc_hash}: {kind} stream reassembled to "
            f"{len(stream)} byte(s), expected {length}"
        )
    return stream, len(parts[-1]) if parts else 0


# -- garbage collection --------------------------------------------------------


def reachable_hashes(objstore, root_hash):
    """Every object hash reachable from one checkpoint root manifest."""
    live = {root_hash}
    for doc_hash in _read_root(objstore, root_hash)[1]:
        live.add(doc_hash)
        meta = _decode_document_meta(objstore.get(doc_hash), doc_hash)
        for _length, hashes in meta["manifests"]:
            live.update(hashes)
    return live


def collect_garbage(directory, fs=None, objstore=None, extra_roots=()):
    """Mark-and-sweep the object store from the retained checkpoints.

    Roots are the pointer files still present (``checkpoint.cas`` and
    ``checkpoint.cas.prev``) plus any ``extra_roots`` hashes.  A pointer
    that fails verification aborts the sweep with
    :class:`CorruptArchiveError` — when a generation's reachable set
    cannot be computed, deleting *anything* would be unsafe.  Deletion
    goes through the pluggable filesystem, so the crash matrix covers a
    crash at every sweep step; a crash mid-sweep only leaves dead
    objects behind, never removes a live one.
    """
    fs = fs if fs is not None else REAL_FS
    directory = str(directory)
    if objstore is None:
        objstore = CASObjectStore(directory, fs=fs)
    report = GCReport()
    pointer = os.path.join(directory, CAS_POINTER_FILE)
    live = set()
    for path in (pointer, pointer + ".prev"):
        if not fs.exists(path):
            continue
        root_hash = read_pointer(path, fs=fs)
        report.roots.append(root_hash)
        live |= reachable_hashes(objstore, root_hash)
    for root_hash in extra_roots:
        report.roots.append(root_hash)
        live |= reachable_hashes(objstore, root_hash)
    for object_hash, path, size in list(objstore.iter_objects()):
        report.objects_scanned += 1
        if object_hash in live:
            report.objects_live += 1
            continue
        fs.remove(path)
        report.objects_deleted += 1
        report.bytes_deleted += size
    report.tmp_files_removed = _sweep_tmp_files(objstore, fs)
    stats = objstore.stats
    stats.gc_runs += 1
    stats.gc_deleted_objects += report.objects_deleted
    stats.gc_deleted_bytes += report.bytes_deleted
    return report


def _sweep_tmp_files(objstore, fs):
    """Remove temp files a crashed object write may have left behind."""
    removed = 0
    root = objstore.objects_dir
    if not os.path.isdir(root):
        return removed
    for bucket in os.listdir(root):
        bucket_dir = os.path.join(root, bucket)
        if not os.path.isdir(bucket_dir):
            continue
        for name in os.listdir(bucket_dir):
            if name.endswith(".tmp"):
                fs.remove(os.path.join(bucket_dir, name))
                removed += 1
    return removed


def storage_size(directory):
    """On-disk bytes of a CAS checkpoint directory (objects + pointers)."""
    directory = str(directory)
    total = CASObjectStore(directory).stored_bytes()
    for name in (CAS_POINTER_FILE, CAS_POINTER_FILE + ".prev"):
        path = os.path.join(directory, name)
        if os.path.exists(path):
            total += os.path.getsize(path)
    return total


__all__ = [
    "CASObjectStore",
    "CASStats",
    "CAS_POINTER_FILE",
    "GCReport",
    "collect_garbage",
    "hash_bytes",
    "read_checkpoint",
    "read_pointer",
    "reachable_hashes",
    "storage_size",
    "write_checkpoint",
]


def kind_breakdown(directory, fs=None, objstore=None):
    """Disk-truth per-kind breakdown of the newest checkpoint generation.

    Walks the published pointer's reachable set and attributes every
    object (once — objects shared across streams count where first seen)
    to ``current`` / ``deltas`` / ``snapshots`` / ``checkpoint``
    (manifests), returning ``{kind: {objects, stored_bytes, raw_bytes}}``.
    Unlike :class:`CASStats` — counters over one store's lifetime — this
    reads what is on disk right now, so ``repro stats -d`` reports real
    numbers on a freshly opened directory.
    """
    fs = fs if fs is not None else REAL_FS
    directory = str(directory)
    if objstore is None:
        objstore = CASObjectStore(directory, fs=fs)
    pointer = os.path.join(directory, CAS_POINTER_FILE)
    breakdown = {}
    if not fs.exists(pointer):
        return breakdown
    seen = set()

    def add(kind, object_hash):
        if object_hash in seen:
            return
        seen.add(object_hash)
        raw = objstore.get(object_hash)  # verifies hash path + CRC
        entry = breakdown.setdefault(
            kind, {"objects": 0, "stored_bytes": 0, "raw_bytes": 0}
        )
        entry["objects"] += 1
        entry["stored_bytes"] += os.path.getsize(
            objstore.object_path(object_hash)
        )
        entry["raw_bytes"] += len(raw)

    root_hash = read_pointer(pointer, fs=fs)
    add("checkpoint", root_hash)
    for doc_hash in _read_root(objstore, root_hash)[1]:
        add("checkpoint", doc_hash)
        meta = _decode_document_meta(objstore.get(doc_hash), doc_hash)
        for kind, (_length, hashes) in zip(_STREAM_KINDS, meta["manifests"]):
            for object_hash in hashes:
                add(kind, object_hash)
    return breakdown
