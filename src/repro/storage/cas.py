"""Content-addressed object store: dedup, compression, and GC.

The one checkpoint format of a durable directory.  An XML archive is one
monolithic text file — rewriting it at every checkpoint and re-parsing
it at every cold open grows linearly with history even though
consecutive versions are nearly identical — so it is only the export
file (and what older releases checkpointed to).  This store (modelled
on castor's ``casq_core``: ``store.rs`` / ``gc.rs``) is a directory of
immutable objects keyed by content hash:

* Every checkpointed document is stored as what the commit journal
  stores of it: its first version, written once, and its deltas in redo
  form (:func:`~repro.storage.binfmt.write_redo`), both in the binary
  encoding of :mod:`~repro.storage.binfmt`.  A checkpoint costs what
  changed since the last one (the paper's append-only model, §7.1): a
  document whose current version, deletion, next XID and snapshot set
  are unchanged keeps its manifest hash and is not encoded at all; a
  changed one gains one segment of the deltas it did not store yet (and
  its first version, at its first checkpoint).  What one checkpoint
  gains of all documents is laid end to end, in doc-id order, into
  *packs*: objects of about :data:`PACK_BYTES` raw bytes each, deflated
  as one stream, so the tag names, text and structure the documents
  share compress together.  A *document manifest* names each stream as
  ranges ``(pack, offset, length)`` and lists the version numbers that
  have a snapshot; a pack is never rewritten, and a later checkpoint
  only adds ranges in new packs.  Loading fetches and inflates each pack
  once and rolls the first version forward through the deltas,
  completing each and rebuilding the snapshots and the current version
  on the way.  Storing an object whose hash already exists is free.
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
  the packs their ranges name) is live — which by construction is the
  set of the retained checkpoints' objects — and every other object is
  deleted.  A pack stays while any retained generation names a range in
  it.  Rotating a checkpoint really reclaims bytes.

Root manifest format 4 is the one written.  Format 3 named each stream
as a list of whole objects, one per first version and per segment; each
such object is read as a pack of one range ``(hash, 0, raw length)``,
so a format-3 directory opens and keeps its objects, and the next
checkpoint writes only its manifests anew.  Formats 1 and 2 stored each
document's current tree, completed deltas and snapshot trees as three
streams (format 1 cut each, written whole, into content-defined chunks;
format 2 appended segments); they are still read, and a load of one
publishes nothing, so the first checkpoint after it rewrites every
document.  docs/STORAGE.md gives the byte layout of every format.

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

from ..diff.apply import apply_script, parent_index
from ..errors import CorruptArchiveError, DeltaApplicationError
from .binfmt import (
    DEFLATE_THRESHOLD,
    Reader,
    Writer,
    decode_delta_stream,
    decode_redo_stream,
    decode_snapshot_stream,
    decode_tree,
    deflate,
    encode_redo_segment,
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
FORMAT_VERSION = 4
READABLE_VERSIONS = (1, 2, 3, 4)

#: A checkpoint's pack is stored once it holds this many raw bytes; what
#: is left goes into the next one.  zlib's window is 32 KiB, so a larger
#: pack compresses hardly better.
PACK_BYTES = 64 * 1024

_MAGIC = b"CAS1"
_FLAG_ZLIB = 0x01
_HEADER = struct.Struct(">II")  # raw length, crc32 of raw content
#: The first word of a pointer file.
POINTER_MAGIC = "CASPTR1"

#: Root format -> the stream kinds a document manifest names, in encoding
#: order.
_STREAM_KINDS = {
    1: ("current", "deltas", "snapshots"),
    2: ("current", "deltas", "snapshots"),
    3: ("first", "deltas"),
    4: ("first", "deltas"),
}


# -- statistics ----------------------------------------------------------------


@dataclass
class CASStats:
    """Dedup/compression/GC counters for one object store.

    ``raw_bytes`` counts every byte *presented* to :meth:`CASObjectStore.put`
    (dedup hits included); ``stored_bytes`` counts what actually reached
    disk (new objects, after compression).  Their quotient is the store's
    effective dedup+compression ratio.  ``by_kind`` counts objects per
    kind put (``pack``, ``checkpoint``: ``objects``, ``deduped``, ``raw``,
    ``stored``) and the ranges laid into packs per stream kind
    (``first``, ``deltas``: ``ranges``, ``raw``), whose stored bytes are
    their packs'.
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

    def _range(self, kind, length):
        bucket = self.by_kind.setdefault(kind, {"ranges": 0, "raw": 0})
        bucket["ranges"] += 1
        bucket["raw"] += length

    @property
    def dedup_ratio(self):
        if not self.stored_bytes:
            return 0.0
        return round(self.raw_bytes / self.stored_bytes, 3)


@dataclass
class GCReport:
    """What one mark-and-sweep pass found and freed."""

    roots: list = field(default_factory=list)
    objects_scanned: int = 0
    objects_live: int = 0
    objects_deleted: int = 0
    bytes_deleted: int = 0
    tmp_files_removed: int = 0


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

    @property
    def pointer(self):
        """The newest generation's pointer file; ``+ ".prev"`` names the
        previous one."""
        return os.path.join(self.directory, CAS_POINTER_FILE)

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

    def get(self, object_hash, counted=True):
        """Fetch and verify one object's raw content.

        ``counted=False`` leaves ``stats.reads``/``read_bytes`` alone: an
        inspection of the disk is not a read the workload made."""
        path = self.object_path(object_hash)
        try:
            blob = self.fs.read_bytes(path)
        except FileNotFoundError:
            raise CorruptArchiveError(
                f"missing object {object_hash}", path=path
            ) from None
        if counted:
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
    line = f"{POINTER_MAGIC} {root_hash}"
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
    if len(parts) != 3 or parts[0] != POINTER_MAGIC:
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
    numbers)`` — a document whose key is unchanged and whose manifest is
    in the format written (``doc_hash`` set) needs nothing written.
    ``manifests`` holds, for the first version and for the redo-delta
    stream, the stream's ranges ``(pack hash, offset, length)`` in stream
    order.  Deltas are only ever added, so what the stream lacks is the
    versions past the stored current one."""

    key: tuple
    doc_hash: str
    manifests: tuple


_NOTHING = _Stored((0, None, 0, frozenset()), "", ((), ()))


def _key(record):
    return (
        record.dindex.current_number,
        record.dindex.deleted_at,
        record.allocator.next_xid,
        frozenset(record.snapshots),
    )


class _Packer:
    """Lays one checkpoint's new stream bytes end to end into packs.

    :meth:`add` places bytes in the open pack and returns their range
    with the pack's *number* in place of its hash; a pack is stored once
    it holds :data:`PACK_BYTES` raw bytes (or at :meth:`close`), and
    :meth:`resolve` then turns numbers into hashes."""

    def __init__(self, objstore):
        self.objstore = objstore
        self.hashes = []  # of the packs stored so far, in order
        self.pack = bytearray()

    def add(self, data, kind):
        at = (len(self.hashes), len(self.pack), len(data))
        self.pack += data
        self.objstore.stats._range(kind, len(data))
        if len(self.pack) >= PACK_BYTES:
            self.close()
        return at

    def close(self):
        if self.pack:
            self.hashes.append(self.objstore.put(self.pack, kind="pack"))
            self.pack = bytearray()

    def resolve(self, ranges):
        return tuple(
            (self.hashes[pack] if isinstance(pack, int) else pack,
             offset, length)
            for pack, offset, length in ranges
        )


def write_checkpoint(store, objstore, rotate=False):
    """Checkpoint ``store`` into ``objstore``'s directory.

    Only documents changed since ``objstore``'s last published
    checkpoint are written (a fresh object store, or one that loaded an
    older format, writes every document).  What they gained is laid into
    packs in doc-id order, then their manifests are written.
    Objects land first (invisible until named by a pointer), then the
    pointer file is rotated (when ``rotate``) and atomically replaced —
    two generations, so a crash at any operation leaves a recoverable
    directory.  ``objstore`` only
    learns the new checkpoint once its pointer is published.  Returns the
    root manifest hash.
    """
    packer = _Packer(objstore)
    published, staged = {}, []
    for record in sorted(store.repository.records(), key=lambda r: r.doc_id):
        key = _key(record)
        stored = objstore.published.get(record.doc_id, _NOTHING)
        if stored.key != key or not stored.doc_hash:
            staged.append((record, key, _pack_document(packer, record, key,
                                                       stored)))
        published[record.doc_id] = stored
    packer.close()
    for record, key, streams in staged:
        manifests = tuple(packer.resolve(ranges) for ranges in streams)
        doc_hash = objstore.put(
            _encode_document_meta(record, manifests, sorted(key[3])),
            kind="checkpoint",
        )
        published[record.doc_id] = _Stored(key, doc_hash, manifests)
    root = Writer()
    root.u(FORMAT_VERSION)
    root.u(store.clock.now())
    root.u(len(published))
    for stored in published.values():
        root.blob(bytes.fromhex(stored.doc_hash))
    root_hash = objstore.put(root.getvalue(), kind="checkpoint")

    fs, pointer = objstore.fs, objstore.pointer
    if rotate and fs.exists(pointer):
        fs.replace(pointer, pointer + ".prev")
    from .persistence import atomic_write_bytes

    atomic_write_bytes(pointer, pointer_bytes(root_hash), fs=fs)
    objstore.published = published
    return root_hash


def _pack_document(packer, record, key, stored):
    """``record``'s streams: ``stored``'s ranges, followed by the ranges
    of what ``record`` gained since, laid into ``packer`` — its first
    version (at its first checkpoint only) and one segment of the redo
    deltas the stream lacks."""
    number = key[0]
    first, deltas = stored.manifests
    if not first:
        data = encode_tree(_first_version(record, number))
        first = (packer.add(data, "first"),)
    numbers = range(max(stored.key[0], 1), number)
    if numbers:
        segment = encode_redo_segment(record, numbers)
        deltas = deltas + (packer.add(segment, "deltas"),)
    return first, deltas


def _first_version(record, number):
    """Version 1 of ``record``, whose current version is ``number``:
    walked back from its earliest snapshot or its current version through
    the inverted deltas, without counting a read (a checkpoint is no
    query)."""
    start = min(record.snapshots, default=number)
    tree = record.snapshots[start] if record.snapshots else record.current_root
    if start == 1:
        return tree
    root = tree.copy()
    index = {node.xid: node for node in root.iter()}
    for at in range(start - 1, 0, -1):
        root = apply_script(root, record.deltas[at].invert(), index)
    return root


def _encode_document_meta(record, manifests, snapshots):
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
    packs = list(dict.fromkeys(
        pack for ranges in manifests for pack, _offset, _length in ranges
    ))
    slot = {pack: at for at, pack in enumerate(packs)}
    w.u(len(packs))
    for pack in packs:
        w.blob(bytes.fromhex(pack))
    for ranges in manifests:
        w.u(len(ranges))
        for pack, offset, length in ranges:
            w.u(slot[pack])
            w.u(offset)
            w.u(length)
    w.u(len(snapshots))
    for number in snapshots:
        w.u(number)
    return w.getvalue()


# -- checkpoint read -----------------------------------------------------------


def _read_root(data, root_hash, where=None):
    """``(format, clock, [document manifest hashes])`` of a root
    manifest's ``data``."""
    r = Reader(data)
    version = r.u()
    if version not in READABLE_VERSIONS:
        raise CorruptArchiveError(
            f"unsupported CAS checkpoint format {version} under root "
            f"{root_hash}", path=where,
        )
    clock_now = r.u()
    return version, clock_now, [r.blob().hex() for _ in range(r.u())]


def read_checkpoint(objstore, store=None, pointer=None, first_versions=None):
    """Restore the CAS checkpoint in ``objstore``'s directory into
    ``store`` (see :func:`~repro.storage.persistence.load_store`), which
    is returned.

    ``pointer`` names the generation (default ``objstore.pointer``;
    recovery falls back to ``checkpoint.cas.prev``).  A format-3 or
    format-4 document is rebuilt by rolling its first version forward
    through its redo deltas, which completes each of them
    (:func:`~repro.diff.apply.apply_script`), copying the tree at each
    snapshot number on the way; the tree it ends on is the current
    version.  Each pack is fetched and inflated once per load.  Every
    object on the path is CRC-verified and every document decoded and
    rolled before the first one is installed; corruption — a range
    outside its pack, ranges of one document overlapping in a pack, a
    redo operation that does not apply — raises
    :class:`CorruptArchiveError` naming the object hash and leaves
    ``store`` untouched.  On success ``objstore.published`` describes
    the loaded checkpoint, so the next :func:`write_checkpoint` through
    ``objstore`` writes only what changed after it (and the manifests of
    a format-3 checkpoint, whose objects it keeps as one-range packs);
    after a format-1 or format-2 checkpoint it describes nothing, so the
    next one rewrites every document.  ``first_versions``, a dict when
    given, then receives ``{doc id: version 1}`` (a tree of its own) of
    every format-3 or format-4 document, where
    :func:`~repro.storage.persistence.replay_history` starts its roll.
    """
    from .persistence import build_record, empty_store, install_records

    store = empty_store(store)
    pointer = pointer if pointer is not None else objstore.pointer
    root_hash = read_pointer(pointer, fs=objstore.fs)
    version, clock_now, doc_hashes = _read_root(
        objstore.get(root_hash), root_hash, where=pointer
    )
    packs = _Packs(objstore)
    records = []
    published = {}
    firsts = {}
    for doc_hash in doc_hashes:
        meta = _decode_document_meta(
            objstore.get(doc_hash), doc_hash, version
        )
        if version >= 3:
            first, deltas, snapshots, current_root, manifests = _roll(
                packs, doc_hash, meta
            )
        else:
            first = None
            deltas, snapshots, current_root = _read_completed(
                packs, doc_hash, meta
            )
        record = build_record(
            doc_id=meta["doc_id"],
            name=meta["name"],
            nextxid=meta["nextxid"],
            deleted_at=meta["deleted_at"],
            entries=meta["entries"],
            deltas=deltas,
            snapshots=snapshots,
            current_root=current_root,
        )
        records.append(record)
        if first is not None:
            firsts[record.doc_id] = first
            # A manifest of an older format is written anew, its ranges
            # as they are, by the next checkpoint.
            published[record.doc_id] = _Stored(
                _key(record),
                doc_hash if version == FORMAT_VERSION else "",
                manifests,
            )
    install_records(store, clock_now, records)
    objstore.published = published
    if first_versions is not None:
        first_versions.update(firsts)
    return store


class _Packs:
    """The packs one load has fetched, each inflated once and held until
    the load ends; hands out the bytes of ranges."""

    def __init__(self, objstore):
        self.objstore = objstore
        self.raw = {}

    def stream(self, doc_hash, kind, ranges, length=None, spans=None):
        """``[(resolved range, bytes)]`` of one stream's ``ranges``.

        A range of a format-1–3 manifest has no length: it is its whole
        object, and ``length`` is the stream's declared total.  With
        ``spans`` (``{pack: end of the last range read in it}``, shared
        by one document's streams), a range must begin at or after the
        end of the one before it in the same pack."""
        pieces = []
        for pack, offset, size in ranges:
            data = self.raw.get(pack)
            if data is None:
                data = self.raw[pack] = self.objstore.get(pack)
            if size is None:
                size = len(data)
            elif offset + size > len(data):
                raise CorruptArchiveError(
                    f"object {pack}: document manifest {doc_hash} names "
                    f"{kind} bytes {offset}..{offset + size} of its "
                    f"{len(data)}"
                )
            if spans is not None:
                if offset < spans.get(pack, 0):
                    raise CorruptArchiveError(
                        f"object {pack}: document manifest {doc_hash} names "
                        f"{kind} bytes at {offset}, before the end "
                        f"{spans[pack]} of its range before in that pack"
                    )
                spans[pack] = offset + size
            pieces.append(((pack, offset, size), data[offset:offset + size]))
        if length is not None and sum(len(b) for _, b in pieces) != length:
            raise CorruptArchiveError(
                f"document manifest {doc_hash}: {kind} stream reassembled "
                f"to {sum(len(b) for _, b in pieces)} byte(s), expected "
                f"{length}"
            )
        return pieces


def _roll(packs, doc_hash, meta):
    """A format-3/4 document's ``(first version, completed deltas,
    snapshots, current tree, manifests)``, the manifests' ranges with
    their lengths; the first version is a copy the roll leaves alone."""
    first_ranges, delta_ranges = meta["streams"]
    first_length, length = meta["lengths"]
    spans = {}
    firsts = packs.stream(doc_hash, "first", first_ranges, first_length,
                          spans)
    segments = packs.stream(doc_hash, "deltas", delta_ranges, length, spans)
    manifests = tuple(
        tuple(at for at, _ in pieces) for pieces in (firsts, segments)
    )
    where = firsts[0][0][0] if len(firsts) == 1 else doc_hash
    try:
        root = decode_tree(b"".join(data for _, data in firsts))
    except CorruptArchiveError as exc:
        raise CorruptArchiveError(f"object {where}: {exc}") from None
    scripts, source = {}, {}
    for (pack, _offset, _size), data in segments:
        try:
            segment = decode_redo_stream(data, meta["nextxid"])
        except CorruptArchiveError as exc:
            raise CorruptArchiveError(f"object {pack}: {exc}") from None
        twice = segment.keys() & scripts.keys()
        if twice:
            raise CorruptArchiveError(
                f"object {pack} holds version {min(twice)} again"
            )
        scripts.update(segment)
        source.update(dict.fromkeys(segment, pack))
    last = len(meta["entries"])
    if sorted(scripts) != list(range(1, last)):
        raise CorruptArchiveError(
            f"document manifest {doc_hash}: {len(scripts)} delta(s) do not "
            f"connect its {last} version(s)"
        )
    wanted = meta["snapshots"]
    if wanted and not 1 <= wanted[0] <= wanted[-1] <= last:
        raise CorruptArchiveError(
            f"document manifest {doc_hash}: snapshot numbers {wanted} "
            f"outside its {last} version(s)"
        )
    first = root.copy()
    index = {node.xid: node for node in root.iter()}
    parents = parent_index(root)
    snapshots = {}
    for number in range(1, last + 1):
        if number > 1:
            try:
                root = apply_script(root, scripts[number - 1], index, parents)
            except (DeltaApplicationError, CorruptArchiveError) as exc:
                raise CorruptArchiveError(
                    f"object {source[number - 1]}: the delta from version "
                    f"{number - 1} does not apply ({exc})"
                ) from None
        if number in wanted:
            snapshots[number] = root.copy()
    return first, scripts, snapshots, root, manifests


def _read_completed(packs, doc_hash, meta):
    """A format-1/2 document's ``(deltas, snapshots, current tree)``: the
    three streams older releases wrote, decoded as they are."""
    current, deltas, snaps = (
        b"".join(
            data for _, data in packs.stream(doc_hash, kind, ranges, length)
        )
        for kind, ranges, length in zip(
            _STREAM_KINDS[1], meta["streams"], meta["lengths"]
        )
    )
    return (
        decode_delta_stream(deltas),
        decode_snapshot_stream(snaps),
        decode_tree(current),
    )


def _decode_document_meta(data, doc_hash, version):
    """A document manifest's fields; ``streams`` holds each stream's
    ranges ``(object hash, offset, length)``.  Before format 4 a stream
    is a list of whole objects with a declared total in ``lengths``: its
    ranges are ``(hash, 0, None)``."""
    r = Reader(data)
    meta = {
        "doc_id": r.u(),
        "name": r.s(),
        "nextxid": r.u(),
        "deleted_at": r.opt_u(),
        "entries": [],
        "streams": [],
        "lengths": [],
    }
    for _ in range(r.u()):
        number = r.u()
        meta["entries"].append((number, r.u()))
    if version == FORMAT_VERSION:
        packs = [r.blob().hex() for _ in range(r.u())]
        named = set()
        for _kind in _STREAM_KINDS[version]:
            ranges = []
            for _ in range(r.u()):
                slot, offset, length = r.u(), r.u(), r.u()
                if slot >= len(packs):
                    raise CorruptArchiveError(
                        f"document manifest {doc_hash} names pack {slot} of "
                        f"its {len(packs)}"
                    )
                if not length:
                    raise CorruptArchiveError(
                        f"document manifest {doc_hash} names an empty range"
                    )
                named.add(slot)
                ranges.append((packs[slot], offset, length))
            meta["streams"].append(ranges)
            meta["lengths"].append(None)
        if len(named) != len(packs):
            raise CorruptArchiveError(
                f"document manifest {doc_hash} lists a pack no range names"
            )
    else:
        for _kind in _STREAM_KINDS[version]:
            meta["lengths"].append(r.u())
            meta["streams"].append(
                [(r.blob().hex(), 0, None) for _ in range(r.u())]
            )
    if version >= 3:
        snapshots = [r.u() for _ in range(r.u())]
        if any(a >= b for a, b in zip(snapshots, snapshots[1:])):
            raise CorruptArchiveError(
                f"document manifest {doc_hash} lists snapshots out of order"
            )
        meta["snapshots"] = snapshots
    if not r.exhausted:
        raise CorruptArchiveError(
            f"document manifest {doc_hash} has trailing bytes"
        )
    return meta


# -- garbage collection --------------------------------------------------------


def reachable_hashes(objstore, root_hash):
    """Every object hash reachable from one checkpoint root manifest."""
    live = {root_hash}
    version, _clock, doc_hashes = _read_root(objstore.get(root_hash), root_hash)
    for doc_hash in doc_hashes:
        live.add(doc_hash)
        meta = _decode_document_meta(objstore.get(doc_hash), doc_hash, version)
        for ranges in meta["streams"]:
            live.update(pack for pack, _offset, _length in ranges)
    return live


def collect_garbage(objstore, extra_roots=()):
    """Mark-and-sweep ``objstore`` from the retained checkpoints.

    Roots are the pointer files still present (``checkpoint.cas`` and
    ``checkpoint.cas.prev``) plus any ``extra_roots`` hashes.  A pointer
    that fails verification aborts the sweep with
    :class:`CorruptArchiveError` — when a generation's reachable set
    cannot be computed, deleting *anything* would be unsafe.  Deletion
    goes through the pluggable filesystem, so the crash matrix covers a
    crash at every sweep step; a crash mid-sweep only leaves dead
    objects behind, never removes a live one.
    """
    fs = objstore.fs
    report = GCReport()
    live = set()
    for path in (objstore.pointer, objstore.pointer + ".prev"):
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


def storage_size(objstore):
    """On-disk bytes of a CAS checkpoint directory (objects + pointers)."""
    fs = objstore.fs
    total = objstore.stored_bytes()
    for path in (objstore.pointer, objstore.pointer + ".prev"):
        if fs.exists(path):
            total += fs.size(path)
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


def kind_breakdown(objstore):
    """Disk-truth per-kind breakdown of the newest checkpoint generation.

    Walks the published pointer's reachable set.  Every object counts
    once, as ``checkpoint`` (the root and document manifests) or ``pack``
    (what streams' ranges name — in a format-1–3 generation each object a
    stream names, read as a pack of one range):
    ``{objects, stored_bytes, raw_bytes}``.  Every range counts under its
    stream's kind (``first`` / ``deltas``, or ``current`` / ``deltas`` /
    ``snapshots`` in a format-1/2 generation): ``{ranges, raw_bytes}``, so
    the stored bytes of a kind are the packs' and its raw bytes are its
    ranges'.
    Unlike :class:`CASStats` — counters over one store's lifetime — this
    reads what is on disk right now, so ``repro stats -d`` reports real
    numbers on a freshly opened directory.  The walk reads through
    ``objstore`` uncounted, so it leaves ``objstore.stats`` as it was.
    """
    fs, pointer = objstore.fs, objstore.pointer
    breakdown = {}
    if not fs.exists(pointer):
        return breakdown
    raw_sizes = {}

    def add(kind, object_hash):
        """Count an object not seen yet; returns its raw content (``None``
        when it was seen) and its raw length."""
        if object_hash in raw_sizes:
            return None, raw_sizes[object_hash]
        raw = objstore.get(object_hash, counted=False)  # verifies the CRC
        raw_sizes[object_hash] = len(raw)
        entry = breakdown.setdefault(
            kind, {"objects": 0, "stored_bytes": 0, "raw_bytes": 0}
        )
        entry["objects"] += 1
        entry["stored_bytes"] += fs.size(objstore.object_path(object_hash))
        entry["raw_bytes"] += len(raw)
        return raw, len(raw)

    root_hash = read_pointer(pointer, fs=fs)
    version, _clock, doc_hashes = _read_root(
        add("checkpoint", root_hash)[0], root_hash
    )
    for doc_hash in doc_hashes:
        # A manifest names its document's id: no other object shares it.
        meta = _decode_document_meta(
            add("checkpoint", doc_hash)[0], doc_hash, version
        )
        for kind, ranges in zip(_STREAM_KINDS[version], meta["streams"]):
            for pack, _offset, length in ranges:
                _raw, size = add("pack", pack)
                entry = breakdown.setdefault(
                    kind, {"ranges": 0, "raw_bytes": 0}
                )
                entry["ranges"] += 1
                entry["raw_bytes"] += size if length is None else length
    return breakdown
