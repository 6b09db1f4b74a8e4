"""Saving and loading a temporal store as a single XML archive.

The paper's storage model is naturally serializable: per document, the
complete current version, the chain of completed deltas (already XML — the
closure property pays off here), the snapshot materializations, the delta
index metadata, and the XID allocator state.  This module round-trips all
of it:

* :func:`dump_store` writes the archive (`<temporalstore>` document),
* :func:`load_store` reads it back into an empty store (the caller's, or
  a default one) with identical document ids, XIDs, timestamps, and
  version content,
* :func:`replay_history` re-fires the commit event stream from the stored
  deltas, which is how indexes (FTI, lifetime, document-time) are rebuilt
  after loading — the same observers that maintained them online.

Trees are encoded with the edit-script payload encoding, so XIDs and
element timestamps survive the round trip exactly.

**Durability.**  The archive is the export/import file of
:meth:`~repro.db.TemporalXMLDatabase.save` / ``load`` and of the CLI's
``-a FILE``; a durable directory checkpoints to the content-addressed
object store (:mod:`~repro.storage.cas`), and only ``repro upgrade``
reads the ``checkpoint.xml`` an older release left there
(``docs/DURABILITY.md``).  Writing and reading are hardened:

* file writes are **atomic** — temp file in the same directory, ``fsync``,
  ``os.replace``, directory sync — so a crash mid-write leaves the
  previous archive untouched;
* every ``<document>`` element carries a ``checksum`` attribute (CRC32 of
  its canonical serialization) and the file ends in a whole-file CRC32
  footer comment; :func:`load_store` verifies both and raises
  :class:`~repro.errors.CorruptArchiveError` naming the file and offset;
* unparsable input (truncated tail, garbage bytes) is wrapped in
  :class:`~repro.errors.CorruptArchiveError` instead of surfacing raw
  parser errors.
"""

from __future__ import annotations

import heapq
import os
import re
import zlib

from ..clock import LogicalClock
from ..diff.apply import apply_script
from ..diff.editscript import EditScript, decode_payload, encode_payload
from ..errors import CorruptArchiveError, StorageError, XMLSyntaxError
from ..model.identifiers import XIDAllocator
from ..xmlcore.node import Element, Text
from ..xmlcore.parser import parse_stored
from ..xmlcore.serializer import serialize
from .cas import POINTER_MAGIC
from .deltaindex import VersionEntry
from .faults import REAL_FS
from .repository import DocumentRecord
from .store import CommitEvent, TemporalDocumentStore

FORMAT_VERSION = "1"

_CRC_FOOTER = re.compile(rb"\n<!--crc32:([0-9a-f]{8})-->\s*$")


def build_archive(store):
    """Serialize ``store`` to an archive tree (pure; no I/O).

    Each ``<document>`` element gets a ``checksum`` attribute so corruption
    is localized to a document on load."""
    archive = Element(
        "temporalstore",
        {
            "format": FORMAT_VERSION,
            "clock": str(store.clock.now()),
        },
    )
    for record in store.repository.records():
        doc = Element(
            "document",
            {
                "id": str(record.doc_id),
                "name": record.name,
                "nextxid": str(record.allocator.next_xid),
            },
        )
        if record.dindex.deleted_at is not None:
            doc.set("deleted", record.dindex.deleted_at)
        for entry in record.dindex.entries:
            version = Element(
                "version",
                {"number": str(entry.number), "ts": str(entry.timestamp)},
            )
            doc.append(version)
        for number in sorted(record.deltas):
            delta = record.deltas[number].to_xml()
            delta.set("forversion", number)
            doc.append(delta)
        current = Element("current")
        current.append(encode_payload(record.current_root))
        doc.append(current)
        for number in sorted(record.snapshots):
            snapshot = Element("snapshot", {"number": str(number)})
            snapshot.append(encode_payload(record.snapshots[number]))
            doc.append(snapshot)
        doc.set("checksum", f"{document_checksum(doc):08x}")
        archive.append(doc)
    return archive


def archive_bytes(archive):
    """Pretty-printed archive bytes with the whole-file CRC32 footer."""
    body = serialize(archive, indent=1).encode("utf-8")
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return body + f"\n<!--crc32:{crc:08x}-->\n".encode("ascii")


def atomic_write_bytes(path, data, fs=None):
    """Write ``data`` to ``path`` atomically: temp file + fsync + replace."""
    fs = fs if fs is not None else REAL_FS
    path = str(path)
    tmp = path + ".tmp"
    handle = fs.open_write(tmp)
    fs.write(handle, data)
    fs.fsync(handle)
    fs.close(handle)
    fs.replace(tmp, path)
    fs.fsync_dir(os.path.dirname(os.path.abspath(path)) or ".")


def dump_store(store, path=None, fs=None):
    """Serialize ``store`` to an archive :class:`Element`; when ``path``
    is given the checksummed XML is also written there, atomically.  A
    directory is no archive's path: :class:`StorageError`, and nothing
    written."""
    if path is not None and os.path.isdir(path):
        raise StorageError(
            f"{str(path)!r} is a directory, not an archive file: a database "
            "directory is written by TemporalXMLDatabase.open() and its "
            "checkpoint()"
        )
    archive = build_archive(store)
    if path is not None:
        atomic_write_bytes(path, archive_bytes(archive), fs=fs)
    return archive


def empty_store(store=None):
    """The store a loader restores into: the caller's, which must hold no
    documents yet, or a default one."""
    if store is None:
        return TemporalDocumentStore()
    if store.repository.records():
        raise StorageError(
            "cannot restore into a store that already holds documents"
        )
    return store


def load_store(source, store=None, verify=True, fs=None, objstore=None,
               first_versions=None):
    """Restore an archive (or, for recovery, a checkpoint) into ``store``;
    returns it.

    ``source`` is an archive: a path, XML text or an :class:`Element`.
    A database directory and its ``checkpoint.cas`` pointers are read by
    recovery alone (:meth:`~repro.db.TemporalXMLDatabase.open`), which
    passes the directory's ``objstore``: ``source`` is then the pointer
    file of the generation to read through it (every object
    hash-verified on the way in), ``objstore.published`` then
    describes the loaded checkpoint, and ``first_versions`` (a dict, when
    given) receives what :func:`replay_history` starts from (see
    :func:`~repro.storage.cas.read_checkpoint`).  Without ``objstore`` a
    directory or a pointer file is a :class:`StorageError` naming
    ``open()``.
    ``store`` is an empty :class:`TemporalDocumentStore` the caller built
    with whatever tuning it wants (default: a default-configured one).
    Document ids, XIDs, version numbers, timestamps, content and the
    clock are restored exactly.  The whole source is decoded and
    verified before the first document is installed, so a load that
    raises leaves ``store`` untouched.  ``verify`` (default) checks an
    archive's whole-file CRC footer and per-document ``checksum``
    attributes when present; archives written before checksums existed
    still load.
    Indexes are *not* rebuilt here — attach observers and call
    :func:`replay_history` (or use
    :meth:`repro.db.TemporalXMLDatabase.load`)."""
    if objstore is not None:
        from .cas import read_checkpoint

        return read_checkpoint(objstore, store=store, pointer=str(source),
                               first_versions=first_versions)
    store = empty_store(store)
    archive, path = _as_archive(source, verify=verify, fs=fs)
    if archive.get("format") != FORMAT_VERSION:
        raise StorageError(
            f"unsupported archive format {archive.get('format')!r}"
        )
    clock_now = _int_field(archive, "clock", "archive clock", path, default=0)
    records = []
    for doc in archive.child_elements():
        if doc.tag != "document":
            raise StorageError(f"unexpected archive element <{doc.tag}>")
        stored_crc = doc.get("checksum")
        if verify and stored_crc is not None:
            actual = document_checksum(doc)
            if stored_crc != f"{actual:08x}":
                raise CorruptArchiveError(
                    f"document {doc.get('name')!r} failed its checksum "
                    f"(stored {stored_crc}, computed {actual:08x})",
                    path=path,
                )
        records.append(_decode_document(doc, path))
    return install_records(store, clock_now, records)


def install_records(store, clock_now, records):
    """Install a checkpoint's :func:`build_record` results into the empty
    ``store`` and set its clock to the archived instant.

    Shared by the XML-archive and CAS loaders.  Both have decoded and
    verified the whole checkpoint by the time they call this, and the one
    check left (duplicate ids) runs before the store is touched.
    """
    seen = set()
    for record in records:
        if record.doc_id in seen:
            raise StorageError(
                f"duplicate document id {record.doc_id} in archive"
            )
        seen.add(record.doc_id)
    store.clock = LogicalClock(start=clock_now)
    for record in records:
        store.adopt(record)
    return store


def build_record(
    *,
    doc_id,
    name,
    nextxid,
    deleted_at,
    entries,
    deltas,
    snapshots,
    current_root,
):
    """One decoded document (identity, version index ``(number,
    timestamp)`` pairs, delta scripts, snapshot trees, current tree) as a
    :class:`DocumentRecord` that no store knows about yet; raises
    :class:`StorageError` when the pieces do not fit together."""
    record = DocumentRecord(doc_id, name, allocator=XIDAllocator(nextxid))
    for number, timestamp in entries:
        record.dindex.append(VersionEntry(number, timestamp))
    if current_root is None:
        raise StorageError(
            f"archive document {name!r} has no current version"
        )
    if len(deltas) != len(record.dindex.entries) - 1:
        raise StorageError(
            f"archive document {name!r} has an incomplete delta chain"
        )
    record.dindex.deleted_at = deleted_at
    record.set_current(
        record.dindex.current_number, current_root,
        len(serialize(current_root)),
    )
    for number, script in deltas.items():
        record.dindex.record_delta_bytes(number, script.size_bytes())
        record.deltas[number] = script
    for number, tree in snapshots.items():
        record.dindex.entry(number).snapshot_bytes = len(serialize(tree))
        record.dindex.register_snapshot(number)
        record.snapshots[number] = tree
    return record


def replay_history(store, observers, first_versions=None):
    """Re-fire every commit event against ``observers`` (index rebuild).

    Events are replayed in global ``(timestamp, doc_id)`` order across
    documents, exactly as the original commits happened, using the stored
    deltas to roll each document forward from its first version:
    ``first_versions[doc_id]`` (a tree replay may roll in place, what a
    checkpoint load hands over) when there, reconstructed otherwise.  The
    per-document event streams are merged lazily, and each stream rolls
    one tree in place, so one tree per document is alive at any time and
    no version is copied.  Observers borrow ``event.root`` for the call
    only (it changes under them afterwards) and replayed updates carry no
    ``old_root``; a document's ``delete`` event carries its final tree.
    """
    first_versions = first_versions or {}
    streams = [
        _document_events(store, record, first_versions.get(record.doc_id))
        for record in store.repository.records()
    ]
    for event in heapq.merge(
        *streams, key=lambda event: (event.timestamp, event.doc_id)
    ):
        for observer in observers:
            observer.document_committed(event)


def _document_events(store, record, first):
    entries = record.dindex.entries
    root = store.repository.reconstruct(record, 1) if first is None else first
    yield CommitEvent(
        "create", record.doc_id, record.name, 1, entries[0].timestamp,
        root=root,
    )
    # apply_script decodes the payloads it inserts, so the rolled tree never
    # aliases a stored delta.
    index = {node.xid: node for node in root.iter()}
    for entry in entries[1:]:
        script = record.deltas[entry.number - 1]
        root = apply_script(root, script, index)
        yield CommitEvent(
            "update", record.doc_id, record.name, entry.number,
            entry.timestamp, root=root, script=script,
        )
    if record.dindex.deleted_at is not None:
        yield CommitEvent(
            "delete", record.doc_id, record.name,
            record.dindex.current_number, record.dindex.deleted_at,
            old_root=root,
        )


# -- checksums ----------------------------------------------------------------


def document_checksum(doc):
    """CRC32 of a ``<document>`` element's canonical serialization.

    Canonical means the form the parser reproduces: compact output with
    whitespace-only text runs dropped (pretty-printing inserts them; the
    parser strips them).  The ``checksum`` attribute itself is excluded, so
    the value is stable across write → parse → verify."""
    clone = doc.copy()
    clone.attrib.pop("checksum", None)
    _strip_whitespace_runs(clone)
    return zlib.crc32(serialize(clone).encode("utf-8")) & 0xFFFFFFFF


def _strip_whitespace_runs(element):
    """Drop text runs that are entirely whitespace, as the parser does."""
    kept = []
    run = []

    def flush():
        if run and "".join(t.value for t in run).strip():
            kept.extend(run)
        run.clear()

    for child in element.children:
        if isinstance(child, Text):
            run.append(child)
        else:
            flush()
            _strip_whitespace_runs(child)
            kept.append(child)
    flush()
    element.children[:] = kept


# -- loading internals ---------------------------------------------------------


def _as_archive(source, verify=True, fs=None):
    """Resolve ``source`` to ``(archive element, path or None)``."""
    if isinstance(source, Element):
        return source, None
    path = None
    if isinstance(source, str) and source.lstrip().startswith("<"):
        data = source.encode("utf-8")
    else:
        path = str(source)
        fs = fs if fs is not None else REAL_FS
        # Only recovery reads a database directory or its pointers.
        data = None if os.path.isdir(path) else fs.read_bytes(path)
        if data is None or data.startswith(POINTER_MAGIC.encode("ascii")):
            what = "directory" if data is None else "checkpoint pointer"
            raise StorageError(
                f"{path!r} is a database {what}, not an archive: open the "
                "directory with TemporalXMLDatabase.open() "
                "(repro stats/serve/recover/replica -d)"
            )
    if verify:
        _verify_file_crc(data, path)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptArchiveError(
            f"archive is not UTF-8 text ({exc.reason})",
            path=path,
            offset=exc.start,
        ) from exc
    try:
        return parse_stored(text), path
    except XMLSyntaxError as exc:
        raise CorruptArchiveError(
            f"unparsable archive: {exc}",
            path=path,
            offset=_line_col_offset(text, exc.line, exc.column),
        ) from exc


def _verify_file_crc(data, path):
    """Check the whole-file footer when present (older archives lack it)."""
    match = _CRC_FOOTER.search(data)
    if match is None:
        return
    body = data[: match.start()]
    actual = zlib.crc32(body) & 0xFFFFFFFF
    stored = int(match.group(1), 16)
    if actual != stored:
        raise CorruptArchiveError(
            f"archive failed its whole-file checksum (stored "
            f"{stored:08x}, computed {actual:08x})",
            path=path,
        )


def _line_col_offset(text, line, column):
    """Byte-ish offset of a 1-based line/column position (for messages)."""
    if line is None:
        return None
    lines = text.split("\n")
    offset = sum(len(l) + 1 for l in lines[: line - 1])
    return offset + (column - 1 if column else 0)


def _int_field(element, name, what, path, default=None):
    raw = element.get(name)
    if raw is None:
        if default is not None:
            return default
        raise CorruptArchiveError(f"{what} is missing", path=path)
    try:
        return int(raw)
    except ValueError:
        raise CorruptArchiveError(
            f"{what} is not an integer: {raw!r}", path=path
        ) from None


def _decode_document(doc, path=None):
    """Decode one ``<document>`` element to a detached record."""
    name = doc.get("name")
    entries = []
    deltas = {}
    snapshots = {}
    current_root = None
    for child in doc.child_elements():
        if child.tag == "version":
            entries.append(
                (
                    _int_field(child, "number", "version number", path),
                    _int_field(child, "ts", "version timestamp", path),
                )
            )
        elif child.tag == "delta":
            deltas[
                _int_field(child, "forversion", "delta version", path)
            ] = EditScript.from_xml(child)
        elif child.tag == "current":
            current_root = decode_payload(child.child_elements()[0])
        elif child.tag == "snapshot":
            snapshots[
                _int_field(child, "number", "snapshot number", path)
            ] = decode_payload(child.child_elements()[0])
        else:
            raise StorageError(f"unexpected archive element <{child.tag}>")

    deleted = doc.get("deleted")
    return build_record(
        doc_id=_int_field(doc, "id", "document id", path),
        name=name,
        nextxid=_int_field(doc, "nextxid", f"document {name!r} nextxid", path),
        deleted_at=None if deleted is None else int(deleted),
        entries=entries,
        deltas=deltas,
        snapshots=snapshots,
        current_root=current_root,
    )
