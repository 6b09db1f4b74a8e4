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
  after loading — the same observers that maintained them online — and
  the one roll that completes the redo deltas of a checkpoint.

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

from ..clock import LogicalClock, format_timestamp
from ..diff.apply import apply_script, parent_index
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
               roll=None):
    """Restore an archive (or, for recovery, a checkpoint) into ``store``;
    returns it.

    ``source`` is an archive: a path, XML text or an :class:`Element`.
    Recovery alone (:meth:`~repro.db.TemporalXMLDatabase.open`) passes a
    directory's ``objstore`` and, as ``source``, the pointer of the
    generation to read through it, rolled by ``roll`` (see
    :func:`~repro.storage.cas.read_checkpoint`); without ``objstore`` a
    directory or a pointer file is a :class:`StorageError` naming
    ``open()``.  ``store`` is an empty :class:`TemporalDocumentStore` the
    caller built with whatever tuning it wants (default: a default one).
    Document ids, XIDs, version numbers, timestamps, content and the
    clock are restored exactly.  The whole source is decoded and
    verified before the first document is installed, so a load that
    raises leaves ``store`` untouched.  ``verify`` (default) checks an
    archive's whole-file CRC footer and per-document ``checksum``
    attributes when present (archives written before checksums existed
    still load).  An archive's indexes are *not* rebuilt here: attach
    observers and call :func:`replay_history` (or use
    :meth:`repro.db.TemporalXMLDatabase.load`)."""
    if objstore is not None:
        from .cas import read_checkpoint

        return read_checkpoint(objstore, store=store, pointer=str(source),
                               roll=roll)
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
        records.append(_decode_document(doc, clock_now, path))
    return install_records(store, clock_now, records)


def install_records(store, clock_now, records):
    """Install a checkpoint's :func:`fill_record` results into the empty
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
    clock,
    where=None,
):
    """One decoded document (identity, version index ``(number,
    timestamp)`` pairs, redo or completed deltas) as a
    :class:`DocumentRecord` no store knows yet, its trees left to
    :func:`fill_record`.  What a roll's order rests on is checked before
    any roll: deltas that connect the versions, no deletion before the
    last one, no commit after the archived ``clock`` (else
    :class:`CorruptArchiveError` naming ``where``)."""
    where = where or f"archive document {name!r}"
    record = DocumentRecord(doc_id, name, allocator=XIDAllocator(nextxid))
    for number, timestamp in entries:
        record.dindex.append(VersionEntry(number, timestamp))
    last = record.dindex.entry(record.dindex.current_number)  # or raise
    if sorted(deltas) != list(range(1, last.number)):
        raise CorruptArchiveError(
            f"{where}: {len(deltas)} delta(s) do not connect its "
            f"{last.number} version(s)"
        )
    end = last.timestamp if deleted_at is None else deleted_at
    if not last.timestamp <= end <= clock:
        raise CorruptArchiveError(
            f"{where}: version {last.number} at {format_timestamp(last.timestamp)}"
            f", its last commit at {format_timestamp(end)} and the archived "
            f"clock {format_timestamp(clock)} are out of order"
        )
    record.dindex.deleted_at = deleted_at
    record.deltas.update(deltas)
    return record


def fill_record(record, current_root, snapshots):
    """A :func:`build_record` result with its current and snapshot trees,
    sized with its (by now completed) deltas."""
    record.set_current(
        record.dindex.current_number, current_root,
        len(serialize(current_root)),
    )
    for number, script in record.deltas.items():
        record.dindex.record_delta_bytes(number, script.size_bytes())
    for number, tree in snapshots.items():
        record.dindex.entry(number).snapshot_bytes = len(serialize(tree))
        record.dindex.register_snapshot(number)
        record.snapshots[number] = tree
    return record


def _commits(record, root, wanted, where, ends):
    """``record``'s commit events, rolling ``root`` in place; its final
    tree and snapshot copies land in ``ends``."""
    # apply_script decodes the payloads it inserts, so the rolled tree never
    # aliases a stored delta.
    index = {node.xid: node for node in root.iter()}
    parents = parent_index(root)
    snapshots, script = {}, None
    for entry in record.dindex.entries:
        if entry.number > 1:
            script = record.deltas[entry.number - 1]
            try:
                root = apply_script(root, script, index, parents)
            except StorageError as exc:  # a delta or payload that is wrong
                raise CorruptArchiveError(
                    f"{where}: the delta from version {entry.number - 1} "
                    f"does not apply ({exc})"
                ) from None
        if entry.number in wanted:
            snapshots[entry.number] = root.copy()
        yield CommitEvent(
            "create" if script is None else "update", record.doc_id,
            record.name, entry.number, entry.timestamp, root=root,
            script=script,
        )
    ends[record.doc_id] = root, snapshots
    if record.dindex.deleted_at is not None:
        yield CommitEvent(
            "delete", record.doc_id, record.name,
            record.dindex.current_number, record.dindex.deleted_at,
            old_root=root,
        )


def first_version(record, copy=True):
    """``record``'s version 1 without counting a read, walked back through
    the inverted deltas from its earliest snapshot or current version: a
    tree of its own, or without ``copy`` the stored tree itself when that
    is version 1 (the checkpoint writer only encodes it)."""
    start = min(record.snapshots, default=record.dindex.current_number)
    tree = record.snapshots[start] if record.snapshots else record.current_root
    if start == 1 and not copy:
        return tree
    root = tree.copy()
    index = {node.xid: node for node in root.iter()}
    for at in range(start - 1, 0, -1):
        root = apply_script(root, record.deltas[at].invert(), index)
    return root


def replay_history(store, observers=(), histories=None):
    """Re-fire every commit at ``observers`` (index rebuild), rolling
    histories ``(record, version 1 to edit in place, snapshot numbers to
    copy, what an error names)`` forward together: by default each of
    ``store``'s records from its :func:`first_version`, so no read is
    counted; a checkpoint load passes its own.  Each delta (redo or
    completed) is applied once and each commit fired in global
    ``(timestamp, doc_id)`` order, one tree per document alive (see
    :class:`CommitEvent`).  Returns ``{doc id: (final tree, {number:
    snapshot tree})}``.  A delta that does not apply is a
    :class:`CorruptArchiveError` naming its history, after the observers
    saw part of the roll."""
    if histories is None:
        histories = [
            (record, first_version(record), (), f"document {record.name!r}")
            for record in store.repository.records()
        ]
    ends = {}
    streams = [_commits(*history, ends) for history in histories]
    for event in heapq.merge(
        *streams, key=lambda event: (event.timestamp, event.doc_id)
    ):
        for observer in observers:
            observer.document_committed(event)
    return ends


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


def _decode_document(doc, clock_now, path=None):
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

    if current_root is None:
        raise StorageError(
            f"archive document {name!r} has no current version"
        )
    deleted = doc.get("deleted")
    return fill_record(build_record(
        doc_id=_int_field(doc, "id", "document id", path),
        name=name,
        nextxid=_int_field(doc, "nextxid", f"document {name!r} nextxid", path),
        deleted_at=None if deleted is None else int(deleted),
        entries=entries,
        deltas=deltas,
        clock=clock_now,
    ), current_root, snapshots)
