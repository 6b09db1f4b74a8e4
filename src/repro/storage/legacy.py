"""What older releases wrote, read once by ``repro upgrade``.

The engine reads CAS root format 4 and journal v3 only and refuses a
directory holding anything else
(:func:`~repro.storage.recover.refuse_other_formats`).  Every reader
that only an older release's bytes reach lives here: CAS root formats
1–3, whose manifests name each stream as whole objects (formats 1–2:
current tree, completed deltas and snapshot trees; format 3: first
version and redo deltas); journals v1 (XML records) and v2 (completed
deltas); completed-form scripts; and the XML checkpoints
``checkpoint.xml`` and ``.prev``.  :func:`upgrade` converts such a
directory once.  docs/STORAGE.md and docs/DURABILITY.md give the byte
layouts.
"""

from __future__ import annotations

import os

from ..diff.editscript import (
    DeleteOp,
    EditScript,
    InsertOp,
    MoveOp,
    ReplaceRootOp,
    StampOp,
    UpdateAttrOp,
    UpdateTextOp,
    decode_payload,
)
from ..errors import (
    CorruptArchiveError,
    StorageError,
    UnsupportedFormatError,
    XMLSyntaxError,
)
from ..xmlcore.parser import parse_stored
from . import binfmt, cas, journal
from .checkpoint import JOURNAL_FILE, PREV_SUFFIX
from .faults import REAL_FS
from .journal import KINDS, MAGIC, JournalRecord
from .persistence import (
    atomic_write_bytes,
    build_record,
    empty_store,
    fill_record,
    install_records,
    load_store,
)
from .recover import apply_record, first_generation, refuse_other_formats
from .store import TemporalDocumentStore

#: The XML archive an older release checkpointed to.
LEGACY_CHECKPOINT_FILE = "checkpoint.xml"

#: Root format -> the stream kinds its document manifests name, in order.
_STREAM_KINDS = {
    1: ("current", "deltas", "snapshots"),
    2: ("current", "deltas", "snapshots"),
    3: ("first", "deltas"),
}

# -- completed-form scripts ----------------------------------------------------

#: Kind byte -> the reader of one completed operation (0x08 is a stamp run).
_COMPLETED = {
    0x01: lambda r: InsertOp(r.u(), r.u(), r.packed_node()),
    0x02: lambda r: DeleteOp(r.u(), r.u(), r.packed_node()),
    0x03: lambda r: MoveOp(r.u(), r.u(), r.u(), r.u(), r.u()),
    0x04: lambda r: UpdateTextOp(r.u(), r.s(), r.s()),
    0x05: lambda r: UpdateAttrOp(r.u(), r.s(), r.opt_s(), r.opt_s()),
    0x06: lambda r: StampOp(r.u(), r.u(), r.u()),
    0x07: lambda r: ReplaceRootOp(r.packed_node(), r.packed_node()),
}


def read_script(r):
    """A completed :class:`EditScript` (``tests.references.write_script``'s
    layout), its payloads left packed."""
    from_ts, to_ts, count = r.opt_u(), r.opt_u(), r.u()
    ops = []
    while len(ops) < count:
        kind = r.byte()
        if kind == 0x08:
            ops += binfmt._read_stamp_run(r, count - len(ops), StampOp, 2)
        elif kind in _COMPLETED:
            ops.append(_COMPLETED[kind](r))
        else:
            raise CorruptArchiveError(
                f"unknown edit-op kind byte 0x{kind:02x}"
            )
    return EditScript(ops, from_ts=from_ts, to_ts=to_ts)


def decode_script(data):
    return read_script(binfmt.Reader(data))


def decode_delta_stream(data):
    return binfmt._read_segments(data, read_script)


def decode_snapshot_stream(data):
    return binfmt._read_segments(data, binfmt.read_node)


# -- CAS root formats 1–3 -------------------------------------------------------


def read_checkpoint(objstore, store, pointer):
    """Restore the generation ``pointer`` names, of root format 1 to 4,
    into the empty ``store``: all decoded before anything is installed."""
    root_hash = cas.read_pointer(pointer, fs=objstore.fs)
    r = binfmt.Reader(objstore.get(root_hash))
    version = r.u()
    if version == cas.FORMAT_VERSION:
        return cas.read_checkpoint(objstore, store, pointer)
    if version not in _STREAM_KINDS:
        raise UnsupportedFormatError(
            f"{pointer} names a CAS checkpoint of format {version}"
        )
    clock_now = r.u()
    doc_hashes = [r.blob().hex() for _ in range(r.u())]
    packs = cas._Packs(objstore)
    records, documents = [], []
    for doc_hash in doc_hashes:
        r = binfmt.Reader(objstore.get(doc_hash))
        meta = cas._read_document_head(r)
        streams = []
        for kind in _STREAM_KINDS[version]:
            length = r.u()
            objects = [r.blob().hex() for _ in range(r.u())]
            if sum(len(packs.fetch(pack)) for pack in objects) != length:
                raise CorruptArchiveError(
                    f"document manifest {doc_hash}: {kind} stream is not "
                    f"its declared {length} byte(s)"
                )
            streams.append(objects)
        if version == 3:  # each object a pack of one range
            meta["streams"] = [
                [(pack, 0, len(packs.fetch(pack))) for pack in objects]
                for objects in streams
            ]
            documents.append((doc_hash, cas._read_document_tail(
                r, meta, doc_hash
            )))
            continue
        if not r.exhausted:
            raise CorruptArchiveError(
                f"document manifest {doc_hash} has trailing bytes"
            )
        current, deltas, snapshots = (
            decode(b"".join(map(packs.fetch, objects)))
            for decode, objects in zip(
                (binfmt.decode_tree, decode_delta_stream,
                 decode_snapshot_stream), streams,
            )
        )
        records.append(fill_record(build_record(
            doc_id=meta["doc_id"], name=meta["name"],
            nextxid=meta["nextxid"], deleted_at=meta["deleted_at"],
            entries=meta["entries"], deltas=deltas, clock=clock_now,
            where=f"document manifest {doc_hash}",
        ), current, snapshots))
    records += cas._rolled_records(packs, documents, clock_now)
    return install_records(empty_store(store), clock_now, records)


# -- journals v1 and v2 -----------------------------------------------------------


class JournalRecordV2(JournalRecord):
    """A v2 record: an ``update``'s body is the completed delta."""

    def script(self):
        return decode_script(self.body)


class JournalRecordV1(JournalRecord):
    """A v1 record: the frame holds the XML of a ``<j>`` element, and
    ``body`` is its child (an encoded tree, or a ``<delta>``)."""

    @classmethod
    def from_element(cls, element, nested=False):
        kind = element.get("kind")
        if element.tag != "j" or kind not in KINDS:
            raise StorageError(
                f"not a journal record: <{element.tag} kind={kind!r}>"
            )
        children = element.child_elements()
        if kind == "group":
            if nested:
                raise StorageError("commit groups cannot nest")
            members = [cls.from_element(child, True) for child in children]
            if len(members) != int(element.get("version")):
                raise StorageError(
                    "commit group member count does not match its header"
                )
            return cls.group(members)
        nextxid = element.get("nextxid")
        return cls(
            kind=kind, doc_id=int(element.get("doc")),
            name=element.get("name"), version=int(element.get("version")),
            ts=int(element.get("ts")),
            nextxid=None if nextxid is None else int(nextxid),
            body=children[0] if children else None,
        )

    def initial_tree(self):
        return decode_payload(self.body)

    def script(self):
        return EditScript.from_xml(self.body)


def _read_v1(stored):
    try:
        element = parse_stored(stored.decode("utf-8"))
    except XMLSyntaxError as exc:
        raise StorageError(f"not a journal record: {exc}") from None
    return JournalRecordV1.from_element(element), len(stored)


def _read_v2(stored):
    payload = journal._unframe(stored)
    return JournalRecordV2.decode(payload), len(payload)


#: Magic of an older journal -> its format and the reader of its frames.
_OLDER_JOURNALS = {b"TXJRNL1\n": (1, _read_v1), b"TXJRNL2\n": (2, _read_v2)}


def scan_journal(path, fs=REAL_FS):
    """:func:`~repro.storage.journal.scan_journal` of any release's
    journal."""
    head = fs.read_bytes(path, len(MAGIC)) if fs.exists(path) else b""
    if head not in _OLDER_JOURNALS:
        return journal.scan_journal(path, fs=fs)
    version, read_record = _OLDER_JOURNALS[head]
    return journal.scan_frames(fs.read_bytes(path), read_record, version)


# -- upgrade ----------------------------------------------------------------------


def upgrade(directory, fs=None):
    """Convert a directory an older release wrote to the one format this
    release reads; returns whether it wrote anything.

    Until its last removal the directory still holds older bytes, so a
    crash at any operation leaves work the next ``upgrade`` redoes from
    the start:

    1. recover the store through this module's readers and
       :func:`~repro.storage.recover.apply_record` — the newest
       checkpoint that loads (``checkpoint.cas``, ``.prev``, then the XML
       ones), then both journals;
    2. write it twice through :func:`~repro.storage.cas.write_checkpoint`,
       rotating, so both pointer generations name a format-4 root;
    3. replace ``journal.bin`` by an empty v3 journal, then remove
       ``journal.bin.prev`` and the XML checkpoints;
    4. collect garbage: the older objects go.

    A directory with nothing older gets step 4 only, which finds nothing
    after a completed upgrade.  Bytes of an unknown format raise
    :class:`~repro.errors.UnsupportedFormatError`, nothing written.
    """
    objstore = cas.CASObjectStore(directory, fs=fs)
    fs = objstore.fs
    try:
        refuse_other_formats(objstore)
        cas.check_root(objstore, objstore.pointer)
        upgraded = False
    except UnsupportedFormatError:
        store = _recover(objstore)
        for _ in range(2):
            cas.write_checkpoint(store, objstore, rotate=True)
        journal_path = os.path.join(objstore.directory, JOURNAL_FILE)
        atomic_write_bytes(journal_path, MAGIC, fs=fs)
        xml = os.path.join(objstore.directory, LEGACY_CHECKPOINT_FILE)
        for path in (journal_path + PREV_SUFFIX, xml, xml + PREV_SUFFIX):
            if fs.exists(path):
                fs.remove(path)
        upgraded = True
    if fs.exists(objstore.pointer):
        cas.collect_garbage(objstore)
    return upgraded


def _recover(objstore):
    """The store an older directory holds; a checkpoint that exists but
    loads in no generation is a :class:`CorruptArchiveError`."""
    fs, directory = objstore.fs, objstore.directory
    xml = os.path.join(directory, LEGACY_CHECKPOINT_FILE)
    paths = (objstore.pointer, objstore.pointer + PREV_SUFFIX,
             xml, xml + PREV_SUFFIX)
    found = first_generation(
        fs, {path: os.path.basename(path) for path in paths},
        lambda path: (load_store(path, fs=fs) if path.startswith(xml)
                      else read_checkpoint(objstore, None, path)),
        [],
    )
    store = TemporalDocumentStore() if found is None else found[1]
    journal_path = os.path.join(directory, JOURNAL_FILE)
    for path in (journal_path + PREV_SUFFIX, journal_path):
        for record in scan_journal(path, fs).records:
            apply_record(store, record)
    return store
