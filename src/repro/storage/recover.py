"""Crash recovery: newest valid checkpoint + journal tail replay.

:func:`recover_store` restores a durable database directory into a
:class:`~repro.storage.store.TemporalDocumentStore` (the layout written by
:class:`~repro.storage.checkpoint.Checkpointer` and
:class:`~repro.storage.journal.CommitJournal`):

1. **Checkpoint.**  Try, in order, the CAS pointer generations
   ``checkpoint.cas`` and ``checkpoint.cas.prev`` (objects under
   ``objects/``), then the XML archives ``checkpoint.xml`` and
   ``checkpoint.xml.prev`` an older release wrote, and load the first
   that exists and passes verification; one that fails (torn write,
   flipped bit) leaves the store untouched.  With none, the store stays
   empty (the journal then carries the full history).
2. **Index replay.**  Re-fire the checkpointed commit history through the
   given observers via the existing :func:`~repro.storage.persistence.replay_history`
   path — recovery rebuilds indexes exactly the way a plain load does.
3. **Journal tail.**  Scan ``journal.bin.prev`` then ``journal.bin``
   tolerantly; every record already contained in the checkpoint is skipped
   (records are idempotent — keyed by document id and version number), the
   genuine tail is applied through the repository commit paths and fired at
   the same observers.  The scan leaves record bodies undecoded and a
   skipped record is never decoded, so a rolled ``journal.bin.prev`` the
   checkpoint covers costs its frames and envelopes only.  A torn tail
   record is **truncated, never fatal**: an interrupted append simply
   means that commit never happened.

The returned :class:`RecoveryReport` carries the counters the bench
harness and the CLI ``recover`` subcommand expose.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..diff.apply import apply_script
from ..errors import CorruptArchiveError, StorageError
from ..model.identifiers import XIDAllocator
from .cas import CAS_POINTER_FILE, CASObjectStore
from .checkpoint import LEGACY_CHECKPOINT_FILE, JOURNAL_FILE, PREV_SUFFIX
from .faults import REAL_FS
from .journal import scan_journal
from .persistence import empty_store, load_store, replay_history
from .repository import DocumentRecord
from .store import CommitEvent


@dataclass
class RecoveryReport:
    """What recovery found and did (see ``docs/DURABILITY.md``)."""

    checkpoint_source: str = "none"  # "checkpoint" | "previous" | "none"
    storage: str = "none"  # "cas" | "xml" (an older release's) | "none"
    checkpoint_errors: list = field(default_factory=list)
    records_scanned: int = 0
    records_replayed: int = 0
    records_skipped: int = 0
    records_truncated: int = 0  # torn/corrupt regions dropped (one per journal)
    truncated_bytes: int = 0
    torn_tail: bool = False
    documents: int = 0
    #: One dict per journal file found: ``file``, format ``version``,
    #: physical ``records``, valid ``bytes`` on disk, ``raw_bytes`` (the
    #: same records before deflate).
    journals: list = field(default_factory=list)
    #: What the loaded CAS checkpoint holds per document (not reported):
    #: the checkpointer starts from it, so its first checkpoint writes
    #: only what changed since.
    published: dict = field(default_factory=dict, repr=False, compare=False)

    def as_dict(self):
        return {
            "checkpoint_source": self.checkpoint_source,
            "storage": self.storage,
            "checkpoint_errors": list(self.checkpoint_errors),
            "records_scanned": self.records_scanned,
            "records_replayed": self.records_replayed,
            "records_skipped": self.records_skipped,
            "records_truncated": self.records_truncated,
            "truncated_bytes": self.truncated_bytes,
            "torn_tail": self.torn_tail,
            "documents": self.documents,
            "journals": [dict(journal) for journal in self.journals],
        }


def recover_store(
    directory,
    store=None,
    observers=(),
    fs=None,
    repair=True,
):
    """Recover a durable database directory into ``store``; returns
    ``(store, report)``.

    ``store`` is an empty store built by the caller with whatever tuning
    it wants (default: a default-configured one).  ``observers`` (index
    instances) receive the full recovered commit
    history — checkpointed state via :func:`replay_history`, journal tail
    records as they are applied.  ``repair`` physically truncates a torn
    tail off ``journal.bin`` so the journal can be reopened for appends.
    """
    store = empty_store(store)
    fs = fs if fs is not None else REAL_FS
    directory = str(directory)
    journal_path = os.path.join(directory, JOURNAL_FILE)
    report = RecoveryReport()

    candidates = [
        (os.path.join(directory, name + suffix), label, fmt)
        for name, fmt in (
            (CAS_POINTER_FILE, "cas"), (LEGACY_CHECKPOINT_FILE, "xml"),
        )
        for suffix, label in (("", "checkpoint"), (PREV_SUFFIX, "previous"))
    ]
    for path, label, fmt in candidates:
        if not fs.exists(path):
            continue
        # An archive ignores the object store; a CAS load leaves what it
        # read in ``published`` for the checkpointer.
        objstore = CASObjectStore(directory, fs=fs)
        try:
            load_store(path, store=store, fs=fs, objstore=objstore)
        except (StorageError, OSError) as exc:
            report.checkpoint_errors.append(f"{label}: {exc}")
            continue
        report.checkpoint_source = label
        report.storage = fmt
        report.published = objstore.published
        break
    if observers:
        replay_history(store, observers)

    for path, repairable in (
        (journal_path + PREV_SUFFIX, False),
        (journal_path, repair),
    ):
        scan = scan_journal(path, fs=fs)
        if scan.version is not None:
            report.journals.append({
                "file": os.path.basename(path),
                "version": scan.version,
                "records": len(scan.records),
                "bytes": scan.valid_size,
                "raw_bytes": scan.raw_bytes,
            })
        report.records_scanned += len(scan.records)
        if scan.torn:
            report.torn_tail = True
            report.records_truncated += 1
            report.truncated_bytes += scan.dropped_bytes
            if repairable:
                fs.truncate(path, scan.valid_size)
        for record in scan.records:
            if _apply_record(store, record, observers):
                report.records_replayed += 1
            else:
                report.records_skipped += 1

    report.documents = len(store.repository.records())
    return store, report


# -- journal record application ----------------------------------------------


def apply_record(store, rec, observers=()):
    """Idempotently apply one journal record to ``store``.

    The public entry point for journal shipping: a read replica tails a
    leader's commit journal and feeds every scanned record through here.
    Records already contained in the store (keyed by document id and
    version number) are skipped, so re-scanning a journal from the start
    is always safe.  Returns True when the record changed the store (its
    :class:`~repro.storage.store.CommitEvent` was fired at ``observers``).
    """
    return _apply_record(store, rec, observers)


def _apply_record(store, rec, observers):
    """Apply one journal record if the store does not contain it yet.

    Returns True when the record changed the store (and its event was
    fired), False when it was already covered by the checkpoint."""
    repository = store.repository
    if rec.kind == "create":
        if repository.find(rec.doc_id) is not None:
            return False
        root = rec.initial_tree()
        doc = DocumentRecord(rec.doc_id, rec.name)
        if rec.nextxid is not None:
            doc.allocator = XIDAllocator(rec.nextxid)
        repository.commit_initial(doc, root, rec.ts)
        store.adopt(doc)
        _advance_clock(store, rec.ts)
        event = CommitEvent(
            "create", rec.doc_id, rec.name, 1, rec.ts, root=root
        )
    elif rec.kind == "update":
        doc = _known_document(store, rec)
        if rec.version <= doc.dindex.current_number:
            return False
        if rec.version != doc.dindex.current_number + 1:
            raise CorruptArchiveError(
                f"journal gap: document {rec.name!r} jumps from version "
                f"{doc.dindex.current_number} to {rec.version}"
            )
        script = rec.script()
        old_root = doc.current_root
        new_root = apply_script(old_root.copy(), script)
        if rec.nextxid is not None:
            doc.allocator = XIDAllocator(rec.nextxid)
        repository.commit_version(doc, new_root, script, rec.ts)
        _advance_clock(store, rec.ts)
        event = CommitEvent(
            "update", rec.doc_id, rec.name, rec.version, rec.ts,
            root=new_root, old_root=old_root, script=script,
        )
    elif rec.kind == "delete":
        doc = _known_document(store, rec)
        if doc.is_deleted:
            return False
        repository.mark_deleted(doc, rec.ts)
        _advance_clock(store, rec.ts)
        event = CommitEvent(
            "delete", rec.doc_id, rec.name, doc.dindex.current_number,
            rec.ts, old_root=doc.current_root,
        )
    elif rec.kind == "group":
        # A commit group is atomic at the *frame* level: the whole record
        # either passed its CRC or was dropped by the scan, so by the time
        # we are here every member is intact — replay them in commit order.
        # Idempotence stays per-member (a checkpoint may already contain a
        # prefix of the group's effects).
        applied = False
        for member in rec.members:
            if _apply_record(store, member, observers):
                applied = True
        return applied
    elif rec.kind == "snapshot":
        doc = _known_document(store, rec)
        if rec.version > doc.dindex.current_number:
            return False
        if doc.dindex.entry(rec.version).has_snapshot:
            return False
        repository.materialize_snapshot(doc, rec.version)
        return True  # physical-layout record; no commit event to fire
    else:  # unreachable: scan_journal validates kinds
        raise CorruptArchiveError(f"unknown journal record kind {rec.kind!r}")
    for observer in observers:
        observer.document_committed(event)
    return True


def _known_document(store, rec):
    doc = store.repository.find(rec.doc_id)
    if doc is None:
        raise CorruptArchiveError(
            f"journal references unknown document id {rec.doc_id} "
            f"({rec.name!r}); checkpoint history is incomplete"
        )
    return doc


def _advance_clock(store, ts):
    if ts > store.clock.now():
        store.clock.advance_to(ts)
