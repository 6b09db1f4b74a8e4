"""Crash recovery: newest valid checkpoint + journal tail replay.

:func:`recover_store` restores a durable database directory into a
:class:`~repro.storage.store.TemporalDocumentStore` (the layout written by
:class:`~repro.storage.checkpoint.Checkpointer` and
:class:`~repro.storage.journal.CommitJournal`):

0. **Formats.**  A directory holding bytes of a format this release
   does not read — an XML checkpoint (``checkpoint.xml``, ``.prev``), a
   journal whose head is not the v3 magic, a pointer naming a root of
   any format but 4 — is refused with
   :class:`~repro.errors.UnsupportedFormatError` before anything is
   loaded or written; ``repro upgrade`` (:mod:`~repro.storage.legacy`)
   converts an older release's directory once.
1. **Checkpoint.**  Load the first of the CAS pointer generations
   ``checkpoint.cas`` and ``checkpoint.cas.prev`` that exists and
   passes verification, each into a fresh store and fresh observers:
   its one roll completes the redo deltas and fires the commit history
   at the observers, and a generation that fails (torn write, flipped
   bit, a delta that does not apply) is dropped with both.  When every
   one present fails, recovery refuses; with none, the store starts
   empty (the journal then carries the full history).
2. **Journal tail.**  Scan ``journal.bin.prev`` then ``journal.bin``
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
from ..errors import (
    CorruptArchiveError,
    DeltaApplicationError,
    StorageError,
    UnsupportedFormatError,
)
from ..model.identifiers import XIDAllocator
from .cas import check_root
from .checkpoint import JOURNAL_FILE, PREV_SUFFIX
from .journal import MAGIC, check_head, scan_journal
from .persistence import empty_store, load_store, replay_history
from .repository import DocumentRecord
from .store import CommitEvent, TemporalDocumentStore


@dataclass
class RecoveryReport:
    """What recovery found and did (see ``docs/DURABILITY.md``)."""

    checkpoint_source: str = "none"  # "checkpoint" | "previous" | "none"
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


def recover_store(objstore, repair=True,
                  fresh=lambda: (TemporalDocumentStore(), ())):
    """Recover the database directory of ``objstore`` (its
    :class:`~repro.storage.cas.CASObjectStore`, whose ``fs`` is read and
    whose counters and ``published`` then describe what was loaded);
    returns ``(store, report)``.  ``fresh()`` returns an empty store and
    the observers (index instances) to feed, once per generation tried
    (once when there is none): a generation rolls through
    :func:`replay_history` into both, and one that fails is dropped with
    them.  ``repair`` truncates a torn tail off ``journal.bin`` so the
    journal can be reopened for appends.  A directory of another format
    raises :class:`~repro.errors.UnsupportedFormatError` (see
    :func:`refuse_other_formats`)."""
    refuse_other_formats(objstore)
    report = RecoveryReport()

    def load(path):
        target, observers = fresh()
        return load_store(
            path, store=target, fs=objstore.fs, objstore=objstore,
            roll=lambda histories: replay_history(target, observers, histories),
        ), observers

    found = first_generation(objstore.fs, {
        objstore.pointer: "checkpoint",
        objstore.pointer + PREV_SUFFIX: "previous",
    }, load, report.checkpoint_errors)
    if found is None:  # the journal holds the whole history
        found = "none", fresh()
        empty_store(found[1][0])
    report.checkpoint_source, (target, observers) = found
    replay_journals(target, objstore, observers, repair, report)
    report.documents = len(target.repository.records())
    return target, report


def first_generation(fs, labels, load, errors):
    """``(label, load(path))`` of the first path of ``labels`` that
    exists on ``fs`` and loads, ``None`` when none exists.  Each that
    fails adds ``"label: error"`` to ``errors``, and when all do
    :class:`CorruptArchiveError` lists them."""
    for path, label in labels.items():
        if not fs.exists(path):
            continue
        try:
            return label, load(path)
        except UnsupportedFormatError:
            raise
        except (StorageError, OSError) as exc:
            errors.append(f"{label}: {exc}")
    if errors:
        raise CorruptArchiveError(
            "no checkpoint generation loads (" + "; ".join(errors) + ")"
        )
    return None


def refuse_other_formats(objstore):
    """Raise :class:`~repro.errors.UnsupportedFormatError` when the
    directory ``objstore`` lives in holds an XML checkpoint, a journal
    whose head is not the v3 magic, or a ``.prev`` generation whose root
    is not format 4 (the newest root is checked by its load).  Reads two
    journal heads and one root object; writes nothing."""
    fs, directory = objstore.fs, objstore.directory
    for suffix in ("", PREV_SUFFIX):
        path = os.path.join(directory, "checkpoint.xml" + suffix)
        if fs.exists(path):
            raise UnsupportedFormatError(
                f"{path!r} is the XML checkpoint of an older release"
            )
        path = os.path.join(directory, JOURNAL_FILE + suffix)
        if fs.exists(path) and fs.size(path) >= len(MAGIC):
            check_head(fs.read_bytes(path, len(MAGIC)), path)
    check_root(objstore, objstore.pointer + PREV_SUFFIX)


def replay_journals(store, objstore, observers=(), repair=False,
                    report=None):
    """Apply what ``store`` lacks of the journals in ``objstore``'s
    directory (read through its ``fs``); returns ``report`` (a fresh
    :class:`RecoveryReport` when none is given) with the files, records
    and torn regions found added to it.

    Scans ``journal.bin.prev`` then ``journal.bin`` tolerantly and feeds
    every record through :func:`apply_record`, which skips what the store
    already holds.  ``repair`` truncates a torn tail off ``journal.bin``
    (never off ``.prev``, which nothing appends to).  Recovery calls this
    once after the checkpoint load; a read replica calls it on every
    catch-up.
    """
    report = report if report is not None else RecoveryReport()
    fs = objstore.fs
    journal_path = os.path.join(objstore.directory, JOURNAL_FILE)
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
            if apply_record(store, record, observers):
                report.records_replayed += 1
            else:
                report.records_skipped += 1
    return report


# -- journal record application ----------------------------------------------


def apply_record(store, rec, observers=()):
    """Idempotently apply one journal record to ``store``.

    Records already contained in the store (keyed by document id and
    version number) are skipped, so re-scanning a journal from the start
    is always safe.  Returns True when the record changed the store (its
    :class:`~repro.storage.store.CommitEvent` was fired at ``observers``),
    False when it was already covered (by the checkpoint or an earlier
    scan).
    """
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
        old_root = doc.current_root
        try:
            script = rec.script()
            new_root = apply_script(old_root.copy(), script)
        except (CorruptArchiveError, DeltaApplicationError) as exc:
            raise type(exc)(
                f"journal record of {rec.name!r} version {rec.version}: "
                f"{exc}"
            ) from None
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
            if apply_record(store, member, observers):
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
