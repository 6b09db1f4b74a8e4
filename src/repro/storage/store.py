"""The logical store facade: named documents, commits, observers.

:class:`TemporalDocumentStore` is the top of the storage stack and the
object applications interact with:

* ``put`` / ``update`` / ``delete`` commit new document states at
  transaction times drawn from a :class:`~repro.clock.LogicalClock`
  (or passed explicitly, e.g. by the warehouse crawler);
* ``update`` runs the differ, so XIDs persist across versions and the
  completed delta lands in the repository;
* every commit is broadcast as a :class:`CommitEvent` to registered
  observers — this is how the temporal full-text index and the lifetime
  (create/delete time) index stay current;
* read paths (``current``, ``snapshot``, ``version``, ``subtree``) resolve
  names/EIDs/TEIDs and read stored versions through the repository's
  cursors (:mod:`repro.storage.cursor`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..clock import LogicalClock
from ..diff.differ import diff
from ..errors import (
    DocumentDeletedError,
    NoSuchDocumentError,
    StorageError,
)
from ..model.identifiers import EID, TEID
from ..model.versioned import stamp_new_nodes
from ..xmlcore.node import Element
from ..xmlcore.parser import parse
from .cursor import ChainReader
from .repository import Repository


@dataclass(frozen=True)
class CommitEvent:
    """Broadcast to observers after every successful commit.

    ``kind`` is ``"create"``, ``"update"``, or ``"delete"``.  ``root`` is the
    new current tree (``None`` for deletes), ``old_root`` the previous one
    (``None`` for creates), ``script`` the completed delta (updates only).
    Observers must not mutate the trees.

    Events replayed from stored history
    (:func:`~repro.storage.persistence.replay_history`) roll one tree per
    document in place: their roots are borrowed for the
    ``document_committed`` call only — an observer that keeps one must
    copy it — and their updates carry ``old_root=None``.  A replayed
    ``delete`` still carries the document's final tree as ``old_root``.
    """

    kind: str
    doc_id: int
    name: str
    version_number: int
    timestamp: int
    root: object = None
    old_root: object = None
    script: object = None


class CommitBatch:
    """Stage several commits, apply them as one group (group commit).

    Obtained from :meth:`TemporalDocumentStore.batch`.  Operations are
    *validated and staged* when called — sources are parsed, name liveness
    is checked against the store state overlaid with earlier staged ops —
    and *applied* together at :meth:`commit` (or on clean ``with``-block
    exit).  A journaled store writes the whole batch as one journal group
    record with a single fsync; snapshot-policy decisions are likewise
    evaluated once, at group end, in commit order — producing the same
    placements (and byte-identical archives) as per-commit ingestion of
    the same operations.

    ``results`` (after commit) mirrors the staged ops: doc_id for puts,
    version number for updates, ``None`` for deletes.
    """

    def __init__(self, store):
        self._store = store
        self._ops = []  # (kind, name, tree-or-None, ts)
        self._liveness = {}  # staged name -> "live" | "deleted"
        self._ts_floor = store.clock.now()
        self._closed = False
        self.results = None

    # -- staging --------------------------------------------------------------

    def put(self, name, source, ts=None):
        """Stage a document creation (validated now, committed later)."""
        self._check_open()
        if self._state_of(name) == "live":
            raise StorageError(
                f"document {name!r} already exists; use update()"
            )
        tree = self._store._as_tree(source)
        self._stage("create", name, tree, ts)

    def update(self, name, source, ts=None):
        """Stage a new version of a live (or staged-live) document."""
        self._check_open()
        self._require_live(name)
        tree = self._store._as_tree(source)
        if any(n.xid is not None for n in tree.iter()):
            raise StorageError(
                "update() expects an unstamped tree; XIDs are assigned by "
                "the store"
            )
        self._stage("update", name, tree, ts)

    def delete(self, name, ts=None):
        """Stage a logical deletion."""
        self._check_open()
        self._require_live(name)
        self._stage("delete", name, None, ts)
        self._liveness[name] = "deleted"

    def _stage(self, kind, name, tree, ts):
        if ts is not None:
            if ts < self._ts_floor:
                raise StorageError(
                    f"batch timestamps must not go backwards "
                    f"({ts} < {self._ts_floor})"
                )
            self._ts_floor = ts
        self._ops.append((kind, name, tree, ts))
        if kind != "delete":
            self._liveness[name] = "live"

    def _state_of(self, name):
        staged = self._liveness.get(name)
        if staged is not None:
            return staged
        record = self._store._by_name.get(name)
        if record is None:
            return "absent"
        return "deleted" if record.is_deleted else "live"

    def _require_live(self, name):
        state = self._state_of(name)
        if state == "absent":
            raise NoSuchDocumentError(f"unknown document {name!r}")
        if state == "deleted":
            raise DocumentDeletedError(f"document {name!r} is deleted")

    def _check_open(self):
        if self._closed:
            raise StorageError("commit batch is already closed")

    def __len__(self):
        return len(self._ops)

    # -- completion -----------------------------------------------------------

    def commit(self):
        """Apply every staged op as one commit group; returns the per-op
        results list (also left on ``self.results``)."""
        self._check_open()
        self._closed = True
        ops, self._ops = self._ops, []
        self.results = self._store._apply_batch(ops)
        return self.results

    def abort(self):
        """Discard the staged ops; the store is untouched."""
        self._closed = True
        self._ops = []

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.commit()
        elif not self._closed:
            self.abort()
        return False


class TemporalDocumentStore:
    """A transaction-time XML document store (the paper's assumed system)."""

    def __init__(self, clock=None, snapshot_interval=None):
        """``snapshot_interval`` is forwarded to the
        :class:`~repro.storage.repository.Repository`."""
        self.clock = clock if clock is not None else LogicalClock()
        self.repository = Repository(snapshot_interval=snapshot_interval)
        self._by_name = {}
        self._observers = []
        self.journal = None  # set by attach_journal()

    # -- observers ----------------------------------------------------------------

    def subscribe(self, observer):
        """Register an observer with a ``document_committed(event)`` method."""
        self._observers.append(observer)
        return observer

    def _notify(self, event):
        for observer in self._observers:
            observer.document_committed(event)

    def attach_journal(self, journal):
        """Bind and subscribe a :class:`~repro.storage.journal.CommitJournal`
        so every commit is appended durably; returns the journal."""
        journal.bind(self)
        self.journal = journal
        return self.subscribe(journal)

    def adopt(self, record):
        """Register a complete ``record`` under the doc id it already
        carries and publish its name — how archive restore and journal
        replay bring in documents whose ids were assigned elsewhere."""
        self.repository.adopt(record)
        self._by_name[record.name] = record
        return record

    # -- commit paths --------------------------------------------------------------

    def put(self, name, source, ts=None):
        """Create a new document; returns its doc_id.

        ``source`` may be XML text or an already built element tree.  A name
        can be reused after deletion — that creates a *new* document (new
        doc_id), mirroring the paper's remark that a re-introduced entry
        receives fresh identity.
        """
        existing = self._by_name.get(name)
        if existing is not None and not existing.is_deleted:
            raise StorageError(
                f"document {name!r} already exists; use update()"
            )
        root = self._as_tree(source)
        ts = self._commit_ts(ts)
        record = self.repository.create(name)
        stamp_new_nodes(root, record.allocator, ts)
        self.repository.commit_initial(record, root, ts)
        self._by_name[name] = record
        self._notify(
            CommitEvent(
                "create", record.doc_id, name, 1, ts, root=root
            )
        )
        return record.doc_id

    def update(self, name, source, ts=None):
        """Commit a new version of an existing document; returns the version
        number.  The differ carries XIDs from the stored current version into
        the new tree, so element identity persists (Section 3.2)."""
        record = self._live_record(name)
        new_root = self._as_tree(source)
        if any(n.xid is not None for n in new_root.iter()):
            raise StorageError(
                "update() expects an unstamped tree; XIDs are assigned by "
                "the store"
            )
        ts = self._commit_ts(ts)
        old_root = record.current_root
        script = diff(old_root, new_root, record.allocator, commit_ts=ts)
        script.from_ts = record.dindex.current_ts()
        script.to_ts = ts
        entry = self.repository.commit_version(record, new_root, script, ts)
        self._notify(
            CommitEvent(
                "update",
                record.doc_id,
                name,
                entry.number,
                ts,
                root=new_root,
                old_root=old_root,
                script=script,
            )
        )
        return entry.number

    def delete(self, name, ts=None):
        """Logically delete a document at transaction time ``ts``."""
        record = self._live_record(name)
        ts = self._commit_ts(ts)
        self.repository.mark_deleted(record, ts)
        self._notify(
            CommitEvent(
                "delete",
                record.doc_id,
                name,
                record.dindex.current_number,
                ts,
                old_root=record.current_root,
            )
        )

    def batch(self):
        """Open a :class:`CommitBatch` — stage several put/update/delete
        ops, commit them as one group with a single journal fsync::

            with store.batch() as b:
                b.put("a.xml", "<doc/>")
                b.update("b.xml", "<doc>new</doc>")

        The block commits on clean exit and aborts (store untouched) if it
        raises."""
        return CommitBatch(self)

    def _apply_batch(self, ops):
        """Apply staged batch ops through the normal commit paths, framed
        as one journal group."""
        journal = self.journal
        if journal is not None:
            journal.begin_group()
        results = []
        try:
            for kind, name, tree, ts in ops:
                if kind == "create":
                    results.append(self.put(name, tree, ts=ts))
                elif kind == "update":
                    results.append(self.update(name, tree, ts=ts))
                else:
                    results.append(self.delete(name, ts=ts))
        finally:
            # Staging-time validation makes a failing op unreachable for
            # the documented error cases; if one still fails, the applied
            # prefix is already real in memory, so commit exactly that
            # prefix as a (shorter) group and let the error propagate —
            # the journal never disagrees with the in-memory state.
            if journal is not None:
                journal.commit_group()
        return results

    def _commit_ts(self, ts):
        if ts is None:
            return self.clock.advance()
        self.clock.advance_to(ts)
        return ts

    @staticmethod
    def _as_tree(source):
        if isinstance(source, Element):
            return source
        return parse(source)

    # -- resolution -------------------------------------------------------------------

    def record(self, name_or_id):
        """DocumentRecord by name or doc_id (deleted documents included)."""
        if isinstance(name_or_id, int):
            return self.repository.record(name_or_id)
        record = self._by_name.get(name_or_id)
        if record is None:
            raise NoSuchDocumentError(f"unknown document {name_or_id!r}")
        return record

    def _live_record(self, name):
        record = self.record(name)
        if record.is_deleted:
            raise DocumentDeletedError(f"document {name!r} is deleted")
        return record

    def doc_id(self, name):
        return self.record(name).doc_id

    def name_of(self, doc_id):
        return self.repository.record(doc_id).name

    def documents(self, include_deleted=False):
        """Names of stored documents.

        Only names that have completed their create commit are listed (a
        record mid-``put`` exists in the repository before it is published
        under its name), so a concurrent reader can always resolve every
        name this returns."""
        return [
            name
            for name, record in list(self._by_name.items())
            if include_deleted or not record.is_deleted
        ]

    def delta_index(self, name_or_id):
        return self.record(name_or_id).dindex

    # -- reads ------------------------------------------------------------------------

    def current(self, name_or_id):
        """The complete current version (a private copy)."""
        record = self.record(name_or_id)
        if record.is_deleted:
            raise DocumentDeletedError(
                f"document {record.name!r} is deleted"
            )
        return self.repository.read_current(record)

    def snapshot(self, name_or_id, ts):
        """The version valid at ``ts``, or ``None`` if the document did not
        exist then (before creation / at-or-after deletion)."""
        record = self.record(name_or_id)
        return self.repository.reconstruct_at(record, ts)

    def version(self, name_or_id, number):
        """Materialize version ``number`` (1-based)."""
        record = self.record(name_or_id)
        return self.repository.reconstruct(record, number)

    def version_range(self, name_or_id, lo, hi, newest_first=False):
        """Stream versions ``lo..hi`` as ``(number, tree, xids)`` with one
        anchor read plus one delta pass (see
        :meth:`~repro.storage.repository.Repository.reconstruct_range`).
        The yielded trees are *live* — copy what you keep."""
        record = self.record(name_or_id)
        return self.repository.reconstruct_range(
            record, lo, hi, newest_first=newest_first
        )

    def read_stats(self):
        """Repository read counters and anchor/direction choices as one
        flat-ish dict (the ``repro stats`` CLI payload)."""
        repo = self.repository
        return {
            **repo.counter_snapshot(),
            "anchors": repo.anchor_stats.as_dict(),
        }

    def subtree(self, teid):
        """The subtree rooted at ``teid``'s element in the version valid at
        ``teid.timestamp`` (a private copy, through an element cursor);
        ``None`` when document or element is absent."""
        record = self.record(teid.doc_id)
        entry = record.dindex.version_at(teid.timestamp)
        if entry is None:
            return None
        reader = ChainReader(self.repository, record)
        return reader.cursor(teid.xid).take(entry.number)

    def normalize_teid(self, teid):
        """Rewrite a TEID so its timestamp is the containing version's commit
        time (the canonical TEID for a given element version)."""
        entry = self.delta_index(teid.doc_id).version_at(teid.timestamp)
        if entry is None:
            return None
        return TEID(teid.doc_id, teid.xid, entry.timestamp)

    def current_teid(self, name_or_id, xid):
        """TEID of ``xid``'s current version (None when gone)."""
        record = self.record(name_or_id)
        if record.is_deleted:
            return None
        # The current root persists between commits, so its lazily built XID
        # index amortizes across calls (no full-tree iteration per probe).
        if record.current_root.find_by_xid(xid) is not None:
            return TEID(record.doc_id, xid, record.dindex.current_ts())
        return None

    def eid(self, name_or_id, xid):
        return EID(self.record(name_or_id).doc_id, xid)
