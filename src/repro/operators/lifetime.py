"""CreTime and DelTime (Section 7.3.6).

Both operators come with the paper's two strategies:

``strategy="traverse"``
    Walk the delta chain.  For CreTime, backwards from the version in the
    TEID until the delta that introduces the element is found — "note that
    no reconstruction is necessary", only delta reads.  For DelTime,
    forwards until the delta that removes it (or the document's own delete
    time when the element survived to the end).

``strategy="index"``
    O(1) lookups in the auxiliary :class:`~repro.index.lifetime.LifetimeIndex`.

Both strategies agree on *validity*: a TEID whose XID does not exist in
the version it addresses raises :class:`~repro.errors.NoSuchVersionError`
(the index strategy always did; the traversal verifies existence from the
same delta events it walks anyway, plus — for elements with no lifecycle
event in the chain at all — one probe of the in-memory current tree's XID
index, never a reconstruction).  Earlier revisions of the traversal fell
through to "the document's first version" for unknown XIDs, silently
reporting a creation time for elements that never existed.

The traversal cost grows with the element's distance from its creation (or
deletion) — benchmark E5 measures the crossover the paper predicts
("traversing the deltas ... can easily become a bottleneck").
"""

from __future__ import annotations

from ..diff.editscript import DeleteOp, InsertOp, ReplaceRootOp
from ..errors import NoSuchVersionError, QueryPlanError
from ..obs import NULL_TRACER


class CreTime:
    """Create time of the element identified by a TEID."""

    def __init__(self, store, teid, strategy="traverse", lifetime_index=None,
                 tracer=None):
        if strategy not in ("traverse", "index"):
            raise QueryPlanError(f"unknown CreTime strategy {strategy!r}")
        if strategy == "index" and lifetime_index is None:
            raise QueryPlanError("index strategy needs a LifetimeIndex")
        self.store = store
        self.teid = teid
        self.strategy = strategy
        self.lifetime_index = lifetime_index
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def value(self):
        """The create timestamp (raises if the TEID does not resolve)."""
        with self.tracer.span("CreTime", strategy=self.strategy):
            if self.strategy == "index":
                ts = self.lifetime_index.create_time(self.teid.eid)
                if ts is None:
                    raise NoSuchVersionError(
                        f"unknown element {self.teid.eid}"
                    )
                return ts
            return self._traverse()

    def _traverse(self):
        record = self.store.record(self.teid.doc_id)
        entry = record.dindex.version_at(self.teid.timestamp)
        if entry is None:
            raise NoSuchVersionError(
                f"{self.teid} does not address a stored version"
            )
        # Walk deltas backwards; delta v leads from version v to v+1, so if
        # it inserts the XID the element was created at version v+1's time.
        # The nearest lifecycle event below the addressed version also
        # settles existence: a deletion there means the XID was already
        # gone by the addressed version.
        for version in range(entry.number - 1, 0, -1):
            script = self.store.repository.read_delta(record, version)
            if script_creates(script, self.teid.xid):
                return record.dindex.entry(version + 1).timestamp
            if script_deletes(script, self.teid.xid):
                raise NoSuchVersionError(
                    f"element {self.teid.eid} does not exist in the version "
                    f"at {self.teid.timestamp} (deleted earlier)"
                )
        # No event below the addressed version: the element existed there
        # iff it existed in version 1.  The nearest event *above* (or, with
        # no events at all, presence in the current tree) decides that.
        if self._existed_at_version_one(record, entry.number):
            return record.dindex.entry(1).timestamp
        raise NoSuchVersionError(
            f"element {self.teid.eid} does not exist in the version at "
            f"{self.teid.timestamp}"
        )

    def _existed_at_version_one(self, record, from_number):
        for version in range(from_number, record.dindex.current_number):
            script = self.store.repository.read_delta(record, version)
            if script_creates(script, self.teid.xid):
                return False  # first appears after the addressed version
            if script_deletes(script, self.teid.xid):
                return True   # deleted later, so alive from version 1
        # No lifecycle event anywhere: alive the whole history iff present
        # in the current tree (an in-memory XID probe, not a read).
        return (
            record.current_root is not None
            and record.current_root.find_by_xid(self.teid.xid) is not None
        )


class DelTime:
    """Delete time of the element identified by a TEID.

    ``value()`` returns ``None`` while the element is still alive.
    """

    def __init__(self, store, teid, strategy="traverse", lifetime_index=None,
                 tracer=None):
        if strategy not in ("traverse", "index"):
            raise QueryPlanError(f"unknown DelTime strategy {strategy!r}")
        if strategy == "index" and lifetime_index is None:
            raise QueryPlanError("index strategy needs a LifetimeIndex")
        self.store = store
        self.teid = teid
        self.strategy = strategy
        self.lifetime_index = lifetime_index
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def value(self):
        with self.tracer.span("DelTime", strategy=self.strategy):
            if self.strategy == "index":
                if not self.lifetime_index.known(self.teid.eid):
                    raise NoSuchVersionError(
                        f"unknown element {self.teid.eid}"
                    )
                return self.lifetime_index.delete_time(self.teid.eid)
            return self._traverse()

    def _traverse(self):
        record = self.store.record(self.teid.doc_id)
        entry = record.dindex.version_at(self.teid.timestamp)
        if entry is None:
            raise NoSuchVersionError(
                f"{self.teid} does not address a stored version"
            )
        current_number = record.dindex.current_number
        for version in range(entry.number, current_number):
            script = self.store.repository.read_delta(record, version)
            if script_deletes(script, self.teid.xid):
                return record.dindex.entry(version + 1).timestamp
            if script_creates(script, self.teid.xid):
                # First appears after the addressed version, so the TEID
                # does not resolve at its own timestamp.
                raise NoSuchVersionError(
                    f"element {self.teid.eid} does not exist in the version "
                    f"at {self.teid.timestamp} (created later)"
                )
        # Survived every delta: deleted with the document, or still alive —
        # provided it was ever there at all (current-tree XID probe; the
        # current root is retained even for deleted documents).
        if (
            record.current_root is None
            or record.current_root.find_by_xid(self.teid.xid) is None
        ):
            raise NoSuchVersionError(
                f"element {self.teid.eid} does not exist in the version at "
                f"{self.teid.timestamp}"
            )
        return record.dindex.deleted_at


def script_creates(script, xid):
    """Does this edit script bring ``xid`` into existence?

    A root replacement only *creates* the XIDs of the new payload that were
    not already in the old one (an element carried across a replace is
    continuous, not recreated).
    """
    for op in script:
        if isinstance(op, InsertOp) and xid in op.payload.xids():
            return True
        if (
            isinstance(op, ReplaceRootOp)
            and xid in op.new_payload.xids()
            and xid not in op.old_payload.xids()
        ):
            return True
    return False


def script_deletes(script, xid):
    """Does this edit script remove ``xid``?  (Mirror of
    :func:`script_creates` for root replacements.)"""
    for op in script:
        if isinstance(op, DeleteOp) and xid in op.payload.xids():
            return True
        if (
            isinstance(op, ReplaceRootOp)
            and xid in op.old_payload.xids()
            and xid not in op.new_payload.xids()
        ):
            return True
    return False
