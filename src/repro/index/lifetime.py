"""The auxiliary create-time/delete-time index (Section 7.3.6).

"Use an additional index that indexes EID and create/delete timestamps."

Maps every EID to its lifespan ``[create_ts, delete_ts)``.  Maintained from
commit events: inserted payload subtrees open entries, deleted payloads
close them (their XIDs read off the packed bytes, never decoded), and
document deletion closes every entry still alive.  Lookups are O(1) — the
contrast with the delta traversal (``benchmarks/ablation/lifetime.py``)
measured in E5.

As the paper notes, inserts into this index are not strictly append-only
(new elements appear inside existing documents), but every commit appends a
*batch* of entries, so amortized cost per element stays low; the
``updates_per_commit`` counter lets the benchmark verify that remark.

Storage is two integer columns per document, indexed by XID: create times
and delete times.  XIDs of a document are dense, increasing and never
reused (:class:`~repro.model.identifiers.XIDAllocator`), so a column is an
``array('q')`` with a slot per XID handed out so far, and a lifespan costs
16 bytes.
"""

from __future__ import annotations

from array import array

from ..diff.editscript import DeleteOp, InsertOp, ReplaceRootOp
from ..sync import RWLock
from ..xmlcore.node import Element
from .stats import IndexStats

#: Column value for "no such element" (create column) and "still alive"
#: (delete column): below every commit time, which the clock keeps above
#: ``BEFORE_TIME``.
NO_TIME = -(2**63)


class LifetimeIndex:
    """EID → (create_ts, delete_ts or None while alive).

    Like the FTI, maintenance holds the write side of a
    :class:`~repro.sync.RWLock` and lookups the read side, so concurrent
    reader sessions never observe a commit's span batch half-applied."""

    #: Prefix this index's ``stats`` register under in a MetricsRegistry.
    metrics_label = "lifetime"

    def __init__(self):
        # doc_id -> (create times, delete times), both indexed by XID
        self._columns = {}
        self._entries = 0
        self.stats = IndexStats()
        self.commit_batches = 0
        self._entries_this_commit = 0
        self._rwlock = RWLock()

    # -- store observer -----------------------------------------------------------

    def document_committed(self, event):
        with self._rwlock.write_lock():
            self._entries_this_commit = 0
            if event.kind == "create":
                self._open(event.doc_id, _xids(event.root), event.timestamp)
            elif event.kind == "delete":
                self._close_document(event.doc_id, event.timestamp)
            elif event.kind == "update":
                self._apply_script(event.doc_id, event.script, event.timestamp)
            self.commit_batches += 1

    def _apply_script(self, doc_id, script, ts):
        for op in script:
            if isinstance(op, InsertOp):
                self._open(doc_id, op.payload.xids(), ts)
            elif isinstance(op, DeleteOp):
                self._close(doc_id, op.payload.xids(), ts)
            elif isinstance(op, ReplaceRootOp):
                self._close(doc_id, op.old_payload.xids(), ts)
                self._open(doc_id, op.new_payload.xids(), ts)

    def _open(self, doc_id, xids, ts):
        columns = self._columns.get(doc_id)
        if columns is None:
            columns = self._columns[doc_id] = (array("q"), array("q"))
        created, deleted = columns
        grow = max(xids) + 1 - len(created)
        if grow > 0:
            gap = array("q", [NO_TIME]) * grow
            created.extend(gap)
            deleted.extend(gap)
        new = 0
        for xid in xids:
            if created[xid] == NO_TIME:
                new += 1
            created[xid] = ts
            deleted[xid] = NO_TIME
        self._entries += new
        self.stats.opened(24 * len(xids), len(xids))
        self._entries_this_commit += len(xids)

    def _close(self, doc_id, xids, ts):
        columns = self._columns.get(doc_id)
        if columns is None:
            return
        created, deleted = columns
        closed = 0
        for xid in xids:
            if (xid < len(created) and created[xid] != NO_TIME
                    and deleted[xid] == NO_TIME):
                deleted[xid] = ts
                closed += 1
        self.stats.closed(closed)

    def _close_document(self, doc_id, ts):
        columns = self._columns.get(doc_id)
        if columns is None:
            return
        created, deleted = columns
        closed = 0
        for xid, (born, died) in enumerate(zip(created, deleted)):
            if born != NO_TIME and died == NO_TIME:
                deleted[xid] = ts
                closed += 1
        self.stats.closed(closed)

    # -- lookups (what CreTime/DelTime read) --------------------------------

    def create_time(self, eid):
        """Create time of the element, or ``None`` for unknown EIDs."""
        with self._rwlock.read_lock():
            self.stats.scanned(1)
            span = self._span(eid)
            return span[0] if span else None

    def delete_time(self, eid):
        """Delete time, or ``None`` while the element is still alive (or
        the EID is unknown — disambiguate with :meth:`known`)."""
        with self._rwlock.read_lock():
            self.stats.scanned(1)
            span = self._span(eid)
            return span[1] if span else None

    def known(self, eid):
        with self._rwlock.read_lock():
            return self._span(eid) is not None

    def lifespan(self, eid):
        with self._rwlock.read_lock():
            return self._span(eid)

    def __len__(self):
        with self._rwlock.read_lock():
            return self._entries

    def _span(self, eid):
        """``(create_ts, delete_ts or None)``, or ``None`` when unknown."""
        columns = self._columns.get(eid.doc_id)
        if columns is None:
            return None
        created, deleted = columns
        xid = eid.xid
        if not 0 <= xid < len(created) or created[xid] == NO_TIME:
            return None
        died = deleted[xid]
        return created[xid], (None if died == NO_TIME else died)


def _xids(node):
    """The XIDs of a tree's nodes, in no particular order (the columns
    need none, and a plain stack walk is cheaper than the pre-order
    generator of ``Element.iter``)."""
    xids = []
    stack = [node]
    while stack:
        node = stack.pop()
        xids.append(node.xid)
        if isinstance(node, Element):
            stack.extend(node.children)
    return xids
