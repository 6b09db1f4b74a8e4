"""The auxiliary create-time/delete-time index (Section 7.3.6).

"Use an additional index that indexes EID and create/delete timestamps."

Maps every EID to its lifespan ``[create_ts, delete_ts)``.  Maintained from
commit events: inserted payload subtrees open entries, deleted payloads
close them, document deletion closes every entry still alive.  Lookups are
O(1) — the contrast with the delta-traversal strategy measured in E5.

As the paper notes, inserts into this index are not strictly append-only
(new elements appear inside existing documents), but every commit appends a
*batch* of entries, so amortized cost per element stays low; the
``updates_per_commit`` counter lets the benchmark verify that remark.
"""

from __future__ import annotations

from ..diff.editscript import DeleteOp, InsertOp, ReplaceRootOp, payload_nodes
from ..sync import RWLock
from .stats import IndexStats


class LifetimeIndex:
    """EID → (create_ts, delete_ts or None while alive).

    Like the FTI, maintenance holds the write side of a
    :class:`~repro.sync.RWLock` and lookups the read side, so concurrent
    reader sessions never observe a commit's span batch half-applied."""

    #: Prefix this index's ``stats`` register under in a MetricsRegistry.
    metrics_label = "lifetime"

    def __init__(self):
        # doc_id -> {xid: [create_ts, delete_ts | None]}
        self._spans = {}
        self.stats = IndexStats()
        self.commit_batches = 0
        self._entries_this_commit = 0
        self._rwlock = RWLock()

    # -- store observer -----------------------------------------------------------

    def document_committed(self, event):
        with self._rwlock.write_lock():
            self._entries_this_commit = 0
            if event.kind == "create":
                self._open_subtree(event.doc_id, event.root, event.timestamp)
            elif event.kind == "delete":
                self._close_document(event.doc_id, event.timestamp)
            elif event.kind == "update":
                self._apply_script(event.doc_id, event.script, event.timestamp)
            self.commit_batches += 1

    def _apply_script(self, doc_id, script, ts):
        for op in script:
            if isinstance(op, InsertOp):
                self._open_subtree(doc_id, op.payload, ts)
            elif isinstance(op, DeleteOp):
                self._close_subtree(doc_id, op.payload, ts)
            elif isinstance(op, ReplaceRootOp):
                self._close_subtree(doc_id, op.old_payload, ts)
                self._open_subtree(doc_id, op.new_payload, ts)

    def _open_subtree(self, doc_id, node, ts):
        spans = self._spans.setdefault(doc_id, {})
        for inner in payload_nodes(node):
            spans[inner.xid] = [ts, None]
            self.stats.opened(24)
            self._entries_this_commit += 1

    def _close_subtree(self, doc_id, node, ts):
        spans = self._spans.get(doc_id, {})
        for inner in payload_nodes(node):
            span = spans.get(inner.xid)
            if span is not None and span[1] is None:
                span[1] = ts
                self.stats.closed()

    def _close_document(self, doc_id, ts):
        for span in self._spans.get(doc_id, {}).values():
            if span[1] is None:
                span[1] = ts
                self.stats.closed()

    # -- lookups (the CreTime/DelTime index strategy) --------------------------------

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
            span = self._span(eid)
            return (span[0], span[1]) if span else None

    def __len__(self):
        with self._rwlock.read_lock():
            return sum(len(spans) for spans in self._spans.values())

    def _span(self, eid):
        return self._spans.get(eid.doc_id, {}).get(eid.xid)
