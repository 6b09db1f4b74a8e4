"""The FTI alternatives the paper rejects (Section 7.2), kept as references.

The engine ships alternative 1 only
(:class:`repro.index.fti.TemporalFullTextIndex`); benchmark E6 and
``tests/test_delta_indexes.py`` compare it against the two below.  Bench
scripts import this as ``ablation.fti_alternatives``, tests as
``benchmarks.ablation.fti_alternatives``; nothing under ``src/repro``
imports it.

**Delta-operation index — alternative 2 of Section 7.2.**

"Index the contents of the delta objects.  This implies indexing the
operations, e.g., update, move and delete information directly in the text
index.  This would for example facilitate search for the path
delete/restaurant/name/napoli."

Every commit appends **event postings**: one per (operation keyword, word)
pair affected by the commit.  Exactly as the paper warns, this creates
"extremely many instances of the delta keywords" — the operation keywords
(``insert``/``delete``/``update``/``move``) accumulate one posting per
touched word per commit — and snapshot queries become expensive because the
state at time *t* must be folded from the whole event history.  Both
drawbacks are measurable through :attr:`stats`, which is the point of
keeping this alternative around (benchmark E6).

**Hybrid index — alternative 3 of Section 7.2: snapshot *and* delta info.**

"This approach could be efficient for both snapshot and change based
queries, but will result in larger indexes and higher update costs."

Implemented as the straightforward composition of alternatives 1 and 2:
snapshot-style lookups are answered by the content index, change-oriented
queries by the operation index, and sizes/update costs are the sums — which
is precisely the trade-off benchmark E6 quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.diff.editscript import (
    DeleteOp,
    InsertOp,
    MoveOp,
    ReplaceRootOp,
    UpdateAttrOp,
    UpdateTextOp,
)
from repro.index.fti import TemporalFullTextIndex
from repro.index.postings import occurrences, tokenize
from repro.index.stats import IndexStats
from repro.xmlcore.node import Element

#: Operation keywords, indexed as words themselves (alternative 2's burden).
OP_INSERT = "insert"
OP_DELETE = "delete"
OP_UPDATE = "update"
OP_MOVE = "move"


@dataclass(frozen=True)
class EventPosting:
    """One change event for one word: ``op`` at ``ts`` in ``doc_id``/``xid``."""

    op: str
    word: str
    doc_id: int
    xid: int
    path: str
    ts: int

    def estimated_bytes(self):
        return 20 + len(self.word) + len(self.path)


class DeltaOperationIndex:
    """Inverted lists of change events, keyed by content word *and* by
    operation keyword."""

    #: Prefix this index's ``stats`` register under in a MetricsRegistry.
    metrics_label = "delta_fti"

    def __init__(self):
        self._by_word = {}  # word -> list[EventPosting]
        self._by_op = {}    # op keyword -> list[EventPosting]
        # Event postings attribute words to the *containing element* (the
        # same attribution the content index uses), but text-node operations
        # in edit scripts only carry the text node's own XID — so the index
        # keeps a (doc, text_xid) -> element_xid map, maintained from the
        # payloads it already sees.
        self._text_parent = {}
        self._text_value = {}  # (doc, text_xid) -> current value
        self.stats = IndexStats()

    # -- store observer -------------------------------------------------------

    def document_committed(self, event):
        if event.kind == "create":
            self._learn_parents(event.doc_id, event.root)
            self._index_subtree(OP_INSERT, event.doc_id, event.root, event.timestamp)
        elif event.kind == "delete":
            self._index_subtree(OP_DELETE, event.doc_id, event.old_root, event.timestamp)
        elif event.kind == "update":
            self._index_script(event.doc_id, event.script, event.timestamp)

    def _learn_parents(self, doc_id, root):
        if not isinstance(root, Element):
            return
        for element in root.iter_elements():
            for child in element.children:
                if not isinstance(child, Element):
                    self._text_parent[(doc_id, child.xid)] = element.xid
                    self._text_value[(doc_id, child.xid)] = child.value

    def _owner(self, doc_id, xid):
        """Element owning a text node (falls back to the xid itself)."""
        return self._text_parent.get((doc_id, xid), xid)

    def _index_subtree(self, op, doc_id, root, ts):
        for (word, xid, _ordinal), (_anc, path) in occurrences(root, doc_id).items():
            self._add(EventPosting(op, word, doc_id, xid, path, ts))

    def _index_script(self, doc_id, script, ts):
        for op in script:
            if isinstance(op, InsertOp):
                payload = op.payload.tree()
                if isinstance(payload, Element):
                    self._learn_parents(doc_id, payload)
                    self._index_subtree(OP_INSERT, doc_id, payload, ts)
                else:
                    self._text_parent[(doc_id, payload.xid)] = op.parent_xid
                    self._text_value[(doc_id, payload.xid)] = payload.value
                    self._add_words(OP_INSERT, doc_id, op.parent_xid, "",
                                    tokenize(payload.value), ts)
            elif isinstance(op, DeleteOp):
                payload = op.payload.tree()
                if isinstance(payload, Element):
                    self._index_subtree(OP_DELETE, doc_id, payload, ts)
                else:
                    self._add_words(OP_DELETE, doc_id,
                                    self._owner(doc_id, payload.xid), "",
                                    tokenize(payload.value), ts)
            elif isinstance(op, UpdateTextOp):
                owner = self._owner(doc_id, op.xid)
                self._text_value[(doc_id, op.xid)] = op.new
                self._add_words(OP_DELETE, doc_id, owner, "",
                                tokenize(op.old), ts)
                self._add_words(OP_INSERT, doc_id, owner, "",
                                tokenize(op.new), ts)
                self._add_words(OP_UPDATE, doc_id, owner, "",
                                tokenize(op.new) or tokenize(op.old), ts)
            elif isinstance(op, UpdateAttrOp):
                if op.old is not None:
                    self._add_words(OP_DELETE, doc_id, op.xid, "",
                                    tokenize(op.old), ts)
                if op.new is not None:
                    self._add_words(OP_INSERT, doc_id, op.xid, "",
                                    tokenize(op.new), ts)
            elif isinstance(op, MoveOp):
                slot = (doc_id, op.xid)
                if slot in self._text_parent and op.from_parent != op.to_parent:
                    # A text node changed parents: its words move with it,
                    # which the fold sees as delete-at-old + insert-at-new.
                    words = tokenize(self._text_value.get(slot, ""))
                    self._add_words(OP_DELETE, doc_id, op.from_parent, "",
                                    words, ts)
                    self._add_words(OP_INSERT, doc_id, op.to_parent, "",
                                    words, ts)
                    self._text_parent[slot] = op.to_parent
                self._add(EventPosting(OP_MOVE, OP_MOVE, doc_id, op.xid, "", ts))
            elif isinstance(op, ReplaceRootOp):
                new_root = op.new_payload.tree()
                self._index_subtree(OP_DELETE, doc_id, op.old_payload.tree(), ts)
                self._learn_parents(doc_id, new_root)
                self._index_subtree(OP_INSERT, doc_id, new_root, ts)
            # StampOps carry no content change; they are not indexed.

    def _add_words(self, op, doc_id, xid, path, words, ts):
        for word in words:
            self._add(EventPosting(op, word, doc_id, xid, path, ts))

    def _add(self, posting):
        self._by_word.setdefault(posting.word, []).append(posting)
        self._by_op.setdefault(posting.op, []).append(posting)
        # The operation keyword costs a second stored entry — the explosion
        # the paper predicts.  Count both.
        self.stats.opened(posting.estimated_bytes())
        self.stats.opened(posting.estimated_bytes() // 2)

    # -- change-oriented queries (alternative 2's strength) ----------------------

    def events_for_word(self, word, op=None):
        """All change events mentioning ``word`` (optionally one op kind)."""
        candidates = self._by_word.get(word, [])
        if op is None:
            result = list(candidates)
        else:
            result = [e for e in candidates if e.op == op]
        self.stats.scanned(len(candidates), returned=len(result))
        return result

    def events_for_op(self, op):
        """All events of one operation kind — e.g. every deletion ever."""
        candidates = self._by_op.get(op, [])
        self.stats.scanned(len(candidates), returned=len(candidates))
        return list(candidates)

    def deletion_time(self, word, doc_id=None):
        """When was an element containing ``word`` deleted?  Direct here,
        costly under alternative 1."""
        hits = [
            e
            for e in self.events_for_word(word, OP_DELETE)
            if doc_id is None or e.doc_id == doc_id
        ]
        return [e.ts for e in hits]

    # -- snapshot queries (alternative 2's weakness) --------------------------------

    def lookup_t(self, word, ts, docs=None):
        """Elements containing ``word`` at time ``ts``, folded from events.

        Requires replaying the word's entire event history up to ``ts`` —
        the cost the paper gives for rejecting this alternative on snapshot
        access patterns.  Returns ``(doc_id, xid)`` pairs.  ``docs``
        restricts the fold to a document set (the same pushdown the content
        index supports; out-of-set events are skipped, not folded).
        """
        events = self._by_word.get(word, [])
        alive = {}
        for event in sorted(events, key=lambda e: e.ts):
            if event.ts > ts:
                break
            if docs is not None and event.doc_id not in docs:
                continue
            slot = (event.doc_id, event.xid)
            if event.op == OP_INSERT:
                alive[slot] = alive.get(slot, 0) + 1
            elif event.op == OP_DELETE:
                alive[slot] = alive.get(slot, 0) - 1
        result = [slot for slot, count in alive.items() if count > 0]
        self.stats.scanned(len(events), returned=len(result))
        return result

    # -- introspection ----------------------------------------------------------------

    def posting_count(self):
        """Stored entries, counting the op-keyword copies."""
        return 2 * sum(len(lst) for lst in self._by_word.values())

    def estimated_bytes(self):
        return sum(
            e.estimated_bytes() + e.estimated_bytes() // 2
            for lst in self._by_word.values()
            for e in lst
        )


class HybridIndex:
    """Both a content index and a delta-operation index, kept in lockstep."""

    #: Composite label; ``metric_sources`` exposes each side separately.
    metrics_label = "hybrid"

    def __init__(self):
        self.content = TemporalFullTextIndex()
        self.operations = DeltaOperationIndex()

    def metric_sources(self):
        """Registry sources: the two constituent indexes, under their own
        labels (so the content side still answers ``fti.*`` queries)."""
        return [
            (self.content.metrics_label, self.content.stats),
            (self.operations.metrics_label, self.operations.stats),
        ]

    # -- store observer ------------------------------------------------------

    def document_committed(self, event):
        self.content.document_committed(event)
        self.operations.document_committed(event)

    # -- queries: route to the cheaper side -----------------------------------

    def lookup(self, word, docs=None):
        return self.content.lookup(word, docs=docs)

    def lookup_t(self, word, ts, docs=None):
        return self.content.lookup_t(word, ts, docs=docs)

    def lookup_h(self, word, docs=None):
        return self.content.lookup_h(word, docs=docs)

    def lookup_w(self, word, start, end, docs=None):
        return self.content.lookup_w(word, start, end, docs=docs)

    # -- planner probes (content side) ----------------------------------------

    def term_stats(self, word):
        return self.content.term_stats(word)

    def postings_at_or_before(self, word, ts):
        return self.content.postings_at_or_before(word, ts)

    def postings_starting_before(self, word, end):
        return self.content.postings_starting_before(word, end)

    def distinct_terms(self):
        return self.content.distinct_terms()

    def events_for_word(self, word, op=None):
        return self.operations.events_for_word(word, op)

    def deletion_time(self, word, doc_id=None):
        return self.operations.deletion_time(word, doc_id)

    # -- combined accounting -----------------------------------------------------

    def posting_count(self):
        return self.content.posting_count() + self.operations.posting_count()

    def estimated_bytes(self):
        return (
            self.content.estimated_bytes()
            + self.operations.estimated_bytes()
        )

    def update_ops(self):
        return (
            self.content.stats.update_ops + self.operations.stats.update_ops
        )


class FullHistoryLookup:
    """An FTI whose windowed lookup scans the whole history list — the
    pre-planner retrieval.  The scorer drops postings outside the window
    itself, so ``TemporalKeywordScorer(FullHistoryLookup(fti))`` ranks
    identically to the windowed scorer and only ``postings_scanned``
    differs; everything else is the wrapped index."""

    def __init__(self, fti):
        self._fti = fti

    def lookup_w(self, word, start, end, docs=None, *, as_columns=False):
        return self._fti.lookup_h(word, docs=docs, as_columns=as_columns)

    def __getattr__(self, name):
        return getattr(self._fti, name)
