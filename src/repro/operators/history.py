"""DocHistory and ElementHistory (Sections 7.3.4–7.3.5).

``DocHistory(document, t1, t2)`` returns all versions of a document valid in
``[t1, t2)``.  Following the paper's algorithm it walks *backwards*: the
newest requested version is reconstructed first (from the stored anchor the
repository's cost model picks), then each older version is obtained by
applying one more inverted delta — so the whole scan costs one anchor read
plus one delta read per additional version, and the output order is "the
most previous versions first".  The sweep is the repository's batched
:meth:`~repro.storage.repository.Repository.reconstruct_range` generator
(``newest_first=True``): a whole-document cursor rolled through the range.

``ElementHistory(EID, t1, t2)`` is the same sweep restricted to the subtree
rooted at the EID — "even if it was possible to optimize this so that only
the desired subtrees are reconstructed, the whole deltas would have to be
read anyway".  It is so optimized: an *element* cursor
(:mod:`repro.storage.cursor`) reads the whole deltas and applies the
operations that land under the element, to that subtree alone.

Either way one live subtree is rolled in place.  Full iteration hands out
copies (the public contract: results are private), ``teids()`` skips the
copies entirely.
"""

from __future__ import annotations

from ..model.identifiers import TEID
from ..obs import NULL_TRACER
from ..storage.cursor import ChainReader


class DocHistory:
    """All versions of one document valid in ``[start, end)``.

    ``newest_first=True`` (the default) is the paper's backward output
    order; ``newest_first=False`` sweeps forward instead — same cost (one
    anchor plus one delta per further version), oldest version first.  The
    planner's streaming navigational scan uses the forward sweep."""

    def __init__(self, store, document, start, end, tracer=None,
                 newest_first=True):
        """``document`` is a name or doc_id."""
        self.store = store
        self.record = store.record(document)
        self.start = start
        self.end = end
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.newest_first = newest_first

    def run(self):
        """List of ``(TEID, tree)`` — TEIDs are document roots — in the
        configured sweep order (newest first by default)."""
        return list(self)

    def teids(self):
        """Version TEIDs only — skips the per-version ``tree.copy()`` that
        full iteration pays, so the cost is the delta reads alone."""
        return [self._result(entry, tree) for entry, tree in self._sweep()]

    def __iter__(self):
        for entry, tree in self._sweep():
            # The live tree keeps being rolled; hand out copies only.
            yield self._result(entry, tree), tree.copy()

    def _sweep(self):
        """Yield ``(entry, tree)`` in the configured sweep order; ``tree``
        is the *live* working tree, rolled in place between yields."""
        record = self.record
        # Contiguous entries, oldest first; the sweep yields one tree each.
        entries = record.dindex.versions_in(self.start, self.end)
        if not entries:
            return
        sweep = self.store.repository.reconstruct_range(
            record, entries[0].number, entries[-1].number,
            newest_first=self.newest_first,
        )
        sweep = self.tracer.traced_iter("DocHistory", sweep,
                                        document=record.name)
        ordered = reversed(entries) if self.newest_first else entries
        for entry, (_number, tree, _xids) in zip(ordered, sweep):
            yield entry, tree

    def _result(self, entry, tree):
        return TEID(self.record.doc_id, tree.xid, entry.timestamp)


class ElementHistory:
    """All versions of one element valid in ``[start, end)``.

    Versions in which the element does not exist (before its creation or
    after its deletion) are skipped; the returned TEIDs all share the
    input EID, as the paper specifies.  Only the matched subtree is copied
    per version, never the whole document.
    """

    def __init__(self, store, eid, start, end):
        self.store = store
        self.eid = eid
        self.start = start
        self.end = end

    def run(self):
        return list(self)

    def teids(self):
        """Matching TEIDs only — no per-version subtree copies."""
        return [teid for teid, _node in self._matches(copy=False)]

    def __iter__(self):
        return self._matches(copy=True)

    def _matches(self, copy):
        record = self.store.record(self.eid.doc_id)
        entries = record.dindex.versions_in(self.start, self.end)
        if not entries:
            return
        reader = ChainReader(self.store.repository, record)
        sweep = reader.cursor(self.eid.xid).sweep(
            entries[-1].number, entries[0].number
        )
        for entry, (_number, node, _xids) in zip(reversed(entries), sweep):
            if node is not None:
                teid = TEID(self.eid.doc_id, self.eid.xid, entry.timestamp)
                yield teid, (node.copy() if copy else node)
