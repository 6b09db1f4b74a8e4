"""TPatternScan and TPatternScanAll (Sections 7.3.1–7.3.2).

``TPatternScan(forest, pattern, t)`` is PatternScan over the snapshot valid
at time *t*: identical join, but posting lists come from ``FTI_lookup_T``.

``TPatternScanAll(forest, pattern)`` matches against *all* versions: posting
lists come from ``FTI_lookup_H`` and the join additionally requires temporal
overlap — "words in the pattern valid at same time, which actually implies
that this is a temporal join".  Each result carries the maximal validity
interval during which the combination held.

Both operators stream: ``run()`` and the ``teids*()`` accessors return lazy
iterators over the structural join, the document restriction is pushed into
the FTI lookups, and per-operator join work is counted in
:attr:`join_stats`.  (``teids_per_version()`` keeps its sorted output
contract, so it drains the join before yielding.)

Neither scan materializes documents itself; rows that reach content-bearing
expressions are resolved downstream through the executor's
:class:`~repro.query.values.SnapshotCache`: one subtree cursor per bound
element (:mod:`repro.storage.cursor`) that starts at the stored anchor the
repository's cost model picks and steps from version to version, applying
only the edit operations that land under that element.
"""

from __future__ import annotations

from ..index.stats import JoinStats
from ..obs import NULL_TRACER
from ..pattern.structjoin import structural_join


class TPatternScan:
    """Snapshot pattern scan at time ``ts``; outputs TEIDs at that time."""

    def __init__(self, fti, pattern, ts, docs=None, store=None, stats=None,
                 tracer=None):
        self.fti = fti
        self.pattern = pattern
        self.ts = ts
        self.docs = set(docs) if docs is not None else None
        self.store = store
        self.join_stats = stats if stats is not None else JoinStats()
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def run(self):
        """Iterator of matches at the queried instant."""
        with self.tracer.span("FTILookup",
                              terms=len(self.pattern.nodes())):
            posting_lists = [
                self.fti.lookup_t(node.term, self.ts, docs=self.docs)
                for node in self.pattern.nodes()
            ]
        return structural_join(self.pattern, posting_lists, docs=self.docs,
                               stats=self.join_stats, tracer=self.tracer)

    def teids(self):
        """TEIDs of the projected node (lazy); timestamps are normalized to
        the containing version's commit time when a store is available."""
        return _normalized_teids(
            self.run(), self.pattern, self.store, at=self.ts
        )


class TPatternScanAll:
    """Pattern scan over the whole history; a temporal multiway join.

    ``window`` (an optional ``(start, end)`` pair, from the planner's
    time-range pushdown) bounds the posting retrieval itself: lists come
    from ``FTI_lookup_W`` instead of ``FTI_lookup_H``, so postings outside
    the window are never scanned.  This is lossless for windowed
    consumers — a match interval is the intersection of its postings'
    intervals, so a match overlapping the window only ever combines
    postings that each overlap the window themselves.  Unwindowed
    consumers (``teids()`` over full history) must leave it ``None``.
    """

    def __init__(self, fti, pattern, docs=None, store=None, stats=None,
                 tracer=None, window=None):
        self.fti = fti
        self.pattern = pattern
        self.docs = set(docs) if docs is not None else None
        self.store = store
        self.join_stats = stats if stats is not None else JoinStats()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.window = window if window is None else tuple(window)

    def run(self):
        """Iterator of matches with their maximal validity intervals."""
        windowed = self.window is not None
        with self.tracer.span("FTILookup",
                              terms=len(self.pattern.nodes()),
                              windowed=windowed):
            if windowed:
                start, end = self.window
                posting_lists = [
                    self.fti.lookup_w(node.term, start, end, docs=self.docs)
                    for node in self.pattern.nodes()
                ]
            else:
                posting_lists = [
                    self.fti.lookup_h(node.term, docs=self.docs)
                    for node in self.pattern.nodes()
                ]
        return structural_join(self.pattern, posting_lists, docs=self.docs,
                               stats=self.join_stats, tracer=self.tracer)

    def teids(self):
        """One TEID per match interval, at the interval's first version
        (lazy).  As in :meth:`TPatternScan.teids`, timestamps are normalized
        to the containing version's commit time when a store is available —
        history scans and snapshot scans hand out the same canonical TEIDs.
        """
        return _normalized_teids(self.run(), self.pattern, self.store)

    def teids_per_version(self):
        """Expand each match interval into one TEID per document version it
        covers (requires a store for the delta indexes).

        A match interval ``[t1, t2)`` may span several commits of the
        document (commits that did not disturb the matched words); queries
        like the price history (Q3) want one row per *version*, so this is
        the expansion the executor uses.  Output is sorted, so the full
        match set is drained before the first TEID is yielded.
        """
        if self.store is None:
            raise ValueError("teids_per_version() requires a store")
        return self._expanded_teids()

    def _expanded_teids(self):
        seen = set()
        out = []
        for match in self.run():
            dindex = self.store.delta_index(match.doc_id)
            for entry in dindex.versions_in(
                match.interval.start, match.interval.end
            ):
                teid = match.teid(self.pattern, at=entry.timestamp)
                if teid not in seen:
                    seen.add(teid)
                    out.append(teid)
        out.sort()
        yield from out


def _normalized_teids(matches, pattern, store, at=None):
    """Project each match to a TEID, normalizing (or dropping) through the
    store's delta index when one is available — shared by both scan
    variants so they treat TEIDs identically."""
    for match in matches:
        teid = match.teid(pattern, at=at)
        if store is not None:
            normalized = store.normalize_teid(teid)
            if normalized is None:
                continue
            teid = normalized
        yield teid
