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
:attr:`join_stats`.  ``project`` maps matches to element versions — the
step TXQL's index scans bind through — and ``teids()`` /
``teids_per_version()`` are views of it.  (The history projection keeps its
sorted output contract, so it drains the join before yielding.)

Neither scan materializes documents itself; rows that reach content-bearing
expressions are resolved downstream through the executor's
:class:`~repro.query.values.SnapshotCache`: one subtree cursor per bound
element (:mod:`repro.storage.cursor`) that starts at the stored anchor the
repository's cost model picks and steps from version to version, applying
only the edit operations that land under that element.
"""

from __future__ import annotations

from ..clock import BEFORE_TIME, UNTIL_CHANGED
from ..index.stats import JoinStats
from ..model.identifiers import TEID
from ..obs import NULL_TRACER
from ..pattern.structjoin import structural_join


class TPatternScan:
    """Snapshot pattern scan at time ``ts``; outputs TEIDs at that time."""

    def __init__(self, fti, pattern, ts, store, docs=None, stats=None,
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

    def project(self, matches):
        """``(TEID, validity interval)`` of each match's projected element
        in the document version valid at ``ts`` (lazy), each pair once, in
        first-emission order; the TEID carries that version's commit time.

        That order is *canonical* — independent of which predicates the
        optimizer pushed into the pattern — because the join always binds
        the FROM chain in chain order (parents before children), so
        pushdown branches below the projected node can only filter the
        projected sequence, never reorder it; and at a snapshot instant
        every candidate interval contains the instant, so whether a branch
        accepts a projected element depends only on the element itself, not
        on which enumeration step reached it.  Plans pushing different
        predicate subsets therefore produce byte-identical output, while a
        LIMIT still stops the join mid-flight."""
        projected = self.pattern.projected_index()
        seen = set()
        for match in matches:
            dindex = self.store.delta_index(match.doc_id)
            entry = dindex.version_at(self.ts)
            if entry is None:
                continue
            teid = TEID(match.doc_id, match.postings[projected].xid,
                        entry.timestamp)
            if teid not in seen:
                seen.add(teid)
                yield teid, dindex.validity(entry)

    def teids(self):
        """TEIDs of the projected node (lazy), as :meth:`project` has them."""
        return (teid for teid, _ in self.project(self.run()))


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

    def __init__(self, fti, pattern, store, docs=None, stats=None,
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

    def project(self, matches, start, end):
        """``(TEID, validity interval)`` of each document version a match
        interval covers within ``[start, end)``, for the match's projected
        element: each version once, sorted by ``(doc_id, timestamp, xid)``.

        A match interval ``[t1, t2)`` may span several commits of the
        document (commits that did not disturb the matched words); queries
        like the price history (Q3) want one row per *version*.  Clipping
        to ``[start, end)`` keeps versions outside a time window from ever
        being reconstructed (the Section 8 delta-read reduction), and keeps
        a pinned session from binding versions committed after its pin.
        A version may satisfy the pattern through several postings of one
        element (or several match intervals), so pairs are deduplicated;
        the sort drains the join before the first pair is yielded."""
        projected = self.pattern.projected_index()
        found = {}
        for match in matches:
            low = max(match.interval.start, start)
            high = min(match.interval.end, end)
            if low >= high:
                continue
            dindex = self.store.delta_index(match.doc_id)
            xid = match.postings[projected].xid
            for entry in dindex.versions_in(low, high):
                teid = TEID(match.doc_id, xid, entry.timestamp)
                if teid not in found:
                    found[teid] = dindex.validity(entry)
        for teid in sorted(found, key=lambda t: (t.doc_id, t.timestamp,
                                                 t.xid)):
            yield teid, found[teid]

    def teids(self):
        """One TEID per match interval, at the interval's first version
        (lazy).  An interval starts where its latest posting opened: at a
        commit of the document, so the TEID is canonical as it stands —
        the same one :meth:`TPatternScan.teids` hands out for that
        version."""
        return (match.teid(self.pattern) for match in self.run())

    def teids_per_version(self):
        """One TEID per document version a match interval covers, sorted
        (:meth:`project` over the whole history)."""
        return (teid for teid, _ in
                self.project(self.run(), BEFORE_TIME, UNTIL_CHANGED))
