"""The non-temporal PatternScan operator (after Xyleme [2]).

Algorithm (Section 7.3.1):

1. for every word in the pattern, ``postings = FTI_lookup(word)``,
2. join the posting lists on document identifier and the pattern's
   isParentOf/isAscendantOf relationships.

Operates on the *current* snapshot only; the temporal variants in
:mod:`repro.operators.tpatternscan` swap in the temporal FTI lookups.

``run()`` and ``teids()`` return lazy iterators: the structural join
streams matches as it finds them, so consumers that stop early (LIMIT,
existence checks) never pay for the rest of the match set.  The document
restriction is pushed into the FTI lookups, so restricted scans never
materialize out-of-scope postings.  Per-operator join work is counted in
:attr:`join_stats` (a :class:`~repro.index.stats.JoinStats`).
"""

from __future__ import annotations

from ..index.stats import JoinStats
from ..obs import NULL_TRACER
from ..pattern.structjoin import structural_join


class PatternScan:
    """Match ``pattern`` against all currently valid documents."""

    def __init__(self, fti, pattern, docs=None, stats=None, tracer=None):
        """``docs`` optionally restricts matching to a set of doc_ids
        (the operator's forest argument; ``None`` means the whole base).
        ``stats`` is a shared :class:`JoinStats` to accumulate into."""
        self.fti = fti
        self.pattern = pattern
        self.docs = set(docs) if docs is not None else None
        self.join_stats = stats if stats is not None else JoinStats()
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def run(self):
        """Iterator of :class:`~repro.pattern.structjoin.PatternMatch`."""
        with self.tracer.span("FTILookup",
                              terms=len(self.pattern.nodes())):
            posting_lists = [
                self.fti.lookup(node.term, docs=self.docs)
                for node in self.pattern.nodes()
            ]
        return structural_join(self.pattern, posting_lists, docs=self.docs,
                               stats=self.join_stats, tracer=self.tracer)

    def teids(self):
        """TEIDs of the projected pattern node, one per match (lazy)."""
        return (m.teid(self.pattern) for m in self.run())
