"""The multiway structural (and temporal) join over posting lists.

This is the engine shared by PatternScan, TPatternScan, and
TPatternScanAll (Sections 7.3.1–7.3.2).  Given one posting list per pattern
node, it joins on:

* document identifier,
* the structural relationship of every pattern edge (isParentOf /
  isAscendantOf / containment), decided in O(1) from the ancestor-XID
  information each posting carries,
* time — combinations must share a non-empty validity intersection (for the
  snapshot variant the lists are pre-filtered to one instant, so this is
  trivially satisfied; for the history variant this intersection is what
  makes it "actually a temporal join").

The paper evaluates the pattern in fixed pre-order with a backtracking
nested-loop scan per node (kept as the reference in
``benchmarks/ablation/joins.py``, which the equivalence tests and E1b/E2b
compare against).  This engine improves on it three ways while producing
the identical match *set*:

**Selectivity ordering.**  Within each document, pattern nodes are bound
smallest-posting-list-first, constrained so a child is only bound after its
pattern parent (the hash edge indexes below need the parent side fixed).
Rare terms prune the search tree before common ones fan it out.

**Hash-accelerated edges.**  Per document, each non-root node's list is
bucketed by the XIDs that could satisfy its edge: by ``parent_xid`` for
``child`` edges, by every ancestor XID for ``descendant``, and by self plus
ancestors for ``contains``.  Finding the candidates under a bound parent is
a dict probe instead of a scan of the whole list.  Buckets are kept sorted
by interval start, so temporal-overlap pruning can ``bisect`` past every
candidate born after the current combination's validity ended (the
TPatternScanAll case, where lists span the whole history).

**Streaming.**  :func:`structural_join` returns a lazy iterator; matches
are deduplicated and yielded as found, so a consumer applying LIMIT-style
early exit never pays for the matches it does not take.

:class:`~repro.index.stats.JoinStats` counts documents considered,
candidates probed vs. scanned, intervals pruned, and matches emitted.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from ..clock import Interval
from ..index.stats import JoinStats
from ..model.identifiers import TEID


@dataclass(frozen=True)
class PatternMatch:
    """One match of the whole pattern inside one document."""

    doc_id: int
    interval: Interval
    postings: tuple  # one per pattern node, pre-order

    def teid(self, pattern, at=None):
        """TEID of the projected node.

        ``at`` chooses the timestamp (must lie in the validity interval);
        the default is the interval start — the commit time at which this
        match first became true, which is always a valid version instant.
        """
        posting = self.postings[pattern.projected_index()]
        ts = self.interval.start if at is None else at
        return TEID(self.doc_id, posting.xid, ts)

    def xids(self):
        return tuple(p.xid for p in self.postings)


def structural_join(pattern, posting_lists, docs=None, stats=None,
                    tracer=None):
    """Join the posting lists of all pattern nodes; yields matches lazily.

    ``posting_lists[i]`` holds the candidates for pre-order node ``i``.
    ``docs`` optionally names the requested document set (enables the
    single-document fast path that skips per-document grouping).  ``stats``
    is a :class:`~repro.index.stats.JoinStats` to accumulate into;
    ``tracer`` (a :class:`~repro.obs.Tracer`) charges the join's work to a
    ``StructuralJoin`` span, one row per emitted match.
    """
    nodes = pattern.nodes()
    if len(posting_lists) != len(nodes):
        raise ValueError("one posting list per pattern node required")
    if stats is None:
        stats = JoinStats()
    matches = _join_iter(pattern, posting_lists, docs, stats)
    if tracer is not None and tracer.enabled:
        matches = tracer.traced_iter("StructuralJoin", matches,
                                     terms=len(nodes))
    return matches


def _join_iter(pattern, posting_lists, docs, stats):
    stats.joins += 1
    if any(not lst for lst in posting_lists):
        return
    parent_of = pattern.parent_map()
    per_doc = _partition_by_doc(posting_lists, docs)
    for doc_id in sorted(per_doc):
        stats.docs_considered += 1
        seen = set()  # set semantics; scoped per doc (matches can't collide across docs)
        for match in _join_one_doc(doc_id, per_doc[doc_id], parent_of,
                                   stats):
            key = (match.xids(), match.interval)
            if key not in seen:
                seen.add(key)
                stats.matches_emitted += 1
                yield match


def _partition_by_doc(posting_lists, docs):
    """``{doc_id: [per-node posting lists]}`` for every document that has
    candidates in *all* lists.

    Grouping starts from the smallest list and intersects incrementally:
    every later list only buckets postings of documents still alive, so a
    rare term cheapens the grouping of the common ones.  When a single
    document is requested, grouping is skipped entirely.
    """
    n = len(posting_lists)
    if docs is not None and len(docs) == 1:
        (only,) = docs
        lists = [
            [p for p in lst if p.doc_id == only] for lst in posting_lists
        ]
        if any(not lst for lst in lists):
            return {}
        return {only: lists}

    order = sorted(range(n), key=lambda i: len(posting_lists[i]))
    grouped = [None] * n
    alive = None
    for i in order:
        groups = {}
        for posting in posting_lists[i]:
            if docs is not None and posting.doc_id not in docs:
                continue
            if alive is not None and posting.doc_id not in alive:
                continue
            groups.setdefault(posting.doc_id, []).append(posting)
        if not groups:
            return {}
        grouped[i] = groups
        alive = groups.keys()
    return {
        doc_id: [grouped[i][doc_id] for i in range(n)] for doc_id in alive
    }


def _selectivity_order(lists, parent_of):
    """Node binding order: smallest list first, parents before children."""
    n = len(lists)
    placed = set()
    available = [i for i in range(n) if i not in parent_of]
    order = []
    while available:
        nxt = min(available, key=lambda i: (len(lists[i]), i))
        available.remove(nxt)
        placed.add(nxt)
        order.append(nxt)
        for child, (parent, _rel) in parent_of.items():
            if parent == nxt and child not in placed:
                available.append(child)
    return order


def _edge_index(postings, relationship):
    """Bucket ``postings`` by the parent XIDs that satisfy ``relationship``.

    Returns ``{xid: (bucket, starts)}`` with each bucket sorted by interval
    start (``starts`` is the parallel key list the temporal prune bisects).
    """
    buckets = {}
    for posting in sorted(postings, key=_start_of):
        if relationship == "child":
            keys = (posting.parent_xid(),)
        elif relationship == "descendant":
            keys = posting.ancestors
        elif relationship == "contains":
            keys = (posting.xid,) + tuple(posting.ancestors)
        else:
            raise ValueError(f"unknown relationship {relationship!r}")
        for key in keys:
            buckets.setdefault(key, []).append(posting)
    return {
        key: (bucket, [p.start for p in bucket])
        for key, bucket in buckets.items()
    }


def _start_of(posting):
    return posting.start


def _join_one_doc(doc_id, lists, parent_of, stats):
    n = len(lists)
    order = _selectivity_order(lists, parent_of)
    edge_indexes = {}  # node index -> {xid: (bucket, starts)}
    bound = [None] * n

    def candidates_for(node, interval):
        link = parent_of.get(node)
        stats.candidates_scanned += len(lists[node])
        if link is None:
            return lists[node]
        index = edge_indexes.get(node)
        if index is None:
            index = edge_indexes[node] = _edge_index(lists[node], link[1])
        entry = index.get(bound[link[0]].xid)
        if entry is None:
            return ()
        bucket, starts = entry
        if interval is None:
            return bucket
        # Start-sorted prune: candidates born at or after the current
        # combination's end can never overlap it.
        cut = bisect_left(starts, interval.end)
        stats.intervals_pruned += len(bucket) - cut
        return bucket[:cut] if cut < len(bucket) else bucket

    yield from _extend(0, None, doc_id, order, bound, candidates_for, stats)


def _extend(position, interval, doc_id, order, bound, candidates_for, stats):
    """Bind ``order[position:]`` under ``interval``, yielding every match.
    A module function, not a closure that calls itself: that closure would
    be a reference cycle holding every posting the join bound."""
    if position == len(order):
        yield PatternMatch(doc_id, interval, tuple(bound))
        return
    node = order[position]
    for posting in candidates_for(node, interval):
        stats.candidates_probed += 1
        narrowed = _intersect(interval, posting)
        if narrowed is None:
            continue
        bound[node] = posting
        yield from _extend(position + 1, narrowed, doc_id, order, bound,
                           candidates_for, stats)
    bound[node] = None


def _intersect(interval, posting):
    candidate = Interval(posting.start, posting.end)
    if interval is None:
        return candidate
    return interval.intersect(candidate)
