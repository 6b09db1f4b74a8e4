"""Shared index instrumentation.

Every index keeps an :class:`IndexStats`; the E6 benchmark compares the
three FTI alternatives on exactly these numbers (posting counts, stored
bytes, per-commit update work, and per-query scan work).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class IndexStats:
    """Counters an index maintains about itself, read field by field by
    the :class:`~repro.obs.MetricsRegistry`: ``postings`` and ``bytes``
    are gauges (they may shrink), everything else is monotone."""

    postings: int = 0          # live entries stored right now
    bytes: int = 0             # estimated stored size
    postings_opened: int = 0   # lifetime total of insertions
    postings_closed: int = 0
    update_ops: int = 0        # index mutations performed by commits
    lookups: int = 0           # query-side calls
    postings_scanned: int = 0  # entries touched while answering queries
    postings_returned: int = 0  # entries that actually made the result

    def opened(self, estimated_bytes, count=1):
        """``count`` entries of ``estimated_bytes`` in all were stored."""
        self.postings += count
        self.bytes += estimated_bytes
        self.postings_opened += count
        self.update_ops += count

    def closed(self, count=1):
        self.postings_closed += count
        self.update_ops += count

    def scanned(self, count, returned=None):
        self.lookups += 1
        self.postings_scanned += count
        if returned is not None:
            self.postings_returned += returned


@dataclass
class JoinStats:
    """Counters the structural-temporal join maintains about itself.

    Lives alongside :class:`IndexStats`: the FTI stats price posting
    *retrieval*, these price the *join* over the retrieved lists.  The
    benchmarks report both (E1/E2).

    ``candidates_probed`` counts postings the engine actually tested
    against a bound parent (after hash-bucket lookup and start-sorted
    interval pruning); ``candidates_scanned`` counts the postings a
    nested-loop scan would have touched at the same extension points, so
    their ratio estimates what the edge indexes saved without re-running
    the baseline.
    """

    joins: int = 0               # structural_join invocations
    docs_considered: int = 0     # documents surviving the doc intersection
    candidates_probed: int = 0   # postings tested (hash path)
    candidates_scanned: int = 0  # postings a full scan would have tested
    intervals_pruned: int = 0    # candidates skipped by start-sorted bisect
    matches_emitted: int = 0     # deduplicated matches yielded
