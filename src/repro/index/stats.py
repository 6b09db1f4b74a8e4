"""Shared index instrumentation.

Every index keeps an :class:`IndexStats`; the E6 benchmark compares the
three FTI alternatives on exactly these numbers (posting counts, stored
bytes, per-commit update work, and per-query scan work).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class IndexStats:
    """Counters an index maintains about itself."""

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

    def removed(self, estimated_bytes):
        self.postings -= 1
        self.bytes -= estimated_bytes
        self.update_ops += 1

    def scanned(self, count, returned=None):
        self.lookups += 1
        self.postings_scanned += count
        if returned is not None:
            self.postings_returned += returned

    @property
    def scan_efficiency(self):
        """Returned-to-scanned ratio (1.0 = every touched entry was a hit).

        Only meaningful for indexes whose lookups report ``returned``; the
        E-series benchmarks compare this across index layouts.
        """
        if not self.postings_scanned:
            return 1.0
        return self.postings_returned / self.postings_scanned

    def as_dict(self):
        return {
            "postings": self.postings,
            "bytes": self.bytes,
            "postings_opened": self.postings_opened,
            "postings_closed": self.postings_closed,
            "update_ops": self.update_ops,
            "lookups": self.lookups,
            "postings_scanned": self.postings_scanned,
            "postings_returned": self.postings_returned,
            "scan_efficiency": round(self.scan_efficiency, 3),
        }

    def snapshot(self):
        """Raw counters for the :class:`~repro.obs.MetricsRegistry` delta
        protocol — cumulative values only, no derived ratios.  ``postings``
        and ``bytes`` are gauges (they may shrink); everything else is
        monotone."""
        return {
            "postings": self.postings,
            "bytes": self.bytes,
            "postings_opened": self.postings_opened,
            "postings_closed": self.postings_closed,
            "update_ops": self.update_ops,
            "lookups": self.lookups,
            "postings_scanned": self.postings_scanned,
            "postings_returned": self.postings_returned,
        }


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
    ``probe_savings`` is the per-run estimate of what the edge indexes
    saved without re-running the baseline.
    """

    joins: int = 0               # structural_join invocations
    docs_considered: int = 0     # documents surviving the doc intersection
    candidates_probed: int = 0   # postings tested (hash path)
    candidates_scanned: int = 0  # postings a full scan would have tested
    intervals_pruned: int = 0    # candidates skipped by start-sorted bisect
    matches_emitted: int = 0     # deduplicated matches yielded

    @property
    def probe_savings(self):
        """Scanned-to-probed ratio (>1.0 = the hash edges saved work)."""
        if not self.candidates_probed:
            return 1.0 if not self.candidates_scanned else float("inf")
        return self.candidates_scanned / self.candidates_probed

    def as_dict(self):
        return {
            "joins": self.joins,
            "docs_considered": self.docs_considered,
            "candidates_probed": self.candidates_probed,
            "candidates_scanned": self.candidates_scanned,
            "intervals_pruned": self.intervals_pruned,
            "matches_emitted": self.matches_emitted,
            "probe_savings": round(self.probe_savings, 3)
            if self.probe_savings != float("inf")
            else "inf",
        }

    def snapshot(self):
        """Raw counters for the registry delta protocol (all monotone)."""
        return {
            "joins": self.joins,
            "docs_considered": self.docs_considered,
            "candidates_probed": self.candidates_probed,
            "candidates_scanned": self.candidates_scanned,
            "intervals_pruned": self.intervals_pruned,
            "matches_emitted": self.matches_emitted,
        }

    def reset(self):
        """Zero everything (legacy).  Prefer registry deltas — resetting a
        shared stats object mid-flight skews every other consumer's
        accounting."""
        self.joins = 0
        self.docs_considered = 0
        self.candidates_probed = 0
        self.candidates_scanned = 0
        self.intervals_pruned = 0
        self.matches_emitted = 0
