"""Snapshot placement policies: when to materialize a full version.

The paper's base configuration stores snapshots "every k-th version"
(``Repository(snapshot_interval=k)``).  A fixed interval bounds the reconstruction
chain in *delta count*, but the actual read cost is dominated by delta
*bytes* — a burst of large edits can make a k-step chain arbitrarily
expensive while a quiet document wastes snapshot space it never needs.

Policies decide, right after each commit, whether the new version should
also be materialized as a snapshot:

* :class:`IntervalSnapshotPolicy` — the classic fixed ``k`` (what the
  ``snapshot_interval=k`` constructor shorthand builds; the E7
  space-accounting experiments use it);
* :class:`AdaptiveSnapshotPolicy` — materialize whenever the delta bytes
  accumulated since the nearest anchor at-or-before the new version exceed
  a threshold.  This bounds the worst-case reconstruction cost (in bytes)
  of *any* version between two anchors by the threshold plus one delta,
  and amortizes snapshot space against actual write volume instead of
  version count.

A :class:`~repro.storage.repository.Repository` holds exactly one policy
and consults it in ``commit_version`` (or, inside a commit group, at
``end_group``); ``snapshot_interval`` wins over an explicit policy.
"""

from __future__ import annotations


class SnapshotPolicy:
    """Base policy: never materialize (delta-only storage)."""

    name = "none"

    def should_snapshot(self, record, entry):
        """Return True to materialize ``entry`` (the just-committed
        version of ``record``) as a full snapshot."""
        return False

    def describe(self):
        return self.name


class IntervalSnapshotPolicy(SnapshotPolicy):
    """Materialize every ``interval``-th version (the paper's scheme)."""

    name = "interval"

    def __init__(self, interval):
        if interval is None or interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval!r}")
        self.interval = interval

    def should_snapshot(self, record, entry):
        return entry.number % self.interval == 0

    def describe(self):
        return f"interval({self.interval})"


class AdaptiveSnapshotPolicy(SnapshotPolicy):
    """Materialize when accumulated delta bytes exceed ``max_delta_bytes``.

    After committing version *n*, the policy measures the stored bytes of
    the delta chain from the nearest snapshot at-or-before *n* (or from
    version 1 when no snapshot exists yet) up to *n*.  When that chain
    exceeds the threshold, *n* is materialized, resetting the accumulation.

    The guarantee: between consecutive anchors the forward chain never
    costs more than ``max_delta_bytes`` plus the one delta that tripped
    the threshold, so worst-case reconstruction cost is bounded in bytes
    rather than in version count.  Space overhead tracks write volume —
    documents that barely change never pay for snapshots.
    """

    name = "adaptive"

    def __init__(self, max_delta_bytes):
        if max_delta_bytes <= 0:
            raise ValueError(
                f"max_delta_bytes must be positive, got {max_delta_bytes!r}"
            )
        self.max_delta_bytes = max_delta_bytes

    def should_snapshot(self, record, entry):
        dindex = record.dindex
        anchor = dindex.nearest_snapshot_at_or_before(entry.number)
        base = anchor.number if anchor is not None else 1
        accumulated = dindex.delta_bytes_between(base, entry.number)
        return accumulated > self.max_delta_bytes

    def describe(self):
        return f"adaptive({self.max_delta_bytes}B)"
