"""Physical document repository: current version + delta chain + snapshots.

The repository owns the stored versions, the counters of what is read of
them, and the cost model that ranks starting points.  The paper's
``Reconstruct`` (Section 7.3.3) walks *backwards* from the current version
or a snapshot at-or-after the target; because completed deltas are usable
in both directions (Section 7.1, after Marian et al.), the choice here is
**bidirectional and cost-aware**: for a requested version
:meth:`Repository.stored_anchor` enumerates the nearest snapshot
at-or-before, the nearest snapshot at-or-after and the current version,
prices each chain from the per-entry ``delta_bytes`` accounting in the
:class:`DeltaIndex`, and names the cheapest.

The walk itself — read the anchor, apply stored edit scripts forward or
inverted, one version at a time — lives in :mod:`repro.storage.cursor`
and nowhere else.  :meth:`Repository.reconstruct` positions a fresh
whole-document cursor at one version; :meth:`Repository.reconstruct_range`
sweeps one through a version range (one anchor read plus one delta per
further version, the batched path behind ``DocHistory``).  What each walk
chose lands in :attr:`Repository.anchor_stats`; the paper's backward-only
rule is the reference in ``benchmarks/ablation/reconstruct.py``.

Deltas and trees are kept as Python objects; their recorded byte sizes
carry the cost model.  ``read_*`` methods always account the read before
returning.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field

from ..errors import (
    DocumentDeletedError,
    NoSuchDocumentError,
    NoSuchVersionError,
    StorageError,
)
from ..model.identifiers import XIDAllocator
from ..xmlcore.serializer import serialize
from .cursor import ChainReader
from .deltaindex import DeltaIndex, VersionEntry
from .snapshots import IntervalSnapshotPolicy, SnapshotPolicy

#: Cost-model weights, the classic disk split: a seek per logical read, a
#: page of transfer per read plus the object bytes.  Logical, not measured —
#: the estimate only needs to *rank* anchors consistently.
_SEEK_MS = 8.0
_PAGE_MS = 0.1
_PAGE_BYTES = 4096

#: Anchor kinds, in tie-break preference order (lower rank wins a cost tie;
#: backward is the paper's default direction).
_ANCHOR_RANK = {"snapshot_after": 1, "snapshot_before": 2, "current": 3}


@dataclass(frozen=True)
class Anchor:
    """One candidate starting point for a reconstruction."""

    kind: str        # "snapshot_before" | "snapshot_after" | "current"
    number: int      # version the anchor materializes
    anchor_bytes: int  # bytes read to materialize it (one logical read)
    #: For ``"current"`` anchors: the :class:`CurrentState` captured when the
    #: candidate was enumerated, so materialization reads the same tree the
    #: cost ranking priced even if a commit lands in between.
    payload: object = None


@dataclass
class AnchorStats:
    """What the walks over stored chains chose: which stored version each
    started over from, and which way each then went.

    Counted per cursor movement (:mod:`repro.storage.cursor`), so a sweep
    adds one chain per version it steps to.  The three anchor kinds are
    fixed counters from the start: :meth:`snapshot` is read without the
    repository's lock while reader threads count."""

    forward_chains: int = 0
    backward_chains: int = 0
    exact_anchors: int = 0  # anchor == target, no deltas applied
    range_scans: int = 0    # cursor sweeps (reconstruct_range, ElementHistory)
    by_anchor: dict = field(  # kind -> walks started there
        default_factory=lambda: dict.fromkeys(sorted(_ANCHOR_RANK), 0)
    )

    def as_dict(self):
        return {
            "forward_chains": self.forward_chains,
            "backward_chains": self.backward_chains,
            "exact_anchors": self.exact_anchors,
            "range_scans": self.range_scans,
            "by_anchor": dict(self.by_anchor),
        }

    def snapshot(self):
        """Flat counters for the registry delta protocol; the per-kind
        choice counts flatten to ``by_anchor.<kind>`` keys."""
        out = self.as_dict()
        for kind, count in out.pop("by_anchor").items():
            out[f"by_anchor.{kind}"] = count
        return out


@dataclass(frozen=True)
class CurrentState:
    """The current version of one document as a single immutable value.

    Readers running concurrently with the committing writer grab
    ``record.current`` **once** and work from that object; the writer
    publishes a new current version by swapping in a fresh ``CurrentState``
    (one atomic attribute assignment), so a reader can never observe the
    new version number paired with the old tree or size."""

    number: int    # version number this state materializes
    root: object   # the complete current tree (kept even after delete)
    nbytes: int    # serialized size (the cost model's transfer volume)


@dataclass
class DocumentRecord:
    """Everything the repository keeps for one document."""

    doc_id: int
    name: str
    allocator: XIDAllocator = field(default_factory=XIDAllocator)
    dindex: DeltaIndex = field(default_factory=DeltaIndex)
    #: The atomically swapped :class:`CurrentState` (None before version 1).
    current: object = None
    deltas: dict = field(default_factory=dict)  # version number -> EditScript
    snapshots: dict = field(default_factory=dict)  # version number -> tree

    @property
    def is_deleted(self):
        return self.dindex.is_deleted

    # One-field views of the atomic state; each property performs one read
    # of ``self.current``, so an individual view is always internally
    # consistent (callers needing several fields together should take
    # ``record.current`` themselves).

    @property
    def current_root(self):
        state = self.current
        return state.root if state is not None else None

    @property
    def current_bytes(self):
        state = self.current
        return state.nbytes if state is not None else 0

    def set_current(self, number, root, nbytes):
        """Publish a new current version (single atomic swap)."""
        self.current = CurrentState(number, root, nbytes)


class Repository:
    """Stores document records and implements version reconstruction."""

    def __init__(self, snapshot_interval=None, snapshot_policy=None):
        """``snapshot_interval=k`` materializes a full snapshot every k-th
        version: shorthand for ``snapshot_policy=IntervalSnapshotPolicy(k)``,
        and it wins when both are given.  ``snapshot_policy`` is any
        :class:`~repro.storage.snapshots.SnapshotPolicy` (e.g. the adaptive
        delta-bytes policy); with neither there are no intermediate
        snapshots, the paper's base configuration."""
        if snapshot_interval:
            snapshot_policy = IntervalSnapshotPolicy(snapshot_interval)
        elif snapshot_policy is None:
            snapshot_policy = SnapshotPolicy()
        self.snapshot_policy = snapshot_policy
        self._records = {}
        self._next_doc_id = 1
        self._group_pending = None  # [(record, entry)] while a group is open
        self.delta_reads = 0  # logical delta-read counter (paper's metric)
        self.snapshot_reads = 0
        self.current_reads = 0
        # What cursors (storage/cursor.py) did: cursors started on a stored
        # version, edit operations applied under the bound subtree and
        # skipped outside it, and whole-document reconstructions a
        # boundary-crossing move forced.
        self.subtree_reads = 0
        self.ops_applied = 0
        self.ops_skipped = 0
        self.subtree_fallbacks = 0
        self.anchor_stats = AnchorStats()
        # Read counters and anchor stats are bumped by every concurrent
        # reader session; one lock keeps the increments exact.
        self._stats_lock = threading.Lock()

    # -- record management ------------------------------------------------------

    def create(self, name):
        return self.adopt(DocumentRecord(self._next_doc_id, name))

    def adopt(self, record):
        """Register ``record`` under the doc id it already carries (an
        archived or journaled document); :meth:`create` numbers past it."""
        if record.doc_id in self._records:
            raise StorageError(f"duplicate document id {record.doc_id}")
        self._records[record.doc_id] = record
        self._next_doc_id = max(self._next_doc_id, record.doc_id + 1)
        return record

    def find(self, doc_id):
        """The record for ``doc_id``, or ``None`` when there is none."""
        return self._records.get(doc_id)

    def record(self, doc_id):
        try:
            return self._records[doc_id]
        except KeyError:
            raise NoSuchDocumentError(f"unknown document id {doc_id}") from None

    def records(self):
        return list(self._records.values())

    # -- commits ------------------------------------------------------------------

    def commit_initial(self, record, root, ts):
        """Store version 1 of a new document."""
        nbytes = _tree_bytes(root)
        record.dindex.append(VersionEntry(1, ts))
        record.set_current(1, root, nbytes)

    def commit_version(self, record, new_root, script, ts):
        """Store a new version: delta behind, new tree becomes current."""
        old_number = record.dindex.current_number

        # The completed delta for the now-previous version.
        record.dindex.record_delta_bytes(old_number, script.size_bytes())
        record.deltas[old_number] = script

        new_number = old_number + 1
        entry = VersionEntry(new_number, ts)
        new_bytes = _tree_bytes(new_root)
        # Ordering matters for lock-free readers: the delta for the old
        # version is already in place (above), the delta-index entry appears
        # next, and the new current state is published last — a reader that
        # still sees the old CurrentState can roll it forward through the
        # freshly stored delta, and one that sees the new state finds every
        # structure it references already written.
        record.dindex.append(entry)
        record.set_current(new_number, new_root, new_bytes)

        if self._group_pending is not None:
            # Inside a commit group the snapshot-placement decision is
            # deferred to end_group(); evaluating it per-entry in commit
            # order there yields the same placements as deciding here.
            self._group_pending.append((record, entry))
        elif self.snapshot_policy.should_snapshot(record, entry):
            self.materialize_snapshot(record, new_number)
        return entry

    # -- commit groups ------------------------------------------------------------

    def begin_group(self):
        """Defer snapshot-placement decisions until :meth:`end_group`."""
        if self._group_pending is not None:
            raise StorageError("a repository commit group is already open")
        self._group_pending = []

    def end_group(self):
        """Evaluate deferred snapshot decisions in commit order.

        Returns the list of ``(record, entry)`` pairs that were committed
        inside the group (snapshots, where due, already materialized).
        """
        if self._group_pending is None:
            raise StorageError("no repository commit group is open")
        pending, self._group_pending = self._group_pending, None
        for record, entry in pending:
            if self.snapshot_policy.should_snapshot(record, entry):
                self.materialize_snapshot(record, entry.number)
        return pending

    def abort_group(self):
        """Drop the deferred-decision list (state changes are not undone)."""
        self._group_pending = None

    def materialize_snapshot(self, record, number):
        """Store a full snapshot of version ``number`` (must be reachable)."""
        entry = record.dindex.entry(number)
        if entry.has_snapshot:
            return entry
        tree = self.reconstruct(record, number)
        record.snapshots[number] = tree
        entry.snapshot_bytes = _tree_bytes(tree)
        record.dindex.register_snapshot(number)
        return entry

    def mark_deleted(self, record, ts):
        if record.is_deleted:
            raise DocumentDeletedError(f"{record.name} is already deleted")
        record.dindex.deleted_at = ts

    # -- reads ------------------------------------------------------------------------

    def counter_snapshot(self):
        """The logical read counters, registry-protocol shaped."""
        with self._stats_lock:
            return {
                "delta_reads": self.delta_reads,
                "snapshot_reads": self.snapshot_reads,
                "current_reads": self.current_reads,
                "subtree_reads": self.subtree_reads,
                "ops_applied": self.ops_applied,
                "ops_skipped": self.ops_skipped,
                "subtree_fallbacks": self.subtree_fallbacks,
            }

    def count_subtree_work(self, anchor, steps, applied, skipped, fallbacks,
                           scans):
        """Add one cursor movement to the counters: the stored ``anchor``
        it started over from (``None``: it walked on), the versions it
        then stepped (negative: backwards), what its deltas did to the
        subtree, and how many sweeps it opened (0 or 1)."""
        with self._stats_lock:
            stats = self.anchor_stats
            if anchor is not None:
                self.subtree_reads += 1
                stats.by_anchor[anchor.kind] += 1
            if steps > 0:
                stats.forward_chains += 1
            elif steps < 0:
                stats.backward_chains += 1
            elif anchor is not None:
                stats.exact_anchors += 1
            stats.range_scans += scans
            self.ops_applied += applied
            self.ops_skipped += skipped
            self.subtree_fallbacks += fallbacks

    def read_current(self, record):
        """Read (and account) the complete current version; returns a copy."""
        state = record.current
        if state is None:
            raise NoSuchVersionError(f"{record.name} has no stored version")
        return self._stored_current(state).copy()

    def _stored_current(self, state):
        with self._stats_lock:
            self.current_reads += 1
        return state.root

    def read_delta(self, record, number):
        """Read (and account) the completed delta stored at ``number``."""
        script = record.deltas.get(number)
        if script is None:
            raise NoSuchVersionError(
                f"{record.name} has no delta for version {number}"
            )
        with self._stats_lock:
            self.delta_reads += 1
        return script

    def read_snapshot(self, record, number):
        return self._stored_snapshot(record, number).copy()

    def _stored_snapshot(self, record, number):
        tree = record.snapshots.get(number)
        if tree is None:
            raise NoSuchVersionError(
                f"{record.name} has no snapshot at version {number}"
            )
        with self._stats_lock:
            self.snapshot_reads += 1
        return tree

    # -- anchor selection (cost model) ------------------------------------------------

    def _cost(self, reads, nbytes):
        """Estimated cost of ``reads`` logical reads totalling ``nbytes``.

        A seek per read plus per-page transfer.  Only the *ranking*
        matters."""
        pages = reads + nbytes / _PAGE_BYTES
        return reads * _SEEK_MS + pages * _PAGE_MS

    def _chain_cost(self, record, anchor_number, target):
        """(delta reads, delta bytes) of the chain between anchor and target."""
        lo, hi = sorted((anchor_number, target))
        return hi - lo, record.dindex.delta_bytes_between(lo, hi)

    def _candidates(self, record, number):
        """Candidate anchors for reconstructing ``number``, unpriced."""
        dindex = record.dindex
        state = record.current  # one consistent (number, root, nbytes) read
        current_number = state.number
        out = [Anchor("current", current_number, state.nbytes, state)]
        after = dindex.nearest_snapshot_at_or_after(number)
        if after is not None and after.number < current_number:
            out.append(
                Anchor("snapshot_after", after.number, after.snapshot_bytes)
            )
        before = dindex.nearest_snapshot_at_or_before(number)
        if before is not None:
            out.append(
                Anchor("snapshot_before", before.number, before.snapshot_bytes)
            )
        return out

    def stored_anchor(self, record, number):
        """The cheapest stored starting point for version ``number`` — a
        snapshot or the current version, every candidate ranked by the
        estimated cost of reading it plus the chain to ``number`` — and
        that cost: ``(anchor, cost)``, nothing read yet (see
        :meth:`read_stored`)."""

        def key(anchor):
            reads, nbytes = self._chain_cost(record, anchor.number, number)
            cost = self._cost(1 + reads, anchor.anchor_bytes + nbytes)
            return (cost, reads, _ANCHOR_RANK[anchor.kind])

        best = min(self._candidates(record, number), key=key)
        return best, key(best)[0]

    def read_stored(self, record, anchor):
        """Read (and account) a :meth:`stored_anchor` **without copying
        it**: the returned tree is the repository's own and immutable —
        callers copy the part they keep."""
        if anchor.kind == "current":
            return self._stored_current(anchor.payload)
        return self._stored_snapshot(record, anchor.number)

    def chain_cost_estimate(self, record, base_number, target_number):
        """Estimated cost of walking the delta chain between two versions,
        with no anchor read (the base tree is already in hand)."""
        reads, nbytes = self._chain_cost(record, base_number, target_number)
        return self._cost(reads, nbytes)

    # -- reconstruction (Sections 7.3.3-7.3.4): uses of the one cursor ----------------

    def reconstruct(self, record, number):
        """Materialize version ``number`` of the document; returns a tree
        of the caller's own.

        A fresh whole-document cursor is positioned at ``number``: the
        cheapest stored anchor (see module docstring), then the delta chain
        between anchor and target, read in the order it was appended and
        applied forward (anchor below the target) or inverted newest-first
        (anchor above).
        """
        current_number = record.dindex.current_number
        if not 1 <= number <= current_number:
            raise NoSuchVersionError(
                f"{record.name} has no version {number} "
                f"(current is {current_number})"
            )
        return ChainReader(self, record).cursor(None).take(number)

    def reconstruct_at(self, record, ts):
        """Materialize the version valid at ``ts``; ``None`` if not valid."""
        entry = record.dindex.version_at(ts)
        if entry is None:
            return None
        return self.reconstruct(record, entry.number)

    def reconstruct_range(self, record, lo, hi, newest_first=False):
        """Sweep versions ``lo..hi`` with one anchor read plus one delta pass.

        Returns a generator of ``(number, tree, xids)``: the *live* working
        tree (rolled in place between yields) and its maintained
        ``xid -> node`` map — callers must copy what they retain.  With
        ``newest_first`` the sweep starts at ``hi`` and rewinds (the
        DocHistory output order); otherwise it starts at ``lo`` and rolls
        forward.  Either way the cost is one cost-based anchor and the
        chain from it to the first version, then one delta per further
        version — none read twice, so a whole history costs one anchor
        plus one read of each delta.
        """
        current_number = record.dindex.current_number
        if not 1 <= lo <= hi <= current_number:
            raise NoSuchVersionError(
                f"{record.name} has no versions {lo}..{hi} "
                f"(current is {current_number})"
            )
        first, last = (hi, lo) if newest_first else (lo, hi)
        return ChainReader(self, record).cursor(None).sweep(first, last)

    # -- space accounting ---------------------------------------------------------------------

    def storage_bytes(self):
        """Stored bytes by category (the E7 space comparison).

        ``current`` / ``deltas`` / ``snapshots`` sum to ``total``;
        ``snapshot_count`` and ``snapshot_policy`` report the
        placement-policy tradeoff (space spent vs. the reconstruction
        bound the policy buys); ``delta_ops`` counts the stored deltas'
        operations by kind (walked here, not kept by the commit path)."""
        current = sum(r.current_bytes for r in self._records.values())
        deltas = 0
        snapshots = 0
        snapshot_count = 0
        delta_ops = Counter()
        for record in self._records.values():
            for script in list(record.deltas.values()):
                delta_ops.update(script.summary())
            for entry in record.dindex.entries:
                deltas += entry.delta_bytes
                snapshots += entry.snapshot_bytes
                if entry.has_snapshot:
                    snapshot_count += 1
        return {
            "current": current,
            "deltas": deltas,
            "snapshots": snapshots,
            "total": current + deltas + snapshots,
            "snapshot_count": snapshot_count,
            "snapshot_policy": self.snapshot_policy.describe(),
            "delta_ops": dict(sorted(delta_ops.items())),
        }

    def held_deltas(self):
        """What the stored deltas hold in memory: their operations, the
        packed payload subtrees among those, and the payloads' bytes (the
        binary node encoding each is held in; see
        :class:`~repro.xmlcore.codec.PackedNode`)."""
        ops = payloads = payload_bytes = 0
        for record in self._records.values():
            for script in list(record.deltas.values()):
                ops += len(script.ops)
                for packed in script.payloads():
                    payloads += 1
                    payload_bytes += len(packed)
        return {
            "ops": ops,
            "payloads": payloads,
            "payload_bytes": payload_bytes,
        }


def _tree_bytes(root):
    return len(serialize(root))
