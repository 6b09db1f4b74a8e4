"""Physical document repository: current version + delta chain + snapshots.

The repository owns the stored versions and their reconstruction.  The
paper's ``Reconstruct`` (Section 7.3.3) walks *backwards* from the current
version or a snapshot at-or-after the target;
because completed deltas are usable in both directions (Section 7.1, after
Marian et al.), this implementation is **bidirectional and cost-aware**:

* for a requested version it enumerates candidate anchors — the nearest
  snapshot at-or-before, the nearest snapshot at-or-after, the current
  version — prices each chain from the per-entry ``delta_bytes`` accounting
  in the :class:`DeltaIndex`, and starts from the cheapest;
* stored edit scripts are applied forward from an anchor below the target
  or inverted from an anchor above it;
* :meth:`Repository.reconstruct_range` sweeps a whole version range with
  one anchor read plus one pass over the deltas (the batched path behind
  ``DocHistory`` and friends).

Per-choice counters land in :attr:`Repository.anchor_stats`, including what
each choice saved against the paper's backward-only walk; that algorithm
itself is the reference in ``benchmarks/ablation/reconstruct.py``.

Deltas and trees are kept as Python objects; their recorded byte sizes
carry the cost model.  ``read_*`` methods always account the read before
returning.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..diff.apply import apply_chain, apply_script
from ..errors import (
    DocumentDeletedError,
    NoSuchDocumentError,
    NoSuchVersionError,
    StorageError,
)
from ..model.identifiers import XIDAllocator
from ..xmlcore.serializer import serialize
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
    """Per-choice reconstruction counters (direction, anchor kind, savings).

    ``delta_reads_saved`` / ``delta_bytes_saved`` compare every choice
    against the paper's backward-only baseline (nearest snapshot at-or-after
    the target, else the current version); negative contributions are
    possible when a byte-cheaper anchor needs more (smaller) delta reads.
    """

    forward_chains: int = 0
    backward_chains: int = 0
    exact_anchors: int = 0  # anchor == target, no deltas applied
    range_scans: int = 0    # reconstruct_range sweeps
    by_anchor: dict = field(default_factory=dict)  # kind -> choices
    delta_reads_saved: int = 0
    delta_bytes_saved: int = 0

    def count(self, kind):
        self.by_anchor[kind] = self.by_anchor.get(kind, 0) + 1

    def as_dict(self):
        return {
            "forward_chains": self.forward_chains,
            "backward_chains": self.backward_chains,
            "exact_anchors": self.exact_anchors,
            "range_scans": self.range_scans,
            "by_anchor": dict(sorted(self.by_anchor.items())),
            "delta_reads_saved": self.delta_reads_saved,
            "delta_bytes_saved": self.delta_bytes_saved,
        }

    def snapshot(self):
        """Flat counters for the registry delta protocol; the per-kind
        choice counts flatten to ``by_anchor.<kind>`` keys."""
        out = {
            "forward_chains": self.forward_chains,
            "backward_chains": self.backward_chains,
            "exact_anchors": self.exact_anchors,
            "range_scans": self.range_scans,
            "delta_reads_saved": self.delta_reads_saved,
            "delta_bytes_saved": self.delta_bytes_saved,
        }
        for kind, count in self.by_anchor.items():
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

    # Compatibility views over the atomic state; each property performs one
    # read of ``self.current``, so an individual view is always internally
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
        # What subtree cursors (storage/cursor.py) did instead of rebuilding
        # documents: cursors started on a subtree of a stored version, edit
        # operations applied under a bound subtree and skipped outside it,
        # and whole-document reconstructions a boundary-crossing move forced.
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

    def count_subtree_work(self, reads, applied, skipped, fallbacks):
        """Add one cursor seek's work to the subtree counters."""
        with self._stats_lock:
            self.subtree_reads += reads
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

    def _choose_anchor(self, record, number):
        """Pick the starting anchor for ``number``: every candidate ranked
        by the estimated cost of anchor read plus delta chain.

        Returns ``(anchor, chain_reads, chain_bytes)``."""

        def key(anchor):
            reads, nbytes = self._chain_cost(record, anchor.number, number)
            cost = self._cost(1 + reads, anchor.anchor_bytes + nbytes)
            return (cost, reads, _ANCHOR_RANK[anchor.kind])

        best = min(self._candidates(record, number), key=key)
        reads, nbytes = self._chain_cost(record, best.number, number)
        return best, reads, nbytes

    def stored_anchor(self, record, number):
        """The cheapest stored starting point for version ``number`` — a
        snapshot or the current version — and the estimated cost of reading
        it plus the chain to ``number``: ``(anchor, cost)``, nothing read
        yet (see :meth:`read_stored`)."""
        anchor, reads, nbytes = self._choose_anchor(record, number)
        return anchor, self._cost(1 + reads, anchor.anchor_bytes + nbytes)

    def read_stored(self, record, anchor):
        """Read (and account) a :meth:`stored_anchor` **without copying
        it**: the returned tree is the repository's own and immutable —
        callers copy the part they keep."""
        if anchor.kind == "current":
            return self._stored_current(anchor.payload)
        return self._stored_snapshot(record, anchor.number)

    def chain_cost_estimate(self, record, base_number, target_number):
        """Estimated cost/reads of walking the delta chain between two
        versions, with no anchor read (the base tree is already in hand)."""
        reads, nbytes = self._chain_cost(record, base_number, target_number)
        return self._cost(reads, nbytes), reads

    # -- reconstruction (Section 7.3.3, bidirectional) --------------------------------

    def reconstruct(self, record, number):
        """Materialize version ``number`` of the document; returns a tree.

        The cheapest anchor is chosen (see module docstring); the delta
        chain between anchor and target is then fetched in ascending
        order — the order the deltas were appended, so one sequential sweep
        on an append-only delta file — and applied forward (anchor below
        the target) or inverted newest-first (anchor above).
        """
        current_number = record.dindex.current_number
        if not 1 <= number <= current_number:
            raise NoSuchVersionError(
                f"{record.name} has no version {number} "
                f"(current is {current_number})"
            )
        anchor, chain_reads, chain_bytes = self._choose_anchor(record, number)
        tree = self.read_stored(record, anchor).copy()
        tree = self._apply_between(record, tree, anchor.number, number)
        self._count_choice(record, number, anchor, chain_reads, chain_bytes)
        return tree

    def _apply_between(self, record, tree, start_number, target_number):
        """Apply the delta chain taking ``tree`` (version ``start_number``)
        to ``target_number``; reads the chain in ascending (append) order."""
        if start_number == target_number:
            return tree
        lo, hi = sorted((start_number, target_number))
        chain = [self.read_delta(record, version) for version in range(lo, hi)]
        return apply_chain(
            tree,
            chain,
            index=tree.xid_index(),
            invert=start_number > target_number,
        )

    def _count_choice(self, record, number, anchor, chain_reads, chain_bytes):
        # Savings vs. the paper's backward-only baseline.
        dindex = record.dindex
        after = dindex.nearest_snapshot_at_or_after(number)
        if after is not None and after.number < dindex.current_number:
            base = after.number
        else:
            base = dindex.current_number
        base_reads, base_bytes = self._chain_cost(record, base, number)
        with self._stats_lock:
            stats = self.anchor_stats
            stats.count(anchor.kind)
            if chain_reads == 0:
                stats.exact_anchors += 1
            elif anchor.number > number:
                stats.backward_chains += 1
            else:
                stats.forward_chains += 1
            stats.delta_reads_saved += base_reads - chain_reads
            stats.delta_bytes_saved += base_bytes - chain_bytes

    def reconstruct_at(self, record, ts):
        """Materialize the version valid at ``ts``; ``None`` if not valid."""
        entry = record.dindex.version_at(ts)
        if entry is None:
            return None
        return self.reconstruct(record, entry.number)

    # -- batched materialization ------------------------------------------------------

    def reconstruct_range(self, record, lo, hi, newest_first=False):
        """Sweep versions ``lo..hi`` with one anchor read plus one delta pass.

        Returns a generator of ``(number, tree, xids)``: the *live* working
        tree (rolled in place between yields) and its maintained
        ``xid -> node`` map — callers must copy what they retain.  With
        ``newest_first`` the sweep starts at ``hi`` and rewinds (the
        DocHistory output order); otherwise it starts at ``lo`` and rolls
        forward.  Either way the cost is one cost-based reconstruction of
        the first version plus exactly one delta read per further version.
        """
        current_number = record.dindex.current_number
        if not 1 <= lo <= hi <= current_number:
            raise NoSuchVersionError(
                f"{record.name} has no versions {lo}..{hi} "
                f"(current is {current_number})"
            )
        return self._range_iter(record, lo, hi, newest_first)

    def _range_iter(self, record, lo, hi, newest_first):
        stats = self.anchor_stats
        with self._stats_lock:
            stats.range_scans += 1
        first = hi if newest_first else lo
        tree = self.reconstruct(record, first)
        xids = tree.xid_index()
        yield first, tree, xids
        if newest_first:
            numbers = range(hi - 1, lo - 1, -1)
        else:
            numbers = range(lo + 1, hi + 1)
        for number in numbers:
            if newest_first:
                script = self.read_delta(record, number).invert()
            else:
                script = self.read_delta(record, number - 1)
            with self._stats_lock:
                if newest_first:
                    stats.backward_chains += 1
                else:
                    stats.forward_chains += 1
            tree = apply_script(tree, script, xids)
            yield number, tree, xids

    def reconstruct_pair(self, record, first, second):
        """Materialize two versions of one document, sharing the sweep when
        the connecting chain is cheaper than the second version's own best
        anchor; returns ``(tree_first, tree_second)``."""
        if first == second:
            tree = self.reconstruct(record, first)
            return tree, tree.copy()
        lo, hi = sorted((first, second))
        lo_tree = self.reconstruct(record, lo)
        bridge_cost, _reads = self.chain_cost_estimate(record, lo, hi)
        _anchor, anchor_cost = self.stored_anchor(record, hi)
        if bridge_cost <= anchor_cost:
            with self._stats_lock:
                self.anchor_stats.forward_chains += 1
            hi_tree = self._apply_between(record, lo_tree.copy(), lo, hi)
        else:
            hi_tree = self.reconstruct(record, hi)
        if first == lo:
            return lo_tree, hi_tree
        return hi_tree, lo_tree

    # -- space accounting ---------------------------------------------------------------------

    def storage_bytes(self):
        """Stored bytes by category (the E7 space comparison).

        The three seed categories are unchanged; ``snapshot_count`` and
        ``snapshot_policy`` report the placement-policy tradeoff (space
        spent vs. the reconstruction bound the policy buys)."""
        current = sum(r.current_bytes for r in self._records.values())
        deltas = 0
        snapshots = 0
        snapshot_count = 0
        for record in self._records.values():
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
        }


def _tree_bytes(root):
    return len(serialize(root))
