"""A paged-disk simulator: the cost model underneath the repository.

The paper's performance arguments are stated in terms of disk behaviour:
"each delta read will involve a disk seek in the worst case" because "deltas
will in many cases be stored unclustered".  To make those arguments
measurable we place every stored object (current version, delta, snapshot)
on a simulated disk of fixed-size pages and count three things:

* ``pages_read`` / ``pages_written`` — transfer volume,
* ``seeks`` — a read or write whose first page is not the next sequential
  page after the previous access.

Placement policy:

* ``clustered=True`` — allocations sharing a ``cluster_key`` (we use the
  document id) are laid out contiguously in a per-key arena, so reading a
  document's delta chain costs one seek plus sequential transfer;
* ``clustered=False`` — every allocation lands at a pseudo-random position
  (deterministic per seed), so every object read costs a seek.  This is the
  paper's worst case.

``estimated_ms`` converts the counters into a wall-clock estimate with a
classic seek-time/transfer-time split, which the benchmarks print alongside
raw counts.

The engine knows nothing of this module.  :func:`attach` puts a simulator
*beside* a store: it wraps the repository's commit, restore and read
methods on that one instance, sizes every extent from the bytes the engine
records anyway, and keeps the placement map here (E1, E7, E8, E9).
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from functools import partial

from repro.errors import StorageError

#: Pages reserved per cluster arena; large enough that arenas never collide
#: in any workload this library generates.
_ARENA_PAGES = 1 << 22


@dataclass(frozen=True)
class Extent:
    """A contiguous run of pages holding one stored object."""

    start_page: int
    num_pages: int

    @property
    def end_page(self):
        return self.start_page + self.num_pages


class CounterSnapshot:
    """Immutable copy of the disk counters, used to measure deltas."""

    __slots__ = ("seeks", "pages_read", "pages_written", "reads", "writes")

    def __init__(self, seeks, pages_read, pages_written, reads, writes):
        self.seeks = seeks
        self.pages_read = pages_read
        self.pages_written = pages_written
        self.reads = reads
        self.writes = writes

    def __sub__(self, other):
        return CounterSnapshot(
            self.seeks - other.seeks,
            self.pages_read - other.pages_read,
            self.pages_written - other.pages_written,
            self.reads - other.reads,
            self.writes - other.writes,
        )

    def estimated_ms(self, seek_ms=8.0, page_ms=0.1):
        """Classic disk model: seeks dominate, transfer is per page."""
        total_pages = self.pages_read + self.pages_written
        return self.seeks * seek_ms + total_pages * page_ms

    def as_dict(self):
        return {
            "seeks": self.seeks,
            "pages_read": self.pages_read,
            "pages_written": self.pages_written,
            "reads": self.reads,
            "writes": self.writes,
        }

    def __repr__(self):
        return (
            f"CounterSnapshot(seeks={self.seeks}, pages_read={self.pages_read},"
            f" pages_written={self.pages_written})"
        )


class DiskSimulator:
    """Allocates extents and accounts accesses; see module docstring."""

    def __init__(self, page_size=4096, clustered=False, seed=0):
        if page_size <= 0:
            raise StorageError("page size must be positive")
        self.page_size = page_size
        self.clustered = clustered
        self._rng = random.Random(seed)
        self._arena_next = {}  # cluster_key -> next free page in its arena
        self._arena_count = 0
        self._scatter_base = 0
        self._cursor = -1  # page right after the last access
        self.seeks = 0
        self.pages_read = 0
        self.pages_written = 0
        self.reads = 0
        self.writes = 0
        # Placement state and counters are shared by every session reading
        # through this store; one lock keeps them consistent.
        self._lock = threading.Lock()

    # -- placement -----------------------------------------------------------

    def pages_for(self, nbytes):
        """Number of pages an object of ``nbytes`` occupies (at least 1)."""
        if nbytes < 0:
            raise StorageError("negative object size")
        return max(1, -(-nbytes // self.page_size))

    def allocate(self, nbytes, cluster_key=None):
        """Allocate (and write) an extent for an object of ``nbytes``.

        Accounts the write immediately — storing an object is a write access.
        """
        num_pages = self.pages_for(nbytes)
        with self._lock:
            if self.clustered and cluster_key is not None:
                start = self._arena_next.get(cluster_key)
                if start is None:
                    self._arena_count += 1
                    start = self._arena_count * _ARENA_PAGES
                self._arena_next[cluster_key] = start + num_pages
            else:
                # Scatter: a pseudo-random position far from the previous one.
                self._scatter_base += 1
                start = (
                    self._scatter_base * _ARENA_PAGES
                    + self._rng.randrange(_ARENA_PAGES // 2)
                )
            extent = Extent(start, num_pages)
            self._account(extent, is_write=True)
        return extent

    # -- access accounting -----------------------------------------------------

    def read(self, extent):
        """Account one read of ``extent``."""
        if not isinstance(extent, Extent):
            raise StorageError("read() expects an Extent")
        with self._lock:
            self._account(extent, is_write=False)

    def overwrite(self, extent):
        """Account an in-place rewrite of ``extent``."""
        with self._lock:
            self._account(extent, is_write=True)

    def _account(self, extent, is_write):
        """Update the counters for one access (caller holds the lock)."""
        if extent.start_page != self._cursor:
            self.seeks += 1
        self._cursor = extent.end_page
        if is_write:
            self.pages_written += extent.num_pages
            self.writes += 1
        else:
            self.pages_read += extent.num_pages
            self.reads += 1

    # -- reporting ---------------------------------------------------------------

    def snapshot(self):
        """Counter snapshot; subtract two to get the cost of a code region."""
        with self._lock:
            return CounterSnapshot(
                self.seeks, self.pages_read, self.pages_written,
                self.reads, self.writes,
            )

    def cost_of(self):
        """Context manager measuring the disk cost of a ``with`` block.

        >>> disk = DiskSimulator()
        >>> with disk.cost_of() as cost:
        ...     disk.read(disk.allocate(100))
        >>> cost.result.reads
        1
        """
        return _CostRegion(self)


class _CostRegion:
    def __init__(self, disk):
        self._disk = disk
        self.result = None

    def __enter__(self):
        self._before = self._disk.snapshot()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.result = self._disk.snapshot() - self._before
        return False


# -- attaching to a store ----------------------------------------------------------

class AttachedDisk:
    """A :class:`DiskSimulator` observing one repository; see :func:`attach`.

    ``extents`` maps ``(kind, doc_id, version number)`` — ``kind`` one of
    ``"current"``, ``"deltas"``, ``"snapshots"`` — to where that stored
    object was placed.  Objects of one kind and document share a cluster
    key: each document gets a current-version arena, an append-only delta
    arena (so a chain read on a clustered disk is sequential) and a
    snapshot arena.
    """

    def __init__(self, repository, disk):
        self.disk = disk
        self.extents = {}
        for record in repository.records():
            self._place_record(record)
        # The repository's I/O sites: every method that stores or reads a
        # version.  Each observer takes the repository's own bound method
        # first and is installed on this one instance under the same name,
        # so the repository's internal calls (reconstruct -> read_delta ...)
        # pass through it as well.
        observers = {
            "commit_initial": self._commit,
            "commit_version": self._commit,
            "materialize_snapshot": self._materialize_snapshot,
            "adopt": self._adopt,
            "read_current": self._read_current,
            "read_stored": self._read_stored,
            "read_delta": partial(self._read_numbered, "deltas"),
            "read_snapshot": partial(self._read_numbered, "snapshots"),
        }
        for name, observer in observers.items():
            setattr(repository, name, partial(observer, getattr(repository, name)))

    # -- writes ------------------------------------------------------------------

    def _write(self, kind, record, number, nbytes):
        key = (kind, record.doc_id, number)
        if key not in self.extents:
            self.extents[key] = self.disk.allocate(
                nbytes, cluster_key=(kind, record.doc_id)
            )

    def _place_commit(self, record):
        """One commit's writes: the delta it completed, then the new
        current version."""
        state = record.current
        if state.number > 1:
            behind = record.dindex.entry(state.number - 1)
            self._write("deltas", record, behind.number, behind.delta_bytes)
        self._write("current", record, state.number, state.nbytes)

    def _place_record(self, record):
        """Whatever of a restored document is not placed yet: current
        version, deltas ascending, snapshots ascending."""
        state = record.current
        if state is None:  # Repository.create(): nothing committed yet
            return
        self._write("current", record, state.number, state.nbytes)
        entry = record.dindex.entry
        for number in sorted(record.deltas):
            self._write("deltas", record, number, entry(number).delta_bytes)
        for number in sorted(record.snapshots):
            self._write("snapshots", record, number, entry(number).snapshot_bytes)

    def _commit(self, inner, record, *version):
        entry = inner(record, *version)
        self._place_commit(record)
        return entry

    def _materialize_snapshot(self, inner, record, number):
        # Outside a commit group the repository calls this from inside
        # commit_version: that commit's delta and current version were
        # written before the snapshot's reconstruction reads anything.
        self._place_commit(record)
        entry = inner(record, number)
        self._write("snapshots", record, number, entry.snapshot_bytes)
        return entry

    def _adopt(self, inner, record):
        inner(record)
        self._place_record(record)
        return record

    # -- reads -------------------------------------------------------------------

    def _read(self, kind, record, number):
        self.disk.read(self.extents[kind, record.doc_id, number])

    def _read_current(self, inner, record):
        state = record.current
        tree = inner(record)
        self._read("current", record, state.number)
        return tree

    def _read_stored(self, inner, record, anchor):
        tree = inner(record, anchor)
        kind = "current" if anchor.kind == "current" else "snapshots"
        self._read(kind, record, anchor.number)
        return tree

    def _read_numbered(self, kind, inner, record, number):
        stored = inner(record, number)
        self._read(kind, record, number)
        return stored


def attach(store, disk=None):
    """Attach ``disk`` (default: a clustered :class:`DiskSimulator`) to
    ``store`` — a ``TemporalDocumentStore`` or a bare ``Repository`` — and
    return the :class:`AttachedDisk`.

    Everything the store already holds is placed now (per document: current
    version, deltas ascending, snapshots ascending); from then on every
    commit, snapshot and restored document is written where the simulator's
    placement policy puts it and every stored read is accounted.  The
    repository is observed, never steered: trees, read counters and anchor
    choices are what they would be without the attachment.
    """
    if disk is None:
        disk = DiskSimulator(clustered=True)
    return AttachedDisk(getattr(store, "repository", store), disk)
