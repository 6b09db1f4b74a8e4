"""The per-document delta index (Section 7.1).

"The delta documents are indexed in a delta index (which could be as simple
as an array).  Each version is numbered ... for each numbered delta, we
store the timestamp of the actual version in the delta index."

:class:`DeltaIndex` is exactly that array, with binary search over
timestamps.  It also records which versions have materialized snapshots and
how many bytes every stored delta and snapshot takes, and it answers the
version-navigation questions behind the ``PreviousTS`` / ``NextTS`` /
``CurrentTS`` operators (Section 7.3.7).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field

from ..clock import UNTIL_CHANGED
from ..errors import NoSuchVersionError


@dataclass
class VersionEntry:
    """Metadata for one document version.

    ``delta_bytes`` is the stored size of the completed delta leading from
    this version to the next one (0 for the current version, which has no
    successor yet).  ``has_snapshot`` is set — by
    :meth:`DeltaIndex.register_snapshot` — when this version is additionally
    materialized as a full snapshot of ``snapshot_bytes``.
    """

    number: int
    timestamp: int
    delta_bytes: int = 0
    snapshot_bytes: int = 0
    has_snapshot: bool = False


@dataclass
class DeltaIndex:
    """Ordered version metadata for one document."""

    entries: list = field(default_factory=list)
    deleted_at: int = None
    #: Sorted version numbers that have snapshots (bisect lookups).
    _snapshot_numbers: list = field(
        default_factory=list, repr=False, compare=False
    )
    #: Prefix sums of delta bytes; ``_delta_prefix[i]`` is the byte total of
    #: the deltas stored at versions ``1 .. i`` (rebuilt lazily).
    _delta_prefix: list = field(default=None, repr=False, compare=False)

    # -- maintenance -----------------------------------------------------------

    def append(self, entry):
        if self.entries:
            last = self.entries[-1]
            if entry.number != last.number + 1:
                raise NoSuchVersionError(
                    f"version numbers must be contiguous "
                    f"(got {entry.number} after {last.number})"
                )
            if entry.timestamp <= last.timestamp:
                raise NoSuchVersionError(
                    "version timestamps must increase strictly"
                )
        elif entry.number != 1:
            raise NoSuchVersionError("first version must be number 1")
        self.entries.append(entry)
        if entry.has_snapshot:
            self.register_snapshot(entry.number)
        self._delta_prefix = None

    def register_snapshot(self, number):
        """Record that version ``number`` now has a snapshot (idempotent).

        The repository and the archive loader call this whenever they store
        a snapshot tree; it sets the entry's ``has_snapshot`` and keeps the
        sorted snapshot list in sync, so both nearest-snapshot lookups stay
        O(log n)."""
        self.entry(number).has_snapshot = True
        pos = bisect_left(self._snapshot_numbers, number)
        if pos == len(self._snapshot_numbers) or (
            self._snapshot_numbers[pos] != number
        ):
            insort(self._snapshot_numbers, number)

    def record_delta_bytes(self, number, nbytes):
        """Set the stored size of the completed delta at ``number``.

        Going through this setter (rather than poking ``entry.delta_bytes``)
        keeps the prefix-sum cache behind :meth:`delta_bytes_between`
        coherent."""
        self.entry(number).delta_bytes = nbytes
        self._delta_prefix = None

    # -- basic lookups ------------------------------------------------------------

    @property
    def is_deleted(self):
        return self.deleted_at is not None

    @property
    def current_number(self):
        if not self.entries:
            raise NoSuchVersionError("document has no versions")
        return self.entries[-1].number

    def entry(self, number):
        if not 1 <= number <= len(self.entries):
            raise NoSuchVersionError(f"no version {number}")
        return self.entries[number - 1]

    def current(self):
        return self.entry(self.current_number)

    # -- time-based lookups ----------------------------------------------------------

    def version_at(self, ts):
        """Entry of the version valid at time ``ts``, or ``None``.

        ``None`` means the document did not exist at ``ts`` (before creation
        or at/after deletion).
        """
        if self.deleted_at is not None and ts >= self.deleted_at:
            return None
        timestamps = [e.timestamp for e in self.entries]
        pos = bisect_right(timestamps, ts)
        if pos == 0:
            return None
        return self.entries[pos - 1]

    def end_of(self, entry):
        """Exclusive end of ``entry``'s validity interval."""
        if entry.number < len(self.entries):
            return self.entries[entry.number].timestamp
        if self.deleted_at is not None:
            return self.deleted_at
        return UNTIL_CHANGED

    def versions_in(self, start, end):
        """Entries whose validity intervals intersect ``[start, end)``.

        Returned oldest-first; the ``DocHistory`` operator reverses this to
        match the paper's "most previous versions first" output order.
        """
        out = []
        for entry in self.entries:
            if entry.timestamp >= end:
                break
            if self.end_of(entry) > start:
                out.append(entry)
        return out

    # -- version navigation (PreviousTS / NextTS / CurrentTS) ------------------------

    def previous_ts(self, ts):
        """Timestamp of the version preceding the one valid at ``ts``.

        ``None`` when the version valid at ``ts`` is the first one (or the
        document did not exist at ``ts``).
        """
        entry = self.version_at(ts)
        if entry is None or entry.number == 1:
            return None
        return self.entry(entry.number - 1).timestamp

    def next_ts(self, ts):
        """Timestamp of the version following the one valid at ``ts``."""
        entry = self.version_at(ts)
        if entry is None or entry.number == len(self.entries):
            return None
        return self.entry(entry.number + 1).timestamp

    def current_ts(self):
        """Timestamp of the current version (no input time needed)."""
        return self.current().timestamp

    # -- snapshot placement -------------------------------------------------------------

    def nearest_snapshot_at_or_after(self, number):
        """Smallest version >= ``number`` that has a snapshot, else None.

        This is the paper's reconstruction shortcut: "processing start using
        the oldest snapshot with timestamp greater or equal to t".  Answered
        by bisect over the sorted snapshot-number list, O(log n).
        """
        pos = bisect_left(self._snapshot_numbers, number)
        if pos == len(self._snapshot_numbers):
            return None
        return self.entry(self._snapshot_numbers[pos])

    def nearest_snapshot_at_or_before(self, number):
        """Largest version <= ``number`` that has a snapshot, else None.

        The anchor for *forward* delta application: completed deltas are
        usable in both directions, so a snapshot below the target can be
        rolled forward to it."""
        pos = bisect_right(self._snapshot_numbers, number)
        if pos == 0:
            return None
        return self.entry(self._snapshot_numbers[pos - 1])

    def snapshot_numbers(self):
        """Sorted version numbers that have snapshots (a copy)."""
        return list(self._snapshot_numbers)

    # -- cost model --------------------------------------------------------------------

    def delta_bytes_between(self, lo, hi):
        """Total stored bytes of the deltas at versions ``[lo, hi)``.

        That is exactly the chain a reconstruction walks between an anchor
        at ``lo`` and a target at ``hi`` (either direction).  Prefix sums
        are cached, so after the first call this is O(1) per query until
        the next commit."""
        if hi <= lo:
            return 0
        prefix = self._delta_prefix
        if prefix is None:
            prefix = [0]
            for entry in self.entries:
                prefix.append(prefix[-1] + entry.delta_bytes)
            self._delta_prefix = prefix
        last = len(self.entries)
        lo = max(1, lo)
        hi = min(hi, last + 1)
        if hi <= lo:
            return 0
        return prefix[hi - 1] - prefix[lo - 1]

    def __len__(self):
        return len(self.entries)
