"""Tests for the per-document delta index."""

import pytest
from hypothesis import given, strategies as st

from repro.clock import UNTIL_CHANGED, Interval
from repro.errors import NoSuchVersionError
from repro.storage.deltaindex import DeltaIndex, VersionEntry


def _index(timestamps, deleted_at=None, snapshots=()):
    index = DeltaIndex()
    for number, ts in enumerate(timestamps, start=1):
        index.append(VersionEntry(number, ts, has_snapshot=number in snapshots))
    index.deleted_at = deleted_at
    return index


class TestAppend:
    def test_requires_first_version_one(self):
        index = DeltaIndex()
        with pytest.raises(NoSuchVersionError):
            index.append(VersionEntry(2, 100))

    def test_requires_contiguous_numbers(self):
        index = _index([100])
        with pytest.raises(NoSuchVersionError):
            index.append(VersionEntry(3, 200))

    def test_requires_increasing_timestamps(self):
        index = _index([100])
        with pytest.raises(NoSuchVersionError):
            index.append(VersionEntry(2, 100))


class TestLookups:
    def test_entry_bounds(self):
        index = _index([100, 200])
        assert index.entry(1).timestamp == 100
        with pytest.raises(NoSuchVersionError):
            index.entry(3)
        with pytest.raises(NoSuchVersionError):
            index.entry(0)

    def test_current(self):
        index = _index([100, 200, 300])
        assert index.current_number == 3
        assert index.current().timestamp == 300
        assert index.current_ts() == 300

    def test_empty_index(self):
        with pytest.raises(NoSuchVersionError):
            DeltaIndex().current_number

    def test_version_at(self):
        index = _index([100, 200, 300])
        assert index.version_at(99) is None
        assert index.version_at(100).number == 1
        assert index.version_at(250).number == 2
        assert index.version_at(10**9).number == 3

    def test_version_at_respects_deletion(self):
        index = _index([100, 200], deleted_at=500)
        assert index.version_at(499).number == 2
        assert index.version_at(500) is None
        assert index.is_deleted

    def test_end_of(self):
        index = _index([100, 200])
        assert index.end_of(index.entry(1)) == 200
        assert index.end_of(index.entry(2)) == UNTIL_CHANGED
        deleted = _index([100, 200], deleted_at=300)
        assert deleted.end_of(deleted.entry(2)) == 300


class TestVersionsIn:
    def test_overlap_semantics(self):
        index = _index([100, 200, 300])
        assert [e.number for e in index.versions_in(150, 250)] == [1, 2]
        assert [e.number for e in index.versions_in(200, 201)] == [2]
        assert [e.number for e in index.versions_in(0, 100)] == []
        assert [e.number for e in index.versions_in(0, 101)] == [1]

    def test_whole_history(self):
        index = _index([100, 200, 300])
        assert len(index.versions_in(0, UNTIL_CHANGED)) == 3

    def test_after_deletion_nothing_current(self):
        index = _index([100], deleted_at=150)
        assert [e.number for e in index.versions_in(150, 1000)] == []
        assert [e.number for e in index.versions_in(100, 150)] == [1]


def _version_at_reference(index, ts):
    """The version valid at ``ts`` by a scan from version 1."""
    if index.deleted_at is not None and ts >= index.deleted_at:
        return None
    valid = [e for e in index.entries if e.timestamp <= ts]
    return valid[-1] if valid else None


def _versions_in_reference(index, start, end):
    """The versions overlapping ``[start, end)`` by a scan from version 1."""
    return [e for e in index.entries
            if e.timestamp < end and index.end_of(e) > start]


@st.composite
def _histories(draw):
    """A delta index over up to 8 versions, maybe deleted after the last,
    and two query instants in and around its timestamps."""
    timestamps = sorted(draw(st.sets(st.integers(0, 60), max_size=8)))
    deleted_at = None
    if timestamps and draw(st.booleans()):
        deleted_at = draw(st.integers(timestamps[-1] + 1, 70))
    instants = st.integers(-5, 75)
    return _index(timestamps, deleted_at), draw(instants), draw(instants)


class TestBisectedLookups:
    @given(_histories())
    def test_match_the_linear_scans(self, history):
        index, a, b = history
        assert index.version_at(a) is _version_at_reference(index, a)
        got, want = index.versions_in(a, b), _versions_in_reference(index, a, b)
        assert [e.number for e in got] == [e.number for e in want]

    @given(_histories())
    def test_validity_runs_to_the_next_version(self, history):
        index, _, _ = history
        last_end = UNTIL_CHANGED if index.deleted_at is None else index.deleted_at
        ends = [e.timestamp for e in index.entries[1:]] + [last_end]
        assert [index.validity(e) for e in index.entries] == [
            Interval(e.timestamp, end) for e, end in zip(index.entries, ends)
        ]


class TestNavigation:
    def test_previous_next_current(self):
        index = _index([100, 200, 300])
        assert index.previous_ts(250) == 100
        assert index.previous_ts(100) is None
        assert index.next_ts(100) == 200
        assert index.next_ts(300) is None
        assert index.current_ts() == 300

    def test_navigation_outside_lifetime(self):
        index = _index([100, 200])
        assert index.previous_ts(50) is None
        assert index.next_ts(50) is None


class TestSnapshots:
    def test_nearest_snapshot_at_or_after(self):
        index = _index([100, 200, 300, 400], snapshots={3})
        assert index.nearest_snapshot_at_or_after(1).number == 3
        assert index.nearest_snapshot_at_or_after(3).number == 3
        assert index.nearest_snapshot_at_or_after(4) is None

    def test_nearest_snapshot_at_or_before(self):
        index = _index([100, 200, 300, 400], snapshots={2, 4})
        assert index.nearest_snapshot_at_or_before(1) is None
        assert index.nearest_snapshot_at_or_before(2).number == 2
        assert index.nearest_snapshot_at_or_before(3).number == 2
        assert index.nearest_snapshot_at_or_before(4).number == 4

    def test_register_snapshot_is_idempotent_and_sorted(self):
        index = _index([100, 200, 300])
        index.register_snapshot(3)
        index.register_snapshot(1)
        index.register_snapshot(3)
        assert index.snapshot_numbers() == [1, 3]
        assert index.nearest_snapshot_at_or_after(2).number == 3
        assert index.nearest_snapshot_at_or_before(2).number == 1

    def test_snapshot_numbers_returns_copy(self):
        index = _index([100, 200], snapshots={1})
        numbers = index.snapshot_numbers()
        numbers.append(99)
        assert index.snapshot_numbers() == [1]

    def test_len(self):
        assert len(_index([100, 200])) == 2


class TestDeltaBytes:
    def _sized(self, sizes):
        index = _index([100 * n for n in range(1, len(sizes) + 2)])
        for number, size in enumerate(sizes, start=1):
            index.record_delta_bytes(number, size)
        return index

    def test_delta_bytes_between(self):
        index = self._sized([10, 20, 30])
        assert index.delta_bytes_between(1, 4) == 60
        assert index.delta_bytes_between(2, 4) == 50
        assert index.delta_bytes_between(1, 2) == 10
        assert index.delta_bytes_between(3, 3) == 0
        assert index.delta_bytes_between(4, 1) == 0

    def test_bounds_are_clamped(self):
        index = self._sized([10, 20])
        assert index.delta_bytes_between(0, 100) == 30
        assert index.delta_bytes_between(-5, 2) == 10

    def test_prefix_cache_invalidated_by_updates(self):
        index = self._sized([10, 20])
        assert index.delta_bytes_between(1, 3) == 30
        index.record_delta_bytes(1, 100)
        assert index.delta_bytes_between(1, 3) == 120
        index.append(VersionEntry(4, 1000))
        index.record_delta_bytes(3, 5)
        assert index.delta_bytes_between(1, 4) == 125
