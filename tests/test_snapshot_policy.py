"""Snapshot placement: a full snapshot every k-th version (Section 7.3.3),
and how ``storage_bytes()`` reports it."""

import pytest

from repro import TemporalXMLDatabase
from repro.storage import TemporalDocumentStore
from repro.storage.repository import Repository
from repro.workload import TDocGenerator

VERSIONS = 12


def _populate(store, seed=3, versions=VERSIONS):
    generator = TDocGenerator(seed=seed)
    trees = generator.version_sequence("d.xml", versions)
    store.put("d.xml", trees[0])
    for tree in trees[1:]:
        store.update("d.xml", tree)
    return store


class TestIntervalRule:
    @pytest.mark.parametrize("interval", [None, 0])
    def test_no_interval_never_snapshots(self, interval):
        store = _populate(TemporalDocumentStore(snapshot_interval=interval))
        assert store.record("d.xml").dindex.snapshot_numbers() == []
        assert store.repository.snapshot_interval is None

    @pytest.mark.parametrize("interval, expected", [
        (1, list(range(2, VERSIONS + 1))),  # version 1 is never a snapshot
        (3, [3, 6, 9, 12]),
        (4, [4, 8, 12]),
        (VERSIONS + 1, []),
    ], ids=["k1", "k3", "k4", "k13"])
    def test_every_kth_version_is_a_snapshot(self, interval, expected):
        store = _populate(TemporalDocumentStore(snapshot_interval=interval))
        assert store.record("d.xml").dindex.snapshot_numbers() == expected

    def test_negative_interval_is_rejected(self):
        for owner in (Repository, TemporalDocumentStore, TemporalXMLDatabase):
            with pytest.raises(ValueError):
                owner(snapshot_interval=-1)


class TestStorageBytesReporting:
    def test_fixed_interval_accounting_unchanged(self):
        """E7's space comparison relies on these exact categories."""
        store = _populate(TemporalDocumentStore(snapshot_interval=4))
        stats = store.repository.storage_bytes()
        assert stats["total"] == (
            stats["current"] + stats["deltas"] + stats["snapshots"]
        )
        assert stats["snapshots"] > 0
        assert stats["snapshot_count"] == 3
        assert stats["snapshot_interval"] == 4

    def test_no_interval_reported_as_none(self):
        store = _populate(TemporalDocumentStore())
        stats = store.repository.storage_bytes()
        assert stats["snapshot_interval"] is None
        assert stats["snapshot_count"] == 0
        assert stats["snapshots"] == 0
