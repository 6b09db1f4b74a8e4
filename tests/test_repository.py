"""Direct tests of the repository layer (below the store facade)."""

import pytest

from benchmarks.ablation.disk import DiskSimulator, attach
from repro.diff.differ import diff
from repro.errors import NoSuchDocumentError, NoSuchVersionError
from repro.model.versioned import stamp_new_nodes
from repro.storage import Repository
from repro.xmlcore import parse, serialize


def _commit_chain(repository, sources, base_ts=1000):
    record = repository.create("d.xml")
    first = parse(sources[0])
    stamp_new_nodes(first, record.allocator, base_ts)
    repository.commit_initial(record, first, base_ts)
    for offset, source in enumerate(sources[1:], start=1):
        ts = base_ts + offset * 10
        new_tree = parse(source)
        script = diff(
            record.current_root, new_tree, record.allocator, commit_ts=ts
        )
        repository.commit_version(record, new_tree, script, ts)
    return record


SOURCES = [f"<a><b>{v}</b></a>" for v in range(6)]


class TestCommitAndRead:
    def test_chain_structure(self):
        repository = Repository()
        attached = attach(repository, DiskSimulator())
        record = _commit_chain(repository, SOURCES)
        assert record.dindex.current_number == 6
        assert sorted(record.deltas) == [1, 2, 3, 4, 5]
        # Every non-current version has a delta extent; the current has none.
        for entry in record.dindex.entries[:-1]:
            assert ("deltas", record.doc_id, entry.number) in attached.extents
        assert ("deltas", record.doc_id, 6) not in attached.extents

    def test_read_current_accounts_io(self):
        repository = Repository()
        disk = attach(repository, DiskSimulator()).disk
        record = _commit_chain(repository, SOURCES)
        before = disk.snapshot()
        tree = repository.read_current(record)
        assert tree.find("b").text == "5"
        assert (disk.snapshot() - before).reads == 1
        assert repository.current_reads == 1

    def test_read_delta_unknown_version(self):
        repository = Repository()
        record = _commit_chain(repository, SOURCES)
        with pytest.raises(NoSuchVersionError):
            repository.read_delta(record, 6)  # current has no delta
        with pytest.raises(NoSuchVersionError):
            repository.read_delta(record, 0)

    def test_record_lookup(self):
        repository = Repository()
        record = _commit_chain(repository, SOURCES)
        assert repository.record(record.doc_id) is record
        with pytest.raises(NoSuchDocumentError):
            repository.record(999)


class TestExplicitSnapshots:
    def test_materialize_snapshot(self):
        repository = Repository()
        record = _commit_chain(repository, SOURCES)
        entry = repository.materialize_snapshot(record, 3)
        assert entry.has_snapshot
        assert entry.snapshot_bytes > 0
        # Materializing again is a no-op.
        assert repository.materialize_snapshot(record, 3) is entry

    def test_snapshot_used_by_reconstruction(self):
        repository = Repository()
        record = _commit_chain(repository, SOURCES)
        repository.materialize_snapshot(record, 3)
        repository.delta_reads = 0
        repository.snapshot_reads = 0
        tree = repository.reconstruct(record, 2)
        assert tree.find("b").text == "1"
        assert repository.snapshot_reads == 1
        assert repository.delta_reads == 1  # only v2 <- v3

    def test_snapshot_read_returns_copy(self):
        repository = Repository()
        record = _commit_chain(repository, SOURCES)
        repository.materialize_snapshot(record, 3)
        tree = repository.read_snapshot(record, 3)
        tree.find("b").text = "XXX"
        assert repository.read_snapshot(record, 3).find("b").text == "2"

    def test_read_snapshot_missing(self):
        repository = Repository()
        record = _commit_chain(repository, SOURCES)
        with pytest.raises(NoSuchVersionError):
            repository.read_snapshot(record, 2)


class TestReconstructBounds:
    def test_out_of_range(self):
        repository = Repository()
        record = _commit_chain(repository, SOURCES)
        with pytest.raises(NoSuchVersionError):
            repository.reconstruct(record, 0)
        with pytest.raises(NoSuchVersionError):
            repository.reconstruct(record, 7)

    def test_reconstruct_at_timestamps(self):
        repository = Repository()
        record = _commit_chain(repository, SOURCES, base_ts=1000)
        assert repository.reconstruct_at(record, 999) is None
        assert repository.reconstruct_at(record, 1000).find("b").text == "0"
        assert repository.reconstruct_at(record, 1015).find("b").text == "1"

    def test_every_version_content(self):
        repository = Repository()
        record = _commit_chain(repository, SOURCES)
        for number, source in enumerate(SOURCES, start=1):
            assert serialize(repository.reconstruct(record, number)) == source


class TestSpaceAccounting:
    def test_categories_sum(self):
        repository = Repository()
        record = _commit_chain(repository, SOURCES)
        repository.materialize_snapshot(record, 4)
        stats = repository.storage_bytes()
        assert stats["snapshots"] > 0
        assert stats["total"] == (
            stats["current"] + stats["deltas"] + stats["snapshots"]
        )

    def test_delta_bytes_recorded(self):
        repository = Repository()
        record = _commit_chain(repository, SOURCES)
        for entry in record.dindex.entries[:-1]:
            assert entry.delta_bytes > 0


class TestDiskPlacementPolicy:
    def test_delta_arena_is_sequential(self):
        repository = Repository()
        attached = attach(repository, DiskSimulator(clustered=True))
        record = _commit_chain(repository, SOURCES)
        extents = [
            attached.extents["deltas", record.doc_id, entry.number]
            for entry in record.dindex.entries[:-1]
        ]
        for first, second in zip(extents, extents[1:]):
            assert second.start_page == first.end_page

    def test_reconstruction_chain_few_seeks_when_clustered(self):
        repository = Repository()
        disk = attach(repository, DiskSimulator(clustered=True)).disk
        record = _commit_chain(repository, SOURCES)
        with disk.cost_of() as cost:
            repository.reconstruct(record, 1)
        assert cost.result.seeks <= 2  # current + one delta sweep
