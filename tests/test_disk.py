"""Tests for the paged-disk simulator."""

from dataclasses import asdict

import pytest

from benchmarks.ablation.disk import CounterSnapshot, DiskSimulator, Extent, attach
from repro import TemporalXMLDatabase
from repro.errors import StorageError
from repro.storage import TemporalDocumentStore
from repro.storage.cas import CASObjectStore, read_checkpoint, write_checkpoint
from repro.storage.persistence import dump_store, load_store
from repro.storage.recover import recover_store
from repro.workload import TDocGenerator
from repro.xmlcore import serialize


class TestAllocation:
    def test_pages_for_rounds_up(self):
        disk = DiskSimulator(page_size=4096)
        assert disk.pages_for(0) == 1
        assert disk.pages_for(1) == 1
        assert disk.pages_for(4096) == 1
        assert disk.pages_for(4097) == 2

    def test_pages_for_negative(self):
        with pytest.raises(StorageError):
            DiskSimulator().pages_for(-1)

    def test_bad_page_size(self):
        with pytest.raises(StorageError):
            DiskSimulator(page_size=0)

    def test_allocation_accounts_write(self):
        disk = DiskSimulator()
        disk.allocate(10000)
        assert disk.pages_written == 3
        assert disk.writes == 1
        assert disk.seeks == 1


class TestClustering:
    def test_clustered_same_key_is_contiguous(self):
        disk = DiskSimulator(clustered=True)
        first = disk.allocate(4096, cluster_key="doc1")
        second = disk.allocate(4096, cluster_key="doc1")
        assert second.start_page == first.end_page

    def test_clustered_chain_read_costs_one_seek(self):
        disk = DiskSimulator(clustered=True)
        extents = [disk.allocate(4096, cluster_key="d") for _ in range(10)]
        before = disk.snapshot()
        for extent in extents:
            disk.read(extent)
        cost = disk.snapshot() - before
        assert cost.seeks == 1
        assert cost.pages_read == 10

    def test_unclustered_chain_read_seeks_every_time(self):
        disk = DiskSimulator(clustered=False)
        extents = [disk.allocate(4096, cluster_key="d") for _ in range(10)]
        before = disk.snapshot()
        for extent in extents:
            disk.read(extent)
        cost = disk.snapshot() - before
        assert cost.seeks == 10

    def test_different_keys_separate_arenas(self):
        disk = DiskSimulator(clustered=True)
        a = disk.allocate(4096, cluster_key="a")
        b = disk.allocate(4096, cluster_key="b")
        a2 = disk.allocate(4096, cluster_key="a")
        assert a2.start_page == a.end_page
        assert b.start_page != a.end_page


class TestAccounting:
    def test_read_requires_extent(self):
        with pytest.raises(StorageError):
            DiskSimulator().read("nope")

    def test_sequential_read_no_extra_seek(self):
        disk = DiskSimulator(clustered=True)
        first = disk.allocate(4096, cluster_key="k")
        second = disk.allocate(4096, cluster_key="k")
        disk.read(first)
        seeks_before = disk.seeks
        disk.read(second)  # directly after first: sequential
        assert disk.seeks == seeks_before

    def test_overwrite_counts_writes(self):
        disk = DiskSimulator()
        extent = disk.allocate(100)
        disk.overwrite(extent)
        assert disk.writes == 2

    def test_snapshot_diff(self):
        disk = DiskSimulator()
        before = disk.snapshot()
        disk.read(disk.allocate(100))
        cost = disk.snapshot() - before
        assert cost.reads == 1 and cost.writes == 1
        assert isinstance(cost, CounterSnapshot)

    def test_cost_of_context_manager(self):
        disk = DiskSimulator()
        extent = disk.allocate(100)
        with disk.cost_of() as region:
            disk.read(extent)
        assert region.result.reads == 1
        assert region.result.writes == 0

    def test_estimated_ms_model(self):
        cost = CounterSnapshot(2, 10, 0, 1, 0)
        assert cost.estimated_ms(seek_ms=8.0, page_ms=0.1) == 17.0

    def test_extent_end_page(self):
        assert Extent(10, 3).end_page == 13

    def test_determinism_per_seed(self):
        one = DiskSimulator(seed=42)
        two = DiskSimulator(seed=42)
        assert one.allocate(10) == two.allocate(10)


# -- attaching to a store: the simulator observes, it never steers --------------

NAMES = ("a.xml", "b.xml")
VERSIONS = 10
#: Mixed access order: anchors on both sides of a target get used.
ORDER = list(range(1, VERSIONS + 1))[::2] + list(range(1, VERSIONS + 1))[1::2][::-1]


def _commit(target, rounds):
    """Commit versions ``rounds`` of the seeded two-document history into
    ``target`` (a store or a database), round-robin like a warehouse."""
    generator = TDocGenerator(seed=23)
    sequences = {n: generator.version_sequence(n, VERSIONS) for n in NAMES}
    for index in rounds:
        for name in NAMES:
            if index == 0:
                target.put(name, sequences[name][0])
            else:
                target.update(name, sequences[name][index])


def _read_everything(store):
    """Serialized trees out of every read site the repository has."""
    repository = store.repository
    out = []
    for name in NAMES:
        record = store.record(name)
        out += [serialize(store.version(name, number)) for number in ORDER]
        out += [
            serialize(tree) for _n, tree, _x in store.version_range(name, 2, 7)
        ]
        out.append(serialize(store.current(name)))
        out += [
            serialize(repository.read_snapshot(record, number))
            for number in record.dindex.snapshot_numbers()
        ]
    return out


def _sweep_cost(store, disk):
    with disk.cost_of() as cost:
        for name in NAMES:
            for number in ORDER:
                store.version(name, number)
    return cost.result


@pytest.mark.parametrize("snapshot_interval", [None, 4])
class TestAttachObservesNeverSteers:
    def test_trees_counters_and_anchors_equal_a_bare_store(
        self, snapshot_interval
    ):
        bare = TemporalDocumentStore(snapshot_interval=snapshot_interval)
        stores = {None: bare}
        for disk in (DiskSimulator(clustered=True),
                     DiskSimulator(clustered=False, seed=7)):
            store = TemporalDocumentStore(snapshot_interval=snapshot_interval)
            assert attach(store, disk).disk is disk
            stores[disk] = store
        expected = None
        for disk, store in stores.items():
            _commit(store, range(VERSIONS))
            trees = _read_everything(store)
            repository = store.repository
            counters = repository.counter_snapshot()
            anchors = asdict(repository.anchor_stats)
            if disk is None:
                expected = (trees, counters, anchors)
                continue
            assert (trees, counters, anchors) == expected
            assert disk.reads == (
                counters["delta_reads"] + counters["snapshot_reads"]
                + counters["current_reads"]
            )
            assert disk.reads > 0 and disk.writes >= 2 * (2 * VERSIONS - 1)

    @pytest.mark.parametrize(
        "how", ["xml", "cas", "recover", "recover-attached-first"]
    )
    def test_attaching_to_a_restored_store(
        self, snapshot_interval, how, tmp_path
    ):
        live = TemporalDocumentStore(snapshot_interval=snapshot_interval)
        live_disk = attach(live, DiskSimulator(clustered=True)).disk
        _commit(live, range(VERSIONS))

        restored = TemporalDocumentStore(snapshot_interval=snapshot_interval)
        if how == "recover-attached-first":
            attached = attach(restored, DiskSimulator(clustered=True))
        if how == "xml":
            dump_store(live, tmp_path / "archive.xml")
            load_store(tmp_path / "archive.xml", store=restored)
        elif how == "cas":
            write_checkpoint(live, CASObjectStore(tmp_path))
            read_checkpoint(CASObjectStore(tmp_path), store=restored)
        else:
            db = TemporalXMLDatabase.open(
                tmp_path, snapshot_interval=snapshot_interval
            )
            _commit(db, range(VERSIONS // 2))
            db.checkpoint()
            _commit(db, range(VERSIONS // 2, VERSIONS))
            db.close()
            recover_store(CASObjectStore(tmp_path), fresh=lambda: (restored, ()))
        if how != "recover-attached-first":
            attached = attach(restored, DiskSimulator(clustered=True))

        # Every stored object is placed, nothing else is.
        extents = attached.extents
        stored = set()
        for record in restored.repository.records():
            doc = record.doc_id
            stored.add(("current", doc, VERSIONS))
            stored |= {("deltas", doc, n) for n in record.deltas}
            stored |= {("snapshots", doc, n) for n in record.snapshots}
            assert sorted(record.deltas) == list(range(1, VERSIONS))
        if how == "recover-attached-first":
            # Replayed commits wrote the current versions they superseded.
            assert stored <= set(extents)
        else:
            assert stored == set(extents)
            # Per document: current, deltas ascending, snapshots ascending
            # (a clustered simulator opens its arenas in first-use order).
            placed = []
            for record in restored.repository.records():
                doc = record.doc_id
                placed.append(("current", doc, VERSIONS))
                placed += [("deltas", doc, n) for n in sorted(record.deltas)]
                placed += [
                    ("snapshots", doc, n) for n in sorted(record.snapshots)
                ]
            starts = [extents[key].start_page for key in placed]
            assert starts == sorted(starts)
            for first, second in zip(placed, placed[1:]):
                if first[:2] == second[:2]:  # same arena: contiguous
                    assert (
                        extents[second].start_page == extents[first].end_page
                    )

        # The same reconstructions cost the same pages and seeks as on the
        # store whose simulator saw every commit.
        expected = _sweep_cost(live, live_disk)
        cost = _sweep_cost(restored, attached.disk)
        assert cost == expected
        assert cost.pages_read > 0 and cost.writes == 0
