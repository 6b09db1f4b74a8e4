"""Property tests for the content-addressed store (the castor shapes).

The three contracts (ISSUE 7 satellites): storing the same content twice
yields one object; GC after dropping a root removes exactly the orphaned
chunks; and a byte-identical ``load_store`` survives dedup, compression,
checkpoint rotation, and GC.
"""

import os

import pytest

from repro import TemporalXMLDatabase
from repro.errors import CorruptArchiveError, StorageError
from repro.storage.cas import (
    CAS_POINTER_FILE,
    CASObjectStore,
    collect_garbage,
    hash_bytes,
    reachable_hashes,
    read_checkpoint,
    read_pointer,
    storage_size,
    write_checkpoint,
)
from tests.faults import flip_bit
from repro.storage.persistence import (
    archive_bytes,
    build_archive,
    load_store,
)
from repro.storage.store import TemporalDocumentStore
from repro.workload.tdocgen import TDocGenerator


def seeded_store(versions=12, docs=2, snapshot_interval=4):
    gen = TDocGenerator(seed=11)
    db = TemporalXMLDatabase(snapshot_interval=snapshot_interval)
    for d in range(docs):
        name = f"doc{d}.xml"
        db.put(name, gen.document(name))
        for _ in range(versions - 1):
            db.update(name, gen.evolve(name))
    return db.store


def store_fingerprint(store):
    return archive_bytes(build_archive(store))


def object_hashes(directory):
    return {h for h, _, _ in CASObjectStore(directory).iter_objects()}


class TestObjectStore:
    def test_same_content_stored_once(self, tmp_path):
        objstore = CASObjectStore(tmp_path)
        data = b"the same content" * 100
        h1 = objstore.put(data)
        h2 = objstore.put(data)
        assert h1 == h2 == hash_bytes(data)
        assert objstore.stats.objects_written == 1
        assert objstore.stats.objects_deduped == 1
        assert len(list(objstore.iter_objects())) == 1
        assert objstore.get(h1) == data

    def test_distinct_content_distinct_objects(self, tmp_path):
        objstore = CASObjectStore(tmp_path)
        h1 = objstore.put(b"alpha" * 50)
        h2 = objstore.put(b"beta" * 50)
        assert h1 != h2
        assert len(list(objstore.iter_objects())) == 2

    def test_compression_above_threshold(self, tmp_path):
        objstore = CASObjectStore(tmp_path, compress_threshold=128)
        compressible = b"aaaaaaaa" * 1000
        h = objstore.put(compressible)
        assert objstore.stats.compressed_objects == 1
        assert objstore.stats.stored_bytes < len(compressible) // 4
        assert objstore.get(h) == compressible

    def test_small_objects_stay_raw(self, tmp_path):
        objstore = CASObjectStore(tmp_path, compress_threshold=128)
        h = objstore.put(b"tiny")
        assert objstore.stats.compressed_objects == 0
        assert objstore.get(h) == b"tiny"

    def test_incompressible_stays_raw(self, tmp_path):
        import random

        objstore = CASObjectStore(tmp_path, compress_threshold=128)
        data = random.Random(1).randbytes(4096)
        h = objstore.put(data)
        assert objstore.stats.compressed_objects == 0
        assert objstore.get(h) == data

    def test_missing_object_names_hash(self, tmp_path):
        objstore = CASObjectStore(tmp_path)
        missing = hash_bytes(b"never stored")
        with pytest.raises(CorruptArchiveError) as err:
            objstore.get(missing)
        assert missing in str(err.value)

    def test_bit_flip_names_hash(self, tmp_path):
        objstore = CASObjectStore(tmp_path)
        h = objstore.put(b"precious payload bytes" * 20)
        flip_bit(objstore.object_path(h), 40)
        with pytest.raises(CorruptArchiveError) as err:
            objstore.get(h)
        assert h in str(err.value)

    def test_truncated_object_names_hash(self, tmp_path):
        objstore = CASObjectStore(tmp_path)
        h = objstore.put(b"something long enough to truncate" * 30)
        path = objstore.object_path(h)
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
        with pytest.raises(CorruptArchiveError) as err:
            objstore.get(h)
        assert h in str(err.value)

    def test_per_kind_attribution(self, tmp_path):
        objstore = CASObjectStore(tmp_path)
        objstore.put(b"c" * 300, kind="current")
        objstore.put(b"d" * 300, kind="deltas")
        objstore.put(b"d" * 300, kind="deltas")
        by_kind = objstore.stats.by_kind
        assert by_kind["current"]["objects"] == 1
        assert by_kind["deltas"]["objects"] == 1
        assert by_kind["deltas"]["deduped"] == 1
        assert by_kind["deltas"]["raw"] == 600


class TestCheckpointRoundTrip:
    def test_byte_identical_reload(self, tmp_path):
        store = seeded_store()
        write_checkpoint(store, CASObjectStore(tmp_path))
        loaded = read_checkpoint(
            CASObjectStore(tmp_path),
            store=TemporalDocumentStore(snapshot_interval=4),
        )
        assert store_fingerprint(loaded) == store_fingerprint(store)

    def test_load_store_reads_a_cas_pointer(self, tmp_path):
        """``load_store`` reads a CAS checkpoint only as recovery asks for
        it: a pointer file read through its directory's object store.
        Without one, the directory and the pointer are refused."""
        store = seeded_store()
        root_hash = write_checkpoint(store, CASObjectStore(tmp_path))
        pointer = os.path.join(tmp_path, CAS_POINTER_FILE)
        assert read_pointer(pointer) == root_hash
        objstore = CASObjectStore(tmp_path)
        loaded = load_store(
            pointer, store=TemporalDocumentStore(snapshot_interval=4),
            objstore=objstore,
        )
        assert store_fingerprint(loaded) == store_fingerprint(store)
        assert set(objstore.published) == {
            r.doc_id for r in store.repository.records()
        }
        for source in (tmp_path, pointer):
            with pytest.raises(StorageError, match=r"open\(\)"):
                load_store(source)

    def test_unknown_format_rejected(self, tmp_path):
        """A directory has one checkpoint format; asking for another names
        the XML export instead."""
        with pytest.raises(StorageError, match=r"save\(\)"):
            TemporalXMLDatabase.open(tmp_path / "db", storage="xml")
        # A directory with no pointer is no checkpoint at all.
        with pytest.raises(StorageError):
            load_store(tmp_path)

    def test_near_identical_checkpoints_dedup(self, tmp_path, monkeypatch):
        """A checkpoint costs what changed: after one commit to one of
        three documents it encodes that document's new delta only, and
        stores one delta segment, its manifest and the root; with nothing
        changed it stores nothing new."""
        import repro.storage.binfmt as binfmt
        import repro.storage.cas as cas

        gen = TDocGenerator(seed=5)
        db = TemporalXMLDatabase()
        for name in ("a.xml", "b.xml", "c.xml"):
            db.put(name, gen.document(name))
            for _ in range(12):
                db.update(name, gen.evolve(name))
        objstore = CASObjectStore(tmp_path)
        write_checkpoint(db.store, objstore)

        encoded, scripts, puts = [], [], []
        real_put = CASObjectStore.put
        real_write_redo = binfmt.write_redo

        def counting_put(store, data, kind="object"):
            puts.append(kind)
            return real_put(store, data, kind=kind)

        def counting_write_redo(w, script):
            scripts.append(script)
            real_write_redo(w, script)

        def counting_encoder(name):
            real = getattr(cas, name)

            def encode(*args):
                encoded.append(name)
                return real(*args)

            monkeypatch.setattr(cas, name, encode)

        monkeypatch.setattr(CASObjectStore, "put", counting_put)
        monkeypatch.setattr(binfmt, "write_redo", counting_write_redo)
        for name in ("encode_tree", "encode_redo_segment"):
            counting_encoder(name)

        db.update("b.xml", gen.evolve("b.xml"))
        written = objstore.stats.objects_written
        write_checkpoint(db.store, objstore, rotate=True)
        assert encoded == ["encode_redo_segment"]
        assert len(scripts) == 1
        assert puts == ["pack", "checkpoint", "checkpoint"]
        assert objstore.stats.objects_written - written == 3

        del encoded[:], scripts[:], puts[:]
        written = objstore.stats.objects_written
        write_checkpoint(db.store, objstore, rotate=True)
        assert encoded == [] and scripts == []
        assert puts == ["checkpoint"]  # the root, unchanged
        assert objstore.stats.objects_written == written
        loaded = read_checkpoint(
            CASObjectStore(tmp_path), store=TemporalDocumentStore()
        )
        assert store_fingerprint(loaded) == store_fingerprint(db.store)

    def test_smaller_than_xml_archive(self, tmp_path):
        store = seeded_store(versions=30, docs=1)
        write_checkpoint(store, CASObjectStore(tmp_path))
        xml_bytes = len(store_fingerprint(store))
        assert storage_size(CASObjectStore(tmp_path)) * 3 <= xml_bytes


class TestGarbageCollection:
    def _two_generations(self, tmp_path):
        """A directory holding two checkpoint generations of one store."""
        gen = TDocGenerator(seed=13)
        db = TemporalXMLDatabase(snapshot_interval=4)
        db.put("g.xml", gen.document("g.xml"))
        for _ in range(8):
            db.update("g.xml", gen.evolve("g.xml"))
        objstore = CASObjectStore(tmp_path)
        write_checkpoint(db.store, objstore)
        for _ in range(4):
            db.update("g.xml", gen.evolve("g.xml"))
        write_checkpoint(db.store, objstore, rotate=True)
        return db.store, objstore

    def test_gc_keeps_everything_reachable(self, tmp_path):
        store, objstore = self._two_generations(tmp_path)
        pointer = os.path.join(tmp_path, CAS_POINTER_FILE)
        live = reachable_hashes(objstore, read_pointer(pointer)) | (
            reachable_hashes(objstore, read_pointer(pointer + ".prev"))
        )
        report = collect_garbage(objstore)
        assert report.objects_deleted == 0
        assert object_hashes(tmp_path) == live
        loaded = read_checkpoint(
            CASObjectStore(tmp_path),
            store=TemporalDocumentStore(snapshot_interval=4),
        )
        assert store_fingerprint(loaded) == store_fingerprint(store)

    def test_dropping_a_root_removes_exactly_its_orphans(self, tmp_path):
        store, objstore = self._two_generations(tmp_path)
        pointer = os.path.join(tmp_path, CAS_POINTER_FILE)
        current_live = reachable_hashes(objstore, read_pointer(pointer))
        prev_live = reachable_hashes(
            objstore, read_pointer(pointer + ".prev")
        )
        orphans = prev_live - current_live
        assert orphans, "generations should not be identical"
        os.remove(pointer + ".prev")

        before = object_hashes(tmp_path)
        report = collect_garbage(objstore)
        after = object_hashes(tmp_path)
        assert after == current_live
        assert before - after == orphans
        assert report.objects_deleted == len(orphans)
        # The surviving generation still loads byte-identically.
        loaded = read_checkpoint(
            CASObjectStore(tmp_path),
            store=TemporalDocumentStore(snapshot_interval=4),
        )
        assert store_fingerprint(loaded) == store_fingerprint(store)

    def test_gc_refuses_to_sweep_with_corrupt_root(self, tmp_path):
        _store, objstore = self._two_generations(tmp_path)
        pointer = os.path.join(tmp_path, CAS_POINTER_FILE)
        before = object_hashes(tmp_path)
        # Corrupt the current root manifest object itself: its reachable
        # set cannot be computed, so nothing may be deleted.
        flip_bit(objstore.object_path(read_pointer(pointer)), 10)
        with pytest.raises(CorruptArchiveError):
            collect_garbage(objstore)
        assert object_hashes(tmp_path) == before

    def test_gc_sweeps_stale_tmp_files(self, tmp_path):
        _store, objstore = self._two_generations(tmp_path)
        stale = os.path.join(objstore.objects_dir, "ab", "deadbeef.tmp")
        os.makedirs(os.path.dirname(stale), exist_ok=True)
        with open(stale, "wb") as handle:
            handle.write(b"torn object write leftovers")
        report = collect_garbage(objstore)
        assert report.tmp_files_removed == 1
        assert not os.path.exists(stale)

    def test_no_roots_sweeps_everything(self, tmp_path):
        _store, objstore = self._two_generations(tmp_path)
        pointer = os.path.join(tmp_path, CAS_POINTER_FILE)
        os.remove(pointer)
        os.remove(pointer + ".prev")
        report = collect_garbage(objstore)
        assert report.objects_deleted == report.objects_scanned
        assert object_hashes(tmp_path) == set()


class TestDatabaseIntegration:
    def test_open_checkpoint_reopen(self, tmp_path):
        gen = TDocGenerator(seed=17)
        db = TemporalXMLDatabase.open(tmp_path / "db", durability="journal")
        db.put("i.xml", gen.document("i.xml"))
        for _ in range(6):
            db.update("i.xml", gen.evolve("i.xml"))
        # A new directory opened with no arguments checkpoints to CAS.
        assert db.checkpoint() == str(tmp_path / "db" / CAS_POINTER_FILE)
        assert sorted(os.listdir(tmp_path / "db")) == [
            "checkpoint.cas", "journal.bin", "journal.bin.prev", "objects",
        ]
        db.update("i.xml", gen.evolve("i.xml"))
        db.close()
        fingerprint = store_fingerprint(db.store)

        reopened = TemporalXMLDatabase.open(tmp_path / "db")
        assert reopened.recovery.checkpoint_source == "checkpoint"
        assert store_fingerprint(reopened.store) == fingerprint
        # The journal tail past the checkpoint was replayed.
        assert reopened.recovery.records_replayed >= 1
        reopened.close()

    def test_checkpoint_rotation_runs_gc(self, tmp_path):
        gen = TDocGenerator(seed=19)
        db = TemporalXMLDatabase.open(tmp_path / "db", durability="journal")
        db.put("r.xml", gen.document("r.xml"))
        for i in range(9):
            db.update("r.xml", gen.evolve("r.xml"))
            db.checkpoint()
        assert db.checkpointer.last_gc is not None
        # Three generations would be unreachable garbage; rotation-GC
        # keeps the object store bounded to the two retained pointers.
        stats = db.checkpointer.objstore.stats
        assert stats.gc_runs == 9
        assert stats.gc_deleted_objects > 0
        db.close()

    def test_storage_stats_breakdown(self, tmp_path):
        gen = TDocGenerator(seed=23)
        db = TemporalXMLDatabase.open(
            tmp_path / "db", durability="journal", snapshot_interval=3
        )
        db.put("s.xml", gen.document("s.xml"))
        for _ in range(7):
            db.update("s.xml", gen.evolve("s.xml"))
        db.checkpoint()
        stats = db.storage_stats()
        backend = stats["backend"]
        assert backend["raw_bytes"] >= backend["stored_bytes"] > 0
        assert backend["dedup_ratio"] >= 1.0
        assert backend["disk_bytes"] == storage_size(db.checkpointer.objstore)
        for kind in ("first", "deltas", "checkpoint"):
            assert kind in backend["by_kind"], kind
        assert stats["logical"]["total"] > 0
        # The registry sees the same counters under the "cas" prefix.
        snapshot = db.engine.registry.snapshot()
        assert snapshot["cas.objects_written"] > 0
        db.close()

    def test_load_refuses_a_cas_directory(self, tmp_path):
        """A CAS directory without a journal is ``open(durability="none")``
        plus ``checkpoint()``; ``load`` refuses it (and its pointer), and
        ``open(durability="none")`` reads it."""
        gen = TDocGenerator(seed=29)
        db = TemporalXMLDatabase.open(tmp_path / "casdir", durability="none")
        db.put("k.xml", gen.document("k.xml"))
        for _ in range(5):
            db.update("k.xml", gen.evolve("k.xml"))
        db.checkpoint()
        assert not (tmp_path / "casdir" / "journal.bin").exists()
        for source in (tmp_path / "casdir",
                       tmp_path / "casdir" / CAS_POINTER_FILE):
            with pytest.raises(StorageError, match=r"open\(\)"):
                TemporalXMLDatabase.load(source)
        loaded = TemporalXMLDatabase.open(
            tmp_path / "casdir", durability="none"
        )
        assert store_fingerprint(loaded.store) == store_fingerprint(db.store)
        # Indexes were rebuilt: query both and compare.
        q = 'SELECT X FROM doc("k.xml")[EVERY]/* X'
        assert str(loaded.query(q)) == str(db.query(q))

    def test_unknown_storage_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            TemporalXMLDatabase.open(tmp_path / "db", storage="paper")
