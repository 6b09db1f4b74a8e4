"""Incremental CAS checkpoints: append-only segments and what they cost.

A checkpoint writes only what changed since the one its object store
published or loaded: a new document's first version, one segment of a
changed document's new deltas, its manifest and the root.  These tests
hold that contract against reopen, the recovery fallback to
``checkpoint.cas.prev``, a failure inside a checkpoint, directories
written in format 1 (content-defined chunks) and hostile objects.
"""

import hashlib
import os
import shutil
import struct
import tracemalloc
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.storage.binfmt as binfmt
from repro import TemporalXMLDatabase
from repro.errors import CorruptArchiveError
from repro.storage.cas import (
    CAS_POINTER_FILE,
    FORMAT_VERSION,
    CASObjectStore,
    hash_bytes,
    pointer_bytes,
    read_checkpoint,
    read_pointer,
    write_checkpoint,
)
from tests.faults import CrashError, FaultyFS
from repro.storage.persistence import archive_bytes, build_archive
from repro.storage.store import TemporalDocumentStore
from repro.workload.tdocgen import TDocGenerator
from tests.test_cas import store_fingerprint

CAS_V1 = Path(__file__).parent / "data" / "cas_v1"
#: sha256 of ``archive_bytes(build_archive(...))`` of the fixture's store.
CAS_V1_FINGERPRINT = (
    "a26aca48e6a9654c8fa72dfa2969ec01cd4d0c3f9c8fbc460f7ee8a0d44e31c0"
)


def manifests(directory):
    """``{doc id: (ranges per stream)}`` of the published checkpoint, a
    range ``(pack hash, offset, length)``."""
    objstore = CASObjectStore(directory)
    read_checkpoint(objstore)
    return {
        doc_id: stored.manifests
        for doc_id, stored in objstore.published.items()
    }


def reopen(directory, db):
    """Close ``db``, open ``directory`` again and check it holds exactly
    what ``db`` held."""
    want = store_fingerprint(db.store)
    db.close()
    again = TemporalXMLDatabase.open(directory, durability="journal")
    assert store_fingerprint(again.store) == want
    return again


class TestSegments:
    def test_no_checkpoint_rewrites_bytes_an_earlier_pack_holds(
        self, tmp_path, monkeypatch
    ):
        gen = TDocGenerator(seed=3)
        db = TemporalXMLDatabase()
        for name in ("d.xml", "e.xml"):
            db.put(name, gen.document(name))
        objstore = CASObjectStore(tmp_path)
        packs = []
        real_put = CASObjectStore.put

        def put(store, data, kind="object"):
            if kind == "pack":
                packs.append(len(data))
            return real_put(store, data, kind=kind)

        monkeypatch.setattr(CASObjectStore, "put", put)
        before = {}
        for step in range(160):
            name = ("d.xml", "e.xml")[step % 3 == 0]
            db.update(name, gen.evolve(name))
            del packs[:]
            write_checkpoint(db.store, objstore)
            after = {
                doc_id: stored.manifests
                for doc_id, stored in objstore.published.items()
            }
            added = 0
            for doc_id, (first, deltas) in after.items():
                # What the stream held stays where it was; only ranges in
                # the packs this checkpoint wrote are appended.
                old_first, old_deltas = before.get(doc_id, ((), ()))
                assert first == old_first or not old_first
                assert deltas[: len(old_deltas)] == old_deltas
                added += sum(
                    length for _pack, _offset, length in
                    (first if not old_first else ())
                    + deltas[len(old_deltas):]
                )
            # The new packs hold exactly the new ranges' bytes: nothing
            # an earlier pack holds is written again.
            assert sum(packs) == added > 0
            before = after
        loaded = read_checkpoint(
            CASObjectStore(tmp_path), store=TemporalDocumentStore()
        )
        assert store_fingerprint(loaded) == store_fingerprint(db.store)

    def test_snapshot_of_an_old_version_is_appended(self, tmp_path):
        gen = TDocGenerator(seed=4)
        db = TemporalXMLDatabase(snapshot_interval=4)
        db.put("s.xml", gen.document("s.xml"))
        for _ in range(9):
            db.update("s.xml", gen.evolve("s.xml"))
        objstore = CASObjectStore(tmp_path)
        write_checkpoint(db.store, objstore)
        record = db.store.repository.records()[0]
        db.store.repository.materialize_snapshot(record, 2)
        write_checkpoint(db.store, objstore)
        (stored,) = objstore.published.values()
        assert stored.key[3] == {2, 4, 8}
        loaded = read_checkpoint(
            CASObjectStore(tmp_path), store=TemporalDocumentStore()
        )
        assert sorted(loaded.repository.records()[0].snapshots) == [2, 4, 8]
        assert store_fingerprint(loaded) == store_fingerprint(db.store)

    def test_a_deletion_alone_is_written(self, tmp_path):
        gen = TDocGenerator(seed=5)
        db = TemporalXMLDatabase()
        for name in ("a.xml", "b.xml"):
            db.put(name, gen.document(name))
        objstore = CASObjectStore(tmp_path)
        write_checkpoint(db.store, objstore)
        db.delete("a.xml")
        write_checkpoint(db.store, objstore)
        loaded = read_checkpoint(
            CASObjectStore(tmp_path), store=TemporalDocumentStore()
        )
        assert loaded.repository.records()[0].is_deleted
        assert store_fingerprint(loaded) == store_fingerprint(db.store)

    def test_an_empty_stream_decodes_to_nothing(self):
        assert binfmt.decode_redo_stream(b"") == {}
        assert binfmt.decode_delta_stream(b"") == {}
        assert binfmt.decode_snapshot_stream(b"") == {}

    def test_a_version_in_two_segments_is_corrupt(self):
        gen = TDocGenerator(seed=6)
        db = TemporalXMLDatabase()
        db.put("t.xml", gen.document("t.xml"))
        db.update("t.xml", gen.evolve("t.xml"))
        record = db.store.repository.records()[0]
        segment = binfmt.encode_redo_segment(record, [1])
        with pytest.raises(CorruptArchiveError):
            binfmt.decode_redo_stream(segment + segment)

    def test_a_newer_root_format_is_refused(self, tmp_path):
        objstore = CASObjectStore(tmp_path)
        root = objstore.put(bytes([FORMAT_VERSION + 1, 0, 0]))
        with open(tmp_path / CAS_POINTER_FILE, "wb") as handle:
            handle.write(pointer_bytes(root))
        with pytest.raises(
            CorruptArchiveError, match=f"format {FORMAT_VERSION + 1}"
        ):
            read_checkpoint(objstore)


class TestBoundedRead:
    def test_an_object_lying_about_its_length_is_not_inflated(self, tmp_path):
        # ~40 MB of zeros deflate to ~40 KB; the header admits 200 bytes.
        deflater = zlib.compressobj(6)
        payload = b"".join(
            deflater.compress(bytes(1 << 20)) for _ in range(40)
        ) + deflater.flush()
        objstore = CASObjectStore(tmp_path)
        object_hash = hash_bytes(b"the object it claims to be")
        path = objstore.object_path(object_hash)
        os.makedirs(os.path.dirname(path))
        with open(path, "wb") as handle:
            handle.write(b"CAS1" + bytes([1]) + struct.pack(">II", 200, 0))
            handle.write(payload)
        tracemalloc.start()
        try:
            with pytest.raises(CorruptArchiveError) as err:
                objstore.get(object_hash)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert object_hash in str(err.value)
        assert peak - len(payload) < 1 << 20


class TestRecoveryHandOff:
    def test_reopen_seeds_the_state(self, tmp_path):
        gen = TDocGenerator(seed=8)
        directory = tmp_path / "db"
        db = TemporalXMLDatabase.open(directory)
        for name in ("a.xml", "b.xml"):
            db.put(name, gen.document(name))
            db.update(name, gen.evolve(name))
        db.checkpoint()
        db = reopen(directory, db)
        assert len(db.checkpointer.objstore.published) == 2
        before = manifests(directory)
        db.update("a.xml", gen.evolve("a.xml"))
        db.checkpoint()
        after = manifests(directory)
        assert after[2] == before[2]  # b.xml
        assert after[1][1][:-1] == before[1][1]  # a.xml, one range added
        reopen(directory, db).close()

    def test_fallback_to_prev_then_checkpoint_and_reopen(self, tmp_path):
        def history(db, gen):
            db.put("a.xml", gen.document("a.xml"))
            db.put("b.xml", gen.document("b.xml"))
            db.update("a.xml", gen.evolve("a.xml"))
            db.checkpoint()
            db.update("b.xml", gen.evolve("b.xml"))
            db.update("a.xml", gen.evolve("a.xml"))
            db.checkpoint()

        probe = FaultyFS()
        reference = TemporalXMLDatabase.open(
            tmp_path / "reference", durability="fsync", fs=probe
        )
        history(reference, TDocGenerator(seed=9))
        reference.close()
        # Crash right after the second checkpoint rotated its pointer
        # aside, before it wrote the new one.
        rotations = [
            at for at, (op, path) in enumerate(probe.op_log, 1)
            if op == "replace" and path.endswith(CAS_POINTER_FILE + ".prev")
            and path.startswith(str(tmp_path / "reference"))
        ]
        directory = tmp_path / "db"
        crashing = TemporalXMLDatabase.open(
            directory, durability="fsync",
            fs=FaultyFS(crash_at=rotations[-1] + 1),
        )
        with pytest.raises(CrashError):
            history(crashing, TDocGenerator(seed=9))

        db = TemporalXMLDatabase.open(directory, durability="journal")
        assert db.recovery.checkpoint_source == "previous"
        assert store_fingerprint(db.store) == store_fingerprint(
            reference.store
        )
        gen = TDocGenerator(seed=10)
        db.update("b.xml", gen.document("b.xml"))
        db.checkpoint()
        db.update("a.xml", gen.document("a.xml"))
        reopen(directory, db).close()

    def test_a_failed_checkpoint_does_not_advance_the_state(self, tmp_path):
        def first_checkpoint(directory, fs):
            gen = TDocGenerator(seed=12)
            db = TemporalXMLDatabase.open(
                directory, durability="none", fs=fs, snapshot_interval=2
            )
            for name in ("a.xml", "b.xml"):
                db.put(name, gen.document(name))
            db.checkpoint()
            for name in ("a.xml", "b.xml"):
                for _ in range(3):
                    db.update(name, gen.evolve(name))
            return db

        probe = FaultyFS()
        db = first_checkpoint(tmp_path / "probe", probe)
        first = probe.ops
        db.checkpoint()
        want = store_fingerprint(db.store)
        for k in range(first + 1, probe.ops + 1):
            directory = tmp_path / f"fail-{k}"
            fs = FaultyFS(crash_at=k)
            db = first_checkpoint(directory, fs)
            before = db.checkpointer.objstore.published
            old_root = read_pointer(str(directory / CAS_POINTER_FILE))
            with pytest.raises(CrashError):
                db.checkpoint()
            if db.checkpointer.objstore.published is not before:
                # Only a published pointer advances the state.
                pointer = str(directory / CAS_POINTER_FILE)
                assert read_pointer(pointer) != old_root, k
            fs.crash_at, fs.crashed = None, False  # the fault was transient
            db.checkpoint()
            loaded = read_checkpoint(
                CASObjectStore(directory), store=TemporalDocumentStore()
            )
            assert store_fingerprint(loaded) == want, k


class TestFormatOneDirectory:
    """``tests/data/cas_v1`` is a checkpoint written in format 1 (streams
    cut by content-defined chunking) by commit ``afed645``; ``long.xml``'s
    delta stream spans two chunks.  Regenerate from an export of that
    commit, with ``PYTHONPATH=src``::

        from repro import TemporalXMLDatabase
        from repro.storage.persistence import dump_store
        from repro.workload.tdocgen import TDocGenerator
        gen = TDocGenerator(seed=31)
        db = TemporalXMLDatabase(snapshot_interval=8)
        for name, n in (("long.xml", 180), ("short.xml", 3)):
            db.put(name, gen.document(name))
            for _ in range(n - 1):
                db.update(name, gen.evolve(name))
        db.put("gone.xml", gen.document("gone.xml"))
        db.delete("gone.xml")
        dump_store(db.store, "cas_v1", format="cas")
    """

    @pytest.fixture
    def directory(self, tmp_path):
        target = tmp_path / "db"
        shutil.copytree(CAS_V1, target)
        return target

    def test_it_opens_to_the_recorded_fingerprint(self, directory):
        db = TemporalXMLDatabase.open(directory, durability="none")
        assert db.recovery.storage == "cas"
        digest = hashlib.sha256(
            archive_bytes(build_archive(db.store))
        ).hexdigest()
        assert digest == CAS_V1_FINGERPRINT

    def test_a_commit_then_a_checkpoint_rewrite_it_in_format_3(
        self, directory, monkeypatch
    ):
        assert manifests(directory) == {}  # format 1 publishes nothing
        db = TemporalXMLDatabase.open(directory, durability="journal")
        db.update("long.xml", TDocGenerator(seed=1).document("long.xml"))
        scripts = []
        real_write_redo = binfmt.write_redo

        def counting_write_redo(w, script):
            scripts.append(script)
            real_write_redo(w, script)

        monkeypatch.setattr(binfmt, "write_redo", counting_write_redo)
        db.checkpoint()
        # Every delta of the three documents, once: 180 + 2 + 0.
        assert len(scripts) == 182
        pointer = directory / CAS_POINTER_FILE
        objstore = CASObjectStore(directory)
        assert objstore.get(read_pointer(str(pointer)))[0] == FORMAT_VERSION
        after = manifests(directory)
        assert sorted(after) == [1, 2, 3]
        assert all(len(first) == 1 for first, _deltas in after.values())
        reopen(directory, db).close()


# -- the property --------------------------------------------------------------

STEPS = st.lists(
    st.sampled_from(
        ["put", "update", "update", "update", "delete", "snapshot",
         "checkpoint", "reopen"]
    ),
    min_size=4,
    max_size=24,
)


@settings(max_examples=60, deadline=None)
@given(steps=STEPS, seed=st.integers(0, 1000))
def test_every_reopen_reproduces_the_live_store(tmp_path_factory, steps, seed):
    """Interleave commits, deletions, snapshots of old versions,
    checkpoints and reopens (each one replaying a journal tail past the
    last checkpoint); every reopen holds exactly the live store."""
    directory = tmp_path_factory.mktemp("prop")
    gen = TDocGenerator(seed=seed, depth=2, fanout=(2, 3))
    db = TemporalXMLDatabase.open(
        directory, durability="journal", snapshot_interval=3
    )
    names, live = [], []
    for step in steps + ["reopen"]:
        if step == "put" or not live:
            name = f"d{len(names)}.xml"
            db.put(name, gen.document(name))
            names.append(name)
            live.append(name)
        elif step == "update":
            name = live[seed % len(live)]
            db.update(name, gen.evolve(name))
        elif step == "delete" and len(live) > 1:
            db.delete(live.pop(seed % len(live)))
        elif step == "snapshot":
            record = db.store.repository.records()[seed % len(names)]
            number = 1 + seed % record.dindex.current_number
            db.store.repository.materialize_snapshot(record, number)
            db.checkpoint()  # a snapshot is not journaled on its own
        elif step == "checkpoint":
            db.checkpoint()
        elif step == "reopen":
            db = reopen(directory, db)
        seed = seed * 31 + 7
    db.close()
