"""Fault injection aimed at the CAS object store: GC, tears, bit flips.

``test_crash_consistency`` holds the crash matrix of the two-checkpoint
workload, which asks for a history prefix after every crash.  A prefix
alone would not notice a crash that breaks the newest checkpoint
generation, because recovery falls back quietly.  So the matrix here
checkpoints after every commit, so that every checkpoint's GC sweeps
what the one before it superseded.  After a crash at each of its
operations, every object a surviving pointer reaches must verify, and
recovery must load the newest generation with no error.  The module
also tears object and pointer writes, crashes the last GC sweep op by
op, corrupts objects and pointers, and checks an older release's XML
directory, upgraded, recovers to the same store.
"""

import shutil

import pytest

from repro import TemporalXMLDatabase
from repro.errors import CorruptArchiveError
from repro.storage.cas import (
    CAS_POINTER_FILE,
    CASObjectStore,
    reachable_hashes,
    read_checkpoint,
    read_pointer,
)
from tests.faults import CrashError, FaultyFS, flip_bit, tree_digest
from repro.storage.legacy import upgrade
from repro.storage.persistence import archive_bytes, build_archive
from tests.legacy_dirs import make_legacy
from tests.test_crash_consistency import (
    A1,
    A2,
    A3,
    B1,
    assert_recovers_to_prefix,
    commit_history,
    reference_run,
    run_workload,
    version_contents,
)


def run_checkpoint_per_commit(db):
    """Five commits, each followed by a checkpoint."""
    for op, name, xml in (
        ("put", "a.xml", A1), ("put", "b.xml", B1), ("update", "a.xml", A2),
        ("delete", "b.xml", None), ("update", "a.xml", A3),
    ):
        if op == "delete":
            db.delete(name)
        else:
            getattr(db, op)(name, xml)
        db.checkpoint()


def assert_generations_verify(directory):
    """Every object each surviving pointer reaches is there and intact,
    and the generation decodes whole."""
    objstore = CASObjectStore(directory)
    for suffix in ("", ".prev"):
        pointer = directory / (CAS_POINTER_FILE + suffix)
        if not pointer.exists():
            continue
        for object_hash in reachable_hashes(objstore, read_pointer(pointer)):
            objstore.get(object_hash)  # verifies hash + CRC
        read_checkpoint(objstore, pointer=str(pointer))


@pytest.mark.parametrize("durability", ["fsync", "journal"])
def test_cas_crash_matrix(tmp_path, durability):
    fs = FaultyFS()  # counts ops, never crashes
    db = TemporalXMLDatabase.open(
        tmp_path / "reference", durability=durability, fs=fs
    )
    run_checkpoint_per_commit(db)
    db.close()
    expected, contents = commit_history(db.store), version_contents(db.store)
    assert len(expected) == 5
    assert db.checkpointer.objstore.stats.gc_deleted_objects > 0

    for k in range(1, fs.ops + 1):
        directory = tmp_path / f"crash-{durability}-{k}"
        try:
            db = TemporalXMLDatabase.open(
                directory, durability=durability, fs=FaultyFS(crash_at=k)
            )
            run_checkpoint_per_commit(db)
            db.close()
            raise AssertionError(f"crash point {k} never fired")
        except CrashError:
            pass
        assert_generations_verify(directory)
        _survived, report = assert_recovers_to_prefix(
            directory, expected, contents
        )
        assert not report.checkpoint_errors, (k, report.checkpoint_errors)


def test_cas_torn_write_fractions(tmp_path):
    """Tearing the in-flight buffer at object/pointer writes stays safe."""
    expected, contents, total_ops = reference_run(tmp_path, "fsync")
    for fraction in (0.0, 0.3, 0.9):
        for k in (3, 11, 25, 40, 70, total_ops - 2):
            directory = tmp_path / f"torn-{fraction}-{k}"
            fs = FaultyFS(crash_at=k, torn_fraction=fraction)
            try:
                db = TemporalXMLDatabase.open(
                    directory, durability="fsync", fs=fs
                )
                run_workload(db)
                db.close()
            except CrashError:
                pass
            assert_generations_verify(directory)
            assert_recovers_to_prefix(directory, expected, contents)


def test_gc_never_deletes_reachable_even_when_it_crashes(tmp_path):
    """Crash GC at every deletion op; both generations must stay loadable.

    After the crash, everything the two retained pointers reach must
    still verify — a partial sweep may leave garbage, never a hole.
    """
    # Count the ops of the final checkpoint's GC phase by running clean.
    fs = FaultyFS()
    db = TemporalXMLDatabase.open(
        tmp_path / "probe", durability="journal", fs=fs
    )
    run_workload(db)
    ops_before_gc = fs.ops - db.checkpointer.last_gc.objects_deleted
    db.close()
    assert db.checkpointer.last_gc is not None

    directory = tmp_path / "gc-crash"
    for k in range(max(1, ops_before_gc - 5), fs.ops + 1):
        ffs = FaultyFS(crash_at=k)
        target = tmp_path / f"gc-crash-{k}"
        try:
            crash_db = TemporalXMLDatabase.open(
                target, durability="journal", fs=ffs
            )
            run_workload(crash_db)
            crash_db.close()
        except CrashError:
            pass
        objstore = CASObjectStore(target)
        for suffix in ("", ".prev"):
            pointer = target / (CAS_POINTER_FILE + suffix)
            if not pointer.exists():
                continue
            root = read_pointer(str(pointer))
            for object_hash in reachable_hashes(objstore, root):
                objstore.get(object_hash)  # verifies hash + CRC
            # and the full decode works
            read_checkpoint(objstore, pointer=str(pointer))


class TestSilentCorruptionCAS:
    def _clean_run(self, tmp_path):
        db = TemporalXMLDatabase.open(
            tmp_path / "db", durability="fsync"
        )
        run_workload(db)
        db.close()
        return (
            tmp_path / "db",
            commit_history(db.store),
            version_contents(db.store),
        )

    def _largest_object(self, directory):
        objstore = CASObjectStore(directory)
        return max(objstore.iter_objects(), key=lambda item: item[2])

    def test_bit_flip_in_object_falls_back_to_previous(self, tmp_path):
        directory, expected, contents = self._clean_run(tmp_path)
        # Corrupt an object reachable from the newest generation: recovery
        # must fall back to checkpoint.cas.prev + journal replay and still
        # reproduce the complete history.
        pointer = directory / CAS_POINTER_FILE
        root = read_pointer(str(pointer))
        objstore = CASObjectStore(directory)
        flip_bit(objstore.object_path(root), 30)
        survived, report = assert_recovers_to_prefix(
            str(directory), expected, contents
        )
        assert survived == len(expected)
        assert report.checkpoint_source in ("previous", "none")
        assert report.checkpoint_errors
        # The error names the corrupted object.
        assert any(root in error for error in report.checkpoint_errors)

    def test_corrupt_pointer_falls_back(self, tmp_path):
        directory, expected, contents = self._clean_run(tmp_path)
        flip_bit(str(directory / CAS_POINTER_FILE), 60)
        survived, report = assert_recovers_to_prefix(
            str(directory), expected, contents
        )
        assert survived == len(expected)
        assert report.checkpoint_errors

    def test_both_generations_corrupt_is_detected(self, tmp_path):
        directory, _expected, _contents = self._clean_run(tmp_path)
        objstore = CASObjectStore(directory)
        for suffix in ("", ".prev"):
            root = read_pointer(str(directory / (CAS_POINTER_FILE + suffix)))
            flip_bit(objstore.object_path(root), 30)
        with pytest.raises(CorruptArchiveError):
            TemporalXMLDatabase.open(str(directory), durability="journal")

    def test_both_generations_corrupt_is_refused_over_a_tail_of_creates(
        self, tmp_path
    ):
        """The journal tail holds only a create, which applies to an empty
        store as well: recovery still refuses, naming both generations,
        and writes nothing a later checkpoint could make permanent."""
        directory = tmp_path / "db"
        db = TemporalXMLDatabase.open(directory, durability="fsync")
        db.put("a.xml", A1)
        db.checkpoint()
        db.put("b.xml", B1)
        db.checkpoint()
        db.put("c.xml", A2)
        db.close()
        for suffix in ("", ".prev"):
            flip_bit(str(directory / (CAS_POINTER_FILE + suffix)), 60)
        before = tree_digest(directory)
        with pytest.raises(
            CorruptArchiveError, match="no checkpoint generation loads"
        ) as err:
            TemporalXMLDatabase.open(directory, durability="journal")
        assert "checkpoint: " in str(err.value)
        assert "previous: " in str(err.value)
        assert tree_digest(directory) == before


def test_cas_recovery_equals_the_upgraded_xml_directory(tmp_path):
    """The same history recovers to the same store, whether its
    checkpoints are CAS or the XML archives an older release wrote,
    upgraded."""
    db = TemporalXMLDatabase.open(tmp_path / "cas", durability="journal")
    run_workload(db)
    db.close()
    shutil.copytree(tmp_path / "cas", tmp_path / "xml")
    upgrade(make_legacy(tmp_path / "xml"))

    recovered = {}
    for storage in ("cas", "xml"):
        db = TemporalXMLDatabase.open(tmp_path / storage, durability="none")
        assert db.recovery.checkpoint_source == "checkpoint"
        recovered[storage] = db

    fingerprints = {
        storage: archive_bytes(build_archive(db.store))
        for storage, db in recovered.items()
    }
    assert fingerprints["cas"] == fingerprints["xml"]
    assert commit_history(recovered["cas"].store) == commit_history(
        recovered["xml"].store
    )
    # Queries agree too (indexes rebuilt identically on both paths).
    q = 'SELECT X FROM doc("a.xml")[EVERY]/* X'
    assert str(recovered["cas"].query(q)) == str(recovered["xml"].query(q))
