"""Crash-consistency matrix: every injected crash point must recover cleanly.

The contract under test: for **every** mutating filesystem operation k in
a scripted workload, crashing at k and then recovering must yield a store
whose commit history is an exact **prefix** of the uncrashed run's
history — same commits, same timestamps, and every surviving version
byte-identical — and recovery must never raise on a torn tail.  The
workload covers document creation, updates, deletion, and two CAS
checkpoints, so crash points land inside journal appends, fsyncs, object
writes, pointer rotations, journal rolls and GC deletions.  Because GC
deletes through the injected filesystem too, the matrix also shows GC
never deletes an object a retained checkpoint generation still reaches.

The fallback tests run on the CAS checkpoints and on the XML ones an
older release wrote (:func:`tests.legacy_dirs.make_legacy`), which
``repro upgrade`` reads with the same fallback to the previous
generation.
"""

import os

import pytest

from repro import TemporalXMLDatabase
from repro.errors import CorruptArchiveError
from repro.storage import TemporalDocumentStore
from repro.storage.binfmt import Reader
from repro.storage.cas import CAS_POINTER_FILE, CASObjectStore, read_pointer
from repro.storage import legacy
from repro.storage.legacy import upgrade
from repro.storage.recover import recover_store
from tests.faults import CrashError, FaultyFS, flip_bit
from repro.xmlcore import serialize
from tests.legacy_dirs import make_legacy

A1 = "<doc><x>alpha one</x><y>beta</y></doc>"
A2 = "<doc><x>alpha two</x><y>beta</y><z>gamma</z></doc>"
A3 = "<doc><x>alpha three</x><z>gamma delta</z></doc>"
A4 = "<doc><x>alpha four</x></doc>"
B1 = "<doc><m>mu one</m></doc>"
B2 = "<doc><m>mu two</m><n>nu</n></doc>"
C1 = "<doc><p>pi one</p></doc>"
C2 = "<doc><p>pi two</p><q>chi</q></doc>"


def run_workload(db):
    """Deterministic commits + checkpoints (9 commits, 2 checkpoints)."""
    db.put("a.xml", A1)
    db.put("b.xml", B1)
    db.update("a.xml", A2)
    db.update("b.xml", B2)
    db.checkpoint()
    db.update("a.xml", A3)
    db.put("c.xml", C1)
    db.delete("b.xml")
    db.checkpoint()
    db.update("c.xml", C2)
    db.update("a.xml", A4)


def commit_history(store):
    """The store's commit sequence as (kind, name, version, ts) tuples."""
    events = []
    for record in store.repository.records():
        entries = record.dindex.entries
        events.append(("create", record.name, 1, entries[0].timestamp))
        for entry in entries[1:]:
            events.append(("update", record.name, entry.number, entry.timestamp))
        if record.dindex.deleted_at is not None:
            events.append(
                (
                    "delete",
                    record.name,
                    record.dindex.current_number,
                    record.dindex.deleted_at,
                )
            )
    events.sort(key=lambda event: event[3])
    return events


def version_contents(store):
    """Byte content of every version of every document."""
    contents = {}
    for record in store.repository.records():
        for entry in record.dindex.entries:
            contents[(record.name, entry.number)] = serialize(
                store.version(record.doc_id, entry.number)
            )
    return contents


def reference_run(tmp_path, durability):
    """Uncrashed run; returns (expected history, contents, total fs ops)."""
    fs = FaultyFS()  # counts ops, never crashes
    db = TemporalXMLDatabase.open(
        tmp_path / "reference", durability=durability, fs=fs
    )
    run_workload(db)
    db.close()
    return commit_history(db.store), version_contents(db.store), fs.ops


def assert_recovers_to_prefix(directory, expected, contents):
    """Recovery must not raise and must yield an exact history prefix."""
    db = TemporalXMLDatabase.open(directory, durability="journal")
    try:
        got = commit_history(db.store)
        assert got == expected[: len(got)], (
            f"recovered history is not a prefix: {got}"
        )
        recovered = version_contents(db.store)
        for key, data in recovered.items():
            assert data == contents[key], f"content diverged for {key}"
        return len(got), db.recovery
    finally:
        db.close()


@pytest.mark.parametrize("durability", ["fsync", "journal"])
def test_crash_matrix(tmp_path, durability):
    expected, contents, total_ops = reference_run(tmp_path, durability)
    assert len(expected) == 9
    # Every object write is an atomic temp+fsync+rename sequence and GC
    # deletes are ops too.
    assert total_ops >= 60, (
        f"workload exposes only {total_ops} crash points; need >= 60"
    )

    prefix_lengths = set()
    for k in range(1, total_ops + 1):
        directory = tmp_path / f"crash-{durability}-{k}"
        fs = FaultyFS(crash_at=k)
        try:
            db = TemporalXMLDatabase.open(
                directory, durability=durability, fs=fs
            )
            run_workload(db)
            db.close()
            raise AssertionError(
                f"crash point {k} never fired (>{fs.ops} ops?)"
            )
        except CrashError:
            pass
        survived, _report = assert_recovers_to_prefix(
            directory, expected, contents
        )
        prefix_lengths.add(survived)

    # The matrix must actually exercise partial histories, not just the
    # trivial endpoints.
    assert len(prefix_lengths) >= 4
    assert max(prefix_lengths) <= len(expected)


def test_torn_write_fractions(tmp_path):
    """Different tear points within the crashing write all stay consistent."""
    expected, contents, total_ops = reference_run(tmp_path, "fsync")
    # Crash inside journal appends, object and pointer writes with varying
    # amounts of the in-flight buffer reaching disk.
    for fraction in (0.0, 0.3, 0.9):
        for k in (3, 7, 12, 19, 25, total_ops - 2):
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
            assert_recovers_to_prefix(directory, expected, contents)


def run_grouped_workload(db):
    """The same 9 commits as :func:`run_workload`, but through commit
    groups of 3 / 2 / 3 / 1 with a checkpoint in the middle."""
    with db.batch() as b:
        b.put("a.xml", A1)
        b.put("b.xml", B1)
        b.update("a.xml", A2)
    with db.batch() as b:
        b.update("b.xml", B2)
        b.update("a.xml", A3)
    db.checkpoint()
    with db.batch() as b:
        b.put("c.xml", C1)
        b.delete("b.xml")
        b.update("c.xml", C2)
    with db.batch() as b:
        b.update("a.xml", A4)


#: Commit counts at which a crashed grouped run may legally land: whole
#: groups only — 0, 3, 5, 8, or all 9 commits.
GROUP_BOUNDARIES = frozenset({0, 3, 5, 8, 9})


class TestGroupCommitCrashMatrix:
    """All-or-nothing: no crash point may ever split a commit group."""

    def _reference(self, tmp_path):
        fs = FaultyFS()  # counts ops, never crashes
        db = TemporalXMLDatabase.open(
            tmp_path / "reference", durability="fsync", fs=fs
        )
        run_grouped_workload(db)
        db.close()
        expected = commit_history(db.store)
        assert len(expected) == 9
        return expected, version_contents(db.store), fs.ops

    def test_group_crash_matrix(self, tmp_path):
        expected, contents, total_ops = self._reference(tmp_path)
        prefix_lengths = set()
        for k in range(1, total_ops + 1):
            directory = tmp_path / f"gcrash-{k}"
            fs = FaultyFS(crash_at=k)
            try:
                db = TemporalXMLDatabase.open(
                    directory, durability="fsync", fs=fs
                )
                run_grouped_workload(db)
                db.close()
                raise AssertionError(
                    f"crash point {k} never fired (>{fs.ops} ops?)"
                )
            except CrashError:
                pass
            survived, _report = assert_recovers_to_prefix(
                directory, expected, contents
            )
            assert survived in GROUP_BOUNDARIES, (
                f"crash point {k} split a commit group: "
                f"{survived} commits survived"
            )
            prefix_lengths.add(survived)
        # The matrix must land on several distinct group boundaries, not
        # just the endpoints.
        assert len(prefix_lengths) >= 3

    def test_torn_group_writes_stay_atomic(self, tmp_path):
        """Partial bytes of the in-flight group record reaching disk must
        still drop the whole group on recovery."""
        expected, contents, total_ops = self._reference(tmp_path / "torn")
        for fraction in (0.3, 0.9):
            for k in (2, 5, 9, 14, total_ops - 3):
                directory = tmp_path / f"gtorn-{fraction}-{k}"
                fs = FaultyFS(crash_at=k, torn_fraction=fraction)
                try:
                    db = TemporalXMLDatabase.open(
                        directory, durability="fsync", fs=fs
                    )
                    run_grouped_workload(db)
                    db.close()
                except CrashError:
                    pass
                survived, _report = assert_recovers_to_prefix(
                    directory, expected, contents
                )
                assert survived in GROUP_BOUNDARIES, (
                    f"torn write {fraction}@{k} split a group: "
                    f"{survived}"
                )


class TestSilentCorruption:
    def _clean_run(self, tmp_path):
        db = TemporalXMLDatabase.open(tmp_path / "db", durability="fsync")
        run_workload(db)
        db.close()
        return (
            tmp_path / "db",
            commit_history(db.store),
            version_contents(db.store),
        )

    def test_bit_flip_in_journal_truncates_to_prefix(self, tmp_path):
        directory, expected, contents = self._clean_run(tmp_path)
        journal = directory / "journal.bin"
        # Flip a bit inside the first record after the rolled generation.
        flip_bit(str(journal), 20)
        survived, report = assert_recovers_to_prefix(
            str(directory), expected, contents
        )
        assert report.torn_tail
        assert report.records_truncated >= 1
        assert survived < len(expected)

    def test_bit_flip_in_checkpoint_falls_back(self, tmp_path):
        directory, expected, contents = self._clean_run(tmp_path)
        objstore = CASObjectStore(directory)
        root = objstore.object_path(read_pointer(objstore.pointer))
        flip_bit(root, os.path.getsize(root) - 3)
        survived, report = assert_recovers_to_prefix(
            str(directory), expected, contents
        )
        # Previous checkpoint + both journal generations cover everything.
        assert survived == len(expected)
        assert report.checkpoint_source == "previous"
        assert report.checkpoint_errors

    def test_upgrade_falls_back_past_a_bit_flip_in_an_xml_checkpoint(
        self, tmp_path
    ):
        directory, expected, contents = self._clean_run(tmp_path)
        checkpoint = make_legacy(directory) / "checkpoint.xml"
        flip_bit(str(checkpoint), checkpoint.stat().st_size // 2)
        assert upgrade(directory)
        survived, report = assert_recovers_to_prefix(
            str(directory), expected, contents
        )
        assert survived == len(expected)
        assert report.checkpoint_source == "checkpoint"

    @pytest.mark.parametrize("storage", ["xml", "cas"])
    def test_corrupt_last_document_installs_nothing_before_fallback(
        self, tmp_path, storage
    ):
        directory = tmp_path / "db"
        db = TemporalXMLDatabase.open(directory, durability="fsync")
        run_workload(db)
        db.close()
        expected = commit_history(db.store)
        # Damage only c.xml, the last document of the newest checkpoint
        # (it is in neither the .prev generation nor an earlier document),
        # so a.xml and b.xml decode cleanly before the failure; the XML
        # one is read by the upgrade, which falls back the same way.
        if storage == "xml":
            path = make_legacy(directory) / "checkpoint.xml"
            body = path.read_bytes().rpartition(b"\n<!--crc32:")[0]
            assert body.count(b"pi one") == 1
            assert body.index(b"pi one") > body.rindex(b"<document ")
            path.write_bytes(body.replace(b"pi one", b"pi 0ne"))
            objstore = CASObjectStore(directory)
            store = legacy._recover(objstore)
            assert commit_history(store) == expected
            assert [r.doc_id for r in store.repository.records()] == [1, 2, 3]
            return
        objstore = CASObjectStore(directory)
        root = Reader(objstore.get(read_pointer(
            str(directory / CAS_POINTER_FILE)
        )))
        root.u(), root.u()  # format version, clock
        doc_hashes = [root.blob().hex() for _ in range(root.u())]
        flip_bit(objstore.object_path(doc_hashes[-1]), 30)

        store = TemporalDocumentStore()
        recovered, report = recover_store(
            CASObjectStore(directory), fresh=lambda: (store, ())
        )
        assert recovered is store
        assert report.checkpoint_source == "previous"
        assert len(report.checkpoint_errors) == 1
        # .prev holds a.xml v1-2 and b.xml v1-2; every later commit comes
        # from the journal — none was pre-installed by the failed load.
        assert report.records_replayed == 5
        assert commit_history(store) == expected
        assert version_contents(store) == version_contents(db.store)
        assert [r.doc_id for r in store.repository.records()] == [1, 2, 3]

    def test_both_xml_checkpoints_corrupt_is_detected(self, tmp_path):
        directory, _expected, _contents = self._clean_run(tmp_path)
        make_legacy(directory)
        for name in ("checkpoint.xml", "checkpoint.xml.prev"):
            path = directory / name
            flip_bit(str(path), path.stat().st_size // 2)
        # History before the first checkpoint is gone; the upgrade must
        # say so loudly instead of fabricating a partial store.
        with pytest.raises(CorruptArchiveError):
            upgrade(directory)


def test_reporting_open_leaves_a_torn_journal_alone(tmp_path):
    directory = tmp_path / "db"
    db = TemporalXMLDatabase.open(directory, durability="fsync")
    db.put("a.xml", A1)
    db.update("a.xml", A2)
    db.close()
    journal = directory / "journal.bin"
    intact = journal.read_bytes()
    journal.write_bytes(intact + b"\x00\x00\x01\x00torn")
    torn = journal.read_bytes()

    # durability="none" appends nothing (it is what `repro stats -d` uses,
    # possibly beside a live server), so it only reports the tail ...
    reader = TemporalXMLDatabase.open(directory, durability="none")
    assert reader.recovery.torn_tail
    assert reader.recovery.truncated_bytes == len(torn) - len(intact)
    assert commit_history(reader.store) == commit_history(db.store)
    assert journal.read_bytes() == torn

    # ... while a journal reopened for append is repaired first.
    writer = TemporalXMLDatabase.open(directory, durability="journal")
    writer.close()
    assert writer.recovery.torn_tail
    assert journal.read_bytes() == intact
