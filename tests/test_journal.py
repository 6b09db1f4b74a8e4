"""Unit tests for the commit journal format and the fault-injection shim."""

import re

import pytest

from repro.diff.editscript import (
    DeleteOp,
    EditScript,
    InsertOp,
    MoveOp,
    RedoDelete,
    RedoMove,
    RedoReplaceRoot,
    RedoStamp,
    RedoUpdateAttr,
    RedoUpdateText,
    ReplaceRootOp,
    StampOp,
    UpdateAttrOp,
    UpdateTextOp,
)
from repro import TemporalXMLDatabase
from repro.errors import StorageError, TornJournalError, UnsupportedFormatError
from repro.model.identifiers import XIDAllocator
from repro.model.versioned import stamp_new_nodes
from repro.storage import TemporalDocumentStore
from repro.storage.binfmt import encode_redo, encode_tree
from repro.storage.cas import CASObjectStore
from repro.storage.faults import OSFileSystem
from tests.faults import CrashError, FaultyFS, flip_bit
from tests.references import encode_script
from repro.storage.journal import (
    MAGIC,
    CommitJournal,
    JournalRecord,
    scan_journal,
    verify_journal,
)
from repro.storage.legacy import JournalRecordV2
from repro.storage.persistence import archive_bytes, build_archive
from repro.storage.recover import recover_store
from repro.storage.store import CommitEvent
from repro.xmlcore import parse, serialize


def _journaled_store(tmp_path, fsync_policy="flush"):
    store = TemporalDocumentStore()
    journal = CommitJournal(
        str(tmp_path / "journal.bin"), fsync_policy=fsync_policy
    )
    store.attach_journal(journal)
    return store, journal


def _stamped(source, ts=100, first_xid=1):
    tree = parse(source)
    stamp_new_nodes(tree, XIDAllocator(first_xid), ts)
    return tree


def _redo_half(op):
    """What the journal keeps of a completed operation."""
    if isinstance(op, DeleteOp):
        return RedoDelete(op.payload.xid)
    if isinstance(op, MoveOp):
        return RedoMove(op.xid, op.to_parent, op.to_pos)
    if isinstance(op, StampOp):
        return RedoStamp(op.xid, op.new_ts)
    if isinstance(op, ReplaceRootOp):
        return RedoReplaceRoot(op.old_payload.xid, op.new_payload)
    if isinstance(op, UpdateTextOp):
        return RedoUpdateText(op.xid, op.new)
    if isinstance(op, UpdateAttrOp):
        return RedoUpdateAttr(op.xid, op.name, op.new)
    return op


ODD_NAME = "a b \"quoted\" & <odd> caf\u00e9 \u2603.xml"


class TestRecordFormat:
    def test_round_trip_with_body(self):
        tree = _stamped(
            '<guide lang="fr" empty=""><r id="1">caf\u00e9 <b>bold</b> tail</r>'
            "<r><n>Napoli &amp; &lt;co&gt;</n></r></guide>"
        )
        created = JournalRecord(
            kind="create", doc_id=7, name=ODD_NAME, version=1, ts=100,
            nextxid=19, body=encode_tree(tree),
        )
        back = JournalRecord.decode(created.encode())
        assert back == created  # envelope fields and the body bytes
        assert serialize(back.initial_tree()) == serialize(tree)
        assert encode_tree(back.initial_tree()) == created.body  # XIDs, stamps

        payload = _stamped("<x>fresh</x>", ts=200, first_xid=50)
        script = EditScript(
            [
                InsertOp(1, 0, payload),
                DeleteOp(1, 1, tree.children[0].copy()),
                MoveOp(3, 1, 1, 1, 0),
                UpdateTextOp(4, "caf\u00e9 ", "th\u00e9 "),
                UpdateAttrOp(1, "lang", "fr", None),
                UpdateAttrOp(1, "new", None, ""),
                StampOp(1, 100, 200),
                ReplaceRootOp(tree.copy(), payload.copy()),
            ],
            from_ts=100, to_ts=200,
        )
        assert len({type(op) for op in script.ops}) == 7  # every op kind
        updated = JournalRecord(
            kind="update", doc_id=7, name=ODD_NAME, version=2, ts=200,
            nextxid=None, body=encode_redo(script),
        )
        back = JournalRecord.decode(updated.encode())
        assert back == updated
        assert back.nextxid is None
        redo = back.script()
        assert (redo.from_ts, redo.to_ts) == (100, 200)
        assert redo.ops == [_redo_half(op) for op in script.ops]

        # A format v2 file holds the completed delta itself.
        legacy = JournalRecordV2.decode(
            JournalRecord(
                kind="update", doc_id=7, name=ODD_NAME, version=2, ts=200,
                body=encode_script(script),
            ).encode()
        )
        decoded = legacy.script()
        assert (decoded.from_ts, decoded.to_ts) == (100, 200)
        assert serialize(decoded.to_xml()) == serialize(script.to_xml())
        assert encode_script(decoded) == legacy.body

    def test_round_trip_without_body(self):
        record = JournalRecord(
            kind="delete", doc_id=2, name="x.xml", version=5, ts=99
        )
        back = JournalRecord.decode(record.encode())
        assert back == record
        assert back.body == b""
        assert back.nextxid is None

    def test_unknown_kind_and_trailing_bytes_rejected(self):
        with pytest.raises(StorageError):
            JournalRecord(
                kind="bogus", doc_id=1, name="x", version=1, ts=1
            ).encode()
        good = JournalRecord(
            kind="delete", doc_id=1, name="x", version=1, ts=1
        ).encode()
        with pytest.raises(StorageError):
            JournalRecord.decode(good + b"\x00")


class TestJournalFile:
    def test_commits_are_journaled_and_scannable(self, tmp_path):
        store, journal = _journaled_store(tmp_path)
        store.put("a.xml", "<doc><x>one</x></doc>")
        store.update("a.xml", "<doc><x>two</x></doc>")
        store.delete("a.xml")
        journal.close()

        records = verify_journal(str(tmp_path / "journal.bin"))
        assert [r.kind for r in records] == ["create", "update", "delete"]
        assert [r.version for r in records] == [1, 2, 2]
        tree = records[0].initial_tree()
        assert records[0].nextxid > max(n.xid for n in tree.iter())

    def test_snapshot_records_follow_interval_commits(self, tmp_path):
        store = TemporalDocumentStore(snapshot_interval=2)
        journal = CommitJournal(str(tmp_path / "journal.bin"))
        store.attach_journal(journal)
        store.put("a.xml", "<doc><x>one</x></doc>")
        for i in range(3):
            store.update("a.xml", f"<doc><x>rev {i}</x></doc>")
        journal.close()
        kinds = [r.kind for r in verify_journal(str(tmp_path / "journal.bin"))]
        assert kinds == [
            "create", "update", "snapshot", "update", "update", "snapshot",
        ]

    def test_reopen_appends(self, tmp_path):
        store, journal = _journaled_store(tmp_path)
        store.put("a.xml", "<doc><x>one</x></doc>")
        journal.close()
        journal2 = CommitJournal(str(tmp_path / "journal.bin"))
        journal2.append(
            JournalRecord(kind="delete", doc_id=1, name="a.xml", version=1, ts=5)
        )
        journal2.close()
        records = verify_journal(str(tmp_path / "journal.bin"))
        assert [r.kind for r in records] == ["create", "delete"]

    def test_roll_archives_generation(self, tmp_path):
        store, journal = _journaled_store(tmp_path)
        store.put("a.xml", "<doc><x>one</x></doc>")
        journal.roll()
        store.update("a.xml", "<doc><x>two</x></doc>")
        journal.close()
        prev = verify_journal(str(tmp_path / "journal.bin.prev"))
        main = verify_journal(str(tmp_path / "journal.bin"))
        assert [r.kind for r in prev] == ["create"]
        assert [r.kind for r in main] == ["update"]
        assert journal.stats.rolls == 1

    def test_stats_count_bytes_written_and_raw_bytes(self, tmp_path):
        from repro import TemporalXMLDatabase

        db = TemporalXMLDatabase.open(tmp_path / "db", durability="journal")
        db.put("small.xml", "<doc/>")  # below the deflate threshold
        db.put("big.xml", "<doc>" + "<x>same words</x>" * 30 + "</doc>")
        db.close()
        stats = db.durability_stats()["journal"]
        path = str(tmp_path / "db" / "journal.bin")
        # bytes_written: frame header + stored bytes of every record, i.e.
        # the file minus its magic; raw_bytes: the same records inflated.
        assert stats["bytes_written"] == OSFileSystem().size(path) - len(MAGIC)
        assert stats["raw_bytes"] == scan_journal(path).raw_bytes
        assert stats["bytes_written"] < stats["raw_bytes"]

    def test_bad_magic_refused_on_open(self, tmp_path):
        path = tmp_path / "journal.bin"
        path.write_bytes(b"this is not a journal at all")
        with pytest.raises(UnsupportedFormatError):
            CommitJournal(str(path))
        assert path.read_bytes() == b"this is not a journal at all"

    @pytest.mark.parametrize("head", [b"TXJRNL9\n", b"TXJRNL1\n"])
    def test_a_journal_of_another_format_is_refused_not_wiped(self, tmp_path,
                                                              head):
        """A newer release's magic, or an older one's: recovery refuses
        the directory and truncates nothing."""
        store, journal = _journaled_store(tmp_path)
        store.put("a.xml", "<doc><x>one</x></doc>")
        journal.close()
        path = tmp_path / "journal.bin"
        data = head + path.read_bytes()[len(MAGIC):]
        path.write_bytes(data)
        with pytest.raises(UnsupportedFormatError, match=re.escape(repr(head))):
            scan_journal(str(path))
        for durability in ("journal", "none"):
            with pytest.raises(UnsupportedFormatError,
                               match="repro upgrade"):
                TemporalXMLDatabase.open(tmp_path, durability=durability)
        assert path.read_bytes() == data

    def test_open_reads_the_header_not_the_file(self, tmp_path):
        store, journal = _journaled_store(tmp_path)
        store.put("a.xml", "<doc><x>one</x></doc>")
        journal.close()
        path = tmp_path / "journal.bin"
        before = path.read_bytes()

        class RecordingFS(OSFileSystem):
            lengths = []

            def read_bytes(self, path, length=None):
                self.lengths.append(length)
                return super().read_bytes(path, length)

        CommitJournal(str(path), fs=RecordingFS()).close()
        assert RecordingFS.lengths == [len(MAGIC)]
        # A short read of the header is a read error, never a reason to
        # truncate and never a foreign format.
        with pytest.raises(StorageError, match="short read") as err:
            CommitJournal(str(path), fs=FaultyFS(short_read_at=1))
        assert not isinstance(err.value, UnsupportedFormatError)
        assert path.read_bytes() == before

    def test_open_of_a_directory_reports_a_short_head_read(self, tmp_path):
        """Recovery's format gate reads the same 8 bytes."""
        db = TemporalXMLDatabase.open(tmp_path, durability="fsync")
        db.put("a.xml", "<doc><x>one</x></doc>")
        db.close()
        before = (tmp_path / "journal.bin").read_bytes()
        with pytest.raises(StorageError, match="short read") as err:
            TemporalXMLDatabase.open(tmp_path, fs=FaultyFS(short_read_at=1))
        assert not isinstance(err.value, UnsupportedFormatError)
        assert (tmp_path / "journal.bin").read_bytes() == before

    def test_torn_header_truncated_on_open(self, tmp_path):
        path = tmp_path / "journal.bin"
        path.write_bytes(MAGIC[:3])
        journal = CommitJournal(str(path))
        journal.close()
        assert path.read_bytes() == MAGIC


class TestScan:
    def test_missing_and_empty(self, tmp_path):
        missing = scan_journal(str(tmp_path / "nope.bin"))
        assert missing.records == [] and not missing.torn
        (tmp_path / "empty.bin").write_bytes(b"")
        empty = scan_journal(str(tmp_path / "empty.bin"))
        assert empty.records == [] and not empty.torn

    def test_torn_tail_detected_and_truncatable(self, tmp_path):
        store, journal = _journaled_store(tmp_path)
        store.put("a.xml", "<doc><x>one</x></doc>")
        store.update("a.xml", "<doc><x>two</x></doc>")
        journal.close()
        path = tmp_path / "journal.bin"
        data = path.read_bytes()
        path.write_bytes(data[:-7])  # tear the last record mid-payload

        scan = scan_journal(str(path))
        assert scan.torn
        assert scan.reason == "torn payload"
        assert [r.kind for r in scan.records] == ["create"]
        assert scan.valid_size < len(data) - 7
        with pytest.raises(TornJournalError):
            verify_journal(str(path))

    def test_bit_flip_detected_by_crc(self, tmp_path):
        store, journal = _journaled_store(tmp_path)
        store.put("a.xml", "<doc><x>one</x></doc>")
        store.update("a.xml", "<doc><x>two</x></doc>")
        journal.close()
        path = str(tmp_path / "journal.bin")
        flip_bit(path, OSFileSystem().size(path) - 3)
        scan = scan_journal(path)
        assert scan.torn and scan.reason == "checksum mismatch"
        assert [r.kind for r in scan.records] == ["create"]

    def test_short_read_behaves_like_torn_tail(self, tmp_path):
        store, journal = _journaled_store(tmp_path)
        store.put("a.xml", "<doc><x>one two three</x></doc>")
        store.update("a.xml", "<doc><x>four five</x></doc>")
        journal.close()
        fs = FaultyFS(short_read_at=1, short_read_fraction=0.6)
        scan = scan_journal(str(tmp_path / "journal.bin"), fs=fs)
        assert scan.torn
        assert len(scan.records) <= 1


class TestCommitGroups:
    def _member(self, kind="delete", version=1, ts=10):
        return JournalRecord(
            kind=kind, doc_id=1, name="a.xml", version=version, ts=ts
        )

    def test_group_record_round_trip(self):
        members = [self._member(ts=10), self._member(version=2, ts=11)]
        record = JournalRecord.group(members)
        back = JournalRecord.decode(record.encode())
        assert back.kind == "group"
        assert len(back.members) == 2
        assert [(m.kind, m.doc_id, m.version, m.ts) for m in back.members] == [
            ("delete", 1, 1, 10), ("delete", 1, 2, 11),
        ]

    def test_empty_and_nested_groups_rejected(self):
        with pytest.raises(StorageError):
            JournalRecord.group([])
        inner = JournalRecord.group([self._member()])
        with pytest.raises(StorageError):
            JournalRecord.group([inner])

    def test_group_is_one_physical_record_one_fsync(self, tmp_path):
        journal = CommitJournal(
            str(tmp_path / "journal.bin"), fsync_policy="commit"
        )
        header_fsyncs = journal.stats.fsyncs
        journal.begin_group()
        assert journal.in_group
        for i in range(5):
            journal.append(self._member(version=i + 1, ts=10 + i))
        assert journal.stats.records_written == 0  # staged, not written
        assert journal.commit_group() == 5
        journal.close()
        assert journal.stats.records_written == 1
        assert journal.stats.fsyncs - header_fsyncs == 2  # group + close
        assert journal.stats.groups_written == 1
        assert journal.stats.group_members == 5
        assert journal.stats.by_kind["delete"] == 5

        records = verify_journal(str(tmp_path / "journal.bin"))
        assert [r.kind for r in records] == ["group"]
        assert len(records[0].members) == 5

    def test_abort_group_leaves_file_untouched(self, tmp_path):
        path = tmp_path / "journal.bin"
        journal = CommitJournal(str(path))
        before = path.read_bytes()
        journal.begin_group()
        journal.append(self._member())
        journal.abort_group()
        journal.close()
        assert path.read_bytes() == before
        assert verify_journal(str(path)) == []

    def test_empty_group_commit_writes_nothing(self, tmp_path):
        path = tmp_path / "journal.bin"
        journal = CommitJournal(str(path))
        journal.begin_group()
        assert journal.commit_group() == 0
        journal.close()
        assert verify_journal(str(path)) == []

    def test_roll_refused_inside_group(self, tmp_path):
        journal = CommitJournal(str(tmp_path / "journal.bin"))
        journal.begin_group()
        with pytest.raises(StorageError):
            journal.roll()
        journal.abort_group()
        journal.close()

    def test_torn_group_drops_all_members(self, tmp_path):
        path = tmp_path / "journal.bin"
        journal = CommitJournal(str(path))
        journal.append(self._member(ts=5))  # a plain record before the group
        journal.begin_group()
        for i in range(3):
            journal.append(self._member(version=i + 1, ts=10 + i))
        journal.commit_group()
        journal.close()
        data = path.read_bytes()
        path.write_bytes(data[:-5])  # tear inside the group payload

        scan = scan_journal(str(path))
        assert scan.torn
        # All-or-nothing: the whole group vanished, never a member prefix.
        assert [r.kind for r in scan.records] == ["delete"]

    def test_store_batch_journals_one_group(self, tmp_path):
        store = TemporalDocumentStore(snapshot_interval=2)
        journal = CommitJournal(str(tmp_path / "journal.bin"))
        store.attach_journal(journal)
        with store.batch() as batch:
            batch.put("a.xml", "<doc><x>one</x></doc>")
            batch.update("a.xml", "<doc><x>two</x></doc>")
            batch.update("a.xml", "<doc><x>three</x></doc>")
            batch.delete("a.xml")
        journal.close()
        records = verify_journal(str(tmp_path / "journal.bin"))
        assert [r.kind for r in records] == ["group"]
        kinds = [m.kind for m in records[0].members]
        # The snapshot of version 2 is journaled right after its update,
        # as it is outside a batch.
        assert kinds == ["create", "update", "snapshot", "update", "delete"]
        assert [m.version for m in records[0].members] == [1, 2, 2, 3, 3]

    def test_group_with_snapshots_last_still_recovers(self, tmp_path):
        """Journals written before snapshot records followed their update
        put every snapshot of a batch at the end of its group.  Such a
        group recovers to the same store, byte for byte, as the same batch
        journaled in today's order."""
        new_dir, old_dir = tmp_path / "new", tmp_path / "old"
        new_dir.mkdir()
        old_dir.mkdir()
        store = TemporalDocumentStore(snapshot_interval=2)
        journal = CommitJournal(str(new_dir / "journal.bin"))
        store.attach_journal(journal)
        with store.batch() as batch:
            batch.put("a.xml", "<doc><x>one</x></doc>")
            batch.update("a.xml", "<doc><x>two</x></doc>")
            batch.put("b.xml", "<doc><y>1</y></doc>")
            batch.update("a.xml", "<doc><x>three</x><z/></doc>")
            batch.update("b.xml", "<doc><y>2</y></doc>")
            batch.update("a.xml", "<doc><x>four</x></doc>")
            batch.delete("b.xml")
        journal.close()
        (group,) = verify_journal(str(new_dir / "journal.bin"))
        members = group.members
        assert [(m.kind, m.name, m.version) for m in members
                if m.kind == "snapshot"] == [
            ("snapshot", "a.xml", 2), ("snapshot", "b.xml", 2),
            ("snapshot", "a.xml", 4),
        ]
        old_order = [m for m in members if m.kind != "snapshot"] + [
            m for m in members if m.kind == "snapshot"
        ]
        assert old_order != members
        old = CommitJournal(str(old_dir / "journal.bin"))
        old.begin_group()
        for member in old_order:
            old.append(member)
        old.commit_group()
        old.close()

        expected = archive_bytes(build_archive(store))
        for directory in (new_dir, old_dir):
            recovered, report = recover_store(CASObjectStore(directory))
            assert report.records_replayed == 1  # the one group
            assert [
                recovered.record(name).dindex.snapshot_numbers()
                for name in ("a.xml", "b.xml")
            ] == [[2, 4], [2]]
            assert archive_bytes(build_archive(recovered)) == expected


    def test_staged_member_bytes_are_fixed_at_append(self, tmp_path):
        """A group member is encoded when it is appended, not when
        commit_group() writes the frame: what happens to the live tree in
        between (here: a later member of the same batch, then a blunt
        in-place edit) must not reach the journal."""
        store = TemporalDocumentStore()
        journal = CommitJournal(str(tmp_path / "journal.bin"))
        store.attach_journal(journal)
        with store.batch() as batch:
            batch.put("a.xml", "<doc><x>one</x><y>keep</y></doc>")
            batch.update("a.xml", "<doc><x>two</x><z>new</z></doc>")
        journal.close()
        tree = _stamped("<doc><x>before</x></doc>")
        unbound = CommitJournal(str(tmp_path / "journal.bin"))
        unbound.begin_group()
        unbound.document_committed(
            CommitEvent("create", 9, "b.xml", 1, 100, root=tree)
        )
        tree.children[0].children[0].value = "after"
        unbound.commit_group()
        unbound.close()

        first, second = verify_journal(str(tmp_path / "journal.bin"))
        create, update = first.members
        assert (create.kind, update.kind) == ("create", "update")
        assert serialize(create.initial_tree()) == (
            "<doc><x>one</x><y>keep</y></doc>"
        )
        assert create.body == encode_tree(store.version("a.xml", 1))
        assert serialize(second.members[0].initial_tree()) == (
            "<doc><x>before</x></doc>"
        )

    def test_deflated_group_torn_at_every_byte_is_all_or_nothing(
        self, tmp_path
    ):
        path = tmp_path / "journal.bin"
        store = TemporalDocumentStore()
        journal = CommitJournal(str(path))
        store.attach_journal(journal)
        store.put("first.xml", "<doc/>")
        before_group = path.stat().st_size
        with store.batch() as batch:
            for i in range(6):
                batch.put(
                    f"d{i}.xml", "<doc>" + "<x>same words</x>" * 20 + "</doc>"
                )
        journal.close()
        assert journal.stats.bytes_written < journal.stats.raw_bytes  # deflated
        data = path.read_bytes()
        assert len(verify_journal(str(path))[1].members) == 6
        for cut in range(before_group, len(data)):
            path.write_bytes(data[:cut])
            scan = scan_journal(str(path))
            assert [r.kind for r in scan.records] == ["create"], cut
            assert scan.valid_size == before_group
            assert scan.torn == (cut > before_group)


class TestFaultyFS:
    def test_crash_at_counts_and_kills(self, tmp_path):
        fs = FaultyFS(crash_at=2)
        handle = fs.open_append(str(tmp_path / "f"))
        fs.write(handle, b"one")
        with pytest.raises(CrashError):
            fs.write(handle, b"twotwotwo")
        with pytest.raises(CrashError):
            fs.read_bytes(str(tmp_path / "f"))
        assert fs.crashed
        assert [name for name, _ in fs.op_log] == ["write", "write"]

    def test_torn_write_leaves_prefix(self, tmp_path):
        fs = FaultyFS(crash_at=1, torn_fraction=0.5)
        handle = fs.open_append(str(tmp_path / "f"))
        with pytest.raises(CrashError):
            fs.write(handle, b"abcdefgh")
        assert (tmp_path / "f").read_bytes() == b"abcd"

    def test_recovery_truncates_short_read_tail(self, tmp_path):
        # A short read during recovery must yield a clean prefix store.
        store, journal = _journaled_store(tmp_path)
        store.put("a.xml", "<doc><x>one</x></doc>")
        store.update("a.xml", "<doc><x>two</x></doc>")
        journal.close()
        # Read 1 is the format check's 8-byte header; read 2 the scan's.
        fs = FaultyFS(short_read_at=2, short_read_fraction=0.7)
        recovered, report = recover_store(CASObjectStore(tmp_path, fs=fs))
        assert report.torn_tail
        index = recovered.delta_index("a.xml")
        assert len(index) in (1, 2)
