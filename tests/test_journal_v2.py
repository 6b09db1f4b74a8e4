"""Binary journal formats: the v1 upgrade path, hostile input, lazy decoding.

The record/frame unit tests live in ``test_journal.py``; this file holds
the properties that span recovery: a directory written by the v1 writer
keeps working, bytes an attacker framed with a *valid* CRC end in a typed
error (a redo body that lies included), and a record recovery skips is
never decoded or completed.
"""

import random
import shutil
import zlib
from pathlib import Path

import pytest

from repro import TemporalXMLDatabase
from repro.diff import apply as apply_module
from repro.diff.editscript import DeleteOp, EditScript, ReplaceRootOp, StampOp
from repro.errors import StorageError
from repro.serving import Replica
from repro.storage import TemporalDocumentStore, binfmt
from repro.storage import journal as journal_module
from repro.storage import recover as recover_module
from repro.storage.binfmt import Writer, encode_tree
from repro.storage.faults import CrashError, FaultyFS
from repro.storage.journal import (
    _FRAME,
    FORMAT_VERSION,
    MAGIC,
    CommitJournal,
    JournalRecord,
    scan_journal,
    verify_journal,
)
from repro.storage.persistence import archive_bytes, build_archive
from repro.storage.recover import apply_record, recover_store
from repro.workload import load_figure1
from repro.xmlcore import parse, serialize
from repro.xmlcore.node import Element
from tests.legacy_dirs import make_legacy

V1_FIXTURE = Path(__file__).parent / "data" / "journal_v1" / "journal.bin"
V1_MAGIC = b"TXJRNL1\n"
MENU = 'menu & "specials".xml'
MENU_V1 = "<menu><dish>soupe à l'oignon</dish></menu>"
MENU_V2 = "<menu><dish>soupe à l'oignon</dish><dish>tarte</dish></menu>"


def _fixture_history(db):
    """The commits the v1 fixture holds, through today's write path."""
    load_figure1(db)
    with db.batch() as batch:
        batch.put(MENU, MENU_V1)
        batch.update(MENU, MENU_V2)
    db.delete(MENU)


def _fingerprint(store):
    return archive_bytes(build_archive(store))


class TestFormatV1Directory:
    """``tests/data/journal_v1/journal.bin`` was written by the last commit
    whose journal was XML (``0108929``, format ``TXJRNL1``): Figure 1's
    three versions, one 3-member group (create, update, snapshot), one
    delete; no checkpoint.  Regenerate from a worktree of that commit::

        git worktree add /tmp/parent 0108929 && cd /tmp/parent
        PYTHONPATH=src python - <<'PY'
        from repro import TemporalXMLDatabase
        from repro.workload import load_figure1
        db = TemporalXMLDatabase.open("/tmp/v1db", durability="fsync",
                                      snapshot_interval=2)
        load_figure1(db)
        name = 'menu & "specials".xml'
        with db.batch() as b:
            b.put(name, "<menu><dish>soupe à l'oignon</dish></menu>")
            b.update(name, "<menu><dish>soupe à l'oignon</dish>"
                           "<dish>tarte</dish></menu>")
        db.delete(name)
        db.close()
        PY
        cp /tmp/v1db/journal.bin tests/data/journal_v1/journal.bin
    """

    @pytest.fixture
    def directory(self, tmp_path):
        target = tmp_path / "db"
        target.mkdir()
        shutil.copy(V1_FIXTURE, target / "journal.bin")
        return target

    @pytest.fixture
    def expected(self):
        db = TemporalXMLDatabase(snapshot_interval=2)
        _fixture_history(db)
        return _fingerprint(db.store)

    def test_fixture_is_what_the_docstring_says(self):
        data = V1_FIXTURE.read_bytes()
        assert data.startswith(V1_MAGIC)
        scan = scan_journal(str(V1_FIXTURE))
        assert scan.version == 1 and not scan.torn
        assert [r.kind for r in scan.records] == [
            "create", "update", "snapshot", "update", "group", "delete",
        ]
        assert [m.kind for m in scan.records[4].members] == [
            "create", "update", "snapshot",
        ]

    def test_recover_store_restores_it(self, directory, expected):
        store, report = recover_store(str(directory))
        assert _fingerprint(store) == expected
        assert report.records_replayed == 6
        assert report.journals == [{
            "file": "journal.bin", "version": 1, "records": 6,
            "bytes": len(V1_FIXTURE.read_bytes()),
            "raw_bytes": len(V1_FIXTURE.read_bytes()) - len(V1_MAGIC) - 6 * 8,
        }]
        # recover_store appends nothing, so it upgrades nothing.
        assert (directory / "journal.bin").read_bytes() == (
            V1_FIXTURE.read_bytes()
        )

    def test_open_upgrades_once_and_keeps_working(self, directory, expected):
        v1_bytes = V1_FIXTURE.read_bytes()
        db = TemporalXMLDatabase.open(
            directory, durability="fsync", snapshot_interval=2
        )
        assert _fingerprint(db.store) == expected
        # The v1 file rolled aside untouched; appends go to a fresh file.
        assert (directory / "journal.bin.prev").read_bytes() == v1_bytes
        assert (directory / "journal.bin").read_bytes() == MAGIC
        assert db.journal.version == FORMAT_VERSION
        db.update("guide.com", "<guide><restaurant>new</restaurant></guide>")
        db.close()
        assert (directory / "journal.bin.prev").read_bytes() == v1_bytes
        tail = verify_journal(str(directory / "journal.bin"))
        assert [r.kind for r in tail] == ["update", "snapshot"]  # v4, interval 2

        # A second reopen serves both generations: v1 .prev (all covered by
        # the upgrade checkpoint) and the current format's tail.
        again = TemporalXMLDatabase.open(
            directory, durability="fsync", snapshot_interval=2
        )
        assert _fingerprint(again.store) == _fingerprint(db.store)
        assert [j["version"] for j in again.recovery.journals] == [
            1, FORMAT_VERSION,
        ]
        # The update; its snapshot the interval policy re-made on replay.
        assert again.recovery.records_replayed == 1
        assert (directory / "journal.bin.prev").read_bytes() == v1_bytes
        result = again.query(
            'SELECT R/name FROM doc("guide.com")[26/01/2001]/restaurant R'
        )
        assert "Napoli" in str(result)
        again.close()

    def test_crash_anywhere_in_the_upgrade_loses_nothing(self, tmp_path,
                                                          expected):
        """The upgrade is an ordinary checkpoint, so a crash at any of its
        filesystem operations leaves a directory the next open recovers in
        full — from the v1 file, wherever it sits by then."""
        probe = FaultyFS()
        target = tmp_path / "probe"
        target.mkdir()
        shutil.copy(V1_FIXTURE, target / "journal.bin")
        TemporalXMLDatabase.open(target, durability="fsync", fs=probe).close()
        assert probe.ops >= 8
        for k in range(1, probe.ops + 1):
            target = tmp_path / f"crash-{k}"
            target.mkdir()
            shutil.copy(V1_FIXTURE, target / "journal.bin")
            with pytest.raises(CrashError):
                TemporalXMLDatabase.open(
                    target, durability="fsync", fs=FaultyFS(crash_at=k)
                ).close()
            db = TemporalXMLDatabase.open(target, durability="fsync")
            assert _fingerprint(db.store) == expected, k
            assert db.journal.version == FORMAT_VERSION
            db.close()
            for name in ("journal.bin", "journal.bin.prev"):
                data = (target / name).read_bytes()
                assert data == V1_FIXTURE.read_bytes() or data == MAGIC, (k, name)

    def test_reporting_open_does_not_upgrade(self, directory, expected):
        db = TemporalXMLDatabase.open(directory, durability="none")
        assert _fingerprint(db.store) == expected
        assert sorted(p.name for p in directory.iterdir()) == ["journal.bin"]

    def test_writer_refuses_to_append_after_a_v1_header(self, directory):
        journal = CommitJournal(str(directory / "journal.bin"))
        assert journal.version == 1
        with pytest.raises(StorageError, match="read-only"):
            journal.append(JournalRecord(
                kind="delete", doc_id=1, name="guide.com", version=3, ts=1
            ))
        journal.roll()  # what the upgrade checkpoint does
        assert journal.version == FORMAT_VERSION
        journal.append(JournalRecord(
            kind="delete", doc_id=1, name="guide.com", version=3, ts=1
        ))
        journal.close()
        assert (directory / "journal.bin.prev").read_bytes() == (
            V1_FIXTURE.read_bytes()
        )
        assert (directory / "journal.bin").read_bytes().startswith(MAGIC)


# -- hostile input --------------------------------------------------------------


def _varint(value):
    w = Writer()
    w.u(value)
    return w.getvalue()


def _frame(data, declared=0):
    """One v2 frame with a *correct* CRC around ``data``; ``declared`` is
    the raw-length varint (0 = ``data`` is the record, stored as is)."""
    stored = _varint(declared) + data
    return _FRAME.pack(len(stored), zlib.crc32(stored) & 0xFFFFFFFF) + stored


def _deflated_frame(raw):
    return _frame(zlib.compress(raw, 6), declared=len(raw))


def _record(kind=3, doc=1, name=b"a.xml", version=1, ts=5, nextxid=0,
            body=b"", body_length=None):
    """A record envelope built by hand so every field can lie."""
    length = len(body) if body_length is None else body_length
    return (
        bytes([kind]) + _varint(doc) + _varint(len(name)) + name
        + _varint(version) + _varint(ts) + _varint(nextxid)
        + _varint(length) + body
    )


GOOD = JournalRecord(
    kind="create", doc_id=1, name="a.xml", version=1, ts=5, nextxid=4,
    body=encode_tree(parse("<doc><x>one</x></doc>")),
).encode()
BIG = _record(body=b"0123456789abcdef" * 64)  # deflates well


def _deep_tree(depth):
    body = bytearray()
    for _ in range(depth):
        body += b"\x01\x00\x00\x01e\x00\x01"  # <e> with one child
    return bytes(body) + b"\x02\x00\x00\x01x"  # a text leaf


#: name -> frame bytes the scan must stop at with reason "bad record".
BAD_FRAMES = {
    "truncated raw-length varint": _FRAME.pack(1, zlib.crc32(b"\x80")) + b"\x80",
    "truncated envelope varint": _frame(b"\x03\x80"),
    "member body length past the frame": _frame(_record(body=b"abc",
                                                        body_length=1000)),
    "member count != header": _frame(_record(
        kind=5, doc=0, name=b"", version=3, body=_record() + _record())),
    "empty group": _frame(_record(kind=5, doc=0, name=b"", version=0)),
    "nested group": _frame(_record(
        kind=5, doc=0, name=b"", version=1,
        body=_record(kind=5, doc=0, name=b"", version=1, body=_record()))),
    "unknown kind byte": _frame(_record(kind=9)),
    "kind byte zero": _frame(_record(kind=0)),
    "trailing bytes after the record": _frame(_record() + b"\x00"),
    "invalid UTF-8 in a name": _frame(_record(name=b"caf\xc3(")),
    "declared raw length smaller": _frame(
        zlib.compress(BIG, 6), declared=len(BIG) - 5),
    "declared raw length larger": _frame(
        zlib.compress(BIG, 6), declared=len(BIG) + 5),
    "declared raw length absurd": _frame(
        zlib.compress(BIG, 6), declared=2 ** 63),
    "garbage deflate stream": _frame(
        random.Random(18).randbytes(200), declared=500),
    "deflate stream with a tail": _frame(
        zlib.compress(BIG, 6) + b"tail", declared=len(BIG)),
}

#: name -> create-record body the scan accepts (the frame and envelope are
#: fine) and ``apply_record`` must refuse with a StorageError subclass.
BAD_BODIES = {
    "invalid UTF-8 in a tag": b"\x01\x02\x06\x02\xc3(\x00\x00",
    "5000-deep tree": _deep_tree(5000),
    "truncated tree": encode_tree(parse("<doc><x>one</x></doc>"))[:-3],
    "unknown node kind": b"\x07\x00\x00",
    "empty body": b"",
}


class TestHostileInput:
    @pytest.mark.parametrize("case", sorted(BAD_FRAMES))
    def test_bad_frame_ends_the_scan_with_a_reason(self, tmp_path, case):
        path = tmp_path / "journal.bin"
        path.write_bytes(MAGIC + _frame(GOOD) + BAD_FRAMES[case])
        scan = scan_journal(str(path))
        assert scan.torn and scan.reason == "bad record"
        assert [r.kind for r in scan.records] == ["create"]
        assert scan.valid_size == len(MAGIC + _frame(GOOD))
        # ... which recovery treats as any torn tail: truncated, not fatal.
        store, report = recover_store(str(tmp_path))
        assert report.torn_tail and report.records_replayed == 1
        assert path.read_bytes() == MAGIC + _frame(GOOD)

    @pytest.mark.parametrize("deflated", [False, True])
    @pytest.mark.parametrize("case", sorted(BAD_BODIES))
    def test_bad_body_is_a_typed_error_from_apply(self, tmp_path, case,
                                                  deflated):
        raw = _record(kind=1, doc=2, name=b"b.xml", body=BAD_BODIES[case])
        frame = _deflated_frame(raw) if deflated else _frame(raw)
        path = tmp_path / "journal.bin"
        path.write_bytes(MAGIC + _frame(GOOD) + frame)
        scan = scan_journal(str(path))
        assert not scan.torn and len(scan.records) == 2  # bodies not looked at
        store = TemporalDocumentStore()
        assert apply_record(store, scan.records[0])
        with pytest.raises(StorageError):
            apply_record(store, scan.records[1])
        with pytest.raises(StorageError):
            recover_store(str(tmp_path))

    def test_seeded_mutations_never_escape_as_another_exception(
        self, tmp_path
    ):
        """Mutate the records of a real journal, re-frame them with a
        recomputed CRC, scan and replay: torn-with-a-reason, applied, or a
        StorageError — nothing else, ever."""
        path = tmp_path / "journal.bin"
        store = TemporalDocumentStore(snapshot_interval=2)
        journal = CommitJournal(str(path))
        store.attach_journal(journal)
        store.put("a.xml", '<doc k="v"><x>one café</x><y>keep</y></doc>')
        store.update("a.xml", '<doc k="w"><x>two</x><z>new</z></doc>')
        with store.batch() as batch:
            batch.put("b.xml", "<doc>" + "<x>same words</x>" * 20 + "</doc>")
            batch.update("a.xml", "<doc><x>three</x></doc>")
            batch.delete("b.xml")
        journal.close()
        raws = [record.encode() for record in verify_journal(str(path))]

        rng = random.Random(18)
        outcomes = set()
        for _ in range(400):
            which = rng.randrange(len(raws))
            raw = bytearray(raws[which])
            for _ in range(rng.choice((1, 1, 1, 2, 3))):
                at = rng.randrange(len(raw))
                roll = rng.random()
                if roll < 0.6:
                    raw[at] = rng.randrange(256)
                elif roll < 0.8:
                    del raw[at : at + rng.randrange(1, 8)]
                else:
                    raw[at:at] = rng.randbytes(rng.randrange(1, 5))
                raw = raw or bytearray(b"\x00")
            raw = bytes(raw)
            mutant = (
                _deflated_frame(raw) if rng.random() < 0.5 else _frame(raw)
            )
            path.write_bytes(
                MAGIC + b"".join(_frame(r) for r in raws[:which]) + mutant
            )
            scan = scan_journal(str(path))
            if scan.torn:
                assert scan.reason == "bad record"
                assert len(scan.records) == which
                outcomes.add("torn")
                continue
            fresh = TemporalDocumentStore()
            try:
                for record in scan.records:
                    apply_record(fresh, record)
                outcomes.add("applied")
            except StorageError:
                outcomes.add("typed error")
        assert outcomes == {"torn", "applied", "typed error"}

    def test_crc_is_checked_before_anything_is_inflated(self, tmp_path,
                                                        monkeypatch):
        frame = bytearray(_deflated_frame(BIG))
        frame[-1] ^= 0x01  # damage the stored bytes, keep the old CRC
        path = tmp_path / "journal.bin"
        path.write_bytes(MAGIC + _frame(GOOD) + bytes(frame))

        def never(*_args):
            raise AssertionError("inflated a frame whose CRC is wrong")

        monkeypatch.setattr(journal_module, "inflate", never)
        scan = scan_journal(str(path))
        assert scan.torn and scan.reason == "checksum mismatch"
        assert len(scan.records) == 1


# -- hostile redo bodies --------------------------------------------------------


def _redo_history(tmp_path):
    """A journal holding one create and one update whose delta deletes,
    updates text and re-stamps; returns both records and the committed
    delta."""
    store = TemporalDocumentStore()
    journal = CommitJournal(str(tmp_path / "journal.bin"))
    store.attach_journal(journal)
    store.put("a.xml", "<doc><x>one</x><y>two</y><z>three</z></doc>")
    store.update("a.xml", "<doc><x>uno</x><z>three</z></doc>")
    journal.close()
    create, update = verify_journal(str(tmp_path / "journal.bin"))
    return create, update, store.record("a.xml").deltas[1]


def _replaced(script, kind, make):
    """``script`` with its one ``kind`` operation replaced by ``make(op)``."""
    ops = list(script.ops)
    at = next(i for i, op in enumerate(ops) if isinstance(op, kind))
    ops[at] = make(ops[at])
    return EditScript(ops, from_ts=script.from_ts, to_ts=script.to_ts)


def _stamped_leaf(xid):
    leaf = Element("z")
    leaf.xid, leaf.tstamp = xid, 1
    return leaf


#: name -> the committed delta made hostile, as a completed script whose
#: redo form ``apply_record`` must refuse.
BAD_REDO = {
    # XID 6 is <z>, which stands at position 2, not 1.
    "delete names the wrong victim": lambda delta: _replaced(
        delta, DeleteOp, lambda op: DeleteOp(op.parent_xid, op.pos,
                                             _stamped_leaf(6))),
    "delete position out of range": lambda delta: _replaced(
        delta, DeleteOp, lambda op: DeleteOp(op.parent_xid, 7, op.payload)),
    "stamp of an unknown XID": lambda delta: EditScript(
        delta.ops + [StampOp(999, 1, 2)], delta.from_ts, delta.to_ts),
    "root replacement of another root": lambda delta: EditScript(
        [ReplaceRootOp(_stamped_leaf(3), _stamped_leaf(50))],
        delta.from_ts, delta.to_ts),
}


class TestHostileRedo:
    """Behind a valid CRC, an update's redo body either completes to the
    delta that was committed or ends in a typed error that leaves the
    store as it was."""

    def _refused(self, create, update, body):
        store = TemporalDocumentStore()
        assert apply_record(store, create)
        hostile = JournalRecord(
            kind="update", doc_id=update.doc_id, name=update.name,
            version=update.version, ts=update.ts, nextxid=update.nextxid,
            body=body,
        )
        record = JournalRecord.decode(hostile.encode())  # frames as valid
        with pytest.raises(StorageError):
            apply_record(store, record)
        assert store.delta_index("a.xml").current_number == 1
        # The genuine record still applies on top of the refusal.
        assert apply_record(store, update)
        return store

    def test_the_genuine_body_completes_to_the_committed_delta(self,
                                                               tmp_path):
        create, update, delta = _redo_history(tmp_path)
        assert any(isinstance(op, DeleteOp) for op in delta)
        assert update.body == binfmt.encode_redo(delta)
        store = TemporalDocumentStore()
        assert apply_record(store, create) and apply_record(store, update)
        completed = store.record("a.xml").deltas[1]
        assert binfmt.encode_script(completed) == binfmt.encode_script(delta)

    @pytest.mark.parametrize("case", sorted(BAD_REDO))
    def test_a_lying_body_is_a_typed_error(self, tmp_path, case):
        create, update, delta = _redo_history(tmp_path)
        body = binfmt.encode_redo(BAD_REDO[case](delta))
        store = self._refused(create, update, body)
        completed = store.record("a.xml").deltas[1]
        assert binfmt.encode_script(completed) == binfmt.encode_script(delta)

    def test_every_truncated_body_is_a_typed_error(self, tmp_path):
        create, update, _ = _redo_history(tmp_path)
        for cut in range(len(update.body)):
            self._refused(create, update, update.body[:cut])


# -- laziness -------------------------------------------------------------------


class _DecodeCounter:
    """Counts journal member bodies decoded — ``read_redo`` and
    ``read_script`` calls plus ``read_node`` calls that are not a script's
    own payloads — and redo operations completed."""

    def __init__(self, monkeypatch):
        self.members = 0
        self.completed = 0
        self._in_script = False
        real_node = binfmt.read_node

        def counted(real):
            def read(r):
                self.members += 1
                self._in_script = True
                try:
                    return real(r)
                finally:
                    self._in_script = False

            return read

        def read_node(r):
            if not self._in_script:
                self.members += 1
            return real_node(r)

        for name in ("read_redo", "read_script"):
            monkeypatch.setattr(binfmt, name, counted(getattr(binfmt, name)))
        monkeypatch.setattr(binfmt, "read_node", read_node)
        complete = dict(apply_module._COMPLETE)
        for kind, real in complete.items():
            monkeypatch.setitem(
                apply_module._COMPLETE, kind, self._counting(real)
            )

    def _counting(self, real):
        def complete(*args):
            self.completed += 1
            return real(*args)

        return complete


def _completed_ops(script):
    """How many of a completed script's operations the journal keeps in
    redo form."""
    return sum(
        isinstance(op, (DeleteOp, ReplaceRootOp, StampOp)) for op in script
    )


class TestLazyDecode:
    def _directory(self, tmp_path):
        """A checkpoint that covers all of journal.bin.prev (9 members, one
        group among them) and a 3-commit tail only journal.bin holds."""
        directory = tmp_path / "db"
        db = TemporalXMLDatabase.open(directory, durability="fsync")
        db.put("a.xml", "<doc><x>one</x></doc>")
        with db.batch() as batch:
            for i in range(5):
                batch.put(f"g{i}.xml", f"<doc><x>group {i}</x></doc>")
        for i in range(3):
            db.update("a.xml", f"<doc><x>rev {i}</x><z>gone</z></doc>")
        db.checkpoint()
        db.put("b.xml", "<doc><y>tail</y></doc>")
        db.update("a.xml", "<doc><x>tail</x></doc>")
        db.update("b.xml", "<doc><y>tail two</y></doc>")
        db.close()
        return directory, _fingerprint(db.store)

    def test_reopen_decodes_only_what_it_replays(self, tmp_path, monkeypatch):
        directory, expected = self._directory(tmp_path)
        counter = _DecodeCounter(monkeypatch)
        # The CAS checkpoint's loader decodes with the same readers; count
        # the journal's members alone.
        load_store = recover_module.load_store

        def load_uncounted(*args, **kwargs):
            before = counter.members
            try:
                return load_store(*args, **kwargs)
            finally:
                counter.members = before

        monkeypatch.setattr(recover_module, "load_store", load_uncounted)
        db = TemporalXMLDatabase.open(directory, durability="fsync")
        report = db.recovery
        db.close()
        assert report.records_scanned == 5 + 3  # .prev: 1 + group + 3
        assert report.records_replayed == 3
        assert counter.members == report.records_replayed
        # Only the two tail updates were completed, every redo op once.
        tail = [db.store.record("a.xml").deltas[4],
                db.store.record("b.xml").deltas[1]]
        assert any(isinstance(op, DeleteOp) for op in tail[0])
        assert counter.completed == sum(map(_completed_ops, tail))
        assert _fingerprint(db.store) == expected

    def test_replica_catch_up_on_an_unchanged_leader_decodes_nothing(
        self, tmp_path, monkeypatch
    ):
        directory, expected = self._directory(tmp_path)
        replica = Replica(directory)
        assert _fingerprint(replica.store) == expected
        counter = _DecodeCounter(monkeypatch)
        assert replica.catch_up() == 0
        assert replica.catch_up() == 0
        assert counter.members == counter.completed == 0

        leader = TemporalXMLDatabase.open(directory, durability="fsync")
        leader.update("a.xml", "<doc><x>shipped</x></doc>")
        # The leader's own recovery decoded and completed its tail.
        counter.members = counter.completed = 0
        assert replica.catch_up() == 1
        assert counter.members == 1  # the one new record, nothing re-decoded
        shipped = replica.store.record("a.xml").deltas[5]
        assert counter.completed == _completed_ops(shipped)
        leader.close()


# -- directories written before the stamp-run record ----------------------------


def _per_op(redo):
    """``binfmt.write_script`` (or ``write_redo``) as it was before
    ``_OP_STAMPS``: one record per operation, a 0x06 one for every stamp."""
    def write(w, script):
        w.opt_u(script.from_ts)
        w.opt_u(script.to_ts)
        w.u(len(script.ops))
        for op in script.ops:
            binfmt._write_op(w, op, redo)

    return write


class TestPerOpStampDirectory:
    """A CAS checkpoint (or an older release's XML one) and a journal
    tail whose every edit script spells its stamps out one 0x06 record
    each — what the commits before the 0x08 run record wrote — open,
    replay and answer as ever."""

    @pytest.mark.parametrize("storage", ["cas", "xml"])
    def test_opens_replays_and_answers_figure1(self, tmp_path, monkeypatch,
                                               storage):
        directory = tmp_path / "db"
        with monkeypatch.context() as patch:
            patch.setattr(binfmt, "write_script", _per_op(redo=False))
            patch.setattr(binfmt, "write_redo", _per_op(redo=True))
            db = TemporalXMLDatabase.open(directory, durability="fsync")
            load_figure1(db)
            db.update("guide.com", serialize(db.store.version("guide.com", 2)))
            db.checkpoint()  # deltas 1..3 in the checkpoint ...
            db.update("guide.com", serialize(db.store.version("guide.com", 3)))
            db.close()  # ... delta 4 only in the journal
            deltas = db.store.record("guide.com").deltas.values()
            per_op_bytes = sum(len(binfmt.encode_script(d)) for d in deltas)
            journaled = db.store.record("guide.com").deltas[4]
            per_op_redo = len(binfmt.encode_redo(journaled))
        if storage == "xml":
            make_legacy(directory)  # the checkpoint an older release wrote
        expected = _fingerprint(db.store)
        # The patch took: today's writer spends less on the same scripts.
        assert any(isinstance(op, StampOp) for d in deltas for op in d)
        assert per_op_bytes > sum(len(binfmt.encode_script(d)) for d in deltas)
        assert per_op_redo > len(binfmt.encode_redo(journaled))

        store, report = recover_store(str(directory))
        assert report.records_replayed == 1
        assert _fingerprint(store) == expected

        db = TemporalXMLDatabase.open(directory, durability="fsync")
        assert _fingerprint(db.store) == expected
        result = db.query(
            'SELECT SUM(R) FROM doc("guide.com")[26/01/2001]/restaurant R'
        )
        assert result.scalar() == 2
        result = db.query(
            'SELECT TIME(R), R/price FROM doc("guide.com")[EVERY]/restaurant R '
            'WHERE R/name="Napoli"'
        )
        assert [row["R/price"][0].node.text_content() for row in result] == [
            "15", "15", "18", "15", "18",
        ]
        # It keeps working, and what it writes from here on is run-coded.
        db.update("guide.com", serialize(db.store.version("guide.com", 1)))
        db.checkpoint()
        db.close()
        reopened = TemporalXMLDatabase.open(directory, durability="none")
        assert _fingerprint(reopened.store) == _fingerprint(db.store)
        reopened.close()
