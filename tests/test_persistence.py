"""Tests for the store archive: dump, load, replay."""

import gc
import inspect

import pytest

from repro import TemporalXMLDatabase
from repro.clock import parse_date
from repro.errors import CorruptArchiveError, StorageError
from repro.storage import TemporalDocumentStore
from repro.storage.cas import (
    CASObjectStore,
    read_checkpoint,
    write_checkpoint,
)
from repro.storage.persistence import (
    build_record,
    document_checksum,
    dump_store,
    fill_record,
    load_store,
    replay_history,
)
from repro.storage.recover import recover_store
from repro.index import LifetimeIndex, TemporalFullTextIndex
from repro.model.identifiers import EID
from repro.workload import TDocGenerator, build_collection, load_figure1
from repro.xmlcore import serialize
from repro.xmlcore.node import Element



@pytest.fixture
def populated():
    store = TemporalDocumentStore(snapshot_interval=3)
    load_figure1(store)
    build_collection(
        store, n_docs=2, versions_per_doc=4,
        generator=TDocGenerator(seed=9),
        start_ts=parse_date("01/03/2001"),
    )
    store.delete("doc2.xml", ts=parse_date("01/04/2001"))
    return store


class TestRoundTrip:
    def test_every_version_identical(self, populated, tmp_path):
        path = tmp_path / "archive.xml"
        dump_store(populated, str(path))
        loaded = load_store(str(path))
        for name in populated.documents(include_deleted=True):
            original_index = populated.delta_index(name)
            loaded_index = loaded.delta_index(name)
            assert len(original_index) == len(loaded_index)
            assert original_index.deleted_at == loaded_index.deleted_at
            for entry in original_index.entries:
                assert (
                    loaded_index.entry(entry.number).timestamp
                    == entry.timestamp
                )
                original_tree = populated.version(name, entry.number)
                loaded_tree = loaded.version(name, entry.number)
                assert serialize(original_tree) == serialize(loaded_tree)
                # XIDs and element timestamps survive exactly.
                assert [
                    (n.xid, n.tstamp) for n in loaded_tree.iter()
                ] == [(n.xid, n.tstamp) for n in original_tree.iter()]

    def test_doc_ids_and_names_stable(self, populated):
        archive = dump_store(populated)
        loaded = load_store(archive)
        for name in populated.documents(include_deleted=True):
            assert loaded.doc_id(name) == populated.doc_id(name)

    def test_clock_restored(self, populated):
        loaded = load_store(dump_store(populated))
        assert loaded.clock.now() == populated.clock.now()

    def test_allocator_state_restored(self, populated):
        loaded = load_store(dump_store(populated))
        for name in populated.documents(include_deleted=True):
            assert (
                loaded.record(name).allocator.next_xid
                == populated.record(name).allocator.next_xid
            )

    def test_updates_continue_after_load(self, populated):
        loaded = load_store(dump_store(populated))
        old_root = loaded.current("guide.com")
        number = loaded.update(
            "guide.com",
            "<guide><restaurant><name>Nuovo</name><price>9</price>"
            "</restaurant></guide>",
        )
        assert number == 4
        fresh = loaded.current("guide.com")
        # New XIDs continue past the restored allocator state.
        assert max(n.xid for n in fresh.iter()) > max(
            n.xid for n in old_root.iter()
        )

    def test_archive_is_valid_xml_text(self, populated, tmp_path):
        path = tmp_path / "archive.xml"
        dump_store(populated, str(path))
        text = path.read_text()
        assert text.startswith("<temporalstore")
        loaded = load_store(text)  # load from text as well as from path
        assert set(loaded.documents(include_deleted=True)) == set(
            populated.documents(include_deleted=True)
        )

    @pytest.mark.parametrize("format", ["xml", "cas"])
    def test_line_ends_and_markup_characters_survive(self, tmp_path, format):
        """The XML archive re-parses its own text, and a parser normalizes
        raw line ends; ``load_store`` verifying means each
        ``document_checksum`` still matched after that."""
        store = TemporalDocumentStore()
        awkward = 'x\ry\r\nz\t&<>"]]>'
        store.put("d.xml", "<doc><keep>first</keep></doc>")
        for value in (awkward, awkward[::-1]):
            tree = Element("doc", {"attr": value, "plain": "v"})
            tree.append(Element("keep")).append(value + " tail")
            tree.append(value)
            store.update("d.xml", tree)
        path = tmp_path / "saved"
        if format == "xml":
            dump_store(store, str(path))
            loaded = load_store(str(path))
        else:
            write_checkpoint(store, CASObjectStore(path))
            loaded = read_checkpoint(CASObjectStore(path))
        for number in (1, 2, 3):
            assert loaded.version("d.xml", number).equals_deep(
                store.version("d.xml", number)
            )


class TestRestoreIntoCallerStore:
    def test_tuning_comes_from_the_store_not_the_loader(self, populated):
        target = TemporalDocumentStore(snapshot_interval=2)
        loaded = load_store(dump_store(populated), store=target)
        assert loaded is target
        assert serialize(dump_store(loaded)) == serialize(dump_store(populated))
        # Commits after the restore follow the caller's policy.
        loaded.update("guide.com", "<guide><restaurant/></guide>")
        number = loaded.delta_index("guide.com").current_number
        assert loaded.delta_index("guide.com").entry(number).has_snapshot == (
            number % 2 == 0
        )

    @pytest.mark.parametrize("format", ["xml", "cas"])
    def test_non_empty_store_refused(self, populated, tmp_path, format):
        path = tmp_path / "archive"
        objstore = CASObjectStore(path)
        if format == "xml":
            dump_store(populated, str(path))
        else:
            write_checkpoint(populated, objstore)
        target = TemporalDocumentStore()
        target.put("mine.xml", "<a/>")
        with pytest.raises(StorageError, match="already holds documents"):
            if format == "xml":
                load_store(str(path), store=target)
            else:
                read_checkpoint(objstore, store=target)
        with pytest.raises(StorageError, match="already holds documents"):
            recover_store(CASObjectStore(tmp_path), fresh=lambda: (target, ()))
        assert target.documents() == ["mine.xml"]

    def test_detached_record_agrees_on_its_snapshots(self):
        """What ``build_record`` and ``fill_record`` hand back knows which
        versions have snapshots before any store has adopted it."""
        store = TemporalDocumentStore(snapshot_interval=2)
        trees = TDocGenerator(seed=9).version_sequence("d.xml", 5)
        store.put("d.xml", trees[0])
        for tree in trees[1:]:
            store.update("d.xml", tree)
        source = store.record("d.xml")
        record = fill_record(
            build_record(
                doc_id=source.doc_id,
                name=source.name,
                nextxid=source.allocator.next_xid,
                deleted_at=None,
                entries=[(e.number, e.timestamp) for e in source.dindex.entries],
                deltas=dict(source.deltas),
                clock=store.clock.now(),
            ),
            source.current_root,
            dict(source.snapshots),
        )
        assert record.dindex.snapshot_numbers() == [2, 4]
        assert [
            e.number for e in record.dindex.entries if e.has_snapshot
        ] == [2, 4]
        assert [e.snapshot_bytes for e in record.dindex.entries] == [
            e.snapshot_bytes for e in source.dindex.entries
        ]

    def test_loaders_name_no_tuning_knob(self):
        knobs = {
            "snapshot_interval", "clustered", "cache_size",
            "snapshot_policy", "reconstruct_policy",
        }
        for loader in (load_store, read_checkpoint, recover_store):
            parameters = inspect.signature(loader).parameters
            assert not knobs & set(parameters), loader.__name__
            # The caller builds the store: recovery's comes from fresh().
            assert {"store", "fresh"} & set(parameters), loader.__name__
            assert not any(
                p.kind is p.VAR_KEYWORD for p in parameters.values()
            ), loader.__name__


class TestReplay:
    def test_indexes_match_online_state(self, populated):
        online_fti = TemporalFullTextIndex()
        online_life = LifetimeIndex()
        replay_history(populated, [online_fti, online_life])

        loaded = load_store(dump_store(populated))
        replayed_fti = TemporalFullTextIndex()
        replayed_life = LifetimeIndex()
        replay_history(loaded, [replayed_fti, replayed_life])

        assert replayed_fti.posting_count() == online_fti.posting_count()
        for word in online_fti.words():
            original = {
                (p.doc_id, p.xid, p.start, p.end)
                for p in online_fti.lookup_h(word)
            }
            rebuilt = {
                (p.doc_id, p.xid, p.start, p.end)
                for p in replayed_fti.lookup_h(word)
            }
            assert original == rebuilt, word
        assert len(replayed_life) == len(online_life)

    def test_replay_orders_events_globally(self, populated):
        seen = []

        class Recorder:
            def document_committed(self, event):
                seen.append(event.timestamp)

        replay_history(populated, [Recorder()])
        assert seen == sorted(seen)

    def test_events_fire_in_timestamp_then_doc_id_order(self, interleaved):
        """Exactly the order sorting every document's events by
        ``(timestamp, doc_id)`` gives — ties within one document keep the
        document's own order — now that the streams are merged lazily."""
        store, _fti, _life, online = interleaved
        replayed = _Recorder()
        replay_history(store, [replayed])
        per_document = [
            [e for e in online.events if e[1] == record.doc_id]
            for record in store.repository.records()
        ]
        expected = sorted(
            (event for events in per_document for event in events),
            key=lambda event: (event[3], event[1]),
        )
        assert replayed.events == expected
        kinds = {event[0] for event in expected}
        assert kinds == {"create", "update", "delete"}
        stamps = [event[3] for event in expected]
        assert len(set(stamps)) < len(stamps)  # equal timestamps did occur

    def test_replayed_indexes_equal_the_online_built_ones(self, interleaved):
        store, online_fti, online_life, _online = interleaved
        assert len(store.repository.records()) >= 3
        fti, life = TemporalFullTextIndex(), LifetimeIndex()
        replay_history(store, [fti, life])
        assert fti.posting_count() == online_fti.posting_count()
        assert set(fti.words()) == set(online_fti.words())
        for word in online_fti.words():
            assert {
                (p.doc_id, p.xid, p.path, p.start, p.end)
                for p in fti.lookup_h(word)
            } == {
                (p.doc_id, p.xid, p.path, p.start, p.end)
                for p in online_fti.lookup_h(word)
            }, word
        assert len(life) == len(online_life) > 0
        for record in store.repository.records():
            for number in range(1, record.dindex.current_number + 1):
                for node in store.version(record.doc_id, number).iter():
                    eid = EID(record.doc_id, node.xid)
                    assert life.lifespan(eid) == online_life.lifespan(eid)

    def test_replay_keeps_a_constant_number_of_trees_alive(self):
        """One document of 40 versions: the parent built all 40 trees
        before firing the first event."""
        store = TemporalDocumentStore()
        store.put("long.xml", "<doc><n>0</n></doc>")
        for number in range(1, 40):
            store.update("long.xml", f"<doc><n>{number}</n><m>x</m></doc>")
        # Nodes have no __weakref__ slot, so liveness is counted from the
        # collector's side: document roots (elements no live element has as
        # a child) alive at each event, beyond the ones the store holds.
        def live_roots():
            gc.collect()
            elements = [o for o in gc.get_objects() if isinstance(o, Element)]
            children = {id(c) for e in elements for c in e.children}
            return sum(
                1 for o in elements if id(o) not in children and o.tag == "doc"
            )

        stored = live_roots()
        alive = []

        class Counting:
            def document_committed(self, event):
                alive.append(live_roots() - stored)

        replay_history(store, [Counting()])
        assert len(alive) == 40
        assert max(alive) <= 3


class _Recorder:
    def __init__(self):
        self.events = []

    def document_committed(self, event):
        self.events.append(
            (event.kind, event.doc_id, event.version_number, event.timestamp)
        )


@pytest.fixture
def interleaved():
    """Four documents committed online under an FTI, a lifetime index and
    a recorder: interleaved timestamps, equal timestamps across documents
    (one of them inside a batch commit, against doc-id order), a deleted
    document.  Returns ``(store, fti, lifetime, recorder)``."""
    store = TemporalDocumentStore(snapshot_interval=3)
    fti = store.subscribe(TemporalFullTextIndex())
    life = store.subscribe(LifetimeIndex())
    recorder = store.subscribe(_Recorder())
    t = parse_date("01/03/2001")

    def xml(*words):
        return "<doc>" + "".join(f"<w>{w}</w>" for w in words) + "</doc>"

    store.put("a.xml", xml("alpha", "beta"), ts=t)
    store.put("b.xml", xml("beta"), ts=t)  # equal timestamp, next doc id
    store.update("a.xml", xml("alpha", "gamma"), ts=t + 10)
    store.put("c.xml", xml("gamma", "delta"), ts=t + 20)
    store.update("b.xml", xml("beta", "delta"), ts=t + 30)
    with store.batch() as batch:  # one timestamp, higher doc id first
        batch.update("c.xml", xml("gamma"), ts=t + 40)
        batch.update("a.xml", xml("alpha", "gamma", "omega"), ts=t + 40)
        batch.put("d.xml", xml("omega"), ts=t + 40)
    store.update("b.xml", xml("delta"), ts=t + 50)
    store.delete("c.xml", ts=t + 60)
    store.update("a.xml", xml("omega"), ts=t + 60)  # equal to the delete
    store.update("d.xml", xml("omega", "alpha"), ts=t + 70)
    return store, fti, life, recorder


class TestDatabaseFacade:
    def test_save_load_query_equivalence(self, tmp_path):
        db = TemporalXMLDatabase()
        load_figure1(db)
        path = tmp_path / "db.xml"
        db.save(str(path))
        restored = TemporalXMLDatabase.load(str(path))
        for query in (
            'SELECT R FROM doc("guide.com")[26/01/2001]/restaurant R',
            'SELECT TIME(R), R/price '
            'FROM doc("guide.com")[EVERY]/restaurant R '
            'WHERE R/name="Napoli"',
            'SELECT CREATE TIME(R) '
            'FROM doc("guide.com")[26/01/2001]/restaurant R',
        ):
            assert str(restored.query(query)) == str(db.query(query))

    def test_loaded_database_accepts_commits(self, tmp_path):
        db = TemporalXMLDatabase()
        load_figure1(db)
        path = tmp_path / "db.xml"
        db.save(str(path))
        restored = TemporalXMLDatabase.load(str(path))
        restored.update(
            "guide.com",
            "<guide><restaurant><name>Roma</name><price>30</price>"
            "</restaurant></guide>",
        )
        result = restored.query(
            'SELECT R/name FROM doc("guide.com")/restaurant R'
        )
        assert len(result) == 1
        # The FTI saw the new commit (it was subscribed after replay).
        assert restored.fti.lookup("roma")

    def test_load_reads_no_version(self, tmp_path):
        """The replay walks version 1 back from the archived trees without
        the repository's counters."""
        db = TemporalXMLDatabase()
        trees = TDocGenerator(seed=5).version_sequence("d.xml", 6)
        db.put("d.xml", trees[0])
        for tree in trees[1:]:
            db.update("d.xml", tree)
        db.save(str(tmp_path / "db.xml"))
        restored = TemporalXMLDatabase.load(str(tmp_path / "db.xml"))
        counters = restored.store.repository.counter_snapshot()
        assert counters["delta_reads"] == counters["current_reads"] == 0
        assert counters["snapshot_reads"] == 0
        assert restored.fti.footprint() == db.fti.footprint()
        assert len(restored.lifetime) == len(db.lifetime)


class TestOneRoll:
    def test_open_applies_each_delta_once(self, tmp_path, monkeypatch):
        """``apply_script`` runs once per checkpointed delta (the roll that
        completes it also feeds the indexes) and once per journal update
        applied, wherever a module calls it from."""
        import sys

        from repro.diff.apply import apply_script

        directory = tmp_path / "db"
        db = TemporalXMLDatabase.open(
            directory, durability="fsync", snapshot_interval=2
        )
        generator = TDocGenerator(seed=3)
        for name, updates in (("a.xml", 3), ("b.xml", 1)):
            db.put(name, generator.document(name))
            for _ in range(updates):
                db.update(name, generator.evolve(name))
        db.checkpoint()  # 4 deltas
        db.update("a.xml", generator.evolve("a.xml"))
        db.put("c.xml", generator.document("c.xml"))
        db.update("c.xml", generator.evolve("c.xml"))
        db.delete("b.xml")  # 2 journal updates
        want = dump_store(db.store)
        db.close()
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return apply_script(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "apply_script", None) is apply_script:
                monkeypatch.setattr(module, "apply_script", counting)
        reopened = TemporalXMLDatabase.open(directory, durability="none")
        assert reopened.recovery.checkpoint_source == "checkpoint"
        assert len(calls) == 4 + 2
        assert len({id(script) for script in calls}) == 6
        assert serialize(dump_store(reopened.store)) == serialize(want)
        assert reopened.fti.footprint() == db.fti.footprint()


class TestCorruptedArchives:
    """Damaged archive files must fail as StorageError, naming the file."""

    def _archive(self, populated, tmp_path):
        path = tmp_path / "archive.xml"
        dump_store(populated, str(path))
        return path

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.xml"
        path.write_text("")
        with pytest.raises(StorageError) as excinfo:
            load_store(str(path))
        assert str(path) in str(excinfo.value)

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "garbage.xml"
        path.write_bytes(b"\x00\x01definitely not xml\xff")
        with pytest.raises(StorageError) as excinfo:
            load_store(str(path))
        assert str(path) in str(excinfo.value)

    def test_truncated_tail(self, populated, tmp_path):
        path = self._archive(populated, tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(StorageError) as excinfo:
            load_store(str(path))
        assert str(path) in str(excinfo.value)
        # Wrapped, not the raw parser exception.
        from repro.errors import CorruptArchiveError, XMLSyntaxError

        assert isinstance(excinfo.value, CorruptArchiveError)
        assert not isinstance(excinfo.value, XMLSyntaxError)
        assert excinfo.value.path == str(path)

    def test_parse_error_carries_offset(self, populated, tmp_path):
        from repro.errors import CorruptArchiveError

        path = self._archive(populated, tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - len(data) // 3])
        with pytest.raises(CorruptArchiveError) as excinfo:
            load_store(str(path))
        assert excinfo.value.offset is not None

    def test_bit_flip_fails_checksum(self, populated, tmp_path):
        from tests.faults import flip_bit

        path = self._archive(populated, tmp_path)
        # Flip a text bit in the middle of the file; either the whole-file
        # CRC or a per-document checksum must catch it.
        flip_bit(str(path), path.stat().st_size // 2)
        with pytest.raises(StorageError) as excinfo:
            load_store(str(path))
        assert "checksum" in str(excinfo.value)

    def test_edited_document_fails_document_checksum(self, populated, tmp_path):
        path = self._archive(populated, tmp_path)
        text = path.read_text()
        # Surgical edit that keeps the XML well-formed: change one version
        # timestamp, then strip the whole-file footer so only the per-
        # document checksum can object.
        body, _, _ = text.rpartition("\n<!--crc32:")
        import re as _re

        edited = _re.sub(r'ts="(\d+)"', 'ts="1234567890"', body, count=1)
        path.write_text(edited)
        with pytest.raises(StorageError) as excinfo:
            load_store(str(path))
        assert "checksum" in str(excinfo.value)

    def test_bad_format_attr_from_file(self, populated, tmp_path):
        path = self._archive(populated, tmp_path)
        text = path.read_text()
        body, _, _ = text.rpartition("\n<!--crc32:")
        path.write_text(body.replace('format="1"', 'format="99"', 1))
        with pytest.raises(StorageError) as excinfo:
            load_store(str(path))
        assert "format" in str(excinfo.value)

    def test_bad_numeric_field(self, tmp_path):
        from repro.errors import CorruptArchiveError

        path = tmp_path / "bad.xml"
        path.write_text('<temporalstore format="1" clock="soon"/>')
        with pytest.raises(CorruptArchiveError):
            load_store(str(path))

    def test_verify_false_skips_checksums(self, populated, tmp_path):
        path = self._archive(populated, tmp_path)
        text = path.read_text()
        body, _, _ = text.rpartition("\n<!--crc32:")
        # Destroy only the whole-file footer.
        path.write_text(body + "\n<!--crc32:00000000-->\n")
        with pytest.raises(StorageError):
            load_store(str(path))
        loaded = load_store(str(path), verify=False)
        assert set(loaded.documents(include_deleted=True)) == set(
            populated.documents(include_deleted=True)
        )

    def test_archives_without_checksums_still_load(self, populated):
        # Pre-durability archives carried no checksum attributes; stripping
        # them must leave the archive loadable (format is unchanged).
        archive = dump_store(populated)
        for doc in archive.child_elements():
            doc.attrib.pop("checksum", None)
        loaded = load_store(serialize(archive))
        assert set(loaded.documents(include_deleted=True)) == set(
            populated.documents(include_deleted=True)
        )

    def test_deleted_before_its_last_version(self, populated):
        """What a replay's commit order rests on is checked on load, so
        the index rebuild never meets an empty lifetime."""
        archive = dump_store(populated)
        doc = archive.child_elements()[0]
        last = [v for v in doc.child_elements() if v.tag == "version"][-1]
        doc.set("deleted", str(int(last.get("ts")) - 1))
        doc.set("checksum", f"{document_checksum(doc):08x}")
        with pytest.raises(CorruptArchiveError, match="out of order"):
            load_store(archive)

    def test_deleted_at_its_last_version_round_trips(self, tmp_path):
        """A put and a delete at one instant are accepted online, so a
        checkpoint and an archive of them load again."""
        db = TemporalXMLDatabase.open(tmp_path / "db", durability="fsync")
        ts = parse_date("05/01/2003")
        db.put("a.xml", "<doc><x>one</x></doc>", ts=ts)
        db.delete("a.xml", ts=ts)
        db.checkpoint()
        db.close()
        reopened = TemporalXMLDatabase.open(tmp_path / "db", durability="none")
        assert reopened.recovery.checkpoint_source == "checkpoint"
        assert reopened.recovery.records_replayed == 0
        assert reopened.store.record("a.xml").dindex.deleted_at == ts
        reopened.save(tmp_path / "a.xml")
        loaded = TemporalXMLDatabase.load(tmp_path / "a.xml")
        assert loaded.store.record("a.xml").dindex.deleted_at == ts
        assert len(loaded.lifetime) == len(reopened.lifetime) > 0

    def test_clock_before_a_version(self, populated):
        archive = dump_store(populated)
        archive.set("clock", "1")
        with pytest.raises(CorruptArchiveError, match="out of order"):
            load_store(archive)


class TestAtomicDump:
    def test_no_temp_file_left_behind(self, populated, tmp_path):
        path = tmp_path / "archive.xml"
        dump_store(populated, str(path))
        assert path.exists()
        assert not (tmp_path / "archive.xml.tmp").exists()

    def test_crash_during_dump_preserves_old_archive(self, populated, tmp_path):
        from tests.faults import CrashError, FaultyFS

        path = tmp_path / "archive.xml"
        dump_store(populated, str(path))
        before = path.read_bytes()
        populated.update(
            "guide.com",
            "<guide><restaurant><name>Solo</name><price>5</price>"
            "</restaurant></guide>",
        )
        # Crash on the temp-file write: the published archive is untouched.
        with pytest.raises(CrashError):
            dump_store(populated, str(path), fs=FaultyFS(crash_at=1))
        assert path.read_bytes() == before
        loaded = load_store(str(path))
        assert len(loaded.delta_index("guide.com")) == len(
            load_store(before.decode("utf-8").rpartition("\n<!--crc32:")[0])
            .delta_index("guide.com")
        )


class TestArchiveValidation:
    def test_bad_format_rejected(self):
        from repro.xmlcore import Element

        bad = Element("temporalstore", {"format": "99", "clock": "0"})
        with pytest.raises(StorageError):
            load_store(bad)

    def test_unexpected_elements_rejected(self):
        from repro.xmlcore import Element

        archive = Element(
            "temporalstore", {"format": "1", "clock": "0"}
        )
        archive.append(Element("garbage"))
        with pytest.raises(StorageError):
            load_store(archive)

    def test_missing_current_rejected(self):
        from repro.xmlcore import Element

        archive = Element("temporalstore", {"format": "1", "clock": "0"})
        doc = Element(
            "document", {"id": "1", "name": "x", "nextxid": "5"}
        )
        version = Element("version", {"number": "1", "ts": "100"})
        doc.append(version)
        archive.append(doc)
        with pytest.raises(StorageError):
            load_store(archive)
