"""Tests for the TemporalXMLDatabase facade and bench harness utilities."""


import pytest

from benchmarks.ablation.stratum import StratumStore
from benchmarks.harness import CostMeter, Measurement, Table
from repro import TemporalXMLDatabase, parse_date
from repro.workload import load_figure1

from tests.conftest import JAN_26


class TestFacade:
    def test_quickstart_flow(self):
        db = TemporalXMLDatabase()
        db.put("d.xml", "<a><b>one</b></a>")
        db.update("d.xml", "<a><b>two</b></a>")
        result = db.query('SELECT D/b FROM doc("d.xml") D')
        assert len(result) == 1
        db.delete("d.xml")
        assert db.documents() == []

    def test_ts_helper(self):
        assert TemporalXMLDatabase.ts("26/01/2001") == parse_date("26/01/2001")

    def test_indexes_wired(self):
        db = TemporalXMLDatabase()
        load_figure1(db)
        assert db.fti.lookup("napoli")
        assert len(db.lifetime) > 0
        assert db.engine.fti is db.fti
        assert db.engine.lifetime is db.lifetime

    def test_no_query_options_anywhere(self):
        """The engine has one configuration; nothing above it takes (or
        forwards) a query-options object."""
        import inspect

        from repro.query import QueryEngine
        from repro.serving import Replica, Session, SessionManager

        for owner in (QueryEngine, TemporalXMLDatabase, Session, Replica,
                      SessionManager.session, Replica.session):
            assert "options" not in inspect.signature(owner).parameters
        with pytest.raises(TypeError):
            TemporalXMLDatabase(options=None)
        assert not hasattr(TemporalXMLDatabase().engine, "options")

    def test_snapshot_interval_plumbing(self):
        db = TemporalXMLDatabase(snapshot_interval=2)
        db.put("d.xml", "<a><b>0</b></a>")
        for value in range(1, 4):
            db.update("d.xml", f"<a><b>{value}</b></a>")
        entries = db.store.delta_index("d.xml").entries
        assert any(e.has_snapshot for e in entries)

    @pytest.mark.parametrize("how", ["init", "load", "open"])
    def test_every_entry_point_takes_the_same_tuning(self, how, tmp_path):
        tuning = dict(snapshot_interval=3)
        if how == "init":
            db = TemporalXMLDatabase(**tuning)
        elif how == "load":
            saved = TemporalXMLDatabase()
            load_figure1(saved)
            saved.save(str(tmp_path / "db.xml"))
            db = TemporalXMLDatabase.load(str(tmp_path / "db.xml"), **tuning)
        else:
            db = TemporalXMLDatabase.open(tmp_path / "state", **tuning)
        repository = db.store.repository
        assert repository.snapshot_interval == tuning["snapshot_interval"]
        assert db.engine.store is db.store
        for gone in ("clustered", "disk", "cache_size"):
            with pytest.raises(TypeError):
                TemporalXMLDatabase.open(tmp_path / "other", **{gone: None})

    @pytest.mark.parametrize("kind", ["empty", "database"])
    def test_save_refuses_a_directory(self, kind, tmp_path):
        from repro.errors import StorageError
        from tests.faults import tree_digest

        target = tmp_path / "d"
        if kind == "empty":
            target.mkdir()
        else:
            TemporalXMLDatabase.open(target).close()
        before = tree_digest(tmp_path)
        db = TemporalXMLDatabase()
        load_figure1(db)
        with pytest.raises(StorageError, match="is a directory"):
            db.save(str(target))
        assert tree_digest(tmp_path) == before
        assert not (tmp_path / "d.tmp").exists()

    def test_now_and_snapshot(self):
        db = TemporalXMLDatabase()
        load_figure1(db)
        assert db.snapshot("guide.com", JAN_26) is not None
        assert db.now() >= JAN_26


class TestCostMeter:
    def test_measures_store_counters(self):
        db = TemporalXMLDatabase()
        load_figure1(db)
        meter = CostMeter(store=db.store, indexes=[db.fti])
        with meter.measure() as region:
            result = db.query(
                'SELECT R FROM doc("guide.com")[26/01/2001]/restaurant R'
            )
            result.to_xml()  # force reconstruction of the selected elements
        cost = region.result
        assert cost.wall_ms >= 0
        assert cost.postings_scanned > 0
        assert cost.delta_reads > 0  # Q1 reconstructs the Jan-26 snapshot

    def test_estimated_io(self):
        m = Measurement(seeks=2, pages_read=10)
        assert m.estimated_io_ms(seek_ms=8.0, page_ms=0.1) == 17.0
        assert m.as_dict()["seeks"] == 2


class TestTable:
    def test_render(self):
        table = Table("demo", ["col", "value"])
        table.add("a", 1)
        table.add("bb", 2.5)
        table.note("a note")
        text = table.render()
        assert "demo" in text
        assert "bb" in text
        assert "2.500" in text
        assert "note: a note" in text


class TestTableFormatting:
    def test_large_floats_one_decimal(self):
        table = Table("fmt", ["v"])
        table.add(1234.5678)
        assert "1234.6" in table.render()

    def test_small_floats_three_decimals(self):
        table = Table("fmt", ["v"])
        table.add(1.23456)
        assert "1.235" in table.render()


class TestCostMeterStratum:
    def test_stratum_counters(self):
        stratum = StratumStore()
        load_figure1(stratum)
        meter = CostMeter(stratum=stratum)
        with meter.measure() as region:
            stratum.snapshot("guide.com", TemporalXMLDatabase.ts("26/01/2001"))
        assert region.result.version_reads == 1
        assert region.result.pages_read >= 1


# -- the counter outputs, pinned -----------------------------------------------


def _durable_history(directory):
    """A fixed durable history: Figure 1, a checkpoint, a batch left in
    the journal, a reopen that replays it, a second checkpoint, one more
    commit, and two queries.  Every timestamp is given, so every counter
    and byte count is the same on every run."""
    db = TemporalXMLDatabase.open(
        directory, durability="fsync", snapshot_interval=2
    )
    load_figure1(db)
    db.checkpoint()
    with db.batch() as batch:
        batch.put("menu.xml", "<menu><dish>soup</dish></menu>",
                  ts=parse_date("01/03/2001"))
        batch.update("menu.xml", "<menu><dish>stew</dish></menu>",
                     ts=parse_date("02/03/2001"))
    db.close()
    db = TemporalXMLDatabase.open(
        directory, durability="fsync", snapshot_interval=2
    )
    db.checkpoint()
    db.update("menu.xml", "<menu><dish>stew</dish><dish>pie</dish></menu>",
              ts=parse_date("03/03/2001"))
    db.delete("menu.xml", ts=parse_date("04/03/2001"))
    db.query('SELECT R FROM doc("guide.com")[26/01/2001]/restaurant R'
             ).to_xml()
    db.query('SELECT TIME(R), R/price FROM doc("guide.com")[EVERY]'
             '/restaurant R WHERE R/name = "Napoli"')
    return db


#: ``engine.registry.snapshot()`` after :func:`_durable_history`, in the
#: registry's key order.  ``cas.reads``/``read_bytes`` hold the reopen's
#: checkpoint load (4 objects, 345 bytes) plus the second checkpoint's GC
#: walk (5, 483): recovery and the checkpointer share one object store.
#: The reopen reads no version: its index replay starts from the first
#: versions the checkpoint holds.
_REGISTRY = {
    "store.delta_reads": 1, "store.snapshot_reads": 2,
    "store.current_reads": 2, "store.subtree_reads": 5,
    "store.ops_applied": 0, "store.ops_skipped": 4,
    "store.subtree_fallbacks": 0,
    "anchors.forward_chains": 1, "anchors.backward_chains": 1,
    "anchors.exact_anchors": 4, "anchors.range_scans": 0,
    "anchors.by_anchor.current": 2, "anchors.by_anchor.snapshot_after": 3,
    "anchors.by_anchor.snapshot_before": 0,
    "fti.postings": 18, "fti.bytes": 912, "fti.postings_opened": 18,
    "fti.postings_closed": 12, "fti.update_ops": 30, "fti.lookups": 4,
    "fti.postings_scanned": 7, "fti.postings_returned": 7,
    "lifetime.postings": 16, "lifetime.bytes": 384,
    "lifetime.postings_opened": 16, "lifetime.postings_closed": 10,
    "lifetime.update_ops": 26, "lifetime.lookups": 0,
    "lifetime.postings_scanned": 0, "lifetime.postings_returned": 0,
    "join.joins": 2, "join.docs_considered": 2,
    "join.candidates_probed": 7, "join.candidates_scanned": 10,
    "join.intervals_pruned": 0, "join.matches_emitted": 3,
    "planner.plans": 2, "planner.index_chosen": 2, "planner.nav_chosen": 0,
    "planner.cost_flips": 0, "planner.pushdowns": 1,
    "planner.conjuncts_reordered": 0, "planner.from_items_reordered": 0,
    "cas.objects_written": 3, "cas.objects_deduped": 0,
    "cas.compressed_objects": 0, "cas.raw_bytes": 191,
    "cas.stored_bytes": 230, "cas.reads": 8, "cas.read_bytes": 662,
    "cas.gc_runs": 1, "cas.gc_deleted_objects": 0, "cas.gc_deleted_bytes": 0,
    "cas.by_kind.first.ranges": 1, "cas.by_kind.first.raw": 28,
    "cas.by_kind.deltas.ranges": 1, "cas.by_kind.deltas.raw": 21,
    "cas.by_kind.pack.objects": 1, "cas.by_kind.pack.deduped": 0,
    "cas.by_kind.pack.raw": 49, "cas.by_kind.pack.stored": 62,
    "cas.by_kind.checkpoint.objects": 2, "cas.by_kind.checkpoint.deduped": 0,
    "cas.by_kind.checkpoint.raw": 142, "cas.by_kind.checkpoint.stored": 168,
}

_DURABILITY = {
    "durability": "fsync",
    "journal": {
        "records_written": 2, "bytes_written": 85, "raw_bytes": 67,
        "fsyncs": 5, "rolls": 1, "groups_written": 0, "group_members": 0,
        "by_kind": {"update": 1, "delete": 1},
    },
    "checkpoints": {"checkpoints": 1, "bytes_written": 230, "last_bytes": 230},
    "recovery": {
        "checkpoint_source": "checkpoint",
        "checkpoint_errors": [], "records_scanned": 5, "records_replayed": 1,
        "records_skipped": 4, "records_truncated": 0, "truncated_bytes": 0,
        "torn_tail": False, "documents": 2,
        "journals": [
            {"file": "journal.bin.prev", "version": 3, "records": 4,
             "bytes": 263, "raw_bytes": 219},
            {"file": "journal.bin", "version": 3, "records": 1,
             "bytes": 132, "raw_bytes": 115},
        ],
    },
}

_STORAGE = {
    "logical": {
        "current": 122, "deltas": 484, "snapshots": 170, "total": 776,
        "snapshot_count": 2, "snapshot_interval": 2,
        "delta_ops": {"DeleteOp": 1, "InsertOp": 2, "StampOp": 9,
                      "UpdateTextOp": 2},
    },
    "indexes": {"postings": 18, "open_postings": 6, "open_elements": 4,
                "interned": 21, "lifetime_entries": 16},
    "held": {"ops": 14, "payloads": 3, "payload_bytes": 123},
    "backend": {
        "objects_written": 3, "objects_deduped": 0, "compressed_objects": 0,
        "raw_bytes": 191, "stored_bytes": 230, "dedup_ratio": 0.83,
        "reads": 8, "read_bytes": 662, "gc_runs": 1,
        "gc_deleted_objects": 0, "gc_deleted_bytes": 0,
        "by_kind": {
            "checkpoint": {"objects": 2, "deduped": 0, "raw": 142,
                           "stored": 168},
            "pack": {"objects": 1, "deduped": 0, "raw": 49, "stored": 62},
            "first": {"ranges": 1, "raw": 28},
            "deltas": {"ranges": 1, "raw": 21},
        },
        "disk_bytes": 657,
        "disk_by_kind": {
            "checkpoint": {"objects": 3, "stored_bytes": 257,
                           "raw_bytes": 218},
            "pack": {"objects": 2, "stored_bytes": 183, "raw_bytes": 191},
            "first": {"ranges": 2, "raw_bytes": 86},
            "deltas": {"ranges": 2, "raw_bytes": 105},
        },
        "last_gc": {
            "roots": [
                "d2b3396c0775bc461442b86b21d9ab0c"
                "ceb2c479843f444e81fb8036d8bbf129",
                "4d5067e5c5317119841b32c7a31087a4"
                "f7acf56c59ba618f243d1931c21da2e2",
            ],
            "objects_scanned": 6, "objects_live": 6, "objects_deleted": 0,
            "bytes_deleted": 0, "tmp_files_removed": 0,
        },
    },
}

_READS = {
    "delta_reads": 1, "snapshot_reads": 2, "current_reads": 2,
    "subtree_reads": 5, "ops_applied": 0, "ops_skipped": 4,
    "subtree_fallbacks": 0,
    "anchors": {
        "forward_chains": 1, "backward_chains": 1, "exact_anchors": 4,
        "range_scans": 0,
        "by_anchor": {"current": 2, "snapshot_after": 3,
                      "snapshot_before": 0},
    },
}


class TestCounterOutputs:
    """Every counter report keeps its keys and values on a fixed history:
    the registry, the three stats reports and the server's ``stats`` op."""

    @pytest.fixture
    def db(self, tmp_path):
        db = _durable_history(tmp_path / "state")
        yield db
        db.close()

    def test_registry_snapshot(self, db):
        snapshot = db.engine.registry.snapshot()
        assert list(snapshot.items()) == list(_REGISTRY.items())

    def test_stats_reports(self, db):
        assert db.durability_stats() == _DURABILITY
        assert db.storage_stats() == _STORAGE
        assert db.store.read_stats() == _READS

    def test_server_stats_op_keys(self, db):
        from repro.serving import ServingClient, ServingServer, SessionManager

        with ServingServer(SessionManager(db)) as server, \
                ServingClient(*server.address) as client:
            client.query('SELECT R FROM doc("guide.com")/restaurant R')
            reply = client.stats()
        assert sorted(reply) == ["ok", "server", "session"]
        assert sorted(reply["server"]) == [
            "connections", "errors", "host", "manager", "port", "requests",
        ]
        assert sorted(reply["server"]["manager"]) == [
            "commits", "published_seq", "published_ts", "read_only",
            "sessions_opened",
        ]
        assert sorted(reply["session"]) == [
            "metrics", "pinned_seq", "pinned_ts", "queries",
        ]
        assert sorted(reply["session"]["metrics"]) == sorted(
            key for key in _REGISTRY if not key.startswith("cas.")
        )


class TestOneObjectStorePerOpen:
    """``open()`` builds the directory's one object store: recovery reads
    the checkpoint through it and the checkpointer writes through it."""

    @staticmethod
    def _history(directory):
        db = TemporalXMLDatabase.open(directory, durability="fsync")
        db.put("a.xml", "<a>1</a>", ts=parse_date("01/01/2001"))
        db.checkpoint()
        db.update("a.xml", "<a>2</a>", ts=parse_date("02/01/2001"))
        db.put("b.xml", "<b/>", ts=parse_date("03/01/2001"))
        db.close()

    def test_open_builds_exactly_one(self, tmp_path, monkeypatch):
        from repro.storage import cas

        self._history(tmp_path / "db")
        built = []
        real_init = cas.CASObjectStore.__init__

        def counting_init(objstore, *args, **kwargs):
            built.append(objstore)
            real_init(objstore, *args, **kwargs)

        monkeypatch.setattr(cas.CASObjectStore, "__init__", counting_init)
        db = TemporalXMLDatabase.open(tmp_path / "db", durability="journal")
        db.checkpoint()
        db.storage_stats()
        db.close()
        assert built == [db.checkpointer.objstore]

    def test_counters_hold_what_recovery_read(self, tmp_path):
        from repro.storage.cas import CASObjectStore, read_checkpoint
        from repro.xmlcore import serialize

        self._history(tmp_path / "db")
        reference = CASObjectStore(tmp_path / "db")
        read_checkpoint(reference)
        db = TemporalXMLDatabase.open(tmp_path / "db", durability="none")
        registry = db.engine.registry.snapshot()
        backend = db.storage_stats()["backend"]
        assert reference.stats.reads > 0
        for counters in (
            (registry["cas.reads"], registry["cas.read_bytes"]),
            (backend["reads"], backend["read_bytes"]),
        ):
            assert counters == (
                reference.stats.reads, reference.stats.read_bytes
            )
        # The journal past the checkpoint is read too: both documents.
        assert db.documents() == ["a.xml", "b.xml"]
        assert serialize(db.current("a.xml")) == "<a>2</a>"

    def test_stats_calls_leave_the_counters_alone(self, tmp_path):
        self._history(tmp_path / "db")
        db = TemporalXMLDatabase.open(tmp_path / "db", durability="none")
        opened = db.engine.registry.snapshot()
        first = db.storage_stats()["backend"]
        second = db.storage_stats()["backend"]
        assert first["disk_by_kind"]  # the disk walk did read objects
        assert first == second
        after = db.engine.registry.snapshot()
        assert (after["cas.reads"], after["cas.read_bytes"]) == (
            opened["cas.reads"], opened["cas.read_bytes"]
        )
