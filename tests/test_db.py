"""Tests for the TemporalXMLDatabase facade and bench harness utilities."""


import pytest

from benchmarks.ablation.stratum import StratumStore
from benchmarks.harness import CostMeter, Measurement, Table
from repro import TemporalXMLDatabase, parse_date
from repro.storage.snapshots import AdaptiveSnapshotPolicy
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
        tuning = dict(snapshot_policy=AdaptiveSnapshotPolicy(400))
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
        assert repository.snapshot_policy is tuning["snapshot_policy"]
        assert db.engine.store is db.store
        for gone in ("clustered", "disk", "cache_size"):
            with pytest.raises(TypeError):
                TemporalXMLDatabase.open(tmp_path / "other", **{gone: None})

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
