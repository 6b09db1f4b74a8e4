"""Tests for DocHistory, ElementHistory, Reconstruct, navigation, and
CreTime/DelTime."""

import pytest

from benchmarks.ablation.disk import attach
from repro.clock import BEFORE_TIME, UNTIL_CHANGED
from repro.errors import NoSuchVersionError, QueryPlanError
from repro.index import LifetimeIndex
from repro.model.identifiers import TEID
from repro.operators import (
    CreTime,
    DelTime,
    DocHistory,
    ElementHistory,
    Reconstruct,
)
from repro.operators.navigation import (
    current_teid,
    current_ts,
    next_teid,
    next_ts,
    previous_teid,
    previous_ts,
)
from repro.storage import TemporalDocumentStore
from repro.workload import load_figure1
from repro.xmlcore import Path

from tests.conftest import JAN_01, JAN_15, JAN_26, JAN_31


@pytest.fixture
def setup():
    store = TemporalDocumentStore()
    lifetime = store.subscribe(LifetimeIndex())
    load_figure1(store)
    return store, lifetime


def _akropolis_teid(store, at=JAN_15):
    v2 = store.version("guide.com", 2)
    akropolis = Path("restaurant").select(v2)[1]
    return TEID(store.doc_id("guide.com"), akropolis.xid, at)


def _napoli_teid(store, at=JAN_01):
    v1 = store.version("guide.com", 1)
    napoli = Path("restaurant").first(v1)
    return TEID(store.doc_id("guide.com"), napoli.xid, at)


class TestDocHistory:
    def test_whole_history_backwards(self, setup):
        store, _ = setup
        history = DocHistory(
            store, "guide.com", BEFORE_TIME + 1, UNTIL_CHANGED - 1
        )
        results = history.run()
        assert [t.timestamp for t, _tree in results] == [
            JAN_31,
            JAN_15,
            JAN_01,
        ]
        assert [
            len(Path("restaurant").select(tree)) for _t, tree in results
        ] == [1, 2, 1]

    def test_interval_clips(self, setup):
        store, _ = setup
        history = DocHistory(store, "guide.com", JAN_15, JAN_31)
        assert [t.timestamp for t in history.teids()] == [JAN_15]

    def test_interval_overlap_includes_running_version(self, setup):
        store, _ = setup
        # Version 1 is still valid at Jan 10 even though committed Jan 1.
        history = DocHistory(store, "guide.com", JAN_01 + 5, JAN_15)
        assert [t.timestamp for t in history.teids()] == [JAN_01]

    def test_empty_range(self, setup):
        store, _ = setup
        assert DocHistory(store, "guide.com", 0, 10).run() == []

    def test_yields_teids_of_roots(self, setup):
        store, _ = setup
        teid, tree = next(iter(DocHistory(store, "guide.com", JAN_01, JAN_15)))
        assert teid.xid == tree.xid == 1

    def test_trees_are_independent_copies(self, setup):
        store, _ = setup
        results = DocHistory(
            store, "guide.com", BEFORE_TIME + 1, UNTIL_CHANGED - 1
        ).run()
        newest = results[0][1]
        newest.find("restaurant").find("price").text = "XXX"
        again = store.version("guide.com", 3)
        assert again.find("restaurant").find("price").text == "18"

    def test_delta_read_cost_is_incremental(self, setup):
        store, _ = setup
        store.repository.delta_reads = 0
        DocHistory(store, "guide.com", BEFORE_TIME + 1, UNTIL_CHANGED - 1).run()
        # One reconstruction of the newest (0 deltas: it is current) plus
        # one delta per older version.
        assert store.repository.delta_reads == 2


class TestElementHistory:
    def test_skips_versions_without_element(self, setup):
        store, _ = setup
        eid = _akropolis_teid(store).eid
        history = ElementHistory(
            store, eid, BEFORE_TIME + 1, UNTIL_CHANGED - 1
        )
        results = history.run()
        assert [t.timestamp for t, _s in results] == [JAN_15]
        assert results[0][1].find("name").text == "Akropolis"

    def test_element_alive_in_all_versions(self, setup):
        store, _ = setup
        eid = _napoli_teid(store).eid
        results = ElementHistory(
            store, eid, BEFORE_TIME + 1, UNTIL_CHANGED - 1
        ).run()
        prices = [subtree.find("price").text for _t, subtree in results]
        assert prices == ["18", "15", "15"]
        assert all(t.eid == eid for t, _s in results)


class TestReconstruct:
    def test_reconstructs_subtree(self, setup):
        store, _ = setup
        subtree = Reconstruct(store, _akropolis_teid(store)).run()
        assert subtree.find("price").text == "13"

    def test_whole_document_via_root_teid(self, setup):
        store, _ = setup
        teid = TEID(store.doc_id("guide.com"), 1, JAN_26)
        tree = Reconstruct(store, teid).run()
        assert len(Path("restaurant").select(tree)) == 2

    def test_missing_version_raises(self, setup):
        store, _ = setup
        teid = TEID(store.doc_id("guide.com"), 1, JAN_01 - 99)
        with pytest.raises(NoSuchVersionError):
            Reconstruct(store, teid).run()
        assert Reconstruct(store, teid).run_or_none() is None

    def test_element_absent_raises(self, setup):
        store, _ = setup
        gone = _akropolis_teid(store, at=JAN_31)
        with pytest.raises(NoSuchVersionError):
            Reconstruct(store, gone).run()


class TestNavigation:
    def test_previous_next_current(self, setup):
        store, _ = setup
        teid = _napoli_teid(store, at=JAN_15)
        assert previous_ts(store, teid) == JAN_01
        assert next_ts(store, teid) == JAN_31
        assert current_ts(store, teid.eid) == JAN_31
        assert previous_teid(store, teid).timestamp == JAN_01
        assert next_teid(store, teid).eid == teid.eid

    def test_boundaries(self, setup):
        store, _ = setup
        first = _napoli_teid(store, at=JAN_01)
        last = _napoli_teid(store, at=JAN_31)
        assert previous_ts(store, first) is None
        assert next_ts(store, last) is None
        assert previous_teid(store, first) is None

    def test_current_of_deleted_document(self, setup):
        store, _ = setup
        eid = _napoli_teid(store).eid
        store.delete("guide.com")
        assert current_ts(store, eid) is None
        assert current_teid(store, eid) is None

    def test_no_data_read(self, setup):
        store, _ = setup
        teid = _napoli_teid(store, at=JAN_15)
        store.repository.delta_reads = 0
        disk = attach(store).disk
        before = disk.snapshot()
        previous_ts(store, teid)
        next_ts(store, teid)
        current_ts(store, teid.eid)
        cost = disk.snapshot() - before
        assert cost.reads == 0
        assert store.repository.delta_reads == 0


class TestCreTimeDelTime:
    def test_cretime_both_strategies_agree(self, setup):
        store, lifetime = setup
        for teid in (_napoli_teid(store, JAN_26), _akropolis_teid(store)):
            traverse = CreTime(store, teid, "traverse").value()
            indexed = CreTime(store, teid, "index", lifetime).value()
            assert traverse == indexed

    def test_cretime_values(self, setup):
        store, _ = setup
        assert CreTime(store, _napoli_teid(store, JAN_31), "traverse").value() == JAN_01
        assert CreTime(store, _akropolis_teid(store), "traverse").value() == JAN_15

    def test_deltime_values(self, setup):
        store, lifetime = setup
        akropolis = _akropolis_teid(store)
        assert DelTime(store, akropolis, "traverse").value() == JAN_31
        assert DelTime(store, akropolis, "index", lifetime).value() == JAN_31
        napoli = _napoli_teid(store)
        assert DelTime(store, napoli, "traverse").value() is None
        assert DelTime(store, napoli, "index", lifetime).value() is None

    def test_deltime_document_deletion(self, setup):
        store, lifetime = setup
        napoli = _napoli_teid(store)
        delete_ts = JAN_31 + 1000
        store.delete("guide.com", ts=delete_ts)
        assert DelTime(store, napoli, "traverse").value() == delete_ts
        assert DelTime(store, napoli, "index", lifetime).value() == delete_ts

    def test_traversal_reads_no_trees(self, setup):
        store, _ = setup
        teid = _akropolis_teid(store)
        store.repository.current_reads = 0
        CreTime(store, teid, "traverse").value()
        assert store.repository.current_reads == 0  # "no reconstruction"

    def test_index_strategy_requires_index(self, setup):
        store, _ = setup
        with pytest.raises(QueryPlanError):
            CreTime(store, _napoli_teid(store), "index")
        with pytest.raises(QueryPlanError):
            DelTime(store, _napoli_teid(store), "bogus")

    def test_unknown_teid(self, setup):
        store, lifetime = setup
        bad = TEID(store.doc_id("guide.com"), 1, JAN_01 - 99)
        with pytest.raises(NoSuchVersionError):
            CreTime(store, bad, "traverse").value()
        with pytest.raises(NoSuchVersionError):
            CreTime(
                store,
                TEID(99, 99, JAN_01),
                "index",
                lifetime,
            ).value()


class TestNavigationDanglingRegression:
    """PREVIOUS/NEXT/CURRENT must verify the XID exists in the target
    version.  Akropolis lives only in version 2 (created by delta 1,
    deleted by delta 2): every navigation away from it dangles, and an
    earlier revision happily returned TEIDs addressing versions the
    element was never part of.
    """

    def test_next_of_element_deleted_mid_history(self, setup):
        store, _ = setup
        assert next_teid(store, _akropolis_teid(store)) is None

    def test_previous_of_element_created_mid_history(self, setup):
        store, _ = setup
        assert previous_teid(store, _akropolis_teid(store)) is None

    def test_current_of_deleted_element(self, setup):
        store, _ = setup
        assert current_teid(store, _akropolis_teid(store).eid) is None

    def test_surviving_element_still_navigates(self, setup):
        store, _ = setup
        teid = _napoli_teid(store, at=JAN_15)
        assert previous_teid(store, teid).timestamp == JAN_01
        assert next_teid(store, teid).timestamp == JAN_31
        assert current_teid(store, teid.eid).timestamp == JAN_31

    def test_existence_check_is_one_delta_scan(self, setup):
        store, _ = setup
        teid = _napoli_teid(store, at=JAN_15)
        store.repository.delta_reads = 0
        store.repository.current_reads = 0
        store.repository.snapshot_reads = 0
        previous_teid(store, teid)
        next_teid(store, teid)
        assert store.repository.delta_reads == 2  # one boundary delta each
        assert store.repository.current_reads == 0  # no reconstruction
        assert store.repository.snapshot_reads == 0


class TestLifetimePhantomRegression:
    """CreTime/DelTime traversal must not invent lifetimes for XIDs that
    never existed in the addressed version.  An earlier revision of
    CreTime fell through to "the document's first version" for any XID
    with no creating delta below the addressed version — including XIDs
    that never existed at all.
    """

    def test_cretime_bogus_xid_raises(self, setup):
        store, _ = setup
        bogus = TEID(store.doc_id("guide.com"), 999_999, JAN_15)
        with pytest.raises(NoSuchVersionError):
            CreTime(store, bogus, "traverse").value()

    def test_deltime_bogus_xid_raises(self, setup):
        store, _ = setup
        bogus = TEID(store.doc_id("guide.com"), 999_999, JAN_15)
        with pytest.raises(NoSuchVersionError):
            DelTime(store, bogus, "traverse").value()

    def test_cretime_addressed_before_creation_raises(self, setup):
        store, _ = setup
        early = _akropolis_teid(store, at=JAN_01)  # created 15/01
        with pytest.raises(NoSuchVersionError):
            CreTime(store, early, "traverse").value()

    def test_deltime_addressed_before_creation_raises(self, setup):
        store, _ = setup
        early = _akropolis_teid(store, at=JAN_01)
        with pytest.raises(NoSuchVersionError):
            DelTime(store, early, "traverse").value()

    def test_cretime_addressed_after_deletion_raises(self, setup):
        store, _ = setup
        gone = _akropolis_teid(store, at=JAN_31)  # deleted in v3
        with pytest.raises(NoSuchVersionError):
            CreTime(store, gone, "traverse").value()

    def test_strategies_agree_on_phantoms(self, setup):
        store, lifetime = setup
        bogus = TEID(store.doc_id("guide.com"), 999_999, JAN_15)
        with pytest.raises(NoSuchVersionError):
            CreTime(store, bogus, "index", lifetime).value()
        with pytest.raises(NoSuchVersionError):
            CreTime(store, bogus, "traverse").value()

    def test_verification_uses_no_reconstruction(self, setup):
        store, _ = setup
        bogus = TEID(store.doc_id("guide.com"), 999_999, JAN_15)
        store.repository.current_reads = 0
        store.repository.snapshot_reads = 0
        with pytest.raises(NoSuchVersionError):
            CreTime(store, bogus, "traverse").value()
        assert store.repository.current_reads == 0
        assert store.repository.snapshot_reads == 0
