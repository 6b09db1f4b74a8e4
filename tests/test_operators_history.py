"""Tests for DocHistory, ElementHistory, Reconstruct, navigation, and
CreTime/DelTime."""

import pytest

from benchmarks.ablation.disk import attach
from benchmarks.ablation.lifetime import (
    traverse_create_time,
    traverse_delete_time,
)
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
            traverse = traverse_create_time(store, teid)
            indexed = CreTime(lifetime, teid).value()
            assert traverse == indexed

    def test_cretime_values(self, setup):
        store, lifetime = setup
        napoli, akropolis = _napoli_teid(store, JAN_31), _akropolis_teid(store)
        assert traverse_create_time(store, napoli) == JAN_01
        assert traverse_create_time(store, akropolis) == JAN_15
        assert CreTime(lifetime, napoli).value() == JAN_01
        assert CreTime(lifetime, akropolis).value() == JAN_15

    def test_deltime_values(self, setup):
        store, lifetime = setup
        akropolis = _akropolis_teid(store)
        assert traverse_delete_time(store, akropolis) == JAN_31
        assert DelTime(lifetime, akropolis).value() == JAN_31
        napoli = _napoli_teid(store)
        assert traverse_delete_time(store, napoli) is None
        assert DelTime(lifetime, napoli).value() is None

    def test_deltime_document_deletion(self, setup):
        store, lifetime = setup
        napoli = _napoli_teid(store)
        delete_ts = JAN_31 + 1000
        store.delete("guide.com", ts=delete_ts)
        assert traverse_delete_time(store, napoli) == delete_ts
        assert DelTime(lifetime, napoli).value() == delete_ts

    def test_traversal_reads_no_trees(self, setup):
        store, _ = setup
        teid = _akropolis_teid(store)
        store.repository.current_reads = 0
        traverse_create_time(store, teid)
        assert store.repository.current_reads == 0  # "no reconstruction"

    def test_index_strategy_requires_index(self, setup):
        store, _ = setup
        for operator in (CreTime, DelTime):
            with pytest.raises(QueryPlanError, match="lifetime index"):
                operator(None, _napoli_teid(store))

    def test_unknown_teid(self, setup):
        store, lifetime = setup
        bad = TEID(store.doc_id("guide.com"), 1, JAN_01 - 99)
        with pytest.raises(NoSuchVersionError):
            traverse_create_time(store, bad)
        with pytest.raises(NoSuchVersionError):
            CreTime(lifetime, TEID(99, 99, JAN_01)).value()
        with pytest.raises(NoSuchVersionError):
            DelTime(lifetime, TEID(99, 99, JAN_01)).value()


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
    """The CreTime/DelTime traversal must not invent lifetimes for XIDs that
    never existed in the addressed version.  An earlier revision of
    CreTime fell through to "the document's first version" for any XID
    with no creating delta below the addressed version — including XIDs
    that never existed at all.
    """

    def test_cretime_bogus_xid_raises(self, setup):
        store, _ = setup
        bogus = TEID(store.doc_id("guide.com"), 999_999, JAN_15)
        with pytest.raises(NoSuchVersionError):
            traverse_create_time(store, bogus)

    def test_deltime_bogus_xid_raises(self, setup):
        store, _ = setup
        bogus = TEID(store.doc_id("guide.com"), 999_999, JAN_15)
        with pytest.raises(NoSuchVersionError):
            traverse_delete_time(store, bogus)

    def test_cretime_addressed_before_creation_raises(self, setup):
        store, _ = setup
        early = _akropolis_teid(store, at=JAN_01)  # created 15/01
        with pytest.raises(NoSuchVersionError):
            traverse_create_time(store, early)

    def test_deltime_addressed_before_creation_raises(self, setup):
        store, _ = setup
        early = _akropolis_teid(store, at=JAN_01)
        with pytest.raises(NoSuchVersionError):
            traverse_delete_time(store, early)

    def test_cretime_addressed_after_deletion_raises(self, setup):
        store, _ = setup
        gone = _akropolis_teid(store, at=JAN_31)  # deleted in v3
        with pytest.raises(NoSuchVersionError):
            traverse_create_time(store, gone)

    def test_strategies_agree_on_phantoms(self, setup):
        store, lifetime = setup
        bogus = TEID(store.doc_id("guide.com"), 999_999, JAN_15)
        with pytest.raises(NoSuchVersionError):
            CreTime(lifetime, bogus).value()
        with pytest.raises(NoSuchVersionError):
            traverse_create_time(store, bogus)

    def test_verification_uses_no_reconstruction(self, setup):
        store, _ = setup
        bogus = TEID(store.doc_id("guide.com"), 999_999, JAN_15)
        store.repository.current_reads = 0
        store.repository.snapshot_reads = 0
        with pytest.raises(NoSuchVersionError):
            traverse_create_time(store, bogus)
        assert store.repository.current_reads == 0
        assert store.repository.snapshot_reads == 0
