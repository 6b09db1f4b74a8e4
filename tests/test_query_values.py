"""Tests for runtime values: BoundElement, NodeValue, SnapshotCache,
Coalesce."""

import pytest

from repro.clock import Interval
from repro.errors import NoSuchVersionError
from repro.model.identifiers import EID, TEID
from repro.operators import Coalesce
from repro.operators.relational import INTERVAL_KEY
from repro.query.values import (
    BoundElement,
    NodeValue,
    SnapshotCache,
    TimestampValue,
    as_node,
    expand,
    truth,
)
from repro.storage import TemporalDocumentStore
from repro.workload import load_figure1
from repro.xmlcore import element

from tests.conftest import JAN_01, JAN_15, JAN_26, JAN_31


@pytest.fixture
def store():
    store = TemporalDocumentStore()
    load_figure1(store)
    return store


class TestTimestampValue:
    def test_is_an_int(self):
        ts = TimestampValue(JAN_26)
        assert ts == JAN_26
        assert ts + 1 == JAN_26 + 1

    def test_renders_as_date(self):
        assert str(TimestampValue(JAN_26)) == "26/01/2001"
        assert "26/01/2001" in repr(TimestampValue(JAN_26))


class TestBoundElement:
    def test_lazy_reconstruction(self, store):
        teid = TEID(store.doc_id("guide.com"), 1, JAN_26)
        bound = BoundElement(store, teid)
        store.repository.delta_reads = 0
        assert store.repository.delta_reads == 0  # nothing touched yet
        tree = bound.tree
        assert tree.tag == "guide"
        assert store.repository.delta_reads > 0

    def test_tree_cached_after_first_access(self, store):
        teid = TEID(store.doc_id("guide.com"), 1, JAN_26)
        bound = BoundElement(store, teid)
        first = bound.tree
        store.repository.delta_reads = 0
        assert bound.tree is first
        assert store.repository.delta_reads == 0

    def test_select_and_scalar(self, store):
        teid = TEID(store.doc_id("guide.com"), 1, JAN_01)
        bound = BoundElement(store, teid)
        names = bound.select("restaurant/name")
        assert [n.node.text for n in names] == ["Napoli"]
        assert bound.select("")[0].node is bound.tree

    def test_stale_teid(self, store):
        bound = BoundElement(store, TEID(store.doc_id("guide.com"), 999, JAN_26))
        assert bound.try_tree() is None
        with pytest.raises(NoSuchVersionError):
            bound.tree

    def test_eid_and_doc_id(self, store):
        doc = store.doc_id("guide.com")
        bound = BoundElement(store, TEID(doc, 2, JAN_01))
        assert bound.eid == EID(doc, 2)
        assert bound.doc_id == doc


class TestNodeValue:
    def test_eid(self):
        node = element("a")
        node.xid = 7
        assert NodeValue(3, node).eid == EID(3, 7)
        node.xid = None
        assert NodeValue(3, node).eid is None

    def test_scalar(self):
        assert NodeValue(1, element("p", "15")).scalar() == 15


class TestSnapshotCache:
    def test_same_version_shared(self, store):
        cache = SnapshotCache(store)
        doc = store.doc_id("guide.com")
        first = cache.document_at(doc, JAN_26)
        store.repository.delta_reads = 0
        second = cache.document_at(doc, JAN_26)
        assert first is second
        assert store.repository.delta_reads == 0

    def test_adjacent_version_costs_one_delta(self, store):
        cache = SnapshotCache(store)
        doc = store.doc_id("guide.com")
        cache.document_at(doc, JAN_15)  # version 2
        store.repository.delta_reads = 0
        v1 = cache.document_at(doc, JAN_01)  # rewind one step
        assert store.repository.delta_reads == 1
        assert len(v1.findall("restaurant")) == 1

    def test_roll_forward(self, store):
        cache = SnapshotCache(store)
        doc = store.doc_id("guide.com")
        cache.document_at(doc, JAN_01)  # version 1 (walks the chain)
        store.repository.delta_reads = 0
        v2 = cache.document_at(doc, JAN_15)  # forward one step
        # The walk down to version 1 read delta 1; a query reads it once.
        assert store.repository.delta_reads == 0
        assert len(v2.findall("restaurant")) == 2

    def test_absent_version(self, store):
        cache = SnapshotCache(store)
        assert cache.document_at(store.doc_id("guide.com"), JAN_01 - 5) is None

    def test_subtree(self, store):
        cache = SnapshotCache(store)
        doc = store.doc_id("guide.com")
        subtree = cache.subtree(TEID(doc, 2, JAN_01))
        assert subtree.find("name").text == "Napoli"
        assert cache.subtree(TEID(doc, 999, JAN_01)) is None

    def test_cached_trees_correct_content(self, store):
        # Interleaved access: derived trees must match direct reconstruction.
        cache = SnapshotCache(store)
        doc = store.doc_id("guide.com")
        for ts in (JAN_31, JAN_01, JAN_15, JAN_26, JAN_01):
            via_cache = cache.document_at(doc, ts)
            direct = store.snapshot("guide.com", ts)
            assert via_cache.equals_deep(direct)


class TestValueHelpers:
    def test_as_node(self, store):
        node = element("a")
        assert as_node(NodeValue(1, node)) is node
        assert as_node("scalar") == "scalar"

    def test_expand(self):
        assert expand([1, 2]) == [1, 2]
        assert expand(5) == [5]

    def test_truth(self):
        assert truth(element("a"))
        assert not truth(None)
        assert not truth([])
        assert truth([1])
        assert not truth(0)
        assert truth(NodeValue(1, element("a")))


class TestCoalesce:
    def test_merges_equal_rows_with_adjacent_intervals(self):
        rows = [
            {"price": "15", INTERVAL_KEY: Interval(0, 10)},
            {"price": "15", INTERVAL_KEY: Interval(10, 20)},
            {"price": "18", INTERVAL_KEY: Interval(20, 30)},
        ]
        out = list(Coalesce(rows))
        assert len(out) == 2
        assert out[0][INTERVAL_KEY] == Interval(0, 20)
        assert out[1]["price"] == "18"

    def test_keeps_gaps_separate(self):
        rows = [
            {"v": 1, INTERVAL_KEY: Interval(0, 5)},
            {"v": 1, INTERVAL_KEY: Interval(10, 15)},
        ]
        out = list(Coalesce(rows))
        assert [r[INTERVAL_KEY] for r in out] == [
            Interval(0, 5),
            Interval(10, 15),
        ]

    def test_rows_without_intervals_pass_through(self):
        rows = [{"v": 1}, {"v": 2}]
        assert list(Coalesce(rows)) == rows

    def test_distinct_values_not_merged(self):
        rows = [
            {"v": 1, INTERVAL_KEY: Interval(0, 10)},
            {"v": 2, INTERVAL_KEY: Interval(5, 15)},
        ]
        assert len(list(Coalesce(rows))) == 2

    def test_price_history_use_case(self, store):
        # The motivating example: 15, 15, 18 price history -> two rows.
        from repro.clock import UNTIL_CHANGED

        rows = [
            {"price": "15", INTERVAL_KEY: Interval(JAN_01, JAN_15)},
            {"price": "15", INTERVAL_KEY: Interval(JAN_15, JAN_31)},
            {"price": "18", INTERVAL_KEY: Interval(JAN_31, UNTIL_CHANGED)},
        ]
        out = list(Coalesce(rows))
        assert len(out) == 2
        assert out[0][INTERVAL_KEY] == Interval(JAN_01, JAN_31)
