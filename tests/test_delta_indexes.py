"""Tests for the delta-operation index (alt 2), hybrid (alt 3), the
full-history lookup adapter, and the lifetime index."""

import pytest

from benchmarks.ablation.fti_alternatives import (
    OP_DELETE,
    OP_INSERT,
    OP_UPDATE,
    DeltaOperationIndex,
    FullHistoryLookup,
    HybridIndex,
)
from repro.index import (
    LifetimeIndex,
    TemporalFullTextIndex,
    TemporalKeywordScorer,
)
from repro.model.identifiers import EID
from repro.storage import TemporalDocumentStore
from repro.workload import (
    KeywordWorkload,
    TDocGenerator,
    build_collection,
    load_figure1,
)

from tests.conftest import JAN_01, JAN_15, JAN_26, JAN_31


@pytest.fixture
def stores():
    store = TemporalDocumentStore()
    ops = store.subscribe(DeltaOperationIndex())
    lifetime = store.subscribe(LifetimeIndex())
    load_figure1(store)
    return store, ops, lifetime


class TestDeltaOperationIndex:
    def test_insert_events_on_create(self, stores):
        _store, ops, _lifetime = stores
        events = ops.events_for_word("napoli", OP_INSERT)
        assert len(events) == 1
        assert events[0].ts == JAN_01

    def test_deletion_time_query_is_direct(self, stores):
        _store, ops, _lifetime = stores
        assert ops.deletion_time("akropolis") == [JAN_31]

    def test_update_events(self, stores):
        _store, ops, _lifetime = stores
        updates = ops.events_for_word("18", OP_INSERT)
        assert [e.ts for e in updates] == [JAN_31]
        removed = ops.events_for_word("15", OP_DELETE)
        assert [e.ts for e in removed] == [JAN_31]

    def test_op_keyword_lists_grow(self, stores):
        _store, ops, _lifetime = stores
        assert len(ops.events_for_op(OP_INSERT)) > 5
        assert len(ops.events_for_op(OP_DELETE)) >= 1
        assert len(ops.events_for_op(OP_UPDATE)) >= 1

    def test_snapshot_fold(self, stores):
        _store, ops, _lifetime = stores
        assert len(ops.lookup_t("akropolis", JAN_26)) == 1
        assert ops.lookup_t("akropolis", JAN_31) == []
        assert ops.lookup_t("akropolis", JAN_01) == []

    def test_document_delete_indexed(self, stores):
        store, ops, _lifetime = stores
        store.delete("guide.com")
        assert len(ops.deletion_time("napoli")) == 1

    def test_size_explosion_vs_content_index(self):
        """The paper's complaint: delta indexing stores far more entries."""
        store = TemporalDocumentStore()
        content = store.subscribe(TemporalFullTextIndex())
        operations = store.subscribe(DeltaOperationIndex())
        store.put("d.xml", "<a><b>stable words here</b><c>hot</c></a>")
        for value in range(20):
            store.update(
                "d.xml",
                f"<a><b>stable words here</b><c>v{value}</c></a>",
            )
        # Content index: stable words have one posting; only the changing
        # word accumulates. Operation index pays per commit.
        assert operations.posting_count() > content.posting_count()


class TestHybridIndex:
    def test_routes_both_query_classes(self):
        store = TemporalDocumentStore()
        hybrid = store.subscribe(HybridIndex())
        load_figure1(store)
        assert len(hybrid.lookup_t("akropolis", JAN_26)) == 1
        assert hybrid.deletion_time("akropolis") == [JAN_31]

    def test_costs_are_summed(self):
        store = TemporalDocumentStore()
        hybrid = store.subscribe(HybridIndex())
        load_figure1(store)
        assert hybrid.posting_count() == (
            hybrid.content.posting_count()
            + hybrid.operations.posting_count()
        )
        assert hybrid.update_ops() > hybrid.content.stats.update_ops


class TestFullHistoryLookup:
    def test_ranks_like_the_windowed_scorer_and_scans_more(self):
        """The adapter is the keyword baseline: same rankings on the
        ``KeywordWorkload`` window queries, more postings scanned."""
        store = TemporalDocumentStore()
        fti = store.subscribe(TemporalFullTextIndex())
        generator = TDocGenerator(seed=7)
        build_collection(
            store, n_docs=4, versions_per_doc=8, generator=generator
        )
        workload = KeywordWorkload(
            fti, generator.vocab.words, JAN_01, store.clock.now() + 1, seed=1
        )
        windows = [
            q for q in workload.make_queries(60) if q.mode == "window"
        ]
        ranked, scanned = {}, {}
        for label, index in (
            ("baseline", FullHistoryLookup(fti)),
            ("windowed", fti),
        ):
            scorer = TemporalKeywordScorer(index)
            before = fti.stats.postings_scanned
            ranked[label] = [
                scorer.search_window(q.terms, q.start, q.end)
                for q in windows
            ]
            scanned[label] = fti.stats.postings_scanned - before
        assert ranked["baseline"] == ranked["windowed"]
        assert any(ranked["windowed"])
        assert scanned["baseline"] > scanned["windowed"]


class TestLifetimeIndex:
    def test_create_times(self, stores):
        store, _ops, lifetime = stores
        doc_id = store.doc_id("guide.com")
        v2 = store.version("guide.com", 2)
        napoli, akropolis = v2.child_elements()
        assert lifetime.create_time(EID(doc_id, napoli.xid)) == JAN_01
        assert lifetime.create_time(EID(doc_id, akropolis.xid)) == JAN_15

    def test_delete_times(self, stores):
        store, _ops, lifetime = stores
        doc_id = store.doc_id("guide.com")
        v2 = store.version("guide.com", 2)
        napoli, akropolis = v2.child_elements()
        assert lifetime.delete_time(EID(doc_id, akropolis.xid)) == JAN_31
        assert lifetime.delete_time(EID(doc_id, napoli.xid)) is None

    def test_document_delete_closes_all(self, stores):
        store, _ops, lifetime = stores
        doc_id = store.doc_id("guide.com")
        delete_ts = JAN_31 + 1000
        store.delete("guide.com", ts=delete_ts)
        assert lifetime.delete_time(EID(doc_id, 1)) == delete_ts

    def test_document_delete_visits_only_its_own_spans(self, stores):
        store, _ops, lifetime = stores
        other = store.put("other.xml", "<a><b>x</b><c>y</c></a>",
                          ts=JAN_31 + 10)
        doc_id = store.doc_id("guide.com")

        class Unvisited(dict):
            def _visited(self, *args):
                raise AssertionError("another document's spans were scanned")

            __iter__ = keys = values = items = _visited

        lifetime._spans[other] = Unvisited(lifetime._spans[other])
        alive = [
            xid for xid, span in lifetime._spans[doc_id].items()
            if span[1] is None
        ]
        closed = lifetime.stats.postings_closed
        total = len(lifetime)
        store.delete("guide.com", ts=JAN_31 + 1000)
        assert lifetime.stats.postings_closed == closed + len(alive) > closed
        assert all(
            lifetime.delete_time(EID(doc_id, xid)) == JAN_31 + 1000
            for xid in alive
        )
        assert lifetime.lifespan(EID(other, 1)) == (JAN_31 + 10, None)
        assert len(lifetime) == total

    def test_unknown_eid(self, stores):
        _store, _ops, lifetime = stores
        assert lifetime.create_time(EID(99, 99)) is None
        assert not lifetime.known(EID(99, 99))

    def test_lifespan(self, stores):
        store, _ops, lifetime = stores
        doc_id = store.doc_id("guide.com")
        v2 = store.version("guide.com", 2)
        akropolis = v2.child_elements()[1]
        assert lifetime.lifespan(EID(doc_id, akropolis.xid)) == (
            JAN_15,
            JAN_31,
        )

    def test_every_stored_node_has_entry(self, stores):
        store, _ops, lifetime = stores
        record = store.record("guide.com")
        alive_xids = {n.xid for n in record.current_root.iter()}
        doc_id = record.doc_id
        for xid in alive_xids:
            assert lifetime.known(EID(doc_id, xid))

    def test_commit_batches_counted(self, stores):
        _store, _ops, lifetime = stores
        assert lifetime.commit_batches == 3
