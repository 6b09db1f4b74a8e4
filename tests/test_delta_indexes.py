"""Tests for the delta-operation index (alt 2), hybrid (alt 3), the
full-history lookup adapter, and the lifetime index."""

from array import array

import pytest

from benchmarks.ablation.fti_alternatives import (
    OP_DELETE,
    OP_INSERT,
    OP_UPDATE,
    DeltaOperationIndex,
    FullHistoryLookup,
    HybridIndex,
)
from repro.diff.editscript import (
    DeleteOp,
    InsertOp,
    ReplaceRootOp,
    payload_nodes,
)
from repro.index import (
    LifetimeIndex,
    TemporalFullTextIndex,
    TemporalKeywordScorer,
)
from repro.index.lifetime import NO_TIME
from repro.model.identifiers import EID, XIDAllocator
from repro.model.versioned import stamp_new_nodes
from repro.storage import TemporalDocumentStore
from repro.storage.store import CommitEvent
from repro.workload import (
    KeywordWorkload,
    TDocGenerator,
    build_collection,
    load_figure1,
)
from repro.xmlcore import parse

from tests.conftest import JAN_01, JAN_15, JAN_26, JAN_31
from tests.index_history import drive, script_features


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

        class Unvisited(array):
            def _visited(self, *args):
                raise AssertionError("another document's spans were scanned")

            __iter__ = __getitem__ = __setitem__ = _visited

        others = lifetime._columns[other]
        lifetime._columns[other] = tuple(
            Unvisited("q", column) for column in others
        )
        created, deleted = lifetime._columns[doc_id]
        alive = [
            xid for xid, (born, died) in enumerate(zip(created, deleted))
            if born != NO_TIME and died == NO_TIME
        ]
        closed = lifetime.stats.postings_closed
        total = len(lifetime)
        store.delete("guide.com", ts=JAN_31 + 1000)
        lifetime._columns[other] = others
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


class ReferenceLifetime:
    """The dict-of-spans layout, kept as the reference:
    ``{doc_id: {xid: [create_ts, delete_ts | None]}}``."""

    def __init__(self):
        self.spans = {}

    def document_committed(self, event):
        spans = self.spans.setdefault(event.doc_id, {})
        ts = event.timestamp
        if event.kind == "create":
            self._open(spans, event.root, ts)
        elif event.kind == "delete":
            for span in spans.values():
                if span[1] is None:
                    span[1] = ts
        else:
            for op in event.script:
                if isinstance(op, InsertOp):
                    self._open(spans, op.payload, ts)
                elif isinstance(op, DeleteOp):
                    self._close(spans, op.payload, ts)
                elif isinstance(op, ReplaceRootOp):
                    self._close(spans, op.old_payload, ts)
                    self._open(spans, op.new_payload, ts)

    @staticmethod
    def _open(spans, node, ts):
        for inner in payload_nodes(node):
            spans[inner.xid] = [ts, None]

    @staticmethod
    def _close(spans, node, ts):
        for inner in payload_nodes(node):
            span = spans.get(inner.xid)
            if span is not None and span[1] is None:
                span[1] = ts


def assert_same_lifespans(lifetime, reference):
    assert len(lifetime) == sum(len(s) for s in reference.spans.values())
    for doc_id, spans in reference.spans.items():
        for xid, (created, deleted) in spans.items():
            eid = EID(doc_id, xid)
            assert lifetime.lifespan(eid) == (created, deleted), eid
            assert lifetime.create_time(eid) == created
            assert lifetime.delete_time(eid) == deleted
            assert lifetime.known(eid)
        beyond = max(spans, default=0) + 1
        for xid in (-1, 0, beyond, beyond + 100):
            assert lifetime.lifespan(EID(doc_id, xid)) is None
            assert not lifetime.known(EID(doc_id, xid))
    missing = EID(max(reference.spans, default=0) + 1, 1)
    assert lifetime.lifespan(missing) is None


class TestLifetimeLayoutAgainstReference:
    """XID-indexed columns answer what the dict of spans answered: live,
    after recovery from a checkpoint plus journal tail, after a replay of
    everything, and after recovery from the journal alone."""

    @pytest.mark.parametrize("seed, checkpoints, storage", [
        (1, True, "xml"), (2, True, "cas"), (3, False, "xml"),
    ])
    def test_seeded_history(self, tmp_path, seed, checkpoints, storage):
        reference = ReferenceLifetime()
        checks = []

        def check(db):
            assert_same_lifespans(db.lifetime, reference)
            checks.append(len(db.lifetime))

        db = drive(seed, tmp_path / "db", [reference], check,
                   checkpoints=checkpoints, storage=storage)
        assert len(checks) > 40 and checks[-1] > 100
        assert {"ReplaceRootOp", "InsertOp", "DeleteOp"} <= script_features(
            db.store)
        closed = [
            span for spans in reference.spans.values()
            for span in spans.values() if span[1] is not None
        ]
        assert closed

    def test_reopening_an_xid_overwrites_its_span(self):
        """An event stream that opens a known XID again (a history
        replayed twice into one index) restarts the span; the entry count
        does not grow."""
        tree = parse("<a><b>x</b></a>")
        stamp_new_nodes(tree, XIDAllocator(), JAN_01)
        lifetime, reference = LifetimeIndex(), ReferenceLifetime()
        for kind, ts in (("create", JAN_01), ("delete", JAN_15),
                         ("create", JAN_26)):
            event = CommitEvent(kind, 7, "d.xml", 1, ts, root=tree)
            lifetime.document_committed(event)
            reference.document_committed(event)
        assert_same_lifespans(lifetime, reference)
        assert lifetime.lifespan(EID(7, 1)) == (JAN_26, None)
        assert len(lifetime) == 3
