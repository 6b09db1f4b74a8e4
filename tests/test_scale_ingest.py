"""Group-commit batched ingestion: invariants and the scale suite.

The unmarked tests pin the batch API's semantics — byte-identical
stores vs per-commit ingestion of the same ops, index agreement,
staging-time validation, serving isolation across a group boundary.
The ``scale``-marked tests run the warehouse-scale ingestion + keyword
workload end to end (reduced sizes under ``REPRO_SCALE_SMOKE=1``, the
CI smoke configuration).
"""

import os

import pytest

from benchmarks.ingest import ingest_crawl, ingest_synthetic
from repro import TemporalXMLDatabase
from repro.clock import parse_date
from repro.errors import (
    DocumentDeletedError,
    NoSuchDocumentError,
    StorageError,
)
from repro.index import LifetimeIndex, TemporalFullTextIndex
from repro.index.relevance import TemporalKeywordScorer
from repro.model.identifiers import EID
from repro.serving import SessionManager
from repro.storage import TemporalDocumentStore
from repro.storage.persistence import archive_bytes, build_archive
from repro.workload import BatchingWriter, KeywordWorkload, TDocGenerator

START = parse_date("01/01/2001")


def _ops(n_docs=6, versions=8, seed=42):
    """A deterministic (kind, name, tree, ts) op stream with deletions."""
    generator = TDocGenerator(seed=seed, p_update=0.25, p_insert=0.08,
                              p_delete=0.08)
    names = [f"doc{i}.xml" for i in range(1, n_docs + 1)]
    ops = []
    ts = START
    for round_index in range(versions):
        for name in names:
            if round_index == 0:
                ops.append(("put", name, generator.document(name), ts))
            else:
                ops.append(("update", name, generator.evolve(name), ts))
            ts += 3600
    for name in names[:2]:
        ops.append(("delete", name, None, ts))
        ts += 3600
    return ops


def _apply_per_commit(store, ops):
    for kind, name, tree, ts in ops:
        if kind == "delete":
            store.delete(name, ts=ts)
        else:
            getattr(store, kind)(name, tree.copy(), ts=ts)


def _apply_batched(store, ops, batch_size):
    with BatchingWriter(store, batch_size=batch_size) as writer:
        for kind, name, tree, ts in ops:
            if kind == "delete":
                writer.delete(name, ts=ts)
            else:
                getattr(writer, kind)(name, tree.copy(), ts=ts)


def _postings_view(fti):
    return {
        word: sorted(
            (p.doc_id, p.xid, p.start, p.end) for p in fti.lookup_h(word)
        )
        for word in fti.words()
    }


class TestBatchEquivalence:
    @pytest.mark.parametrize("anchors", ["interval", "irregular"])
    @pytest.mark.parametrize("batch_size", [1, 5, 17, 1000])
    def test_batched_store_is_byte_identical(self, anchors, batch_size):
        """Every third version a snapshot, or snapshots at versions no
        interval gives (materialized after the ingest, on both stores)."""
        kwargs = {"snapshot_interval": 3} if anchors == "interval" else {}
        ops = _ops()
        reference = TemporalDocumentStore(**kwargs)
        _apply_per_commit(reference, ops)
        batched = TemporalDocumentStore(**kwargs)
        _apply_batched(batched, ops, batch_size)
        if anchors == "irregular":
            for store in (reference, batched):
                for offset, record in enumerate(store.repository.records()):
                    for number in (2 + offset % 3, 5, 7 - offset % 2):
                        store.repository.materialize_snapshot(record, number)
        assert archive_bytes(build_archive(batched)) == archive_bytes(
            build_archive(reference)
        )

    def test_indexes_agree_with_per_commit(self):
        ops = _ops()
        reference = TemporalDocumentStore()
        ref_fti = reference.subscribe(TemporalFullTextIndex())
        ref_life = reference.subscribe(LifetimeIndex())
        _apply_per_commit(reference, ops)

        batched = TemporalDocumentStore()
        fti = batched.subscribe(TemporalFullTextIndex())
        life = batched.subscribe(LifetimeIndex())
        _apply_batched(batched, ops, batch_size=7)

        assert _postings_view(fti) == _postings_view(ref_fti)
        for record in reference.repository.records():
            for number in range(1, record.dindex.current_number + 1):
                tree = reference.version(record.doc_id, number)
                for node in tree.iter_elements():
                    eid = EID(record.doc_id, node.xid)
                    assert life.create_time(eid) == ref_life.create_time(eid)
                    assert life.delete_time(eid) == ref_life.delete_time(eid)

    def test_keyword_rankings_agree_with_per_commit(self):
        ops = _ops()
        reference = TemporalDocumentStore()
        ref_fti = reference.subscribe(TemporalFullTextIndex())
        _apply_per_commit(reference, ops)
        batched = TemporalDocumentStore()
        fti = batched.subscribe(TemporalFullTextIndex())
        _apply_batched(batched, ops, batch_size=9)

        ref_scorer = TemporalKeywordScorer(ref_fti)
        scorer = TemporalKeywordScorer(fti)
        end = reference.clock.now()
        for query in ("w0001", "w0002 section", "item w0010"):
            assert scorer.search_t(query, end) == ref_scorer.search_t(
                query, end
            )
            assert scorer.search_window(
                query, START, end
            ) == ref_scorer.search_window(query, START, end)


class TestBatchSemantics:
    def test_abort_leaves_store_untouched(self):
        store = TemporalDocumentStore()
        store.put("a.xml", "<doc><x>one</x></doc>")
        before = archive_bytes(build_archive(store))
        try:
            with store.batch() as batch:
                batch.update("a.xml", "<doc><x>two</x></doc>")
                batch.put("b.xml", "<doc/>")
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert archive_bytes(build_archive(store)) == before
        assert store.documents() == ["a.xml"]

    def test_writer_exception_aborts_the_open_group(self):
        store = TemporalDocumentStore()
        store.put("a.xml", "<doc><x>one</x></doc>")
        before = archive_bytes(build_archive(store))
        with pytest.raises(NoSuchDocumentError):
            with BatchingWriter(store, batch_size=64) as writer:
                writer.update("a.xml", "<doc><x>two</x></doc>")
                writer.put("b.xml", "<doc/>")
                writer.update("nope.xml", "<doc/>")
        assert writer.groups == 0
        assert archive_bytes(build_archive(store)) == before
        assert store.documents() == ["a.xml"]

    def test_staging_validation(self):
        store = TemporalDocumentStore()
        store.put("a.xml", "<doc/>")
        batch = store.batch()
        with pytest.raises(StorageError):
            batch.put("a.xml", "<doc/>")  # already live
        with pytest.raises(NoSuchDocumentError):
            batch.update("nope.xml", "<doc/>")
        with pytest.raises(NoSuchDocumentError):
            batch.delete("nope.xml")
        # Liveness tracks staged ops: delete then re-put then update is
        # legal inside one group; update after staged delete is not.
        batch.delete("a.xml")
        with pytest.raises(DocumentDeletedError):
            batch.update("a.xml", "<doc/>")
        batch.put("a.xml", "<doc><y>re</y></doc>")
        batch.update("a.xml", "<doc><y>re2</y></doc>")
        results = batch.commit()
        assert len(results) == 3  # delete, re-put, update (rejected ops
        # were never staged)
        assert store.documents() == ["a.xml"]
        # Re-introduced name gets a fresh identity (new doc_id).
        assert store.doc_id("a.xml") == 2

    def test_closed_batch_refuses_further_ops(self):
        store = TemporalDocumentStore()
        batch = store.batch()
        batch.put("a.xml", "<doc/>")
        batch.commit()
        with pytest.raises(StorageError):
            batch.put("b.xml", "<doc/>")
        with pytest.raises(StorageError):
            batch.commit()

    def test_timestamps_must_not_go_backwards(self):
        store = TemporalDocumentStore()
        batch = store.batch()
        batch.put("a.xml", "<doc/>", ts=START + 100)
        with pytest.raises(StorageError):
            batch.put("b.xml", "<doc/>", ts=START + 50)

    def test_batching_writer_flushes_partial_groups(self):
        store = TemporalDocumentStore()
        with BatchingWriter(store, batch_size=4) as writer:
            for i in range(10):
                writer.put(f"d{i}.xml", "<doc/>")
        assert writer.groups == 3  # 4 + 4 + 2
        assert len(store.documents()) == 10


class TestServingIsolation:
    def test_pinned_reader_never_sees_half_a_group(self):
        db = TemporalXMLDatabase()
        manager = SessionManager(db)
        manager.put("a.xml", "<doc><x>alpha</x></doc>")
        reader = manager.session()
        seq_before = manager.published.seq

        with manager.batch() as batch:
            batch.update("a.xml", "<doc><x>beta</x></doc>")
            batch.put("b.xml", "<doc><y>gamma</y></doc>")
            batch.update("b.xml", "<doc><y>gamma two</y></doc>")
            # Mid-group: nothing is published, the pinned reader still
            # resolves the pre-group world.
            assert manager.published.seq == seq_before
            rows = str(reader.query('SELECT X FROM doc("a.xml")//x X'))
            assert "alpha" in rows and "beta" not in rows

        # The group published exactly one epoch covering all 3 commits.
        assert manager.published.seq == seq_before + 1
        assert manager.commits == 4  # 1 put + 3 grouped

        # The old pin still sees the pre-group state: b.xml did not exist
        # in the pinned world, exactly as in a quiesced pre-group store.
        with pytest.raises(NoSuchDocumentError):
            reader.query('SELECT D FROM doc("b.xml")[NOW] D')
        # ...and one refresh lands on the whole group at once.
        reader.refresh()
        assert len(list(
            reader.query('SELECT D FROM doc("b.xml")[NOW] D')
        )) == 1
        assert "beta" in str(
            reader.query('SELECT X FROM doc("a.xml")//x X')
        )

    def test_aborted_group_publishes_nothing(self):
        db = TemporalXMLDatabase()
        manager = SessionManager(db)
        manager.put("a.xml", "<doc/>")
        seq = manager.published.seq
        try:
            with manager.batch() as batch:
                batch.put("b.xml", "<doc/>")
                raise RuntimeError("abort the group")
        except RuntimeError:
            pass
        assert manager.published.seq == seq
        assert db.documents() == ["a.xml"]


# -- the scale suite (excluded from tier-1 via the marker) --------------------

SMOKE = os.environ.get("REPRO_SCALE_SMOKE", "") not in ("", "0")

# Reduced sizes keep the smoke job under a minute; the full sizes are
# what BENCH_scale runs (10^6 elements / 10^4 versions live there).
SCALE_DOCS = 12 if SMOKE else 40
SCALE_VERSIONS = 10 if SMOKE else 50
SCALE_QUERIES = 40 if SMOKE else 200


@pytest.mark.scale
class TestScaleIngestion:
    @pytest.fixture(scope="class")
    def ingested(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("scale-db")
        db = TemporalXMLDatabase.open(
            directory, durability="fsync", snapshot_interval=10
        )
        generator = TDocGenerator(seed=99, fanout=(3, 5), depth=3)
        report = ingest_synthetic(
            db.store,
            n_docs=SCALE_DOCS,
            versions_per_doc=SCALE_VERSIONS,
            batch_size=32,
            generator=generator,
        )
        yield db, generator, report, directory
        db.close()

    def test_ingest_shape(self, ingested):
        _db, _generator, report, _directory = ingested
        assert report.versions == SCALE_DOCS * SCALE_VERSIONS
        assert report.groups >= report.versions // 32
        assert report.elements > report.versions  # multi-element trees

    def test_fsyncs_amortized(self, ingested):
        db, _generator, report, _directory = ingested
        stats = db.journal.stats
        assert stats.groups_written == report.groups
        # One fsync per group plus the header — far fewer than commits.
        assert stats.fsyncs <= report.groups + 2
        assert stats.fsyncs * 3 <= report.versions

    def test_sampled_reconstruction_and_fti_agreement(self, ingested):
        db, _generator, _report, _directory = ingested
        store = db.store
        names = store.documents()[:: max(1, len(store.documents()) // 5)]
        for name in names:
            dindex = store.delta_index(name)
            step = max(1, len(dindex.entries) // 4)
            for entry in dindex.entries[::step]:
                tree = store.version(name, entry.number)
                doc_id = store.doc_id(name)
                words = set()
                for node in tree.iter():
                    if hasattr(node, "value"):
                        words.update(node.value.lower().split())
                for word in list(sorted(words))[:5]:
                    hits = {
                        p.xid
                        for p in db.fti.lookup_t(word, entry.timestamp)
                        if p.doc_id == doc_id
                    }
                    assert hits, (name, entry.number, word)

    def test_keyword_workload_runs_and_ranks(self, ingested):
        db, generator, _report, _directory = ingested
        workload = KeywordWorkload(
            db.fti,
            generator.vocab.words,
            START,
            db.now(),
            seed=5,
            n_docs=SCALE_DOCS,
        )
        queries = workload.make_queries(SCALE_QUERIES)
        report, tracer = workload.run(queries)
        assert report.queries == SCALE_QUERIES
        assert len(tracer.roots) == SCALE_QUERIES
        assert report.results > 0
        # Zipf head terms must rank; scores are positive and sorted.
        scorer = TemporalKeywordScorer(db.fti)
        ranked = workload.scorer.search_t("w0001", db.now(), limit=5)
        assert ranked == scorer.search_t("w0001", db.now(), limit=5)
        assert all(
            ranked[i].score >= ranked[i + 1].score
            for i in range(len(ranked) - 1)
        )

    def test_reopen_recovers_everything(self, ingested):
        db, _generator, report, directory = ingested
        db.journal.sync()
        reference = archive_bytes(build_archive(db.store))
        reopened = TemporalXMLDatabase.open(directory, durability="fsync")
        try:
            assert archive_bytes(build_archive(reopened.store)) == reference
        finally:
            reopened.close()


@pytest.mark.scale
def test_crawl_ingestion_through_groups(tmp_path):
    db = TemporalXMLDatabase.open(tmp_path / "crawl", durability="fsync")
    report, crawl_report = ingest_crawl(
        db.store,
        n_urls=6 if SMOKE else 15,
        states_per_url=5 if SMOKE else 12,
        batch_size=8,
    )
    try:
        assert report.versions == (
            crawl_report.stored_versions + crawl_report.deletions_observed
        )
        assert report.versions > 0
        assert report.groups >= 1
        assert 0 < crawl_report.capture_ratio() <= 1.0
        assert db.journal.stats.groups_written == report.groups
    finally:
        db.close()
