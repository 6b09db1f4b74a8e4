"""The indexes keep each fact once, and replay copies no version.

Resident size is a deep-size walk over ``gc.get_referents``
(:func:`benchmarks.memprobe.deep_size`) on one seeded history, divided by
the items held.  Each bound is about 10 % above what the layout measures
on that history (163 bytes per posting, 19 per lifespan); the layout they
replaced measured 203 and 121.
"""

import pytest

from benchmarks.memprobe import deep_size
from repro import TemporalXMLDatabase
from repro.index import LifetimeIndex, TemporalFullTextIndex
from repro.storage import TemporalDocumentStore
from repro.storage.persistence import replay_history
from repro.workload import TDocGenerator, build_collection
from repro.xmlcore.node import Element

FTI_BYTES_PER_POSTING = 180
LIFETIME_BYTES_PER_ENTRY = 21.5


def _history(target):
    build_collection(
        target, n_docs=8, versions_per_doc=12,
        generator=TDocGenerator(
            seed=11, fanout=(3, 6), depth=3, p_insert=0.08, p_delete=0.05
        ),
    )


@pytest.fixture(scope="module")
def db():
    db = TemporalXMLDatabase()
    _history(db.store)
    return db


def _postings(fti):
    return [p for word in fti.words() for p in fti.lookup_h(word)]


class TestResidentSize:
    def test_fti_bytes_per_posting(self, db):
        postings = db.fti.posting_count()
        assert postings > 3000
        assert deep_size(db.fti) / postings < FTI_BYTES_PER_POSTING

    def test_lifetime_bytes_per_entry(self, db):
        entries = len(db.lifetime)
        assert entries > 1500
        assert deep_size(db.lifetime) / entries < LIFETIME_BYTES_PER_ENTRY


class TestSharedContext:
    @staticmethod
    def assert_one_object_per_value(postings):
        for field in ("ancestors", "path", "word"):
            values = [getattr(p, field) for p in postings]
            assert len({id(v) for v in values}) == len(set(values)), field

    def test_live_postings_share_contexts(self, db):
        postings = _postings(db.fti)
        self.assert_one_object_per_value(postings)
        # ... and the history has elements whose postings come from several
        # commits, so sharing across versions is exercised.
        starts = {}
        for p in postings:
            starts.setdefault((p.doc_id, p.xid, id(p.ancestors)), set()).add(
                p.start
            )
        assert any(len(commits) > 1 for commits in starts.values())

    def test_replayed_postings_share_contexts(self, db):
        fti = TemporalFullTextIndex()
        replay_history(db.store, [fti])
        self.assert_one_object_per_value(_postings(fti))
        assert fti.footprint() == db.fti.footprint()


class TestReplayCopies:
    def test_at_most_one_tree_copy_per_document(self, monkeypatch):
        """Whole-tree copies counted (a copy made while another is under
        way is part of it; stored payloads are decoded, never copied): one
        per document to reconstruct its first version, none per later
        version."""
        store = TemporalDocumentStore(snapshot_interval=5)
        _history(store)
        copies = []
        depth = [0]
        original = Element.copy

        def counting_copy(node):
            if not depth[0]:
                copies.append(node)
            depth[0] += 1
            try:
                return original(node)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(Element, "copy", counting_copy)
        versions = sum(len(r.dindex.entries) for r in store.repository.records())
        replay_history(store, [TemporalFullTextIndex(), LifetimeIndex()])
        assert versions == 96
        assert len(copies) <= len(store.repository.records()) == 8
