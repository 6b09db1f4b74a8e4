"""Moderate-scale integration test: a whole collection, all invariants.

One store, 15 documents x 12 versions with all three indexes attached,
cross-checked end to end: reconstruction, FTI agreement, lifetime
agreement, query-plan equivalence, stratum equivalence, and persistence
round-trip.  This is the "does the whole system hold together" test.
"""

import pytest

from benchmarks.ablation.fti_alternatives import DeltaOperationIndex
from benchmarks.ablation.lifetime import (
    traverse_create_time,
    traverse_delete_time,
)
from benchmarks.ablation.stratum import StratumQueryProcessor, StratumStore
from repro.clock import parse_date
from repro.index import LifetimeIndex, TemporalFullTextIndex
from repro.model.identifiers import EID, TEID
from repro.query import QueryEngine
from repro.storage import TemporalDocumentStore
from repro.storage.persistence import dump_store, load_store
from repro.workload import TDocGenerator
from repro.xmlcore import serialize

N_DOCS = 15
VERSIONS = 12


@pytest.fixture(scope="module")
def world():
    generator = TDocGenerator(seed=1234, p_update=0.2, p_insert=0.06,
                              p_delete=0.06)
    store = TemporalDocumentStore(snapshot_interval=5)
    fti = store.subscribe(TemporalFullTextIndex())
    lifetime = store.subscribe(LifetimeIndex())
    operations = store.subscribe(DeltaOperationIndex())
    stratum = StratumStore()

    ts = parse_date("01/01/2001")
    names = [f"site{i}.xml" for i in range(1, N_DOCS + 1)]
    sequences = {
        name: generator.version_sequence(name, VERSIONS) for name in names
    }
    committed = {name: [] for name in names}
    for round_index in range(VERSIONS):
        # Store commits flow through one commit group per round (the
        # group-commit batch path); the stratum commits per-op — the
        # stratum-equivalence test below then doubles as a whole-system
        # check that batching changes nothing observable.
        with store.batch() as group:
            for name in names:
                tree = sequences[name][round_index]
                committed[name].append(serialize(tree))
                if round_index == 0:
                    group.put(name, tree.copy(), ts=ts)
                    stratum.put(name, tree.copy(), ts=ts)
                else:
                    group.update(name, tree.copy(), ts=ts)
                    stratum.update(name, tree.copy(), ts=ts)
                ts += 3600
    # Delete a few documents at the end.
    for name in names[:3]:
        store.delete(name, ts=ts)
        stratum.delete(name, ts=ts)
        ts += 3600
    return store, fti, lifetime, operations, stratum, committed


class TestReconstruction:
    def test_every_version_of_every_document(self, world):
        store, _fti, _life, _ops, _stratum, committed = world
        for name, sources in committed.items():
            for number, source in enumerate(sources, start=1):
                assert serialize(store.version(name, number)) == source


class TestIndexAgreement:
    def test_fti_against_snapshots_at_sampled_instants(self, world):
        store, fti, _life, ops, _stratum, _committed = world
        sample_words = ("w0001", "w0002", "w0010", "section", "item")
        for name in list(store.documents(include_deleted=True))[:5]:
            dindex = store.delta_index(name)
            for entry in dindex.entries[:: max(1, len(dindex.entries) // 3)]:
                snapshot = store.version(name, entry.number)
                doc_id = store.doc_id(name)
                present_words = set()
                for node in snapshot.iter():
                    if hasattr(node, "value"):
                        present_words.update(node.value.lower().split())
                    else:
                        present_words.add(node.tag)
                for word in sample_words:
                    hits = {
                        p.xid
                        for p in fti.lookup_t(word, entry.timestamp)
                        if p.doc_id == doc_id
                    }
                    if word not in present_words:
                        assert hits == set(), (name, word)
                    else:
                        assert hits, (name, word)

    def test_event_fold_consistent_on_sample(self, world):
        store, fti, _life, ops, _stratum, _committed = world
        for word in ("w0001", "item"):
            dindex = store.delta_index("site5.xml")
            ts = dindex.entries[-1].timestamp
            fold = set(ops.lookup_t(word, ts))
            intervals = {
                (p.doc_id, p.xid) for p in fti.lookup_t(word, ts)
            }
            assert fold == intervals

    def test_lifetime_agreement_on_sample(self, world):
        store, _fti, lifetime, _ops, _stratum, _committed = world
        name = "site7.xml"
        doc_id = store.doc_id(name)
        dindex = store.delta_index(name)
        entry = dindex.entries[VERSIONS // 2]
        snapshot = store.version(name, entry.number)
        for node in list(snapshot.iter())[:30]:
            teid = TEID(doc_id, node.xid, entry.timestamp)
            assert (
                traverse_create_time(store, teid)
                == lifetime.create_time(EID(doc_id, node.xid))
            )
            assert (
                traverse_delete_time(store, teid)
                == lifetime.delete_time(EID(doc_id, node.xid))
            )


class TestQueryEquivalenceAtScale:
    QUERIES = (
        'SELECT COUNT(I) FROM doc("*")//item I',
        'SELECT TIME(D) FROM doc("site4.xml")[EVERY] D',
        'SELECT I FROM doc("site8.xml")[EVERY]//item I '
        "WHERE TIME(I) >= 05/01/2001",
    )

    @pytest.mark.parametrize("query", QUERIES)
    def test_plans_agree(self, world, query):
        store, fti, _life, _ops, _stratum, _committed = world
        indexed = sorted(
            str(QueryEngine(store, fti=fti).execute(query)).splitlines()
        )
        navigated = sorted(
            str(QueryEngine(store).execute(query)).splitlines()
        )
        assert indexed == navigated

    def test_stratum_agrees(self, world):
        store, fti, _life, _ops, stratum, _committed = world
        engine = QueryEngine(store, fti=fti)
        processor = StratumQueryProcessor(stratum)
        for query in (
            'SELECT COUNT(I) FROM doc("*")//item I',
            'SELECT TIME(D) FROM doc("site4.xml")[EVERY] D',
        ):
            native = sorted(str(engine.execute(query)).splitlines())
            translated = sorted(str(processor.execute(query)).splitlines())
            assert native == translated, query


class TestPersistenceAtScale:
    def test_archive_roundtrip(self, world):
        store, _fti, _life, _ops, _stratum, committed = world
        loaded = load_store(dump_store(store))
        for name, sources in list(committed.items())[:4]:
            for number, source in enumerate(sources, start=1):
                assert serialize(loaded.version(name, number)) == source
        assert set(loaded.documents(include_deleted=True)) == set(
            store.documents(include_deleted=True)
        )
