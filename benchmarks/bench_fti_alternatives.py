"""E6 — the three FTI alternatives of Section 7.2.

1. index version contents (the paper's choice),
2. index delta operations,
3. index both.

Measured on one workload: index size (entries/bytes), update work per
commit, snapshot-query cost, and change-query ("when was X deleted") cost.
The shape the paper predicts: alternative 2 explodes entry counts and makes
snapshot queries expensive; alternative 3 is good at both query classes but
pays the summed size/update cost.
"""

from ablation.fti_alternatives import DeltaOperationIndex, HybridIndex
from harness import Table
from repro.index import TemporalFullTextIndex
from repro.storage import TemporalDocumentStore
from repro.workload import TDocGenerator, build_collection


def _build():
    store = TemporalDocumentStore()
    content = store.subscribe(TemporalFullTextIndex())
    operations = store.subscribe(DeltaOperationIndex())
    hybrid = store.subscribe(HybridIndex())
    generator = TDocGenerator(seed=41, p_update=0.25, p_insert=0.08,
                              p_delete=0.08)
    names = build_collection(
        store, n_docs=6, versions_per_doc=10, generator=generator
    )
    return store, content, operations, hybrid, names, generator.vocab


def test_fti_alternatives(benchmark, emit):
    store, content, operations, hybrid, names, vocab = _build()
    word = vocab.common(1)[0]
    mid_ts = store.delta_index(names[0]).entries[5].timestamp

    # -- size and update cost ------------------------------------------------
    size = Table(
        "E6: index size and update cost (same workload)",
        ["alternative", "entries", "est. bytes", "update ops"],
    )
    size.add("1: version contents", content.posting_count(),
             content.estimated_bytes(), content.stats.update_ops)
    size.add("2: delta operations", operations.posting_count(),
             operations.estimated_bytes(), operations.stats.update_ops)
    size.add("3: both", hybrid.posting_count(),
             hybrid.estimated_bytes(), hybrid.update_ops())
    size.note("alt 2 stores one entry per changed word per commit, twice "
              "(content word + operation keyword)")
    emit(size)

    assert operations.posting_count() > content.posting_count()
    assert hybrid.posting_count() == (
        content.posting_count() + operations.posting_count()
    )
    assert hybrid.update_ops() > content.stats.update_ops

    # -- query costs ----------------------------------------------------------
    def scanned(index, fn):
        before = index.stats.postings_scanned
        fn()
        return index.stats.postings_scanned - before

    snap_1 = scanned(content, lambda: content.lookup_t(word, mid_ts))
    snap_2 = scanned(operations, lambda: operations.lookup_t(word, mid_ts))
    snap_3 = scanned(
        hybrid.content, lambda: hybrid.lookup_t(word, mid_ts)
    )
    # Change query: every deletion event for a word.  Under alternative 1
    # the only way is scanning the word's whole history for closed postings.
    change_1 = scanned(
        content,
        lambda: [p for p in content.lookup_h(word) if not p.is_open],
    )
    change_2 = scanned(
        operations, lambda: operations.deletion_time(word)
    )
    change_3 = scanned(
        hybrid.operations, lambda: hybrid.deletion_time(word)
    )

    # Answers must agree between content folding and event folding.
    assert set(operations.lookup_t(word, mid_ts)) == {
        (p.doc_id, p.xid) for p in content.lookup_t(word, mid_ts)
    }

    queries = Table(
        "E6b: entries scanned per query",
        ["alternative", "snapshot lookup", "deletion-time lookup"],
    )
    queries.add("1: version contents", snap_1, change_1)
    queries.add("2: delta operations", snap_2, change_2)
    queries.add("3: both", snap_3, change_3)
    queries.note("alt 2 folds the whole event history for a snapshot")
    queries.note("alt 3 routes each query to the cheap side")
    emit(queries)

    assert snap_2 >= snap_1  # event folding scans at least as much
    assert snap_3 == snap_1  # hybrid answers snapshots via contents
    assert change_3 == change_2  # and change queries via operations

    benchmark(lambda: content.lookup_t(word, mid_ts))
