"""E5 — CreTime/DelTime (Section 7.3.6): delta traversal vs. the index.

"Traversing the deltas is straightforward, but can easily become a
bottleneck if CreTime is a frequently used operator.  In this case the best
alternative will be to use an additional index."

The series sweeps the element's age (versions since creation): traversal
reads one delta per version of age, the lifetime index answers in O(1).
The paper's remark about amortized index maintenance (inserts arrive in
batches per commit) is checked as well.
"""


from harness import Table
from repro.index import LifetimeIndex
from repro.model.identifiers import TEID
from repro.operators import CreTime, DelTime
from repro.storage import TemporalDocumentStore
from repro.xmlcore import Path

VERSIONS = 33


def _build():
    """One document where version k inserts a fresh <entry id=k>."""
    store = TemporalDocumentStore()
    lifetime = store.subscribe(LifetimeIndex())
    items = ['<entry><id>e0</id></entry>']
    store.put("d.xml", f"<doc>{''.join(items)}</doc>")
    for k in range(1, VERSIONS):
        items.append(f"<entry><id>e{k}</id></entry>")
        store.update("d.xml", f"<doc>{''.join(items)}</doc>")
    return store, lifetime


def test_cretime_traversal_vs_index(benchmark, emit):
    store, lifetime = _build()
    doc_id = store.doc_id("d.xml")
    current = store.record("d.xml").current_root
    current_ts = store.delta_index("d.xml").current_ts()
    by_label = {
        entry.find("id").text: entry.xid
        for entry in Path("entry").select(current)
    }

    table = Table(
        "E5: CREATE TIME cost vs element age (versions since creation)",
        ["age", "traversal delta reads", "index delta reads",
         "answers agree"],
    )
    ages = [1, 2, 4, 8, 16, 32]
    traversal_series = []
    for age in ages:
        label = f"e{VERSIONS - age}"
        teid = TEID(doc_id, by_label[label], current_ts)
        repo = store.repository
        repo.delta_reads = 0
        by_traversal = CreTime(store, teid, "traverse").value()
        traversal_reads = repo.delta_reads
        repo.delta_reads = 0
        by_index = CreTime(store, teid, "index", lifetime).value()
        index_reads = repo.delta_reads
        traversal_series.append(traversal_reads)
        table.add(age, traversal_reads, index_reads,
                  by_traversal == by_index)
        assert by_traversal == by_index
        assert index_reads == 0
    table.note("traversal cost is linear in age; the index is O(1)")
    emit(table)
    assert traversal_series == ages  # exactly one delta per age step

    # DelTime mirror: delete the oldest entries one per version.
    del_teid = TEID(doc_id, by_label["e0"], store.delta_index("d.xml")
                    .entry(1).timestamp)
    repo = store.repository
    repo.delta_reads = 0
    assert DelTime(store, del_teid, "traverse").value() is None
    forward_reads = repo.delta_reads
    assert forward_reads == VERSIONS - 1  # scans the whole chain forward
    assert DelTime(store, del_teid, "index", lifetime).value() is None

    # Paper remark: index updates arrive in per-commit batches.
    amortized = Table(
        "E5b: lifetime-index maintenance",
        ["commits", "entries", "entries/commit"],
    )
    amortized.add(
        lifetime.commit_batches,
        lifetime.stats.postings_opened,
        f"{lifetime.stats.postings_opened / lifetime.commit_batches:.1f}",
    )
    emit(amortized)

    oldest = TEID(doc_id, by_label["e1"], current_ts)
    benchmark(lambda: CreTime(store, oldest, "traverse").value())
