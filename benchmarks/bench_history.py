"""E4 — DocHistory / ElementHistory (Sections 7.3.4-7.3.5).

DocHistory walks backwards: one reconstruction of the newest requested
version plus exactly one delta read per additional version — so the cost of
an interval scan is proportional to the number of versions in the interval,
not to (versions x chain length) as naive per-version reconstruction would
be.  ElementHistory adds only in-memory filtering on top ("the whole deltas
would have to be read anyway").
"""


from harness import Table
from repro.model.identifiers import EID
from repro.operators import DocHistory, ElementHistory
from repro.storage import TemporalDocumentStore
from repro.workload import TDocGenerator

VERSIONS = 24


def _build():
    store = TemporalDocumentStore()
    generator = TDocGenerator(seed=17, p_delete=0.02)
    trees = generator.version_sequence("d.xml", VERSIONS)
    store.put("d.xml", trees[0])
    for tree in trees[1:]:
        store.update("d.xml", tree)
    return store


def _naive_history(store, start, end):
    """Baseline: reconstruct each version in the interval independently."""
    dindex = store.delta_index("d.xml")
    return [
        store.version("d.xml", entry.number)
        for entry in dindex.versions_in(start, end)
    ]


def test_history_scans(benchmark, emit):
    store = _build()
    dindex = store.delta_index("d.xml")
    timestamps = [e.timestamp for e in dindex.entries]

    table = Table(
        f"E4: interval history scans over a {VERSIONS}-version document",
        ["versions in range", "DocHistory delta reads",
         "naive per-version delta reads"],
    )
    widths = [2, 4, 8, 16, VERSIONS]
    backward_series = []
    naive_series = []
    for width in widths:
        start = timestamps[VERSIONS - width]
        end = timestamps[-1] + 1
        repo = store.repository
        repo.delta_reads = 0
        results = DocHistory(store, "d.xml", start, end).run()
        assert len(results) == width
        backward = repo.delta_reads
        repo.delta_reads = 0
        naive = _naive_history(store, start, end)
        assert len(naive) == width
        naive_reads = repo.delta_reads
        backward_series.append(backward)
        naive_series.append(naive_reads)
        table.add(width, backward, naive_reads)
    table.note("backward walk: one delta per extra version")
    emit(table)

    # Shape: backward walk is linear in width; the naive plan is quadratic.
    assert backward_series == [w - 1 for w in widths]
    assert naive_series == [
        sum(range(w)) for w in widths
    ]

    # ElementHistory returns the same versions filtered to one element, at
    # the same delta-read cost.
    root_eid = EID(store.doc_id("d.xml"), 1)
    repo = store.repository
    repo.delta_reads = 0
    element_versions = ElementHistory(
        store, root_eid, timestamps[0], timestamps[-1] + 1
    ).run()
    assert len(element_versions) == VERSIONS
    assert repo.delta_reads == VERSIONS - 1

    start, end = timestamps[0], timestamps[-1] + 1
    benchmark(lambda: DocHistory(store, "d.xml", start, end).run())
