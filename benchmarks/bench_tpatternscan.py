"""E1 — TPatternScan (Section 7.3.1): index-based snapshot matching vs.
reconstruct-and-navigate.

The paper's algorithm answers a snapshot pattern query from FTI_lookup_T
postings plus a structural join — no document reconstruction.  The
navigational baseline must materialize the snapshot of every candidate
document.  The gap should widen with collection size and history length.
"""

import pytest

from ablation.disk import attach
from joinbench import compare_engines, engine_table
from harness import CostMeter, Table
from repro.index import TemporalFullTextIndex
from repro.operators import TPatternScan
from repro.pattern import Pattern
from repro.storage import TemporalDocumentStore
from repro.workload import TDocGenerator, build_collection
from repro.xmlcore import Path


def _build(n_docs, versions):
    store = TemporalDocumentStore()
    fti = store.subscribe(TemporalFullTextIndex())
    generator = TDocGenerator(seed=13)
    names = build_collection(
        store, n_docs=n_docs, versions_per_doc=versions, generator=generator
    )
    return store, fti, names, generator.vocab


def _nav_snapshot_scan(store, names, path, ts):
    """Baseline: reconstruct each document's snapshot, walk the path."""
    hits = []
    compiled = Path(path)
    for name in names:
        tree = store.snapshot(name, ts)
        if tree is None:
            continue
        hits.extend(compiled.select(tree))
    return hits


@pytest.mark.parametrize("versions", [4, 8, 16])
def test_tpatternscan_vs_navigation(benchmark, emit, versions):
    store, fti, names, vocab = _build(n_docs=8, versions=versions)
    # Query for a mid-frequency word inside <item> elements.
    word = vocab.common(3)[-1]
    pattern = Pattern.from_path("//item", value=word)
    mid_ts = store.delta_index(names[len(names) // 2]).entries[
        versions // 2
    ].timestamp

    meter = CostMeter(store=store, disk=attach(store).disk, indexes=[fti])
    with meter.measure() as index_cost:
        index_hits = list(
            TPatternScan(fti, pattern, mid_ts, store=store).teids()
        )
    with meter.measure() as nav_cost:
        nav_hits = [
            el
            for el in _nav_snapshot_scan(store, names, "//item", mid_ts)
            if word in el.text_content().lower()
        ]
    # Same answers (the index returns each matching element once).
    assert len(index_hits) == len(nav_hits)

    table = Table(
        f"E1: snapshot pattern query, {len(names)} docs x {versions} versions",
        ["plan", "matches", "delta_reads", "current_reads",
         "postings_scanned", "pages_read"],
    )
    table.add("TPatternScan (FTI)", len(index_hits),
              index_cost.result.delta_reads, index_cost.result.current_reads,
              index_cost.result.postings_scanned,
              index_cost.result.pages_read)
    table.add("reconstruct+navigate", len(nav_hits),
              nav_cost.result.delta_reads, nav_cost.result.current_reads,
              nav_cost.result.postings_scanned, nav_cost.result.pages_read)
    table.note("the index plan reads no documents at all for the match set")
    emit(table)

    # Shape check: the index plan does strictly less document I/O.
    assert index_cost.result.delta_reads == 0
    assert index_cost.result.current_reads == 0
    assert nav_cost.result.delta_reads + nav_cost.result.current_reads > 0

    benchmark(
        lambda: list(TPatternScan(fti, pattern, mid_ts, store=store).teids())
    )


@pytest.mark.parametrize("versions", [8, 16])
def test_join_engines_snapshot(emit, versions):
    """E1b: the snapshot join — reference nested loop vs. the hash join, over
    FTI_lookup_T posting lists (lists pre-filtered to one instant, so the
    win here is structural probing, not temporal pruning)."""
    store, fti, names, vocab = _build(n_docs=8, versions=versions)
    word = vocab.common(3)[-1]
    pattern = Pattern.from_path("//item", value=word)
    mid_ts = store.delta_index(names[len(names) // 2]).entries[
        versions // 2
    ].timestamp
    posting_lists = [
        fti.lookup_t(node.term, mid_ts) for node in pattern.nodes()
    ]

    record = compare_engines(pattern, posting_lists)
    emit(engine_table(
        f"E1b: snapshot join engines, {len(names)} docs x {versions} versions",
        record,
    ))

    assert record["probe_ratio"] >= 1.0
