"""E2 — TPatternScanAll (Section 7.3.2): the temporal multiway join.

Matching a pattern against *all* versions via FTI_lookup_H postings (join
on document + structure + time) versus the baseline that reconstructs and
scans every version of every document.  The join's advantage grows with
history length because interval postings cover many versions at once.
"""

import pytest

from joinbench import compare_engines, engine_table
from harness import CostMeter, Table
from repro.index import TemporalFullTextIndex
from repro.operators import TPatternScanAll
from repro.pattern import Pattern
from repro.storage import TemporalDocumentStore
from repro.workload import TDocGenerator, build_collection
from repro.xmlcore import Path


def _build(versions):
    store = TemporalDocumentStore()
    fti = store.subscribe(TemporalFullTextIndex())
    generator = TDocGenerator(seed=29)
    names = build_collection(
        store, n_docs=6, versions_per_doc=versions, generator=generator
    )
    return store, fti, names, generator.vocab


def _nav_all_versions(store, names, path, word):
    hits = []
    compiled = Path(path)
    for name in names:
        dindex = store.delta_index(name)
        for entry in dindex.entries:
            tree = store.version(name, entry.number)
            for el in compiled.select(tree):
                if word in el.text_content().lower():
                    hits.append((name, entry.number, el.xid))
    return hits


@pytest.mark.parametrize("versions", [4, 10])
def test_tpatternscanall_vs_full_scan(benchmark, emit, versions):
    store, fti, names, vocab = _build(versions)
    word = vocab.common(2)[-1]
    pattern = Pattern.from_path("//item", value=word)

    meter = CostMeter(store=store, indexes=[fti])
    with meter.measure() as join_cost:
        matches = list(TPatternScanAll(fti, pattern, store=store).run())
        per_version = list(TPatternScanAll(
            fti, pattern, store=store
        ).teids_per_version())
    with meter.measure() as scan_cost:
        nav_hits = _nav_all_versions(store, names, "//item", word)

    # Per-version expansion agrees with the brute-force enumeration.
    assert len(per_version) == len(nav_hits)

    table = Table(
        f"E2: whole-history pattern query, {len(names)} docs x {versions} versions",
        ["plan", "element hits", "intervals", "delta_reads", "postings_scanned"],
    )
    table.add("TPatternScanAll (temporal join)", len(per_version),
              len(matches), join_cost.result.delta_reads,
              join_cost.result.postings_scanned)
    table.add("reconstruct every version", len(nav_hits), "-",
              scan_cost.result.delta_reads,
              scan_cost.result.postings_scanned)
    table.note("interval postings answer many versions per entry")
    emit(table)

    assert join_cost.result.delta_reads == 0
    assert scan_cost.result.delta_reads > 0
    # Maximal intervals: at most as many as per-version hits.
    assert len(matches) <= max(1, len(per_version))

    benchmark(
        lambda: list(TPatternScanAll(fti, pattern, store=store).run())
    )


@pytest.mark.parametrize("versions", [10, 16])
def test_join_engines_whole_history(emit, versions):
    """E2b: the temporal multiway join itself — reference nested loop vs. the
    selectivity-ordered hash join, over the whole-history posting lists.

    Histories of 10+ versions are where posting lists grow long enough for
    hash probing to pay; shorter histories sit below the 5x bar (the edge
    indexes have nothing to skip when a list has a handful of entries).
    """
    store, fti, names, vocab = _build(versions)
    word = vocab.common(2)[-1]
    pattern = Pattern.from_path("//item", value=word)
    posting_lists = [
        fti.lookup_h(node.term) for node in pattern.nodes()
    ]

    record = compare_engines(pattern, posting_lists)
    emit(engine_table(
        f"E2b: join engines, {len(names)} docs x {versions} versions",
        record,
    ))

    # The overhaul's headline: >= 5x fewer candidate postings probed.
    assert record["probe_ratio"] >= 5.0
