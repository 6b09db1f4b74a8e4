"""E7 — storage schemes (Section 7.1, after Chien et al.): completed-delta
chains vs. storing every version complete.

Two sides of the trade, swept over the change ratio per version:

* **space** — deltas grow with the change ratio, full versions with the
  document size;
* **snapshot retrieval I/O** — the full-version store reads one object,
  the delta store reconstructs through the chain.

The paper's point (via Q2 and the FTI) is that the delta store's weakness
rarely bites because the indexes answer many queries without reconstruction.
"""

import pytest

from ablation.disk import attach
from ablation.stratum import StratumStore
from harness import Table
from repro.storage import TemporalDocumentStore
from repro.workload import TDocGenerator
from repro.xmlcore import serialize

VERSIONS = 16


def _histories(change_ratio):
    generator = TDocGenerator(
        seed=51, p_update=change_ratio, p_insert=change_ratio / 4,
        p_delete=change_ratio / 4,
    )
    return generator.version_sequence("d.xml", VERSIONS)


def _load_both(trees):
    delta_store = TemporalDocumentStore()
    full_store = StratumStore()
    delta_store.put("d.xml", trees[0].copy())
    full_store.put("d.xml", trees[0].copy())
    for tree in trees[1:]:
        delta_store.update("d.xml", tree.copy())
        full_store.update("d.xml", tree.copy())
    return delta_store, full_store


@pytest.mark.parametrize("change_ratio", [0.05, 0.2, 0.5])
def test_storage_space_and_snapshot_io(benchmark, emit, change_ratio):
    trees = _histories(change_ratio)
    delta_store, full_store = _load_both(trees)

    delta_bytes = delta_store.repository.storage_bytes()
    full_bytes = full_store.storage_bytes()

    table = Table(
        f"E7: storage scheme comparison, change ratio {change_ratio}",
        ["scheme", "stored bytes", "snapshot(v1) pages read",
         "snapshot(v1) delta reads"],
    )
    first_ts = delta_store.delta_index("d.xml").entry(1).timestamp

    with attach(delta_store).disk.cost_of() as delta_cost:
        delta_snapshot = delta_store.snapshot("d.xml", first_ts)
    delta_reads = delta_store.repository.delta_reads
    with full_store.disk.cost_of() as full_cost:
        full_snapshot = full_store.snapshot("d.xml", first_ts)

    assert serialize(delta_snapshot) == serialize(trees[0])
    # The full store never diffed, so only content equality holds there.
    assert full_snapshot.equals_deep(trees[0])

    table.add("current + completed deltas", delta_bytes["total"],
              delta_cost.result.pages_read, delta_reads)
    table.add("every version complete", full_bytes["total"],
              full_cost.result.pages_read, 0)
    table.note("full-version snapshots cost one read; delta snapshots walk "
               "the chain")
    emit(table)

    # Space shape: deltas win at low change ratios (the crossover sits
    # between 0.1 and 0.3 on this workload; E7b maps it out).
    if change_ratio <= 0.1:
        assert delta_bytes["total"] < full_bytes["total"]
    # I/O shape: oldest-version retrieval walks the whole chain.
    assert delta_reads == VERSIONS - 1
    assert full_cost.result.reads == 1

    benchmark(lambda: delta_store.snapshot("d.xml", first_ts))


def test_space_series_over_change_ratio(emit, benchmark):
    table = Table(
        "E7b: stored bytes vs change ratio (16 versions)",
        ["change ratio", "delta store", "full-version store",
         "delta/full"],
    )
    ratios = [0.02, 0.1, 0.3, 0.6]
    fractions = []
    for ratio in ratios:
        trees = _histories(ratio)
        delta_store, full_store = _load_both(trees)
        delta_total = delta_store.repository.storage_bytes()["total"]
        full_total = full_store.storage_bytes()["total"]
        fraction = delta_total / full_total
        fractions.append(fraction)
        table.add(ratio, delta_total, full_total, f"{fraction:.2f}")
    table.note("delta storage approaches full-version storage as the "
               "change ratio grows")
    emit(table)
    # Shape: monotone-ish growth of the ratio with the change ratio.
    assert fractions[0] < fractions[-1]
    assert fractions[0] < 0.8

    benchmark(lambda: _load_both(_histories(0.1)))
