"""E9 — delta clustering (Section 7.2, "Additional notes on indexes").

"This problem is especially serious because deltas will in many cases be
stored unclustered ... As a result each delta read will involve a disk seek
in the worst case."

The same reconstruction workload runs on a clustered disk (per-document
arenas) and an unclustered disk (scattered allocation).  The seek count per
reconstruction is the series; the estimated-milliseconds column applies the
classic 8 ms seek / 0.1 ms page model.
"""


from ablation.disk import DiskSimulator, attach
from harness import Table
from repro.storage import TemporalDocumentStore
from repro.workload import TDocGenerator

VERSIONS = 32


def _build(clustered):
    """A store and the simulator attached to it before the first commit."""
    store = TemporalDocumentStore()
    disk = DiskSimulator(clustered=clustered, seed=7)
    attach(store, disk)
    generator = TDocGenerator(seed=23)
    trees = generator.version_sequence("d.xml", VERSIONS)
    store.put("d.xml", trees[0])
    for tree in trees[1:]:
        store.update("d.xml", tree)
    return store, disk


def test_clustered_vs_unclustered(benchmark, emit):
    clustered, clustered_disk = _build(clustered=True)
    unclustered, unclustered_disk = _build(clustered=False)

    table = Table(
        "E9: seeks per reconstruction (chain walk of k deltas)",
        ["k (deltas read)", "clustered seeks", "unclustered seeks",
         "clustered est. ms", "unclustered est. ms"],
    )
    probes = [1, 4, 8, 16, 31]
    clustered_seeks = []
    unclustered_seeks = []
    for distance in probes:
        number = VERSIONS - distance
        with clustered_disk.cost_of() as c_cost:
            clustered.version("d.xml", number)
        with unclustered_disk.cost_of() as u_cost:
            unclustered.version("d.xml", number)
        clustered_seeks.append(c_cost.result.seeks)
        unclustered_seeks.append(u_cost.result.seeks)
        table.add(
            distance,
            c_cost.result.seeks,
            u_cost.result.seeks,
            f"{c_cost.result.estimated_ms():.1f}",
            f"{u_cost.result.estimated_ms():.1f}",
        )
    table.note("unclustered: ~1 seek per delta (the paper's worst case)")
    emit(table)

    # Shape: unclustered pays one seek per object read (current + k deltas);
    # clustered pays far fewer (arena locality).
    for distance, unc in zip(probes, unclustered_seeks):
        assert unc == distance + 1
    for clu, unc in zip(clustered_seeks, unclustered_seeks):
        assert clu <= unc
    assert clustered_seeks[-1] < unclustered_seeks[-1] / 2

    benchmark(lambda: unclustered.version("d.xml", 1))
