"""E-cache — the reconstruction version cache vs. the paper's bare algorithm.

The paper prices every temporal read in delta reads; repeated reads of the
same past version pay that price again each time.  The bounded
:class:`~repro.storage.cache.VersionCache` (``cache_size > 0``) keeps recent
reconstructions so repeated ``snapshot()`` / ``DocHistory`` / ``Reconstruct``
workloads start from the nearest cached state instead of walking the whole
chain from the current version.

The E-series accounting benchmarks (E3, E7) keep the cache disabled — the
default — so their numbers remain the uncached algorithm's; this benchmark
is the one place the cache is switched on.
"""


from harness import Table
from repro.model.identifiers import TEID
from repro.operators import DocHistory, Reconstruct
from repro.storage import TemporalDocumentStore
from repro.workload import TDocGenerator
from repro.xmlcore import serialize

VERSIONS = 32
ROUNDS = 10
CACHE_SIZE = 16


def _build(cache_size):
    store = TemporalDocumentStore(cache_size=cache_size)
    trees = TDocGenerator(seed=3).version_sequence("d.xml", VERSIONS)
    store.put("d.xml", trees[0])
    for tree in trees[1:]:
        store.update("d.xml", tree)
    return store


def _delta_reads(store, workload):
    before = store.repository.delta_reads
    for _round in range(ROUNDS):
        workload(store)
    return store.repository.delta_reads - before


def test_version_cache_saves_delta_reads(benchmark, emit):
    cached = _build(cache_size=CACHE_SIZE)
    uncached = _build(cache_size=0)

    def ts_of(store, number):
        return store.delta_index("d.xml").entry(number).timestamp

    # -- workload 1: repeated snapshot() of the same past versions ---------
    snap_numbers = [24, 16, 8]

    def snapshot_workload(store):
        for number in snap_numbers:
            store.snapshot("d.xml", ts_of(store, number))

    # -- workload 2: repeated DocHistory over a fixed past window ----------
    def history_window(store):
        return ts_of(store, 12), ts_of(store, 20) + 1

    def history_workload(store):
        start, end = history_window(store)
        DocHistory(store, "d.xml", start, end).teids()

    # -- workload 3: repeated Reconstruct of one past element version ------
    def element_teid(store):
        root = store.record("d.xml").current_root
        return TEID(store.doc_id("d.xml"), root.xid, ts_of(store, 8))

    def reconstruct_workload(store):
        Reconstruct(store, element_teid(store)).run()

    workloads = [
        ("repeated snapshot()", snapshot_workload),
        ("DocHistory window scan", history_workload),
        ("Reconstruct element", reconstruct_workload),
    ]

    table = Table(
        f"E-cache: delta reads over {ROUNDS} repeated rounds "
        f"(doc = {VERSIONS} versions, cache_size = {CACHE_SIZE})",
        ["workload", "uncached", "cached", "savings"],
    )
    ratios = {}
    for name, workload in workloads:
        cold = _delta_reads(uncached, workload)
        warm = _delta_reads(cached, workload)
        ratios[name] = cold / warm if warm else float("inf")
        table.add(name, cold, warm, f"{ratios[name]:.1f}x")
    table.note("cached rounds after the first start from a cached tree")
    table.note("DocHistory still reads one delta per rewound version")
    emit(table)

    stats = cached.version_cache.stats
    behaviour = Table(
        "E-cache b: cache behaviour over all three workloads",
        ["hits", "misses", "hit rate", "evictions", "saved delta reads"],
    )
    behaviour.add(
        stats.hits,
        stats.misses,
        f"{stats.hit_rate:.2f}",
        stats.evictions,
        stats.saved_delta_reads,
    )
    emit(behaviour)

    # Acceptance: >= 5x fewer delta reads on the repeated-snapshot workload.
    assert ratios["repeated snapshot()"] >= 5
    # Every workload benefits, and the savings counter agrees.
    assert all(ratio > 1 for ratio in ratios.values())
    assert stats.saved_delta_reads > 0
    assert stats.hits > 0 and stats.hit_rate > 0.5

    # The cache never changes answers, only costs.
    for number in snap_numbers:
        assert serialize(
            cached.snapshot("d.xml", ts_of(cached, number))
        ) == serialize(uncached.snapshot("d.xml", ts_of(uncached, number)))

    benchmark(lambda: snapshot_workload(cached))
