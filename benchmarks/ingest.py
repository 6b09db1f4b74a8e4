"""Warehouse-scale batched ingestion drivers for the scale benchmark.

Stream crawled/generated document versions into a store at 10^6-element /
10^4-version scale through :class:`~repro.workload.BatchingWriter`:

* :func:`ingest_synthetic` — round-robin TDocGen evolution (the
  :func:`~repro.workload.tdocgen.build_collection` shape) driven
  through batched groups, with element/commit accounting;
* :func:`ingest_crawl` — a :class:`~repro.warehouse.crawler.SimulatedWeb`
  populated from seeded TDocGen timelines (:func:`build_simulated_web`),
  crawled round-robin through a ``BatchingWriter``.

Everything is deterministic under a seed; ``batch_size=1`` is per-commit
ingestion, the baseline ``bench_scale.py`` compares against.  Bench
scripts import this module as ``ingest``, tests as ``benchmarks.ingest``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR, parse_date
from repro.warehouse.crawler import Crawler, SimulatedWeb, round_robin_schedule
from repro.workload import BatchingWriter, TDocGenerator


def tree_elements(root):
    """Number of elements in a tree (the unit BENCH_scale counts)."""
    return sum(1 for _ in root.iter_elements())


@dataclass
class IngestReport:
    """What an ingestion run committed, and how fast."""

    docs: int = 0
    versions: int = 0          # commits (creates + updates + deletes)
    elements: int = 0          # elements across all committed versions
    groups: int = 0            # commit groups flushed
    batch_size: int = 1
    elapsed_s: float = 0.0
    names: list = field(default_factory=list)

    @property
    def versions_per_s(self):
        return self.versions / self.elapsed_s if self.elapsed_s else 0.0

    @property
    def elements_per_s(self):
        return self.elements / self.elapsed_s if self.elapsed_s else 0.0

    def as_dict(self):
        return {
            "docs": self.docs,
            "versions": self.versions,
            "elements": self.elements,
            "groups": self.groups,
            "batch_size": self.batch_size,
            "elapsed_s": round(self.elapsed_s, 6),
            "versions_per_s": round(self.versions_per_s, 3),
            "elements_per_s": round(self.elements_per_s, 3),
        }


def ingest_synthetic(
    store,
    n_docs=100,
    versions_per_doc=100,
    batch_size=64,
    generator=None,
    start_ts=None,
    tick=SECONDS_PER_HOUR,
    name_prefix="scale",
):
    """Round-robin synthetic ingestion through commit groups.

    Commits ``n_docs * versions_per_doc`` versions (doc1 v1, doc2 v1,
    ..., doc1 v2, ...) like
    :func:`~repro.workload.tdocgen.build_collection`, but versions are
    *streamed* (one evolution step at a time, never the whole history in
    memory) and grouped ``batch_size`` commits per journal group.
    Returns an :class:`IngestReport`.
    """
    if generator is None:
        generator = TDocGenerator(seed=7)
    ts = parse_date("01/01/2001") if start_ts is None else start_ts
    names = [f"{name_prefix}{i:05d}.xml" for i in range(1, n_docs + 1)]
    report = IngestReport(
        docs=n_docs, batch_size=batch_size, names=list(names)
    )
    t0 = time.perf_counter()
    with BatchingWriter(store, batch_size=batch_size) as writer:
        for round_index in range(versions_per_doc):
            for name in names:
                if round_index == 0:
                    tree = generator.document(name)
                    writer.put(name, tree, ts=ts)
                else:
                    tree = generator.evolve(name)
                    writer.update(name, tree, ts=ts)
                report.versions += 1
                report.elements += tree_elements(tree)
                ts += tick
    report.elapsed_s = time.perf_counter() - t0
    report.groups = writer.groups
    return report


def build_simulated_web(
    n_urls=20,
    states_per_url=10,
    seed=7,
    start_ts=None,
    tick=SECONDS_PER_DAY,
    generator=None,
):
    """A :class:`SimulatedWeb` with seeded TDocGen publication timelines.

    URL ``i`` publishes ``states_per_url`` states at a fixed per-URL
    phase offset (URLs change out of step, like the real web).  Fully
    deterministic under ``seed``."""
    if generator is None:
        generator = TDocGenerator(seed=seed)
    start = parse_date("01/01/2001") if start_ts is None else start_ts
    web = SimulatedWeb()
    urls = [f"site{i:04d}.example/doc.xml" for i in range(1, n_urls + 1)]
    for index, url in enumerate(urls):
        ts = start + index * (tick // max(1, n_urls))
        for state in range(states_per_url):
            tree = (
                generator.document(url) if state == 0
                else generator.evolve(url)
            )
            web.publish(url, ts, tree)
            ts += tick
    return web


def ingest_crawl(
    store,
    n_urls=20,
    states_per_url=10,
    crawl_interval=SECONDS_PER_HOUR * 6,
    batch_size=64,
    seed=7,
    start_ts=None,
    publish_tick=SECONDS_PER_DAY,
):
    """Crawl a seeded simulated web into ``store`` through commit groups.

    Builds the web with :func:`build_simulated_web`, then runs the
    standard :class:`~repro.warehouse.crawler.Crawler` round-robin over a
    :class:`BatchingWriter` — the crawler code is untouched; batching is
    purely the writer it talks to.  Returns ``(ingest_report,
    crawl_report)``."""
    start = parse_date("01/01/2001") if start_ts is None else start_ts
    web = build_simulated_web(
        n_urls=n_urls,
        states_per_url=states_per_url,
        seed=seed,
        start_ts=start,
        tick=publish_tick,
    )
    end = start + states_per_url * publish_tick + publish_tick
    schedule = round_robin_schedule(web.urls(), start, end, crawl_interval)
    report = IngestReport(batch_size=batch_size)
    t0 = time.perf_counter()
    with BatchingWriter(store, batch_size=batch_size) as writer:
        crawler = Crawler(web, writer)

        def visits():
            # Crawler.run() compares captures against ground truth right
            # after its visit loop; flushing as the schedule exhausts
            # makes the final partial group visible to that comparison.
            yield from schedule
            writer.flush()

        crawl_report = crawler.run(visits())
    report.elapsed_s = time.perf_counter() - t0
    report.groups = writer.groups
    report.docs = len(
        [u for u, row in crawl_report.per_url.items() if row["captured"]]
    )
    report.versions = (
        crawl_report.stored_versions + crawl_report.deletions_observed
    )
    report.names = [
        url for url, row in crawl_report.per_url.items() if row["captured"]
    ]
    for name in report.names:
        record = store.record(name)
        for number in range(1, record.dindex.current_number + 1):
            report.elements += tree_elements(store.version(name, number))
    return report, crawl_report
