"""Determinism guarantees for the workload generators and the crawler.

Everything the scale suite and the differential tests rely on — "same
seed, same history" — is pinned here directly: TDocGen trees, simulated
web timelines, crawl outcomes, and the batched ingestion drivers.
"""

from repro.clock import parse_date
from repro.storage import TemporalDocumentStore
from repro.storage.persistence import archive_bytes, build_archive
from repro.warehouse.crawler import Crawler, round_robin_schedule
from benchmarks.ingest import build_simulated_web, ingest_crawl, ingest_synthetic
from repro.workload import TDocGenerator
from repro.xmlcore import serialize

START = parse_date("01/01/2001")


class TestTDocGenDeterminism:
    def test_same_seed_same_version_sequence(self):
        a = TDocGenerator(seed=21)
        b = TDocGenerator(seed=21)
        for name in ("x.xml", "y.xml"):
            seq_a = a.version_sequence(name, 8)
            seq_b = b.version_sequence(name, 8)
            assert [serialize(t) for t in seq_a] == [
                serialize(t) for t in seq_b
            ]

    def test_different_seeds_diverge(self):
        a = TDocGenerator(seed=21)
        b = TDocGenerator(seed=22)
        assert serialize(a.document("x.xml")) != serialize(
            b.document("x.xml")
        )

    def test_interleaved_documents_stay_deterministic(self):
        # Evolution order matters (one shared RNG); the same interleaving
        # must reproduce byte-for-byte.
        def history(gen):
            out = [gen.document("p"), gen.document("q")]
            for _ in range(5):
                out.append(gen.evolve("p"))
                out.append(gen.evolve("q"))
            return [serialize(t) for t in out]

        assert history(TDocGenerator(seed=5)) == history(
            TDocGenerator(seed=5)
        )


class TestCrawlerDeterminism:
    def _crawled_store(self, seed=13):
        web = build_simulated_web(
            n_urls=6, states_per_url=5, seed=seed, start_ts=START
        )
        store = TemporalDocumentStore()
        schedule = round_robin_schedule(
            web.urls(), START, START + 6 * 86400, 3600 * 7
        )
        report = Crawler(web, store).run(schedule)
        return store, report

    def test_same_seed_same_web_and_crawl(self):
        store_a, report_a = self._crawled_store()
        store_b, report_b = self._crawled_store()
        assert archive_bytes(build_archive(store_a)) == archive_bytes(
            build_archive(store_b)
        )
        assert report_a.per_url == report_b.per_url
        assert report_a.stored_versions == report_b.stored_versions

    def test_simulated_web_timelines_reproduce(self):
        web_a = build_simulated_web(n_urls=4, states_per_url=4, seed=9)
        web_b = build_simulated_web(n_urls=4, states_per_url=4, seed=9)
        assert web_a.urls() == web_b.urls()
        for url in web_a.urls():
            states_a = web_a.states_in(url, 0, 2**61)
            states_b = web_b.states_in(url, 0, 2**61)
            assert [ts for ts, _ in states_a] == [ts for ts, _ in states_b]
            assert [serialize(c) for _, c in states_a] == [
                serialize(c) for _, c in states_b
            ]


class TestIngestDriverDeterminism:
    def test_ingest_synthetic_reproduces(self):
        def run():
            store = TemporalDocumentStore()
            report = ingest_synthetic(
                store, n_docs=5, versions_per_doc=6, batch_size=4,
                generator=TDocGenerator(seed=77),
            )
            return archive_bytes(build_archive(store)), report

        bytes_a, report_a = run()
        bytes_b, report_b = run()
        assert bytes_a == bytes_b
        assert report_a.versions == report_b.versions == 30
        assert report_a.elements == report_b.elements
        assert report_a.groups == report_b.groups

    def test_ingest_crawl_reproduces(self):
        def run():
            store = TemporalDocumentStore()
            report, crawl = ingest_crawl(
                store, n_urls=5, states_per_url=4, batch_size=6, seed=3
            )
            return archive_bytes(build_archive(store)), report, crawl

        bytes_a, report_a, crawl_a = run()
        bytes_b, report_b, crawl_b = run()
        assert bytes_a == bytes_b
        assert report_a.versions == report_b.versions
        assert report_a.elements == report_b.elements
        assert crawl_a.per_url == crawl_b.per_url

    def test_batch_size_does_not_change_the_store(self):
        def run(batch_size):
            store = TemporalDocumentStore(snapshot_interval=3)
            ingest_synthetic(
                store, n_docs=4, versions_per_doc=5,
                batch_size=batch_size, generator=TDocGenerator(seed=8),
            )
            return archive_bytes(build_archive(store))

        assert run(1) == run(16) == run(1000)
