"""BENCH_planner — what the cost-based optimizer buys (ROADMAP item 3).

Three sections, one report:

* **pushdown** — a skewed multi-predicate catalog (every item carries the
  same fat ``category`` term, plus a unique rare ``tag``) queried with the
  fat conjunct written first.  The legacy plan shape (``planedits``: the
  engine's own plan with every optimizer decision undone) pushes only
  that first conjunct into the pattern scan; the planned query pushes
  every pushable equality and hands the structural join the rarest term
  first.  Measured per query as a registry delta around the run:
  postings scanned + join candidates probed.  The report *asserts* the >= 2x probe reduction the
  optimizer exists to provide — with byte-identical results.
* **keyword** — the BENCH_scale keyword workload re-run twice over one
  ingested warehouse: full-history retrieval (the scorer over an
  ``ablation.fti_alternatives.FullHistoryLookup`` adapter — the
  pre-planner scorer) vs. windowed posting lists (``lookup_w``).
  Reports p50/p95 latency and the deterministic postings-scanned counts;
  full mode also compares p95 against the committed BENCH_scale baseline.
* **equivalence** — a seeded sweep of mixed query shapes (snapshot, EVERY,
  LIMIT, COUNT, multi-variable joins) asserting the optimizer is
  invisible in results: the planned query vs. its legacy plan shape, byte
  for byte.

Run modes::

    python benchmarks/bench_planner.py                 # full, ~2-3 min
    python benchmarks/bench_planner.py --smoke         # CI-sized, seconds
    python benchmarks/bench_planner.py --check FILE    # validate a report

The full run writes ``BENCH_planner.json`` at the repository root (the
committed numbers); ``--smoke`` defaults to a scratch path.  ``pytest
benchmarks/bench_planner.py`` runs the smoke scenario through the house
bench harness instead.
"""

import argparse
import json
import random
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

from ablation.fti_alternatives import FullHistoryLookup
from harness import Table
from ingest import ingest_synthetic
from repro import TemporalXMLDatabase
from repro.clock import (
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    format_timestamp,
    parse_date,
)
from repro.index.relevance import TemporalKeywordScorer
from repro.obs import MetricsRegistry
from repro.workload import KeywordWorkload, TDocGenerator

from planedits import legacy_shape, rewritten_plan

ROOT = Path(__file__).resolve().parent.parent
REPORT_PATH = ROOT / "BENCH_planner.json"
SCALE_REPORT_PATH = ROOT / "BENCH_scale.json"
START = parse_date("01/01/2001")

#: The keyword half mirrors BENCH_scale's ingest exactly (same generator
#: seed and shape) so its latencies are comparable to the committed
#: BENCH_scale numbers; the catalog half is sized so the fat term's
#: posting list dwarfs every rare tag by ~three orders of magnitude.
FULL = {
    "mode": "full",
    # pushdown section: the skewed catalog
    "catalog_docs": 16,
    "catalog_items": 48,
    "catalog_versions": 12,
    "pushdown_queries": 96,
    # keyword section: the BENCH_scale warehouse
    "n_docs": 100,
    "versions_per_doc": 100,
    "batch_size": 64,
    "snapshot_interval": 25,
    "fanout": (7, 9),
    "depth": 3,
    "p_insert": 0.065,
    "p_delete": 0.035,
    "keyword_queries": 400,
    # equivalence section
    "equivalence_queries": 48,
    # thresholds
    "min_probe_reduction_x": 2.0,
    # The workload's windows are uniform over the history, so half of all
    # windowed lookups still scan most of each start-sorted list; the
    # measured full-scale reduction is a deterministic 1.19x.
    "min_window_scan_reduction_x": 1.15,
}

SMOKE = {
    "mode": "smoke",
    "catalog_docs": 4,
    "catalog_items": 12,
    "catalog_versions": 6,
    "pushdown_queries": 24,
    "n_docs": 8,
    "versions_per_doc": 12,
    "batch_size": 16,
    "snapshot_interval": 10,
    "fanout": (3, 5),
    "depth": 3,
    "p_insert": 0.065,
    "p_delete": 0.035,
    "keyword_queries": 40,
    "equivalence_queries": 24,
    "min_probe_reduction_x": 2.0,
    # Smoke histories are a dozen versions deep, so the windowed-lookup
    # prefix saves less than on the full warehouse.
    "min_window_scan_reduction_x": 1.1,
}


# -- the skewed catalog --------------------------------------------------------


def _catalog_xml(doc, items, version):
    """One catalog version: every item shares the fat ``category`` term
    while ``sku``/``tag`` are unique per item; prices rotate per version
    so the documents keep accumulating history."""
    parts = ["<catalog>"]
    for m in range(items):
        price = 10 + (m + 7 * version) % 90
        parts.append(
            "<item>"
            f"<sku>sku{doc}x{m}</sku>"
            "<category>alpha</category>"
            f"<tag>tag{doc}x{m}</tag>"
            f"<price>{price}</price>"
            "</item>"
        )
    parts.append("</catalog>")
    return "".join(parts)


def _build_catalog(config):
    """The catalog corpus in one in-memory database; commits interleave
    across documents so the store clock stays monotonic."""
    db = TemporalXMLDatabase()
    docs = config["catalog_docs"]
    items = config["catalog_items"]
    for version in range(config["catalog_versions"]):
        for doc in range(docs):
            ts = START + (version * docs + doc) * SECONDS_PER_HOUR
            xml = _catalog_xml(doc, items, version)
            if version == 0:
                db.put(f"cat{doc}.xml", xml, ts=ts)
            else:
                db.update(f"cat{doc}.xml", xml, ts=ts)
    return db


def _catalog_instant(config, rng):
    """A day-aligned instant in the later half of the catalog history
    (the TXQL date literal has day granularity)."""
    docs = config["catalog_docs"]
    span_days = max(1, config["catalog_versions"] * docs // 24)
    offset = rng.randint(max(1, span_days // 2), span_days)
    return format_timestamp(START + offset * SECONDS_PER_DAY)


def _pushdown_queries(config, seed=5):
    """Skewed two-predicate queries, fat conjunct written *first* — the
    shape the legacy first-pushable-wins rule handles worst."""
    rng = random.Random(seed)
    docs = config["catalog_docs"]
    items = config["catalog_items"]
    queries = []
    for index in range(config["pushdown_queries"]):
        doc = rng.randrange(docs)
        item = rng.randrange(items)
        if index % 2 == 0:
            queries.append(
                f'SELECT I/sku, I/price FROM doc("cat{doc}.xml")'
                f"[{_catalog_instant(config, rng)}]/item I "
                f'WHERE I/category = "alpha" AND I/tag = "tag{doc}x{item}"'
            )
        else:
            queries.append(
                f'SELECT TIME(I), I/price FROM doc("cat{doc}.xml")'
                "[EVERY]/item I "
                f'WHERE I/category = "alpha" AND I/tag = "tag{doc}x{item}"'
            )
    return queries


def _probes(stats):
    """The probe metric: every index-layer entry the query touched —
    posting-list entries scanned (suffix-matched so hybrid indexes count
    too) plus structural-join candidates scanned and probed."""
    total = 0
    for key, value in (stats or {}).items():
        if (
            key.endswith(".postings_scanned")
            or key == "join.candidates_probed"
            or key == "join.candidates_scanned"
        ):
            total += value
    return total


def _pushdown_section(config):
    db = _build_catalog(config)
    engine = db.engine
    queries = _pushdown_queries(config)
    totals = {"optimized": 0, "legacy": 0}
    identical = True
    for query in queries:
        plan = rewritten_plan(engine, query)
        rows = {}
        for label, shaped in (("optimized", plan),
                              ("legacy", legacy_shape(plan))):
            before = engine.registry.snapshot()
            rows[label] = str(engine.run(shaped))
            totals[label] += _probes(
                MetricsRegistry.delta(before, engine.registry.snapshot())
            )
        if rows["optimized"] != rows["legacy"]:
            identical = False
    reduction = (
        totals["legacy"] / totals["optimized"] if totals["optimized"] else 0.0
    )
    return {
        "queries": len(queries),
        "identical_results": identical,
        "legacy_probes": totals["legacy"],
        "optimized_probes": totals["optimized"],
        "probe_reduction_x": round(reduction, 2),
        "planner_counters": asdict(engine.optimizer.counters),
    }, db


# -- the keyword workload ------------------------------------------------------


def _generator(config, seed=42):
    return TDocGenerator(
        seed=seed,
        fanout=tuple(config["fanout"]),
        depth=config["depth"],
        p_insert=config["p_insert"],
        p_delete=config["p_delete"],
    )


def _keyword_section(workdir, config):
    """One BENCH_scale-shaped ingest, the same seeded query stream run
    through both scorer retrieval modes."""
    db = TemporalXMLDatabase.open(
        Path(workdir) / "planner-keyword",
        durability="fsync",
        snapshot_interval=config["snapshot_interval"],
    )
    try:
        ingest_synthetic(
            db.store,
            n_docs=config["n_docs"],
            versions_per_doc=config["versions_per_doc"],
            batch_size=config["batch_size"],
            generator=_generator(config),
            start_ts=START,
        )
        versions = config["n_docs"] * config["versions_per_doc"]
        workload = KeywordWorkload(
            db.fti,
            _generator(config).vocab.words,
            START,
            START + versions * SECONDS_PER_HOUR,
            seed=1,
        )
        queries = workload.make_queries(config["keyword_queries"])
        runs = {}
        for label, index in (
            ("baseline", FullHistoryLookup(db.fti)),
            ("windowed", db.fti),
        ):
            workload.scorer = TemporalKeywordScorer(index)
            before = db.fti.stats.postings_scanned
            report, _tracer = workload.run(queries)
            runs[label] = report.as_dict()
            runs[label]["postings_scanned"] = (
                db.fti.stats.postings_scanned - before
            )
        assert runs["baseline"]["results"] == runs["windowed"]["results"]
    finally:
        db.close()

    scanned = runs["windowed"]["postings_scanned"]
    scan_reduction = (
        runs["baseline"]["postings_scanned"] / scanned if scanned else 0.0
    )
    reference = None
    if SCALE_REPORT_PATH.exists():
        scale = json.loads(SCALE_REPORT_PATH.read_text())
        reference = scale.get("queries", {}).get("p95_ms")
    return {
        "queries": len(queries),
        "baseline": runs["baseline"],
        "windowed": runs["windowed"],
        "scan_reduction_x": round(scan_reduction, 2),
        "scale_reference_p95_ms": reference,
    }


# -- the equivalence sweep -----------------------------------------------------


def _equivalence_queries(config, seed=19):
    """Mixed shapes over the catalog: snapshot, EVERY, LIMIT, COUNT,
    DISTINCT, and multi-variable joins with per-variable predicates."""
    rng = random.Random(seed)
    docs = config["catalog_docs"]
    items = config["catalog_items"]

    def doc():
        return rng.randrange(docs)

    def item():
        return rng.randrange(items)

    templates = (
        lambda: (
            f'SELECT I FROM doc("cat{doc()}.xml")'
            f"[{_catalog_instant(config, rng)}]/item I "
            f'WHERE I/category = "alpha" AND I/tag = "tag0x{item()}"'
        ),
        lambda: (
            f'SELECT TIME(I), I/price FROM doc("cat{doc()}.xml")[EVERY]'
            f'/item I WHERE I/tag = "tag1x{item()}" AND I/price > 30'
        ),
        lambda: (
            f'SELECT I/sku FROM doc("cat{doc()}.xml")[EVERY]/item I '
            f'WHERE I/category = "alpha" LIMIT 5'
        ),
        lambda: (
            f'SELECT COUNT(I) FROM doc("*")[EVERY]/item I '
            f'WHERE I/tag = "tag2x{item()}"'
        ),
        lambda: (
            f'SELECT DISTINCT I/price FROM doc("cat{doc()}.xml")[EVERY]'
            f"/item I WHERE CREATE TIME(I) >= "
            f"{_catalog_instant(config, rng)}"
        ),
        lambda: (
            f'SELECT A/sku, B/sku FROM doc("cat0.xml")'
            f"[{_catalog_instant(config, rng)}]/item A, "
            f'doc("cat1.xml")[{_catalog_instant(config, rng)}]/item B '
            f'WHERE A/tag = "tag0x{item()}" AND A/price = B/price'
        ),
    )
    return [rng.choice(templates)() for _ in range(config["equivalence_queries"])]


def _equivalence_section(config, db):
    engine = db.engine
    queries = _equivalence_queries(config)
    mismatches = []
    for query in queries:
        plan = rewritten_plan(engine, query)
        if str(engine.run(plan)) != str(engine.run(legacy_shape(plan))):
            mismatches.append(query)
    return {
        "queries": len(queries),
        "identical": not mismatches,
        "mismatches": mismatches,
    }


# -- report assembly -----------------------------------------------------------


def build_report(workdir, config):
    """Run all three sections and return the BENCH_planner report dict."""
    pushdown, catalog_db = _pushdown_section(config)
    equivalence = _equivalence_section(config, catalog_db)
    keyword = _keyword_section(workdir, config)
    return {
        "description": (
            "Cost-based optimizer benchmarks: multi-predicate pushdown "
            "probe reduction on a skewed catalog (per-query stats "
            "deltas), windowed vs full-history keyword retrieval on a "
            "BENCH_scale-shaped warehouse, and a planned vs legacy-plan-shape "
            "equivalence sweep."
        ),
        "mode": config["mode"],
        "config": {
            key: config[key]
            for key in (
                "catalog_docs",
                "catalog_items",
                "catalog_versions",
                "pushdown_queries",
                "n_docs",
                "versions_per_doc",
                "batch_size",
                "snapshot_interval",
                "keyword_queries",
                "equivalence_queries",
            )
        },
        "thresholds": {
            key: config[key]
            for key in (
                "min_probe_reduction_x",
                "min_window_scan_reduction_x",
            )
        },
        "pushdown": pushdown,
        "keyword": keyword,
        "equivalence": equivalence,
    }


def check_report(report):
    """Assert the report meets its own thresholds (also used by CI)."""
    thresholds = report["thresholds"]
    pushdown = report["pushdown"]
    assert pushdown["queries"] > 0
    assert pushdown["identical_results"], (
        "optimizer changed results on the pushdown workload"
    )
    assert pushdown["optimized_probes"] > 0
    reduction = pushdown["probe_reduction_x"]
    assert reduction >= thresholds["min_probe_reduction_x"], (
        f"optimizer reduced probes only {reduction}x on the skewed "
        f"workload; need >= {thresholds['min_probe_reduction_x']}x"
    )
    counters = pushdown["planner_counters"]
    assert counters["pushdowns"] > 0
    assert counters["conjuncts_reordered"] > 0

    keyword = report["keyword"]
    assert keyword["queries"] > 0
    assert keyword["baseline"]["results"] == keyword["windowed"]["results"], (
        "windowed retrieval changed keyword results"
    )
    scan_reduction = keyword["scan_reduction_x"]
    assert scan_reduction >= thresholds["min_window_scan_reduction_x"], (
        f"windowed lookups cut postings scanned only {scan_reduction}x; "
        f"need >= {thresholds['min_window_scan_reduction_x']}x"
    )
    if report["mode"] == "full":
        # Wall-clock assertions only on the committed full numbers (both
        # sides of each comparison were measured on the same machine).
        windowed_p95 = keyword["windowed"]["p95_ms"]
        assert windowed_p95 <= keyword["baseline"]["p95_ms"], (
            "windowed keyword p95 regressed vs the full-history baseline"
        )
        reference = keyword.get("scale_reference_p95_ms")
        if reference is not None:
            assert windowed_p95 < reference, (
                f"keyword p95 {windowed_p95}ms did not improve on the "
                f"BENCH_scale baseline {reference}ms"
            )

    equivalence = report["equivalence"]
    assert equivalence["queries"] > 0
    assert equivalence["identical"], (
        f"optimizer-on diverged on: {equivalence['mismatches'][:3]}"
    )


def summary_table(report):
    pushdown = report["pushdown"]
    keyword = report["keyword"]
    table = Table(
        f"BENCH_planner ({report['mode']}): pushdown probes, keyword "
        "retrieval, equivalence",
        ["series", "queries", "probes/postings", "p50 ms", "p95 ms"],
    )
    table.add(
        "pushdown legacy", pushdown["queries"], pushdown["legacy_probes"],
        "-", "-",
    )
    table.add(
        "pushdown optimized", pushdown["queries"],
        pushdown["optimized_probes"], "-", "-",
    )
    table.add(
        "keyword full-history", keyword["queries"],
        keyword["baseline"]["postings_scanned"],
        keyword["baseline"]["p50_ms"], keyword["baseline"]["p95_ms"],
    )
    table.add(
        "keyword windowed", keyword["queries"],
        keyword["windowed"]["postings_scanned"],
        keyword["windowed"]["p50_ms"], keyword["windowed"]["p95_ms"],
    )
    reference = keyword.get("scale_reference_p95_ms")
    table.note(
        f"probe reduction {pushdown['probe_reduction_x']}x "
        f"(threshold {report['thresholds']['min_probe_reduction_x']}x); "
        f"window scan reduction {keyword['scan_reduction_x']}x; "
        f"equivalence {report['equivalence']['queries']} queries "
        f"{'identical' if report['equivalence']['identical'] else 'DIVERGED'}"
        + (f"; BENCH_scale reference p95 {reference}ms" if reference else "")
    )
    return table


# -- pytest entry (house bench harness) ---------------------------------------


def test_planner_smoke(tmp_path, benchmark, emit):
    report = build_report(tmp_path, SMOKE)
    emit(summary_table(report))
    check_report(report)

    db = _build_catalog(SMOKE)
    query = (
        'SELECT TIME(I), I/price FROM doc("cat0.xml")[EVERY]/item I '
        'WHERE I/category = "alpha" AND I/tag = "tag0x3"'
    )
    benchmark(lambda: db.engine.execute(query))


# -- CLI entry ----------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run (seconds instead of minutes)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="report path (default: BENCH_planner.json for full, "
        "BENCH_planner.smoke.json in the working dir for --smoke)",
    )
    parser.add_argument(
        "--check", type=Path, default=None, metavar="FILE",
        help="validate an existing report against its thresholds and exit",
    )
    args = parser.parse_args(argv)

    if args.check is not None:
        report = json.loads(args.check.read_text())
        check_report(report)
        print(
            f"{args.check}: ok ({report['mode']} mode, probe reduction "
            f"{report['pushdown']['probe_reduction_x']}x)"
        )
        return 0

    config = SMOKE if args.smoke else FULL
    out = args.out
    if out is None:
        out = Path("BENCH_planner.smoke.json") if args.smoke else REPORT_PATH

    with tempfile.TemporaryDirectory(prefix="bench-planner-") as workdir:
        report = build_report(workdir, config)
    summary_table(report).echo()
    check_report(report)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
