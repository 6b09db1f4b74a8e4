"""BENCH_scale — warehouse-scale group-commit ingestion + keyword search.

The scenario behind ROADMAP item 5: stream a million-element synthetic
document warehouse (10^4 version commits across 10^2 documents) into a
durable (``fsync``) store through commit groups, then interrogate the
history with the temporal keyword-search workload.  Reported:

* ingest rate — versions/s (the commit rate) and elements/s,
* fsync amortization — fsyncs per 1k commits, grouped vs a per-commit
  baseline slice; the report *asserts* the >= 3x reduction that group
  commit exists to provide,
* query latency — p50/p95 wall-clock of ranked instant/window keyword
  searches, measured as ``keyword_query`` tracer spans.

Run modes::

    python benchmarks/bench_scale.py                 # full scale, ~2-3 min
    python benchmarks/bench_scale.py --smoke         # CI-sized, seconds
    python benchmarks/bench_scale.py --check FILE    # validate a report

The full run writes ``BENCH_scale.json`` at the repository root (the
committed numbers); ``--smoke`` defaults to a scratch path so it never
clobbers them.  ``pytest benchmarks/bench_scale.py`` runs the smoke
scenario through the house bench harness instead.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from harness import Table
from repro import TemporalXMLDatabase
from repro.clock import SECONDS_PER_HOUR, parse_date
from repro.workload import KeywordWorkload, TDocGenerator, ingest_synthetic

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_scale.json"
START = parse_date("01/01/2001")

#: Deletes drop whole subtrees while inserts add single leaves, so the
#: generator's default probabilities shrink trees round over round; this
#: tilt holds the steady-state size near the initial ~200 elements.
FULL = {
    "mode": "full",
    "n_docs": 100,
    "versions_per_doc": 100,
    "batch_size": 64,
    "snapshot_interval": 25,
    "fanout": (7, 9),
    "depth": 3,
    "p_insert": 0.065,
    "p_delete": 0.035,
    "baseline_docs": 20,
    "baseline_versions": 50,
    "queries": 400,
    "min_versions": 10_000,
    "min_elements": 1_000_000,
    "min_fsync_reduction_x": 3.0,
}

SMOKE = {
    "mode": "smoke",
    "n_docs": 8,
    "versions_per_doc": 12,
    "batch_size": 16,
    "snapshot_interval": 10,
    "fanout": (3, 5),
    "depth": 3,
    "p_insert": 0.065,
    "p_delete": 0.035,
    "baseline_docs": 8,
    "baseline_versions": 12,
    "queries": 40,
    "min_versions": 96,
    "min_elements": 1_000,
    "min_fsync_reduction_x": 3.0,
}


def _generator(config, seed=42):
    return TDocGenerator(
        seed=seed,
        fanout=tuple(config["fanout"]),
        depth=config["depth"],
        p_insert=config["p_insert"],
        p_delete=config["p_delete"],
    )


def _ingest(workdir, config, n_docs, versions_per_doc, batch_size):
    """One fsync-durable ingestion run; returns (db, report, journal stats)."""
    db = TemporalXMLDatabase.open(
        Path(workdir) / f"scale-b{batch_size}",
        durability="fsync",
        snapshot_interval=config["snapshot_interval"],
    )
    report = ingest_synthetic(
        db.store,
        n_docs=n_docs,
        versions_per_doc=versions_per_doc,
        batch_size=batch_size,
        generator=_generator(config),
        start_ts=START,
    )
    stats = db.durability_stats()["journal"]
    return db, report, stats


def _fsyncs_per_1k(stats, commits):
    return stats["fsyncs"] / commits * 1000.0


def _query_run(db, config):
    """The temporal keyword workload over the ingested history."""
    versions = config["n_docs"] * config["versions_per_doc"]
    workload = KeywordWorkload(
        db.fti,
        _generator(config).vocab.words,
        START,
        START + versions * SECONDS_PER_HOUR,
        seed=1,
    )
    queries = workload.make_queries(config["queries"])
    report, _tracer = workload.run(queries)
    return report


def build_report(workdir, config):
    """Run the scenario and return the BENCH_scale report dict."""
    db, ingest, stats = _ingest(
        workdir,
        config,
        config["n_docs"],
        config["versions_per_doc"],
        config["batch_size"],
    )
    try:
        query_report = _query_run(db, config)
    finally:
        db.close()

    base_db, baseline, base_stats = _ingest(
        workdir, config, config["baseline_docs"], config["baseline_versions"], 1
    )
    base_db.close()

    grouped_per_1k = _fsyncs_per_1k(stats, ingest.versions)
    baseline_per_1k = _fsyncs_per_1k(base_stats, baseline.versions)
    reduction = baseline_per_1k / grouped_per_1k if grouped_per_1k else 0.0

    ingest_dict = ingest.as_dict()
    ingest_dict.update(
        {
            "docs_per_s": ingest_dict["versions_per_s"],
            "fsyncs": stats["fsyncs"],
            "fsyncs_per_1k_commits": round(grouped_per_1k, 2),
            "journal_bytes": stats["bytes_written"],
            "journal_groups": stats["groups_written"],
        }
    )
    return {
        "description": (
            "Warehouse-scale batched ingestion (group commit, durability="
            "fsync) plus the temporal keyword-search workload; query "
            "latencies are keyword_query tracer span wall times."
        ),
        "mode": config["mode"],
        "config": {
            key: config[key]
            for key in (
                "n_docs",
                "versions_per_doc",
                "batch_size",
                "snapshot_interval",
                "fanout",
                "depth",
                "p_insert",
                "p_delete",
            )
        },
        "thresholds": {
            key: config[key]
            for key in (
                "min_versions",
                "min_elements",
                "min_fsync_reduction_x",
            )
        },
        "ingest": ingest_dict,
        "per_commit_baseline": {
            "docs": baseline.docs,
            "versions": baseline.versions,
            "elapsed_s": round(baseline.elapsed_s, 6),
            "versions_per_s": round(baseline.versions_per_s, 3),
            "fsyncs": base_stats["fsyncs"],
            "fsyncs_per_1k_commits": round(baseline_per_1k, 2),
        },
        "amortization": {
            "fsync_reduction_x": round(reduction, 2),
        },
        "queries": query_report.as_dict(),
    }


def check_report(report):
    """Assert the report meets its own thresholds (also used by CI)."""
    thresholds = report["thresholds"]
    ingest = report["ingest"]
    queries = report["queries"]
    assert ingest["versions"] >= thresholds["min_versions"], (
        f"only {ingest['versions']} versions ingested; "
        f"need >= {thresholds['min_versions']}"
    )
    assert ingest["elements"] >= thresholds["min_elements"], (
        f"only {ingest['elements']} elements ingested; "
        f"need >= {thresholds['min_elements']}"
    )
    assert ingest["groups"] > 0 and ingest["fsyncs"] > 0
    reduction = report["amortization"]["fsync_reduction_x"]
    assert reduction >= thresholds["min_fsync_reduction_x"], (
        f"group commit amortized fsyncs only {reduction}x vs per-commit; "
        f"need >= {thresholds['min_fsync_reduction_x']}x"
    )
    assert queries["queries"] > 0
    assert queries["p95_ms"] >= queries["p50_ms"] >= 0.0
    assert queries["results"] > 0, "keyword workload never matched anything"


def summary_table(report):
    ingest = report["ingest"]
    baseline = report["per_commit_baseline"]
    queries = report["queries"]
    table = Table(
        f"BENCH_scale ({report['mode']}): {ingest['versions']} versions, "
        f"{ingest['elements']} elements",
        ["series", "commits", "commits/s", "elements/s", "fsyncs/1k", "p50 ms", "p95 ms"],
    )
    table.add(
        f"grouped (batch={ingest['batch_size']})",
        ingest["versions"],
        ingest["versions_per_s"],
        ingest["elements_per_s"],
        ingest["fsyncs_per_1k_commits"],
        queries["p50_ms"],
        queries["p95_ms"],
    )
    table.add(
        "per-commit baseline",
        baseline["versions"],
        baseline["versions_per_s"],
        "-",
        baseline["fsyncs_per_1k_commits"],
        "-",
        "-",
    )
    table.note(
        f"fsync amortization {report['amortization']['fsync_reduction_x']}x "
        f"(threshold {report['thresholds']['min_fsync_reduction_x']}x); "
        f"{queries['queries']} keyword queries "
        f"({queries['window_queries']} windowed)"
    )
    return table


# -- pytest entry (house bench harness) ---------------------------------------


def test_scale_smoke(tmp_path, benchmark, emit):
    report = build_report(tmp_path, SMOKE)
    emit(summary_table(report))
    check_report(report)

    db = TemporalXMLDatabase.open(tmp_path / "micro", durability="fsync")
    generator = _generator(SMOKE, seed=23)
    names = [f"m{i}.xml" for i in range(8)]
    for name in names:
        db.put(name, generator.document(name))

    def grouped_round():
        with db.batch() as group:
            for name in names:
                group.update(name, generator.evolve(name))

    benchmark(grouped_round)
    db.close()


# -- CLI entry ----------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run (seconds instead of minutes)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="report path (default: BENCH_scale.json for full, "
        "BENCH_scale.smoke.json in the working dir for --smoke)",
    )
    parser.add_argument(
        "--check", type=Path, default=None, metavar="FILE",
        help="validate an existing report against its thresholds and exit",
    )
    args = parser.parse_args(argv)

    if args.check is not None:
        report = json.loads(args.check.read_text())
        check_report(report)
        print(f"{args.check}: ok ({report['mode']} mode, "
              f"{report['ingest']['versions']} versions)")
        return 0

    config = SMOKE if args.smoke else FULL
    out = args.out
    if out is None:
        out = Path("BENCH_scale.smoke.json") if args.smoke else REPORT_PATH

    with tempfile.TemporaryDirectory(prefix="bench-scale-") as workdir:
        report = build_report(workdir, config)
    summary_table(report).echo()
    check_report(report)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
