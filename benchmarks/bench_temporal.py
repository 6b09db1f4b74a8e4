"""BENCH_temporal — sequenced operators vs fetch-all post-processing.

The tentpole claim of the sequenced-algebra layer: asking the engine for
"average price per month over the recent past" (``GROUP BY MONTH(R)``
with ``[EVERY WITHIN n DAYS]``) materializes far fewer binding rows than
the client-side alternative — fetch **every** version with ``[EVERY]``
and bucket/aggregate in Python — while returning identical groups.  The
window clause bounds the version enumeration before any reconstruction
happens, so the saving is rows never built, not rows discarded late.

Two sections, one report:

* **grouped** — a single document with a ~10^3-version history (one
  commit every 6 simulated hours).  The windowed grouped TXQL query is
  executed under ``EXPLAIN ANALYZE`` and its scan-level row accounting
  is compared against the row count of the fetch-all baseline; the
  baseline's Python post-process (bucket by validity overlap, clip open
  intervals at NOW, average per bucket) must reproduce the engine's
  groups exactly.  The report *asserts* the >= 2x row reduction.
* **equivalence** — the grouped/COALESCE/OVERLAPS query shapes run four
  ways (planned or legacy plan shape x with or without the rewriter, via
  ``planedits``), byte-identical.

Run modes::

    python benchmarks/bench_temporal.py                 # full, ~1 min
    python benchmarks/bench_temporal.py --smoke         # CI-sized
    python benchmarks/bench_temporal.py --check FILE    # validate a report

The full run writes ``BENCH_temporal.json`` at the repository root;
``pytest benchmarks/bench_temporal.py`` runs the smoke scenario through
the house bench harness.
"""

import argparse
import json
import sys
from pathlib import Path

from harness import Table
from repro import TemporalXMLDatabase
from repro.clock import (
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    bucket_spans,
    format_timestamp,
    parse_date,
)
from repro.equality.value import coerce_scalar
from repro.query.executor import QueryEngine

from planedits import legacy_shape, rewritten_plan, unrewritten_plan

ROOT = Path(__file__).resolve().parent.parent
REPORT_PATH = ROOT / "BENCH_temporal.json"
START = parse_date("01/01/2001")
TICK = 6 * SECONDS_PER_HOUR  # four commits per simulated day
DOC = "hist.xml"

FULL = {
    "mode": "full",
    "versions": 1000,       # 250 simulated days of history
    "restaurants": 6,
    "window_days": 60,      # the windowed query touches ~1/4 of history
    "min_row_reduction_x": 2.0,
}

SMOKE = {
    "mode": "smoke",
    "versions": 120,        # 30 simulated days
    "restaurants": 4,
    "window_days": 10,
    "min_row_reduction_x": 2.0,
}


# -- the versioned guide -------------------------------------------------------


def _guide_xml(restaurants, version):
    """One guide version; every price rotates per version so the history
    keeps accumulating real deltas."""
    parts = ["<guide>"]
    for index in range(restaurants):
        price = 10 + (index * 7 + version) % 40
        parts.append(
            "<restaurant>"
            f"<name>r{index}</name>"
            f"<price>{price}</price>"
            "</restaurant>"
        )
    parts.append("</guide>")
    return "".join(parts)


def _build_history(config):
    """The single-document history; returns (db, last commit timestamp)."""
    db = TemporalXMLDatabase()
    last_ts = START
    for version in range(config["versions"]):
        last_ts = START + version * TICK
        xml = _guide_xml(config["restaurants"], version)
        if version == 0:
            db.put(DOC, xml, ts=last_ts)
        else:
            db.update(DOC, xml, ts=last_ts)
    return db, last_ts


def _engine(db, now):
    engine = QueryEngine(db.store, fti=db.fti, lifetime=db.lifetime)
    engine.pinned_now = now  # freeze NOW so every run agrees on it
    return engine


# -- the grouped section -------------------------------------------------------


def _grouped_query(config):
    return (
        f'SELECT MONTH(R), AVG(R/price) FROM doc("{DOC}")'
        f"[EVERY WITHIN {config['window_days']} DAYS]/restaurant R "
        "GROUP BY MONTH(R)"
    )


FETCH_ALL = (
    f'SELECT TIME(R), R/price FROM doc("{DOC}")[EVERY]/restaurant R'
)


def _post_process(db, rows, now, window_days):
    """The client-side alternative: bucket the fetched rows by validity
    overlap with each calendar month, window-filter, average per bucket."""
    dindex = db.store.delta_index(db.store.doc_id(DOC))
    window_start = now - window_days * SECONDS_PER_DAY
    window_end = now + 1
    buckets = {}
    for row in rows:
        ts = int(row["TIME(R)"])
        end = dindex.end_of(dindex.version_at(ts))
        if not (ts < window_end and window_start < end):
            continue  # the version was never current inside the window
        price = coerce_scalar(row["R/price"][0].node)
        for bucket, _next in bucket_spans(ts, min(end, now + 1), "MONTH"):
            buckets.setdefault(bucket, []).append(price)
    return [
        (format_timestamp(bucket), sum(values) / len(values))
        for bucket, values in sorted(buckets.items())
    ]


def _scan_rows(report):
    """Binding rows the scans actually produced (EXPLAIN ANALYZE row
    accounting, scan operators only)."""
    return sum(
        entry["rows"]
        for entry in report.row_accounting()
        if entry["operator"] in ("TPatternScan", "TPatternScanAll", "NavScan")
    )


def _grouped_section(config, db, now):
    engine = _engine(db, now)
    query = _grouped_query(config)

    analyzed = engine.explain_analyze(query)
    grouped = [
        (str(row["MONTH(R)"]), row["AVG(R/price)"])
        for row in analyzed.result
    ]
    windowed_rows = _scan_rows(analyzed)

    baseline_result = engine.execute(FETCH_ALL)
    fetch_all_rows = len(baseline_result)
    baseline = _post_process(db, baseline_result, now, config["window_days"])

    reduction = fetch_all_rows / windowed_rows if windowed_rows else 0.0
    return {
        "query": query,
        "versions": config["versions"],
        "restaurants": config["restaurants"],
        "window_days": config["window_days"],
        "groups": len(grouped),
        "windowed_rows": windowed_rows,
        "fetch_all_rows": fetch_all_rows,
        "row_reduction_x": round(reduction, 2),
        "identical_results": grouped == baseline,
        "grouped_result": [
            {"month": month, "avg_price": round(avg, 4)}
            for month, avg in grouped
        ],
    }


# -- the equivalence sweep -----------------------------------------------------


def _equivalence_queries(config):
    days = config["window_days"]
    return [
        _grouped_query(config),
        (
            f'SELECT MONTH(R), COUNT(R) FROM doc("{DOC}")'
            "[EVERY]/restaurant R GROUP BY MONTH(R)"
        ),
        (
            f'SELECT COALESCE R/name FROM doc("{DOC}")'
            f"[EVERY WITHIN {days} DAYS]/restaurant R"
        ),
        (
            f'SELECT R/name, S/name FROM doc("{DOC}")'
            f"[EVERY WITHIN {days} DAYS]/restaurant R, "
            f'doc("{DOC}")[{format_timestamp(START)}]/restaurant S '
            'WHERE R OVERLAPS S AND R/name = "r0" AND S/name = "r1"'
        ),
    ]


def _equivalence_section(config, db, now):
    queries = _equivalence_queries(config)
    engine = _engine(db, now)
    mismatches = []
    for query in queries:
        outputs = set()
        for planned in (rewritten_plan, unrewritten_plan):
            plan = planned(engine, query)
            outputs.add(str(engine.run(plan)))
            outputs.add(str(engine.run(legacy_shape(plan))))
        if len(outputs) != 1:
            mismatches.append(query)
    return {
        "queries": len(queries),
        "configurations": 4,
        "identical": not mismatches,
        "mismatches": mismatches,
    }


# -- report assembly -----------------------------------------------------------


def build_report(config):
    db, now = _build_history(config)
    grouped = _grouped_section(config, db, now)
    equivalence = _equivalence_section(config, db, now)
    return {
        "description": (
            "Sequenced temporal operators: windowed GROUP BY bucket "
            "aggregation vs fetch-all-then-post-process row counts on a "
            "long single-document history, plus a plan-shape x rewriter "
            "equivalence sweep over the sequenced query shapes."
        ),
        "mode": config["mode"],
        "config": {
            key: config[key]
            for key in ("versions", "restaurants", "window_days")
        },
        "thresholds": {"min_row_reduction_x": config["min_row_reduction_x"]},
        "grouped": grouped,
        "equivalence": equivalence,
    }


def check_report(report):
    """Assert the report meets its own thresholds (also used by CI)."""
    grouped = report["grouped"]
    assert grouped["groups"] > 0
    assert grouped["identical_results"], (
        "the windowed grouped query and the fetch-all post-process "
        "disagree on the monthly averages"
    )
    assert grouped["windowed_rows"] > 0
    reduction = grouped["row_reduction_x"]
    minimum = report["thresholds"]["min_row_reduction_x"]
    assert reduction >= minimum, (
        f"windowed grouping materialized only {reduction}x fewer rows "
        f"than fetch-all; need >= {minimum}x"
    )
    equivalence = report["equivalence"]
    assert equivalence["queries"] > 0
    assert equivalence["identical"], (
        f"configurations diverged on: {equivalence['mismatches'][:2]}"
    )


def summary_table(report):
    grouped = report["grouped"]
    table = Table(
        f"BENCH_temporal ({report['mode']}): windowed GROUP BY vs "
        "fetch-all post-processing",
        ["series", "rows materialized", "groups"],
    )
    table.add("fetch-all baseline", grouped["fetch_all_rows"], "-")
    table.add(
        "windowed GROUP BY", grouped["windowed_rows"], grouped["groups"]
    )
    table.note(
        f"row reduction {grouped['row_reduction_x']}x (threshold "
        f"{report['thresholds']['min_row_reduction_x']}x) over "
        f"{grouped['versions']} versions; identical results: "
        f"{grouped['identical_results']}; equivalence sweep "
        f"{report['equivalence']['queries']} queries x "
        f"{report['equivalence']['configurations']} configs "
        f"{'identical' if report['equivalence']['identical'] else 'DIVERGED'}"
    )
    return table


# -- pytest entry (house bench harness) ---------------------------------------


def test_temporal_smoke(benchmark, emit):
    report = build_report(SMOKE)
    emit(summary_table(report))
    check_report(report)

    db, now = _build_history(SMOKE)
    engine = _engine(db, now)
    query = _grouped_query(SMOKE)
    benchmark(lambda: engine.execute(query))


# -- CLI entry ----------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run (seconds instead of a minute)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="report path (default: BENCH_temporal.json for full, "
        "BENCH_temporal.smoke.json in the working dir for --smoke)",
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
            f"{args.check}: ok ({report['mode']} mode, row reduction "
            f"{report['grouped']['row_reduction_x']}x)"
        )
        return 0

    config = SMOKE if args.smoke else FULL
    out = args.out
    if out is None:
        out = Path("BENCH_temporal.smoke.json") if args.smoke else REPORT_PATH

    report = build_report(config)
    summary_table(report).echo()
    check_report(report)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
