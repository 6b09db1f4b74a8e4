"""E-durability — what each fsync policy costs per commit.

The durability knob trades crash-window size for commit latency:

* ``none``   — no journal; only explicit checkpoints are durable,
* ``journal``— append + OS flush per commit (survives process crash),
* ``fsync``  — fsync per commit (survives power loss).

This smoke benchmark runs the same commit workload under all three modes,
prints the paper-style table, and hands the machine-readable comparison to
``durability_report`` (``BENCH_durability.json`` at the repository root;
see ``conftest.py``).
"""

import time

from harness import Table
from repro import TemporalXMLDatabase
from repro.workload import TDocGenerator

DOCS = 4
UPDATES_PER_DOC = 10


def _commit_workload(db):
    generator = TDocGenerator(seed=17, depth=2, fanout=(2, 3))
    names = [f"doc{i}.xml" for i in range(DOCS)]
    for name in names:
        db.put(name, generator.document(name))
    for _round in range(UPDATES_PER_DOC):
        for name in names:
            db.update(name, generator.evolve(name))
    return DOCS * (1 + UPDATES_PER_DOC)


def _timed_run(tmp_path, durability):
    db = TemporalXMLDatabase.open(
        tmp_path / f"db-{durability}", durability=durability
    )
    start = time.perf_counter()
    commits = _commit_workload(db)
    elapsed = time.perf_counter() - start
    stats = db.durability_stats()
    db.close()
    journal = stats.get("journal") or {}
    return {
        "durability": durability,
        "commits": commits,
        "seconds": round(elapsed, 6),
        "commits_per_second": round(commits / elapsed, 1),
        "journal_bytes": journal.get("bytes_written", 0),
        "journal_raw_bytes": journal.get("raw_bytes", 0),
        "fsyncs": journal.get("fsyncs", 0),
    }


def test_durability_cost(tmp_path, benchmark, emit, durability_report):
    runs = [
        _timed_run(tmp_path, durability)
        for durability in ("none", "journal", "fsync")
    ]
    baseline = runs[0]["seconds"]

    table = Table(
        f"E-durability: {runs[0]['commits']} commits "
        f"({DOCS} docs x {UPDATES_PER_DOC} updates)",
        ["durability", "commits/s", "vs none", "journal bytes",
         "before deflate", "fsyncs"],
    )
    for run in runs:
        table.add(
            run["durability"],
            run["commits_per_second"],
            f"{run['seconds'] / baseline:.2f}x",
            run["journal_bytes"],
            run["journal_raw_bytes"],
            run["fsyncs"],
        )
    table.note("'journal' flushes to the OS per commit; 'fsync' reaches disk")
    emit(table)

    # Sanity: journalled modes actually wrote a journal, fsync actually
    # synced once per record, and nothing got slower by orders of magnitude.
    assert runs[0]["journal_bytes"] == 0
    assert runs[1]["journal_bytes"] > 0
    assert runs[2]["fsyncs"] >= runs[2]["commits"]
    assert runs[1]["fsyncs"] == 0

    for run in runs:
        durability_report(run)

    db = TemporalXMLDatabase.open(tmp_path / "bench", durability="journal")
    generator = TDocGenerator(seed=23, depth=2, fanout=(2, 3))
    db.put("bench.xml", generator.document("bench.xml"))
    benchmark(lambda: db.update("bench.xml", generator.evolve("bench.xml")))
    db.close()
