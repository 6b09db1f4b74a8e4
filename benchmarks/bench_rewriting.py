"""E11 — algebraic rewriting (the Section 8 future work, implemented).

"Future work includes developing techniques for further reducing the cost
of executing the query operators.  The main goal ... would be to develop
techniques that can reduce the number of delta versions that have to be
retrieved.  Two important strategies ... new types of indexes and algebraic
rewriting techniques."

The rewriter folds time arithmetic, pushes ``TIME(R) cmp const`` conjuncts
into a per-variable version window (clipping EVERY scans), and collapses
``TIME(R) = c`` into a snapshot binding.  This benchmark runs history
queries with content predicates — the case where every candidate version
would otherwise be reconstructed just to evaluate the predicate — with the
rewriter on and off, asserting identical answers and counting delta reads.

"Off" is a stage composition, not an engine mode: ``desugar`` in place of
``rewrite`` in front of ``plan``.  Both sides evaluate the WHERE conjuncts
as written (the ``textual_conjuncts`` plan edit): the planner's own
conjunct ordering would test ``TIME(R) >= c`` before the content
predicate either way and so hide the reads the rewriter saves.
"""


from harness import Table
from repro import TemporalXMLDatabase
from repro.clock import format_timestamp
from repro.workload import RestaurantGuideGenerator

from planedits import rewritten_plan, textual_conjuncts, unrewritten_plan

VERSIONS = 24


def _fresh_db():
    generator = RestaurantGuideGenerator(n_restaurants=6, seed=3)
    db = TemporalXMLDatabase()
    generator.load_into(db, count=VERSIONS)
    return db


def _run(db, query, planned):
    plan = textual_conjuncts(planned(db.engine, query))
    db.store.repository.delta_reads = 0
    result = db.engine.run(plan)
    result.to_xml()
    return db.store.repository.delta_reads, sorted(str(result).splitlines())


def test_rewriting_reduces_delta_reads(benchmark, emit):
    db = _fresh_db()
    dindex = db.store.delta_index("guide.com")

    table = Table(
        f"E11: delta reads per query, rewriter off vs on "
        f"({VERSIONS}-version history)",
        ["recent window (versions)", "rewriter off", "rewriter on"],
    )
    series = []
    last_query = None
    for tail in (2, 4, 8, 16):
        cutoff_entry = dindex.entry(VERSIONS - tail + 1)
        cutoff = format_timestamp(cutoff_entry.timestamp)
        query = (
            'SELECT R/price FROM doc("guide.com")[EVERY]/restaurant R '
            f"WHERE R/price < 30 AND TIME(R) >= {cutoff}"
        )
        last_query = query
        off_reads, off_rows = _run(_fresh_db(), query, unrewritten_plan)
        on_reads, on_rows = _run(_fresh_db(), query, rewritten_plan)
        assert on_rows == off_rows  # rewriting never changes answers
        series.append((tail, off_reads, on_reads))
        table.add(tail, off_reads, on_reads)
    table.note("TIME(R) >= c is pushed into the version enumeration, so "
               "only the window's versions are reconstructed")
    emit(table)

    # Shape: without rewriting, cost is flat at ~the whole history; with
    # rewriting it tracks the window size.
    off_values = [off for _t, off, _on in series]
    on_values = [on for _t, _off, on in series]
    assert min(off_values) == max(off_values)  # always the full history
    assert all(on <= off for on, off in zip(on_values, off_values))
    assert on_values[0] < off_values[0] / 2  # small windows win big
    assert on_values == sorted(on_values)  # cost tracks the window

    # R3: a TIME(R) = c query collapses to a snapshot binding.
    point = format_timestamp(dindex.entry(VERSIONS // 2).timestamp)
    point_query = (
        'SELECT R/name FROM doc("guide.com")[EVERY]/restaurant R '
        f"WHERE TIME(R) = {point}"
    )
    collapsed_reads, collapsed_rows = _run(
        _fresh_db(), point_query, rewritten_plan
    )
    full_reads, full_rows = _run(_fresh_db(), point_query, unrewritten_plan)
    assert collapsed_rows == full_rows
    assert collapsed_reads <= full_reads

    benchmark(lambda: db.query(last_query))
