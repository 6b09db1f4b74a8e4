"""F1 — Figure 1 and the worked queries Q1/Q2/Q3 (Sections 5-6).

Regenerates the paper's only figure (the three versions of the restaurant
list) and the answers to its three example queries, with the operator-level
costs attached.  The assertions pin the exact rows; the benchmark times Q3
(the TPatternScanAll query, the most expensive of the three).
"""

import pytest

from harness import CostMeter, Table
from repro import TemporalXMLDatabase
from repro.clock import format_timestamp
from repro.workload import load_figure1
from repro.xmlcore import Path


@pytest.fixture
def db():
    db = TemporalXMLDatabase()
    load_figure1(db)
    return db


def test_figure1_versions_and_queries(benchmark, db, emit):
    figure = Table(
        "Figure 1: restaurant list at guide.com (reproduced)",
        ["retrieved", "restaurants (name=price)"],
    )
    for ts_text in ("01/01/2001", "15/01/2001", "31/01/2001"):
        tree = db.snapshot("guide.com", db.ts(ts_text))
        entries = ", ".join(
            f"{r.find('name').text}={r.find('price').text}"
            for r in Path("restaurant").select(tree)
        )
        figure.add(ts_text, entries)
    emit(figure)

    table = Table(
        "Q1-Q3 answers with operator costs",
        ["query", "answer", "delta_reads", "postings_scanned"],
    )
    meter = CostMeter(store=db.store, indexes=[db.fti])

    with meter.measure() as m:
        q1 = db.query(
            'SELECT R FROM doc("guide.com")[26/01/2001]/restaurant R'
        )
        q1.to_xml()
    names = sorted(row["R"].tree.find("name").text for row in q1)
    assert names == ["Akropolis", "Napoli"]
    table.add("Q1 snapshot 26/01", ", ".join(names),
              m.result.delta_reads, m.result.postings_scanned)

    with meter.measure() as m:
        q2 = db.query(
            'SELECT SUM(R) FROM doc("guide.com")[26/01/2001]/restaurant R'
        )
    assert q2.scalar() == 2
    assert m.result.delta_reads == 0  # the paper's Q2 claim
    table.add("Q2 count 26/01", q2.scalar(),
              m.result.delta_reads, m.result.postings_scanned)

    q3_text = (
        'SELECT TIME(R), R/price FROM doc("guide.com")[EVERY]/restaurant R '
        'WHERE R/name="Napoli"'
    )
    with meter.measure() as m:
        q3 = db.query(q3_text)
        history = [
            (format_timestamp(int(row["TIME(R)"])),
             row["R/price"][0].node.text_content())
            for row in q3
        ]
    assert history == [
        ("01/01/2001", "15"), ("15/01/2001", "15"), ("31/01/2001", "18")
    ]
    table.add("Q3 price history", " -> ".join(p for _t, p in history),
              m.result.delta_reads, m.result.postings_scanned)
    table.note("Q2 reads no deltas: count computed from the FTI alone")
    emit(table)

    benchmark(lambda: db.query(q3_text))
