"""Every way of answering a query must return the same answers.

The engine has one configuration; what used to be knob combinations are
now ways to run the same text — the indexed engine, one built without an
FTI (navigational scans everywhere; CREATE/DELETE TIME still read the
lifetime index, which they need), and the un-rewritten stage composition
(``desugar`` in place of ``rewrite``) on each.  They only differ in
*cost*; this matrix pins that invariant across the paper's query shapes
on the Figure 1 data and on a synthetic collection.
"""

import pytest

from benchmarks.planedits import run_unrewritten
from repro.index import LifetimeIndex, TemporalFullTextIndex
from repro.query import QueryEngine
from repro.storage import TemporalDocumentStore
from repro.workload import TDocGenerator, build_collection, load_figure1

FIGURE1_QUERIES = (
    'SELECT R FROM doc("guide.com")[26/01/2001]/restaurant R',
    'SELECT SUM(R) FROM doc("guide.com")[26/01/2001]/restaurant R',
    'SELECT TIME(R), R/price FROM doc("guide.com")[EVERY]/restaurant R '
    'WHERE R/name="Napoli"',
    'SELECT DISTINCT R/name FROM doc("guide.com")[EVERY]/restaurant R '
    "WHERE CREATE TIME(R) >= 11/01/2001",
    'SELECT R/name FROM doc("guide.com")[EVERY]/restaurant R '
    "WHERE TIME(R) >= 15/01/2001 AND R/price > 12",
    'SELECT CURRENT(R)/price FROM doc("guide.com")[01/01/2001]/restaurant R',
)


def _answers(store, fti, lifetime, query):
    """``{how it ran: sorted result lines}`` for every way to run it."""
    engines = {
        "indexed": QueryEngine(store, fti=fti, lifetime=lifetime),
        "no FTI, lifetime kept": QueryEngine(store, lifetime=lifetime),
    }
    answers = {}
    for label, engine in engines.items():
        answers[label] = engine.execute(query)
        answers[label + ", un-rewritten"] = run_unrewritten(engine, query)
    return {
        label: tuple(sorted(str(result).splitlines()))
        for label, result in answers.items()
    }


@pytest.fixture(scope="module")
def figure1():
    store = TemporalDocumentStore()
    fti = store.subscribe(TemporalFullTextIndex())
    lifetime = store.subscribe(LifetimeIndex())
    load_figure1(store)
    return store, fti, lifetime


@pytest.fixture(scope="module")
def synthetic():
    store = TemporalDocumentStore()
    fti = store.subscribe(TemporalFullTextIndex())
    lifetime = store.subscribe(LifetimeIndex())
    build_collection(
        store, n_docs=3, versions_per_doc=6,
        generator=TDocGenerator(seed=55),
    )
    return store, fti, lifetime


class TestFigure1Matrix:
    @pytest.mark.parametrize("query", FIGURE1_QUERIES)
    def test_all_ways_agree(self, figure1, query):
        results = _answers(*figure1, query)
        assert len(set(results.values())) == 1, results


class TestSyntheticMatrix:
    QUERIES = (
        'SELECT COUNT(I) FROM doc("*")//item I',
        'SELECT TIME(D) FROM doc("doc2.xml")[EVERY] D '
        "WHERE TIME(D) > 03/01/2001",
        'SELECT I FROM doc("doc1.xml")[EVERY]//item I',
    )

    @pytest.mark.parametrize("query", QUERIES)
    def test_all_ways_agree(self, synthetic, query):
        results = _answers(*synthetic, query)
        assert len(set(results.values())) == 1, results
