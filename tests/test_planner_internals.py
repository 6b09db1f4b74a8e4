"""Unit tests for planner internals: anchoring, pushdown, pattern shapes,
and index/navigation equivalence on synthetic collections."""

import pytest

from repro.index import TemporalFullTextIndex
from repro.query import QueryEngine
from repro.query.parser import parse_query
from repro.query.planner import (
    _anchored,
    _build_pattern,
    _pushable_values,
    _resolve_documents,
)
from repro.storage import TemporalDocumentStore
from repro.workload import TDocGenerator, build_collection
from repro.xmlcore.path import Path


class TestAnchoring:
    def test_exact_child_chain(self):
        steps = Path("restaurant/name").steps
        assert _anchored("guide/restaurant/name", steps)
        assert not _anchored("guide/menu/restaurant/name", steps)
        assert not _anchored("guide/restaurant", steps)

    def test_descendant_step(self):
        steps = Path("//price").steps
        assert _anchored("guide/price", steps)
        assert _anchored("guide/restaurant/menu/price", steps)
        assert not _anchored("guide/restaurant", steps)

    def test_mixed_axes(self):
        steps = Path("restaurant//price").steps
        assert _anchored("guide/restaurant/price", steps)
        assert _anchored("guide/restaurant/menu/price", steps)
        assert not _anchored("guide/other/menu/price", steps)

    def test_root_segment_is_skipped(self):
        # The first segment is the document root tag, matched by no step.
        steps = Path("a").steps
        assert _anchored("anyroot/a", steps)
        assert not _anchored("a", steps)


class TestPushdown:
    def _where(self, text):
        return parse_query(
            f'SELECT R FROM doc("g")/r R WHERE {text}'
        ).where

    def test_simple_equality(self):
        ((steps, value),) = _pushable_values(
            "R", self._where('R/name = "Napoli"')
        )
        assert [s.tag for s in steps] == ["name"]
        assert value == "Napoli"

    def test_reversed_sides(self):
        ((_steps, value),) = _pushable_values(
            "R", self._where('"Napoli" = R/name')
        )
        assert value == "Napoli"

    def test_conjunction_lists_them_in_clause_order(self):
        pushable = _pushable_values(
            "R",
            self._where('R/price < 10 AND R/name = "Napoli" AND R/price = 9'),
        )
        assert [value for _steps, value in pushable] == ["Napoli", 9]

    def test_disjunction_not_pushed(self):
        assert _pushable_values(
            "R", self._where('R/name = "Napoli" OR R/price < 10')
        ) == []

    def test_other_variable_not_pushed(self):
        query = parse_query(
            'SELECT R FROM doc("g")/r R, doc("g")/r S '
            'WHERE S/name = "Napoli"'
        )
        assert _pushable_values("R", query.where) == []
        assert len(_pushable_values("S", query.where)) == 1

    def test_non_literal_not_pushed(self):
        assert _pushable_values(
            "R", self._where("R/name = R/alias")
        ) == []

    def test_numeric_literal_pushed(self):
        ((_steps, value),) = _pushable_values(
            "R", self._where("R/price = 15")
        )
        assert value == 15

    def test_bare_variable_equality(self):
        ((steps, value),) = _pushable_values(
            "R", self._where('R = "Napoli"')
        )
        assert steps == [] and value == "Napoli"


class TestBuildPattern:
    def test_projects_last_from_step(self):
        pattern = _build_pattern(Path("restaurant/menu").steps)
        assert pattern.projected_index() == 1
        assert [n.term for n in pattern.nodes()] == ["restaurant", "menu"]

    def test_pushdown_chain_hangs_below_projection(self):
        pattern = _build_pattern(
            Path("restaurant").steps,
            [(Path("name").steps, "Napoli")],
        )
        terms = [n.term for n in pattern.nodes()]
        assert terms == ["restaurant", "name", "napoli"]
        assert pattern.projected_index() == 0
        edges = pattern.edges()
        assert (0, 1, "child") in edges
        assert (1, 2, "contains") in edges

    def test_bare_variable_pushdown_words_on_projection(self):
        pattern = _build_pattern(Path("restaurant").steps, [([], "Napoli")])
        assert pattern.edges() == [(0, 1, "contains")]


class TestResolveDocuments:
    def test_exact_name(self, figure1_store):
        store, *_ = figure1_store
        assert _resolve_documents(store, "guide.com") == [
            store.doc_id("guide.com")
        ]

    def test_glob_includes_deleted(self, figure1_store):
        store, *_ = figure1_store
        store.put("guide.org", "<guide/>")
        store.delete("guide.org")
        assert len(_resolve_documents(store, "guide.*")) == 2
        assert _resolve_documents(store, "*.net") == []


class TestIndexNavEquivalence:
    """The two strategies must agree on a messy synthetic collection."""

    QUERIES = (
        'SELECT I FROM doc("*")[EVERY]//item I',
        'SELECT TIME(I) FROM doc("doc1.xml")[EVERY]//item I',
        'SELECT COUNT(S) FROM doc("*")//section S',
    )

    @pytest.fixture
    def engines(self):
        """The same store behind an indexed and an FTI-less engine."""
        store = TemporalDocumentStore()
        fti = store.subscribe(TemporalFullTextIndex())
        build_collection(
            store, n_docs=3, versions_per_doc=5,
            generator=TDocGenerator(seed=31),
        )
        return QueryEngine(store, fti=fti), QueryEngine(store)

    @pytest.mark.parametrize("query", QUERIES)
    def test_agree(self, engines, query):
        indexed, navigating = engines
        assert {i["strategy"] for i in navigating.explain(query)} == {
            "navigate"
        }
        assert sorted(str(indexed.execute(query)).splitlines()) == sorted(
            str(navigating.execute(query)).splitlines()
        )
