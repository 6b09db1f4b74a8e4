"""Tests for Diff operator, relational operators, and equality semantics."""

import pytest

from repro.clock import Interval
from repro.diff import apply_script
from repro.diff.editscript import EditScript
from repro.equality import (
    deep_equal,
    identity_equal,
    shallow_equal,
    similar,
    similarity,
    value_equal,
)
from repro.model.identifiers import EID, TEID
from repro.operators import (
    Diff,
    Distinct,
    GroupedAggregate,
    Join,
    Project,
    Select,
)
from repro.operators.relational import INTERVAL_KEY
from repro.storage import TemporalDocumentStore
from repro.workload import load_figure1
from repro.xmlcore import element, parse

from tests.conftest import JAN_01, JAN_31
from tests.references import TemporalJoin


class TestDiffOperator:
    def test_diff_two_trees(self):
        first = parse("<r><p>15</p></r>")
        second = parse("<r><p>18</p></r>")
        delta = Diff().run(first, second)
        assert delta.tag == "delta"
        assert delta.find("update") is not None

    def test_diff_teids(self):
        store = TemporalDocumentStore()
        load_figure1(store)
        doc = store.doc_id("guide.com")
        script = Diff(store).script(TEID(doc, 1, JAN_01), TEID(doc, 1, JAN_31))
        old = store.version("guide.com", 1)
        patched = apply_script(old, script)
        assert patched.equals_deep(store.version("guide.com", 3))

    def test_diff_script_applies(self):
        from repro.model.identifiers import XIDAllocator
        from repro.model.versioned import stamp_new_nodes

        first = parse("<r><n>A</n></r>")
        stamp_new_nodes(first, XIDAllocator(), 0)
        second = parse("<r><n>A</n><p>9</p></r>")
        script = Diff().script(first, second)
        assert apply_script(first.copy(), script).equals_deep(second)

    def test_diff_needs_store_for_teids(self):
        with pytest.raises(ValueError):
            Diff().run(TEID(1, 1, 0), TEID(1, 1, 1))

    def test_diff_rejects_garbage(self):
        with pytest.raises(TypeError):
            Diff().run("nope", parse("<a/>"))

    def test_closure_delta_is_xml(self):
        from repro.xmlcore import serialize

        delta = Diff().run(parse("<a><b>1</b></a>"), parse("<a><b>2</b></a>"))
        reparsed = parse(serialize(delta))
        script = EditScript.from_xml(reparsed)
        assert len(script) >= 1


class TestRelationalOperators:
    ROWS = [
        {"name": "Napoli", "price": 15},
        {"name": "Akropolis", "price": 13},
        {"name": "Roma", "price": 22},
    ]

    def test_select(self):
        out = list(Select(self.ROWS, lambda r: r["price"] < 20))
        assert [r["name"] for r in out] == ["Napoli", "Akropolis"]

    def test_project(self):
        out = list(Project(self.ROWS, {"n": lambda r: r["name"]}))
        assert out[0] == {"n": "Napoli"}

    def test_join_is_the_product_in_nested_loop_order(self):
        out = list(Join({"a": [1, 2], "b": [10, 20]}))
        assert out == [
            {"a": 1, "b": 10}, {"a": 1, "b": 20},
            {"a": 2, "b": 10}, {"a": 2, "b": 20},
        ]
        assert list(Join({"a": [1, 2]})) == [{"a": 1}, {"a": 2}]

    def test_join_prefilters_drop_bindings_before_the_product(self):
        out = list(Join(
            {"a": [1, 2, 3], "b": [1, 3]},
            prefilters={"a": lambda row: row["a"] > 1,
                        "b": lambda row: row["b"] > 1},
        ))
        assert out == [{"a": 2, "b": 3}, {"a": 3, "b": 3}]

    def test_join_streams_first_and_materializes_rest_in_order(self):
        pulled = []

        def source(name, values):
            for value in values:
                pulled.append(name)
                yield value

        sources = {
            "a": source("a", [1, 2]),
            "b": source("b", [1]),
            "c": source("c", [1, 2]),
        }
        rows = iter(Join(sources, order=["c", "b"]))
        assert next(rows) == {"a": 1, "b": 1, "c": 1}
        # c drained, then b, and only then the first binding of a.
        assert pulled == ["c", "c", "b", "a"]
        assert len(list(rows)) == 3

    def test_join_stops_at_the_first_empty_materialized_source(self):
        pulled = []

        def source(name, values):
            for value in values:
                pulled.append(name)
                yield value

        sources = {
            "a": source("a", [1]),
            "b": source("b", [1]),
            "c": source("c", []),
        }
        assert list(Join(sources, order=["c", "b"])) == []
        assert pulled == []  # neither a nor b was touched

    def test_temporal_join_overlap(self):
        left = [{"x": 1, INTERVAL_KEY: Interval(0, 10)}]
        right = [
            {"y": 1, INTERVAL_KEY: Interval(5, 15)},
            {"y": 2, INTERVAL_KEY: Interval(10, 20)},
        ]
        out = list(TemporalJoin(left, right))
        assert len(out) == 1
        assert out[0][INTERVAL_KEY] == Interval(5, 10)

    def test_temporal_join_without_intervals_degrades(self):
        out = list(TemporalJoin([{"x": 1}], [{"y": 2}]))
        assert out == [{"x": 1, "y": 2}]

    def test_distinct(self):
        rows = [{"a": 1}, {"a": 1}, {"a": 2}]
        assert len(list(Distinct(rows))) == 2

    def test_global_aggregate(self):
        out = list(
            GroupedAggregate(
                self.ROWS,
                {},
                {
                    "total": ("sum", lambda r: r["price"]),
                    "n": ("count", None),
                    "cheapest": ("min", lambda r: r["price"]),
                    "avg": ("avg", lambda r: r["price"]),
                },
            )
        )
        assert out == [
            {"total": 50, "n": 3, "cheapest": 13, "avg": 50 / 3}
        ]

    def test_global_aggregate_empty_input_is_one_row(self):
        out = list(GroupedAggregate(
            [], {}, {"s": ("sum", lambda r: r["x"]), "n": ("count", None)}
        ))
        assert out == [{"s": None, "n": 0}]

    def test_grouped_aggregate_empty_input_is_no_rows(self):
        out = list(GroupedAggregate(
            [], {"k": lambda r: r["k"]}, {"n": ("count", None)}
        ))
        assert out == []


class TestValueEquality:
    def test_numeric_coercion(self):
        assert value_equal("15", 15)
        assert value_equal(parse("<p>15</p>"), 15.0)
        assert not value_equal("15x", 15)

    def test_deep_vs_shallow(self):
        left = parse('<r k="1"><n>A</n><extra>z</extra></r>')
        right = parse('<r k="1"><n>A</n></r>')
        left.text = right.text = ""
        assert not deep_equal(left, right)
        assert shallow_equal(left, right)

    def test_string_comparison_strips(self):
        assert value_equal("  Napoli ", "Napoli")


class TestIdentityEquality:
    def test_eids_and_teids(self):
        assert identity_equal(EID(1, 2), TEID(1, 2, 99))
        assert not identity_equal(EID(1, 2), EID(1, 3))

    def test_trees_need_doc_ids(self):
        tree = element("a")
        tree.xid = 5
        assert identity_equal(tree, tree, doc_left=1, doc_right=1)
        with pytest.raises(ValueError):
            identity_equal(tree, tree)

    def test_unstamped_tree_rejected(self):
        with pytest.raises(ValueError):
            identity_equal(element("a"), element("b"), 1, 1)


class TestSimilarity:
    def test_identical_scores_one(self):
        tree = parse("<r><n>Napoli</n><p>15</p></r>")
        assert similarity(tree, tree.copy()) == pytest.approx(1.0)

    def test_small_change_stays_similar(self):
        left = parse("<r><n>Napoli</n><p>15</p><street>gata 1</street></r>")
        right = parse("<r><n>Napoli</n><p>18</p><street>gata 1</street></r>")
        assert similar(left, right, threshold=0.7)

    def test_different_restaurants_same_name_dissimilar(self):
        left = parse(
            "<r><n>Napoli</n><p>15</p><street>gata 1</street></r>"
        )
        right = parse(
            "<r><n>Napoli</n><p>40</p><street>elm road 99</street></r>"
        )
        assert similarity(left, right) < 0.8

    def test_reintroduced_entry_scores_full(self):
        # Re-created entry: identical content, new EID — ~ still matches.
        left = parse("<r><n>Napoli</n><p>15</p></r>")
        right = parse("<r><n>Napoli</n><p>15</p></r>")
        left.xid, right.xid = 1, 99
        assert similar(left, right)

    def test_tag_mismatch_penalized(self):
        assert similarity(parse("<a>x</a>"), parse("<b>x</b>")) < 1.0

    def test_scalar_inputs(self):
        assert similarity("napoli pizza", "napoli pizza") == 1.0
        assert similarity("napoli", "roma") == 0.0
