"""The observability layer: registry, tracer, EXPLAIN ANALYZE.

Covers the PR-5 acceptance criteria directly:

* the span tree of a traced query mirrors the plan tree,
* span counter deltas sum to what a :class:`CostMeter` measures for the
  very same run (one source of truth for logical I/O),
* the disabled tracer allocates no spans and leaves iterables untouched,
* the JSON trace export round-trips,
* two identical back-to-back queries report identical per-query stats —
  the registry's delta protocol replaces the old zoo of ``reset()``
  conventions.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.harness import CostMeter, relative_overhead
from repro import TemporalXMLDatabase
from repro.obs import (
    NULL_TRACER,
    ExplainAnalyzeReport,
    Histogram,
    MetricsRegistry,
    NullTracer,
    PlanReport,
    Span,
    Tracer,
)
from repro.workload import load_figure1

NAPOLI_QUERY = (
    'SELECT TIME(R), R/price FROM doc("guide.com")[EVERY]/restaurant R'
    ' WHERE R/name="Napoli"'
)


@pytest.fixture
def db():
    database = TemporalXMLDatabase()
    load_figure1(database)
    return database


# -- MetricsRegistry ----------------------------------------------------------


class TestMetricsRegistry:
    def test_snapshot_merges_sources_under_prefixes(self):
        registry = MetricsRegistry()
        registry.register("a", lambda: {"x": 1, "y": 2})

        class Stats:
            def snapshot(self):
                return {"z": 3, "label": "not-a-number"}

        registry.register("b", Stats())
        snap = registry.snapshot()
        assert snap == {"a.x": 1, "a.y": 2, "b.z": 3}

    def test_delta_counts_new_keys_from_zero(self):
        before = {"a.x": 5}
        after = {"a.x": 7, "a.y": 4}
        assert MetricsRegistry.delta(before, after) == {"a.x": 2, "a.y": 4}

    def test_reject_bad_source(self):
        with pytest.raises(TypeError):
            MetricsRegistry().register("bad", object())

    def test_owned_counters_and_histograms(self):
        registry = MetricsRegistry()
        registry.counter("events").inc()
        registry.counter("events").inc(2)
        assert registry.snapshot()["events"] == 3
        histogram = registry.histogram("latency")
        for value in (1.0, 3.0):
            histogram.observe(value)
        assert histogram.count == 2
        assert histogram.mean == 2.0
        assert isinstance(registry.histograms["latency"], Histogram)

    def test_engine_registry_covers_every_subsystem(self, db):
        assert set(db.engine.registry.prefixes) == {
            "store", "anchors", "fti", "lifetime", "join", "planner",
        }


# -- stats reset unification --------------------------------------------------


class TestPerQueryStats:
    def test_back_to_back_identical_queries_report_identical_stats(self, db):
        db.query(NAPOLI_QUERY)
        first = db.engine.last_query_stats
        db.query(NAPOLI_QUERY)
        second = db.engine.last_query_stats
        assert first == second
        # and the stats actually contain work, not just zeros
        assert first["fti.lookups"] > 0
        assert first["join.candidates_probed"] > 0

    def test_stats_are_deltas_not_lifetime_totals(self, db):
        db.query(NAPOLI_QUERY)
        per_query = db.engine.last_query_stats["fti.lookups"]
        lifetime_total = db.fti.stats.lookups
        db.query(NAPOLI_QUERY)
        assert db.fti.stats.lookups == lifetime_total + per_query


# -- tracer mechanics ---------------------------------------------------------


class TestTracer:
    def test_span_nesting_follows_with_blocks(self):
        tracer = Tracer(MetricsRegistry())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        (root,) = tracer.roots
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["inner"]
        assert root.complete and root.children[0].complete

    def test_exclusive_metric_attribution(self):
        registry = MetricsRegistry()
        counter = {"n": 0}
        registry.register("c", lambda: dict(counter))
        tracer = Tracer(registry)
        with tracer.span("outer"):
            counter["n"] += 1
            with tracer.span("inner"):
                counter["n"] += 5
            counter["n"] += 2
        (root,) = tracer.roots
        assert root.metrics == {"c.n": 3}  # own work only
        assert root.find("inner").metrics == {"c.n": 5}
        assert root.total_metrics() == {"c.n": 8}

    def test_traced_iter_counts_rows_and_charges_per_step(self):
        registry = MetricsRegistry()
        counter = {"n": 0}
        registry.register("c", lambda: dict(counter))
        tracer = Tracer(registry)

        def produce():
            for _ in range(4):
                counter["n"] += 1
                yield counter["n"]

        results = list(tracer.traced_iter("Scan", produce()))
        assert results == [1, 2, 3, 4]
        (span,) = tracer.roots
        assert span.rows == 4
        assert span.metrics == {"c.n": 4}
        assert span.complete

    def test_abandoned_iterator_is_marked_incomplete(self):
        tracer = Tracer(MetricsRegistry())
        wrapped = tracer.traced_iter("Scan", iter(range(100)))
        next(wrapped)
        next(wrapped)
        wrapped.close()
        (span,) = tracer.roots
        assert span.rows == 2
        assert not span.complete

    def test_span_json_round_trip(self):
        tracer = Tracer(MetricsRegistry())
        with tracer.span("outer", kind="test"):
            list(tracer.traced_iter("Scan", iter([1, 2])))
        (root,) = tracer.roots
        encoded = json.dumps(root.to_dict())
        restored = Span.from_dict(json.loads(encoded))
        assert restored.to_dict() == root.to_dict()
        assert restored.find("Scan").rows == 2


class TestNullTracer:
    def test_singleton_allocates_no_spans(self):
        spans = {NULL_TRACER.span("a"), NULL_TRACER.span("b", attr=1)}
        assert len(spans) == 1  # the one shared null span
        assert NULL_TRACER.roots == ()
        assert not NULL_TRACER.enabled

    def test_traced_iter_returns_iterable_untouched(self):
        iterable = iter([1, 2, 3])
        assert NULL_TRACER.traced_iter("Scan", iterable) is iterable

    def test_null_span_is_a_context_manager(self):
        with NULL_TRACER.span("a") as span:
            assert span is NULL_TRACER.span("b")

    def test_engine_defaults_to_null_tracer(self, db):
        assert db.engine.tracer is NULL_TRACER
        assert isinstance(db.engine.tracer, NullTracer)


# -- EXPLAIN ANALYZE ----------------------------------------------------------


class TestExplainAnalyze:
    def test_span_tree_matches_plan_tree(self, db):
        report = db.trace(NAPOLI_QUERY)
        root = report.root
        assert root.name == "Query"
        child_names = [c.name for c in root.children]
        assert child_names == [
            "Rewrite", "Plan", "TPatternScanAll", "Filter", "Project",
        ]
        scan = root.find("TPatternScanAll")
        assert {c.name for c in scan.children} == {
            "FTILookup", "StructuralJoin",
        }
        # one binding per version of the napoli element
        assert scan.rows == 3
        assert root.find("Filter").rows == 3

    def test_results_match_untraced_execution(self, db):
        plain = db.query(NAPOLI_QUERY)
        traced = db.trace(NAPOLI_QUERY)
        assert len(traced.result.rows) == len(plain.rows)
        assert traced.result.columns == plain.columns
        assert str(traced.result) == str(plain)

    def test_totals_equal_costmeter_measurement(self, db):
        """The acceptance criterion: the trace and the bench harness see
        the same logical I/O because both read the same registry."""
        meter = CostMeter(
            store=db.store,
            indexes=[db.fti],
            join_stats=db.engine.join_stats,
        )
        with meter.measure() as region:
            report = db.trace(NAPOLI_QUERY)
        measured = region.result
        totals = report.totals()
        assert totals.get("store.delta_reads", 0) == measured.delta_reads
        assert totals.get("store.snapshot_reads", 0) == measured.snapshot_reads
        assert totals.get("store.current_reads", 0) == measured.current_reads
        assert (
            totals.get("fti.postings_scanned", 0) == measured.postings_scanned
        )
        assert totals.get("fti.lookups", 0) == measured.lookups
        assert (
            totals.get("join.candidates_probed", 0)
            == measured.join_candidates_probed
        )
        assert totals.get("join.matches_emitted", 0) == measured.join_matches
        assert measured.delta_reads > 0  # the comparison is not vacuous

    def test_tracer_detached_after_trace(self, db):
        db.trace(NAPOLI_QUERY)
        assert db.engine.tracer is NULL_TRACER

    def test_render_mentions_operators_and_totals(self, db):
        text = db.trace(NAPOLI_QUERY).render()
        for needle in ("Query", "TPatternScanAll", "Filter", "Project",
                       "rows:", "total:"):
            assert needle in text

    def test_json_export_round_trips(self, db):
        report = db.trace(NAPOLI_QUERY)
        payload = json.loads(report.to_json_string())
        assert payload["query"]
        assert payload["row_count"] == len(report.result.rows)
        restored = ExplainAnalyzeReport.trace_from_json(payload)
        assert restored.to_dict() == report.root.to_dict()

    def test_explain_prefix_dispatch(self, db):
        plan = db.query("EXPLAIN " + NAPOLI_QUERY)
        assert isinstance(plan, PlanReport)
        assert "TPatternScanAll" in str(plan)
        analyzed = db.query("EXPLAIN ANALYZE " + NAPOLI_QUERY)
        assert isinstance(analyzed, ExplainAnalyzeReport)
        assert analyzed.result.rows

    def test_navigation_query_traces_dochistory(self, db):
        report = db.trace(
            'SELECT R FROM doc("guide.com")[EVERY] R'
        )
        nav = report.root.find("NavScan")
        assert nav is not None
        assert nav.find("DocHistory") is not None


class TestExplainPrintsWhatAnalyzeTraces:
    """One plan: the stage lines EXPLAIN prints above the scans are the
    spans EXPLAIN ANALYZE records, consumer (parent) to producer (child)."""

    QUERIES = {
        "projection": 'SELECT DISTINCT R/name FROM doc("guide.com")[EVERY]'
                      "/restaurant R",
        "global aggregate": 'SELECT COUNT(R) FROM doc("guide.com")[EVERY]'
                            '/restaurant R WHERE R/name = "Napoli"',
        "group by": 'SELECT R/name, COUNT(R) FROM doc("guide.com")[EVERY]'
                    "/restaurant R GROUP BY R/name",
        "coalesce": 'SELECT COALESCE R/price FROM doc("guide.com")[EVERY]'
                    '/restaurant R WHERE R/name = "Napoli"',
        "overlaps join": 'SELECT R/name, S/name FROM '
                         'doc("guide.com")[EVERY]/restaurant R, '
                         'doc("guide.com")[EVERY]/restaurant S '
                         'WHERE R OVERLAPS S AND R/name = "Napoli" LIMIT 2',
    }
    STAGES = {
        "projection": ["Distinct", "Project"],
        "global aggregate": ["Aggregate", "Filter"],
        "group by": ["GroupBy"],
        "coalesce": ["Coalesce", "Project", "Filter"],
        "overlaps join": ["Limit", "Project", "Filter", "Join"],
    }

    @pytest.mark.parametrize("shape", list(QUERIES))
    def test_stage_names_match_span_names(self, db, shape):
        query = self.QUERIES[shape]
        plan = db.query("EXPLAIN " + query)
        scans = len(plan.plan)
        printed = [
            line.split(":")[0] for line in str(plan).splitlines()
            if not line.startswith(" ")
        ][:-scans]
        assert printed == self.STAGES[shape]

        root = db.query("EXPLAIN ANALYZE " + query).root
        spans = [child.name for child in root.children]
        assert spans[:2] == ["Rewrite", "Plan"]
        assert spans[2:2 + scans] == ["TPatternScanAll"] * scans
        assert spans[2 + scans:] == printed[::-1]


# -- overhead -----------------------------------------------------------------


class TestOverheadHelper:
    def test_relative_overhead_measures_extra_work(self):
        def fast():
            pass

        def slow():
            sum(range(3000))

        assert relative_overhead(fast, slow, repeats=3, inner=5) > 0.0
        assert relative_overhead(fast, fast, repeats=3, inner=5) < 0.5
