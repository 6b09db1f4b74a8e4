"""The cost-based optimizer (ROADMAP item 3): equivalence and estimates.

Three layers of coverage:

* a randomized equivalence suite — the optimizer must be *invisible* in
  results: ``run(plan(...))`` is ``execute``, every optimizer decision
  undone on the plan (one at a time, and all together as the legacy
  shape) leaves the output byte-identical, and an engine without an FTI
  returns the same row set (order-insensitive, the bar the option matrix
  uses);
* an EXPLAIN / EXPLAIN ANALYZE regression — plans expose priced
  alternatives with exactly one chosen, and executed scans report
  estimated next to actual rows;
* unit tests for the statistics layer (windowed lookups, term statistics,
  the per-call lifetime decision, conjunct ordering).
"""

import random

import pytest

from benchmarks.planedits import EDITS, legacy_shape, rewritten_plan
from repro.clock import SECONDS_PER_DAY, format_timestamp, parse_date
from repro.errors import QueryPlanError
from repro.index import LifetimeIndex, TemporalFullTextIndex
from repro.index.statistics import CorpusStatistics
from repro.query import QueryEngine
from repro.query.parser import parse_query
from repro.storage import TemporalDocumentStore
from repro.workload import RestaurantGuideGenerator, load_figure1

START = parse_date("01/01/2001")


def _collect_texts(tree, tag, out):
    for child in getattr(tree, "children", ()):
        if getattr(child, "tag", None) == tag:
            out.add(child.text_content().strip())
        _collect_texts(child, tag, out)


@pytest.fixture(scope="module")
def corpus():
    """Three independently evolving guides plus per-tag vocabularies."""
    store = TemporalDocumentStore()
    fti = store.subscribe(TemporalFullTextIndex())
    lifetime = store.subscribe(LifetimeIndex())
    vocab = {"name": set(), "street": set(), "price": set()}
    for i in range(3):
        generator = RestaurantGuideGenerator(
            n_restaurants=4, seed=100 + i, p_price_change=0.4,
            p_close=0.1, p_open=0.1, p_rename=0.1, p_reintroduce=0.1,
        )
        # The store clock is monotonic, so the guides load sequentially:
        # g0 lives on days 0-7, g1 on 10-17, g2 on 20-27.
        versions = generator.load_into(
            store, name=f"g{i}.com", count=8,
            start_ts=START + i * 10 * SECONDS_PER_DAY,
        )
        for _ts, tree in versions:
            for tag in vocab:
                _collect_texts(tree, tag, vocab[tag])
    return store, fti, lifetime, {tag: sorted(vs) for tag, vs in vocab.items()}


def _engine(corpus):
    store, fti, lifetime, _vocab = corpus
    return QueryEngine(store, fti=fti, lifetime=lifetime)


def _random_queries(vocab, count=24, seed=7):
    rng = random.Random(seed)

    def name():
        return rng.choice(vocab["name"])

    def street():
        return rng.choice(vocab["street"])

    def price():
        return rng.choice(vocab["price"])

    def date(lo=0, hi=30):
        return format_timestamp(
            START + rng.randint(lo, hi) * SECONDS_PER_DAY
        )

    def doc():
        return f"g{rng.randint(0, 2)}.com"

    templates = (
        lambda: (
            f'SELECT R FROM doc("{doc()}")[{date()}]/restaurant R '
            f'WHERE R/name = "{name()}" AND R/street = "{street()}"'
        ),
        lambda: (
            f'SELECT R/name, R/price FROM doc("{doc()}")[EVERY]/restaurant R '
            f'WHERE R/price = {price()} AND R/name = "{name()}"'
        ),
        lambda: (
            f'SELECT TIME(R), R/name FROM doc("*")[EVERY]/restaurant R '
            f"WHERE TIME(R) >= {date()} AND R/price = {price()}"
        ),
        lambda: (
            f'SELECT DISTINCT R/name FROM doc("{doc()}")[EVERY]/restaurant R '
            f"WHERE CREATE TIME(R) >= {date()}"
        ),
        lambda: (
            f'SELECT R/name, S/name FROM doc("g0.com")[{date(12, 30)}]'
            f'/restaurant R, doc("g1.com")[{date(12, 30)}]/restaurant S '
            f"WHERE R/name = S/name"
        ),
        lambda: (
            f'SELECT R/name, S/price FROM doc("g1.com")[EVERY]/restaurant R, '
            f'doc("g2.com")[{date(20, 30)}]/restaurant S '
            f'WHERE R/name = "{name()}" AND S/price > {price()}'
        ),
        lambda: (
            f'SELECT COUNT(R) FROM doc("*")[EVERY]/restaurant R '
            f'WHERE R/name = "{name()}"'
        ),
        lambda: (
            f'SELECT R/price FROM doc("{doc()}")[EVERY]/restaurant R '
            f'WHERE R/name = "{name()}" LIMIT 3'
        ),
    )
    return [rng.choice(templates)() for _ in range(count)]


def _decision_queries(store):
    """Two shapes the random templates never draw: a windowed two-pushdown
    scan the cost model flips to navigation, and a three-way product whose
    last list is estimated smaller than its second (materialized first).
    Both name restaurants that exist, so neither result is empty."""

    def first(doc, tag):
        restaurant = store.current(doc).find("restaurant")
        return restaurant.find(tag).text_content().strip()

    day = format_timestamp(START + 25 * SECONDS_PER_DAY)
    return [
        'SELECT R/name FROM doc("g0.com")[EVERY]/restaurant R '
        f"WHERE TIME(R) >= {format_timestamp(START + 6 * SECONDS_PER_DAY)} "
        f'AND R/name = "{first("g0.com", "name")}" '
        f'AND R/street = "{first("g0.com", "street")}"',
        f'SELECT R/name, T/price FROM doc("g0.com")[{day}]/restaurant R, '
        f'doc("g1.com")[EVERY]/restaurant S, '
        f'doc("g2.com")[{day}]/restaurant T WHERE S/price > 20',
    ]


class TestRandomizedEquivalence:
    def test_run_of_plan_is_execute(self, corpus):
        engine = _engine(corpus)
        for query in _random_queries(corpus[3]):
            plan = rewritten_plan(engine, query)
            assert str(engine.run(plan)) == str(engine.execute(query)), query

    @pytest.mark.parametrize(
        "edit", (*EDITS, legacy_shape), ids=lambda edit: edit.__name__
    )
    def test_each_plan_edit_is_invisible_in_results(self, corpus, edit):
        """One law per optimizer transformation: undo it on the plan and
        the output stays byte-identical."""
        engine = _engine(corpus)
        changed = 0
        for query in _random_queries(corpus[3]) + _decision_queries(corpus[0]):
            plan = rewritten_plan(engine, query)
            edited = edit(plan)
            changed += edited != plan
            assert str(engine.run(edited)) == str(engine.run(plan)), query
        assert changed, "no query here exercises this edit"

    def test_matches_navigational_baseline(self, corpus):
        on = _engine(corpus)
        store, _fti, lifetime, _vocab = corpus
        nav = QueryEngine(store, lifetime=lifetime)  # no FTI
        for query in _random_queries(corpus[3]):
            expected = sorted(str(nav.execute(query)).splitlines())
            assert sorted(str(on.execute(query)).splitlines()) == expected, (
                query
            )

    def test_error_behavior_matches_textual_order(self, corpus):
        """Conjunct reordering must not change *whether* a query raises.

        ``TIME(R/price)`` is ill-typed (TIME wants a bare variable) but
        only raises for rows that survive the earlier conjuncts — the
        evaluator short-circuits AND left to right.  Raising conjuncts
        are reordering barriers, so a filter that textually precedes one
        still runs first — as planned and under every plan edit.
        """
        engine = _engine(corpus)
        shapes = [lambda plan: plan, *EDITS, legacy_shape]
        suppressed = (
            'SELECT R/name FROM doc("g0.com")[EVERY]/restaurant R '
            'WHERE R/name = "no such restaurant" '
            "AND TIME(R/price) >= 01/01/2001"
        )
        for shape in shapes:
            result = engine.run(shape(rewritten_plan(engine, suppressed)))
            assert len(result) == 0

        matching = corpus[3]["name"][0]
        raising = (
            'SELECT R/name FROM doc("*")[EVERY]/restaurant R '
            f'WHERE R/name = "{matching}" AND TIME(R/price) >= 01/01/2001'
        )
        with pytest.raises(QueryPlanError):
            engine.execute(raising)
        for shape in shapes:
            with pytest.raises(QueryPlanError):
                engine.run(shape(rewritten_plan(engine, raising)))

    def test_planner_counters_moved(self, corpus):
        engine = _engine(corpus)
        for query in _random_queries(corpus[3], count=8, seed=11):
            engine.execute(query)
        counters = engine.optimizer.counters
        assert counters.plans > 0
        assert counters.index_chosen > 0
        assert counters.pushdowns > 0
        assert counters.conjuncts_reordered > 0


class TestExplainShapes:
    def test_alternatives_priced_with_one_chosen(self, corpus):
        engine = _engine(corpus)
        (info,) = engine.explain(
            'SELECT R FROM doc("g0.com")[EVERY]/restaurant R '
            'WHERE R/name = "Napoli 1"'
        )
        assert info["strategy"] in ("index", "navigate")
        alternatives = info["alternatives"]
        assert {a["strategy"] for a in alternatives} == {"index", "navigate"}
        assert sum(a["chosen"] for a in alternatives) == 1
        for alternative in alternatives:
            assert alternative["cost"] >= 0
            assert alternative["rows"] >= 0
        assert info["est_rows"] >= 0
        assert info["est_cost"] >= 0

    def test_multiple_pushdowns_listed(self, corpus):
        engine = _engine(corpus)
        (info,) = engine.explain(
            'SELECT R FROM doc("g0.com")[EVERY]/restaurant R '
            'WHERE R/name = "Napoli 1" AND R/street = "street 1"'
        )
        if info["strategy"] == "index":
            assert len(info.get("pushdowns", [])) == 2

    def test_explain_text_renders_alternatives(self, corpus):
        engine = _engine(corpus)
        text = engine.explain_text(
            'SELECT R FROM doc("g0.com")[EVERY]/restaurant R '
            'WHERE R/name = "Napoli 1"'
        )
        assert "estimate:" in text
        assert "navigate (NavScan)" in text

    def test_legacy_shape_edit_describes_the_legacy_plan(self, corpus):
        engine = _engine(corpus)
        plan = legacy_shape(rewritten_plan(
            engine,
            'SELECT R FROM doc("g0.com")[EVERY]/restaurant R '
            'WHERE R/street = "street 1" AND R/name = "Napoli 1"',
        ))
        (info,) = plan.describe()
        # No cost flip, and only the first pushable conjunct is pushed.
        assert info["strategy"] == "index"
        assert "pushdowns" not in info
        assert info["pushdown"] == "street 1"
        assert plan.items[0].scan_bounds is None
        assert plan.where is plan.query.where


class TestEstimateAccounting:
    def test_est_vs_actual_rows_reported(self, corpus):
        engine = _engine(corpus)
        report = engine.explain_analyze(
            'SELECT R/name FROM doc("g0.com")'
            f"[{format_timestamp(START + 5 * SECONDS_PER_DAY)}]"
            "/restaurant R"
        )
        accounting = report.row_accounting()
        assert accounting, "no estimated operators in the trace"
        scan = accounting[0]
        assert scan["operator"] in ("TPatternScan", "NavScan")
        assert isinstance(scan["est_rows"], int)
        # Snapshot scan estimates are upper bounds (minimum posting-list
        # prefix): completed scans must never exceed them.
        assert scan["rows"] <= scan["est_rows"]
        assert "(est=" in report.render()

    def test_every_scan_accounts_estimates(self, corpus):
        engine = _engine(corpus)
        report = engine.explain_analyze(
            'SELECT R/name FROM doc("g1.com")[EVERY]/restaurant R '
            'WHERE R/name = "Napoli 1"'
        )
        accounting = report.row_accounting()
        assert accounting
        for entry in accounting:
            assert entry["est_rows"] >= 0
            if entry["rows"] and entry["complete"]:
                assert entry["est_rows"] > 0


class TestStatisticsLayer:
    @pytest.fixture(scope="class")
    def figure1(self):
        store = TemporalDocumentStore()
        fti = store.subscribe(TemporalFullTextIndex())
        lifetime = store.subscribe(LifetimeIndex())
        load_figure1(store)
        return store, fti, lifetime

    def test_lookup_w_equals_filtered_history(self, figure1):
        store, fti, _lifetime = figure1
        lo = parse_date("05/01/2001")
        hi = parse_date("20/01/2001")
        for word in ("napoli", "restaurant", "price", "30"):
            full = [
                p for p in fti.lookup_h(word)
                if p.start < hi and p.end > lo
            ]
            assert fti.lookup_w(word, lo, hi) == full
        assert fti.lookup_w("napoli", hi, hi) == []

    def test_term_statistics_match_lookups(self, figure1):
        store, fti, _lifetime = figure1
        statistics = CorpusStatistics(store, fti)
        history, open_now = statistics.term_counts("napoli")
        assert history == len(fti.lookup_h("napoli"))
        assert open_now == len(fti.lookup("napoli"))
        ts = parse_date("26/01/2001")
        assert statistics.term_scan_at("napoli", ts) >= len(
            fti.lookup_t("napoli", ts)
        )
        rarest = statistics.rarest_token("Napoli")
        assert rarest == ("napoli", history)

    def test_version_and_chain_statistics(self, figure1):
        store, fti, _lifetime = figure1
        statistics = CorpusStatistics(store, fti)
        doc_id = store.doc_id("guide.com")
        dindex = store.delta_index(doc_id)
        assert statistics.versions_between(doc_id, 0, 1 << 62) == len(dindex.entries)
        assert statistics.element_count(doc_id) > 0
        depth = statistics.delta_chain_depth(doc_id, parse_date("02/01/2001"))
        assert depth >= 0

    def test_lifetime_functions_read_the_index(self, figure1):
        """CREATE TIME / DELETE TIME read the lifetime index however short
        the history (one version here): one span each, no delta read."""
        store, fti, lifetime = figure1
        store.put("short.com",
                  "<guide><restaurant><name>x</name></restaurant></guide>")
        query = ('SELECT CREATE TIME(R), DELETE TIME(R) '
                 'FROM doc("short.com")/restaurant R')
        engine = QueryEngine(store, fti=fti, lifetime=lifetime)
        store.repository.delta_reads = 0
        report = engine.explain_analyze(query)
        spans = [span.name for span in report.root.walk()
                 if span.name in ("CreTime", "DelTime")]
        assert spans == ["CreTime", "DelTime"]
        assert len(report.result) == 1
        assert store.repository.delta_reads == 0

    def test_order_conjuncts_ranks_cheap_first(self, figure1):
        store, fti, lifetime = figure1
        engine = QueryEngine(store, fti=fti, lifetime=lifetime)
        query = parse_query(
            'SELECT R FROM doc("guide.com")[EVERY]/restaurant R '
            'WHERE R/name ~ "Napoli" AND R/price = 30 '
            "AND TIME(R) >= 15/01/2001"
        )
        ordered = engine.optimizer.order_conjuncts(query.where)
        from repro.query.planner import _conjuncts

        labels = [c.label() for c in _conjuncts(ordered)]
        assert "TIME" in labels[0]
        assert "~" in labels[-1]
