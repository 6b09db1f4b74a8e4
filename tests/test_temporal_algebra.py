"""Sequenced temporal algebra surfaced in TXQL (ROADMAP item 4).

Four layers of coverage:

* unit tests for the calendar-bucket helpers (``bucket_floor`` /
  ``bucket_next`` / ``bucket_spans``) and the :class:`Coalesce` /
  :class:`GroupedAggregate` operators in isolation;
* Figure 1 end-to-end TXQL: ``SELECT COALESCE``, ``OVERLAPS`` joins,
  ``GROUP BY`` time buckets, and ``[EVERY WITHIN n UNIT]`` windows;
* edge cases the paper's sentinels make interesting — ``UNTIL_CHANGED``
  open intervals through COALESCE and OVERLAPS, adjacent closed-open
  buckets at month boundaries, interval-less join rows, and the
  interaction of ``pinned_now`` snapshots with NOW-relative windows;
* a randomized equivalence suite: TXQL output must be **byte-identical**
  to pipelines hand-composed from ``operators/relational.py`` over the
  raw delta index — as planned, with each optimizer decision undone on
  the plan, and in the legacy plan shape.
"""

import random

import pytest

from benchmarks.planedits import (
    EDITS,
    legacy_shape,
    rewritten_plan,
    unrewritten_plan,
)
from repro.clock import (
    BEFORE_TIME,
    SECONDS_PER_DAY,
    UNTIL_CHANGED,
    Interval,
    bucket_floor,
    bucket_next,
    bucket_spans,
    format_timestamp,
    parse_date,
)
from repro.equality.value import coerce_scalar
from repro.errors import QueryPlanError
from repro.index import LifetimeIndex, TemporalFullTextIndex
from repro.model.identifiers import TEID
from repro.operators.relational import (
    INTERVAL_KEY,
    Coalesce,
    GroupedAggregate,
    TemporalJoin,
)
from repro.query import QueryEngine
from repro.query.executor import ResultSet
from repro.query.values import BoundElement, TimestampValue
from repro.storage import TemporalDocumentStore
from repro.workload import RestaurantGuideGenerator, load_figure1
from repro.xmlcore.node import Element
from repro.xmlcore.path import Path

START = parse_date("01/01/2001")
JAN_01 = parse_date("01/01/2001")
JAN_15 = parse_date("15/01/2001")
JAN_31 = parse_date("31/01/2001")


# -- bucket helpers ------------------------------------------------------------


class TestBucketHelpers:
    def test_floor_day_month_year(self):
        ts = parse_date("15/02/2001") + 3600
        assert bucket_floor(ts, "DAY") == parse_date("15/02/2001")
        assert bucket_floor(ts, "MONTH") == parse_date("01/02/2001")
        assert bucket_floor(ts, "YEAR") == parse_date("01/01/2001")

    def test_floor_is_idempotent(self):
        ts = parse_date("23/07/2003") + 12345
        for unit in ("DAY", "WEEK", "MONTH", "YEAR"):
            floor = bucket_floor(ts, unit)
            assert bucket_floor(floor, unit) == floor
            assert floor <= ts < bucket_next(floor, unit)

    def test_next_rolls_over_year_boundary(self):
        december = bucket_floor(parse_date("05/12/2001"), "MONTH")
        assert bucket_next(december, "MONTH") == parse_date("01/01/2002")
        year = bucket_floor(parse_date("05/12/2001"), "YEAR")
        assert bucket_next(year, "YEAR") == parse_date("01/01/2002")

    def test_spans_are_adjacent_and_cover_the_range(self):
        start = parse_date("15/01/2001")
        end = parse_date("20/03/2001")
        spans = list(bucket_spans(start, end, "MONTH"))
        assert [s for s, _e in spans] == [
            parse_date("01/01/2001"),
            parse_date("01/02/2001"),
            parse_date("01/03/2001"),
        ]
        assert spans[0][0] <= start < spans[0][1]
        assert spans[-1][0] < end <= spans[-1][1]
        for (_s1, end1), (start2, _e2) in zip(spans, spans[1:]):
            assert end1 == start2  # closed-open adjacency, no gap, no overlap

    def test_spans_empty_range_yields_nothing(self):
        ts = parse_date("15/01/2001")
        assert list(bucket_spans(ts, ts, "MONTH")) == []
        assert list(bucket_spans(ts, ts - 1, "DAY")) == []


# -- Coalesce operator ---------------------------------------------------------


class TestCoalesceOperator:
    def test_merges_adjacent_and_overlapping_intervals(self):
        rows = [
            {"v": 1, INTERVAL_KEY: Interval(10, 20)},
            {"v": 1, INTERVAL_KEY: Interval(20, 30)},
            {"v": 2, INTERVAL_KEY: Interval(30, 40)},
        ]
        assert list(Coalesce(rows)) == [
            {"v": 1, INTERVAL_KEY: Interval(10, 30)},
            {"v": 2, INTERVAL_KEY: Interval(30, 40)},
        ]

    def test_disjoint_intervals_stay_separate(self):
        rows = [
            {"v": 1, INTERVAL_KEY: Interval(10, 20)},
            {"v": 1, INTERVAL_KEY: Interval(40, 50)},
        ]
        assert list(Coalesce(rows)) == rows

    def test_interval_less_rows_keep_multiplicity(self):
        # Regression: bare rows used to collapse into one per group.
        rows = [{"v": 1}, {"v": 1}, {"v": 1}, {"v": 2}]
        assert list(Coalesce(rows)) == [{"v": 1}] * 3 + [{"v": 2}]

    def test_mixed_group_emits_bare_rows_before_merged(self):
        rows = [
            {"v": 1, INTERVAL_KEY: Interval(10, 20)},
            {"v": 1},
            {"v": 1, INTERVAL_KEY: Interval(40, 50)},
        ]
        # The bare copy must not inherit the first-seen row's interval.
        assert list(Coalesce(rows)) == [
            {"v": 1},
            {"v": 1, INTERVAL_KEY: Interval(10, 20)},
            {"v": 1, INTERVAL_KEY: Interval(40, 50)},
        ]

    def test_until_changed_merges_into_open_interval(self):
        rows = [
            {"v": 1, INTERVAL_KEY: Interval(10, 20)},
            {"v": 1, INTERVAL_KEY: Interval(20, UNTIL_CHANGED)},
        ]
        (merged,) = list(Coalesce(rows))
        assert merged[INTERVAL_KEY] == Interval(10, UNTIL_CHANGED)
        assert merged[INTERVAL_KEY].is_current


# -- GroupedAggregate operator -------------------------------------------------


class TestGroupedAggregateOperator:
    def test_groups_and_emits_sorted_by_key(self):
        rows = [{"k": "b", "x": 2}, {"k": "a", "x": 1}, {"k": "b", "x": 4}]
        out = list(
            GroupedAggregate(
                rows,
                {"k": lambda r: r["k"]},
                {"n": ("count", None), "s": ("sum", lambda r: [r["x"]])},
            )
        )
        assert out == [
            {"k": "a", "n": 1, "s": 1},
            {"k": "b", "n": 2, "s": 6},
        ]

    def test_multi_valued_key_contributes_once_per_value(self):
        rows = [{"k": ["a", "b"], "x": 5}, {"k": ["b"], "x": 2}]
        out = list(
            GroupedAggregate(
                rows,
                {"k": lambda r: r["k"]},
                {"s": ("sum", lambda r: [r["x"]])},
            )
        )
        assert out == [{"k": "a", "s": 5}, {"k": "b", "s": 7}]

    def test_empty_key_list_drops_the_row(self):
        rows = [{"k": [], "x": 5}, {"k": ["a"], "x": 1}]
        out = list(
            GroupedAggregate(
                rows,
                {"k": lambda r: r["k"]},
                {"s": ("sum", lambda r: [r["x"]])},
            )
        )
        assert out == [{"k": "a", "s": 1}]

    def test_distinct_key_dedups_within_group(self):
        rows = [
            {"k": "a", "x": 1},
            {"k": "a", "x": 1},
            {"k": "a", "x": 2},
            {"k": "b", "x": 1},
        ]
        out = list(
            GroupedAggregate(
                rows,
                {"k": lambda r: r["k"]},
                {"n": ("count", lambda r: [1])},
                distinct_key=lambda r: r["x"],
            )
        )
        assert out == [{"k": "a", "n": 2}, {"k": "b", "n": 1}]

    def test_unknown_aggregate_kind_rejected(self):
        with pytest.raises(ValueError):
            GroupedAggregate([], {}, {"bad": ("median", None)})


# -- Figure 1 end-to-end -------------------------------------------------------


def _texts(result, column):
    return [
        text
        for row in result
        for text in (
            [v.node.text_content() for v in row[column]]
            if isinstance(row[column], list)
            else [str(row[column])]
        )
    ]


@pytest.fixture
def figure1_engine(figure1_store):
    store, fti, lifetime, _ops = figure1_store
    return QueryEngine(store, fti=fti, lifetime=lifetime)


class TestFigure1Sequenced:
    def test_coalesce_merges_value_equivalent_versions(self, figure1_engine):
        result = figure1_engine.execute(
            'SELECT COALESCE R/name FROM doc("guide.com")[EVERY]/restaurant R'
        )
        assert result.columns == ["R/name", "VALID"]
        by_name = {}
        for row in result:
            name = row["R/name"][0].node.text_content()
            by_name.setdefault(name, []).append(row["VALID"])
        # Napoli exists through all three versions: one maximal interval,
        # still current (UNTIL_CHANGED survives the merge and renders "UC").
        assert [str(i) for i in by_name["Napoli"]] == [
            "[01/01/2001, UC)"
        ]
        # Akropolis lives only in the middle version.
        assert [str(i) for i in by_name["Akropolis"]] == [
            "[15/01/2001, 31/01/2001)"
        ]

    def test_coalesce_splits_on_value_change(self, figure1_engine):
        result = figure1_engine.execute(
            'SELECT COALESCE R/price FROM doc("guide.com")[EVERY]/restaurant R'
            ' WHERE R/name = "Napoli"'
        )
        intervals = [str(row["VALID"]) for row in result]
        # Napoli's price holds across the first two versions (those
        # intervals merge) and changes in the third (a fresh open row).
        assert intervals == ["[01/01/2001, 31/01/2001)", "[31/01/2001, UC)"]

    def test_overlaps_join_requires_interval_intersection(
        self, figure1_engine
    ):
        result = figure1_engine.execute(
            'SELECT R/price, S/price FROM doc("guide.com")[EVERY]/restaurant R, '
            'doc("guide.com")[EVERY]/restaurant S '
            'WHERE R/name = "Napoli" AND S/name = "Akropolis" '
            "AND R OVERLAPS S"
        )
        # Akropolis is valid [15/01, 31/01) only; of Napoli's three
        # versions exactly one overlaps it.
        assert len(result) == 1
        assert _texts(result, "R/price") == ["15"]
        assert _texts(result, "S/price") == ["13"]

    def test_overlaps_with_open_intervals_is_true(self, figure1_engine):
        # Both current versions run to UNTIL_CHANGED: open intervals overlap.
        result = figure1_engine.execute(
            'SELECT R/name, S/name FROM doc("guide.com")[EVERY]/restaurant R, '
            'doc("guide.com")[EVERY]/restaurant S '
            "WHERE R OVERLAPS S AND TIME(R) = 31/01/2001 "
            "AND TIME(S) = 31/01/2001"
        )
        assert len(result) == 1
        assert _texts(result, "R/name") == ["Napoli"]

    def test_overlaps_rejects_non_variable_operand(self, figure1_engine):
        with pytest.raises(QueryPlanError):
            figure1_engine.execute(
                'SELECT R FROM doc("guide.com")[EVERY]/restaurant R, '
                'doc("guide.com")[EVERY]/restaurant S '
                "WHERE R OVERLAPS S/name"
            )

    def test_group_by_month_buckets_with_pin(self, figure1_engine):
        figure1_engine.pinned_now = JAN_31
        result = figure1_engine.execute(
            'SELECT MONTH(R), COUNT(R) FROM doc("guide.com")'
            "[EVERY]/restaurant R GROUP BY MONTH(R)"
        )
        assert result.columns == ["MONTH(R)", "COUNT(R)"]
        # All validity clipped at the pin: everything lands in January.
        assert len(result) == 1
        row = result.rows[0]
        assert str(row["MONTH(R)"]) == "01/01/2001"
        assert row["COUNT(R)"] == 4  # 3 Napoli versions + 1 Akropolis

    def test_group_by_name_counts_versions(self, figure1_engine):
        result = figure1_engine.execute(
            'SELECT R/name, COUNT(R) FROM doc("guide.com")[EVERY]/restaurant R '
            "GROUP BY R/name"
        )
        # Multi-valued grouping keys expand: each output row carries the
        # single key value its group was formed over.
        rows = {
            row["R/name"].node.text_content(): row["COUNT(R)"]
            for row in result
        }
        assert rows == {"Akropolis": 1, "Napoli": 3}

    def test_distinct_count_applies_before_aggregation(self, figure1_engine):
        plain = figure1_engine.execute(
            'SELECT COUNT(R/name) FROM doc("guide.com")[EVERY]/restaurant R'
        )
        distinct = figure1_engine.execute(
            'SELECT DISTINCT COUNT(R/name) FROM '
            'doc("guide.com")[EVERY]/restaurant R'
        )
        assert plain.scalar() == 4
        assert distinct.scalar() == 2  # two distinct names across history

    def test_every_within_restricts_to_recent_versions(self, figure1_engine):
        figure1_engine.pinned_now = JAN_31
        recent = figure1_engine.execute(
            'SELECT TIME(R) FROM doc("guide.com")'
            "[EVERY WITHIN 10 DAYS]/restaurant R"
        )
        # Only versions whose validity intersects [21/01, 31/01]: the
        # middle versions (still valid on the 21st) and the new current one.
        assert sorted(str(v) for v in recent.scalars()) == [
            "15/01/2001",
            "15/01/2001",
            "31/01/2001",
        ]

    def test_every_within_tracks_pinned_now(self, figure1_engine):
        figure1_engine.pinned_now = JAN_15
        result = figure1_engine.execute(
            'SELECT TIME(R) FROM doc("guide.com")'
            "[EVERY WITHIN 7 DAYS]/restaurant R"
        )
        # As of the pin, the 31/01 version does not exist yet; the window
        # [08/01, 15/01] catches v1 (valid through the 15th) and v2.
        assert sorted(str(v) for v in result.scalars()) == [
            "01/01/2001",
            "15/01/2001",
            "15/01/2001",
        ]

    def test_coalesce_with_aggregate_rejected(self, figure1_engine):
        from repro.query.parser import QuerySyntaxError

        with pytest.raises((QueryPlanError, QuerySyntaxError)):
            figure1_engine.execute(
                'SELECT COALESCE COUNT(R) FROM doc("guide.com")'
                "[EVERY]/restaurant R"
            )


# -- month boundaries and interval-less rows -----------------------------------


def _restaurant_guide(price):
    guide = Element("guide")
    restaurant = Element("restaurant")
    name = Element("name")
    name.text = "Rex"
    tag = Element("price")
    tag.text = str(price)
    restaurant.append(name)
    restaurant.append(tag)
    guide.append(restaurant)
    return guide


@pytest.fixture
def boundary_engine():
    """One restaurant, versions straddling the Jan/Feb month boundary."""
    store = TemporalDocumentStore()
    fti = store.subscribe(TemporalFullTextIndex())
    store.put("g.com", _restaurant_guide(10), ts=parse_date("15/01/2001"))
    store.update("g.com", _restaurant_guide(12), ts=parse_date("15/02/2001"))
    store.update("g.com", _restaurant_guide(14), ts=parse_date("20/02/2001"))
    engine = QueryEngine(store, fti=fti)
    engine.pinned_now = parse_date("25/02/2001")
    return engine


class TestMonthBoundaries:
    def test_version_spanning_boundary_lands_in_both_buckets(
        self, boundary_engine
    ):
        result = boundary_engine.execute(
            'SELECT MONTH(R), COUNT(R) FROM doc("g.com")[EVERY]/restaurant R '
            "GROUP BY MONTH(R)"
        )
        rows = {
            str(row["MONTH(R)"]): row["COUNT(R)"] for row in result
        }
        # v1 [15/01, 15/02) straddles the boundary: it contributes to both
        # adjacent closed-open buckets.  v2 and v3 are February-only.
        assert rows == {"01/01/2001": 1, "01/02/2001": 3}

    def test_bucket_keys_are_adjacent_closed_open(self, boundary_engine):
        result = boundary_engine.execute(
            'SELECT MONTH(R), AVG(R/price) FROM doc("g.com")'
            "[EVERY]/restaurant R GROUP BY MONTH(R)"
        )
        keys = [int(row["MONTH(R)"]) for row in result.rows]
        assert keys == sorted(keys)
        assert bucket_next(keys[0], "MONTH") == keys[1]
        averages = [row["AVG(R/price)"] for row in result.rows]
        assert averages == [10, (10 + 12 + 14) / 3]

    def test_version_ending_exactly_on_boundary_stays_out(
        self, boundary_engine
    ):
        # v1's validity ends exactly at 15/02; a DAY bucket starting there
        # must not include it (half-open semantics).
        result = boundary_engine.execute(
            'SELECT DAY(R), COUNT(R) FROM doc("g.com")[EVERY]/restaurant R '
            "WHERE TIME(R) = 15/01/2001 GROUP BY DAY(R)"
        )
        days = [str(row["DAY(R)"]) for row in result]
        assert days[0] == "15/01/2001"
        assert days[-1] == "14/02/2001"
        assert "15/02/2001" not in days
        assert len(days) == 31  # 15/01 .. 14/02 inclusive


class TestIntervalLessRows:
    def test_disjoint_join_row_coalesces_without_valid(self, figure1_engine):
        # Snapshot bindings at disjoint instants produce a joined row whose
        # intervals never intersect: COALESCE passes it through bare.
        result = figure1_engine.execute(
            'SELECT COALESCE R/name, S/name FROM '
            'doc("guide.com")[01/01/2001]/restaurant R, '
            'doc("guide.com")[31/01/2001]/restaurant S'
        )
        assert result.columns == ["R/name", "S/name", "VALID"]
        assert len(result) == 1
        assert result.rows[0]["VALID"] is None
        # Rendering: the VALID cell is empty, not "None".
        assert str(result).splitlines()[-1].rstrip().endswith("</name>")


# -- randomized equivalence against hand-composed pipelines --------------------


NOW_PIN = START + 40 * SECONDS_PER_DAY


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
    vocab = {"name": set(), "price": set()}
    for i in range(3):
        generator = RestaurantGuideGenerator(
            n_restaurants=4, seed=100 + i, p_price_change=0.4,
            p_close=0.1, p_open=0.1, p_rename=0.1, p_reintroduce=0.1,
        )
        versions = generator.load_into(
            store, name=f"g{i}.com", count=8,
            start_ts=START + i * 10 * SECONDS_PER_DAY,
        )
        for _ts, tree in versions:
            for tag in vocab:
                _collect_texts(tree, tag, vocab[tag])
    return store, fti, lifetime, {tag: sorted(v) for tag, v in vocab.items()}


def _engine(corpus):
    store, fti, lifetime, _vocab = corpus
    engine = QueryEngine(store, fti=fti, lifetime=lifetime)
    engine.pinned_now = NOW_PIN  # freeze NOW so every run agrees on it
    return engine


def _every_rows(store, doc_name, path, var):
    """Hand-built [EVERY] binding rows in the planner's canonical order:
    one row per (document version, matching element), interval =
    [version timestamp, end of version)."""
    doc_id = store.doc_id(doc_name)
    dindex = store.delta_index(doc_id)
    compiled = Path(path)
    rows = []
    for entry in dindex.versions_in(BEFORE_TIME + 1, NOW_PIN + 1):
        tree = store.snapshot(doc_id, entry.timestamp)
        interval = Interval(entry.timestamp, dindex.end_of(entry))
        for node in compiled.select(tree):
            teid = TEID(doc_id, node.xid, entry.timestamp)
            rows.append(
                {
                    var: BoundElement(
                        store, teid, interval, tree=node
                    ),
                    INTERVAL_KEY: interval,
                }
            )
    rows.sort(
        key=lambda row: (
            row[var].teid.doc_id,
            row[var].teid.timestamp,
            row[var].teid.xid,
        )
    )
    return rows


def _name_is(var, target):
    def predicate(row):
        return any(
            v.node.text_content().strip() == target
            for v in row[var].select("name")
        )

    return predicate


def _price_contributions(row, var):
    out = []
    for value in row[var].select("price"):
        scalar = coerce_scalar(value.node)
        out.append(scalar if isinstance(scalar, (int, float)) else 1)
    return out


def _project(rows, columns):
    """Project while carrying each row's validity interval along."""
    for row in rows:
        out = {label: fn(row) for label, fn in columns.items()}
        interval = row.get(INTERVAL_KEY)
        if interval is not None:
            out[INTERVAL_KEY] = interval
        yield out


def _hand_coalesce(store, doc, target):
    rows = [
        row
        for row in _every_rows(store, doc, "restaurant", "R")
        if _name_is("R", target)(row)
    ]
    projected = _project(
        rows, {"R/name": lambda r: r["R"].select("name")}
    )
    out = []
    for merged in Coalesce(projected):
        merged["VALID"] = merged.pop(INTERVAL_KEY, None)
        out.append(merged)
    return ResultSet(["R/name", "VALID"], out)


def _hand_overlaps(store, left_doc, right_doc, left_name, right_name):
    left = [
        row
        for row in _every_rows(store, left_doc, "restaurant", "R")
        if _name_is("R", left_name)(row)
    ]
    right = [
        row
        for row in _every_rows(store, right_doc, "restaurant", "S")
        if _name_is("S", right_name)(row)
    ]
    columns = ["R/name", "TIME(R)", "TIME(S)"]
    out = [
        {
            "R/name": row["R"].select("name"),
            "TIME(R)": TimestampValue(row["R"].teid.timestamp),
            "TIME(S)": TimestampValue(row["S"].teid.timestamp),
        }
        for row in TemporalJoin(left, right)
    ]
    return ResultSet(columns, out)


def _hand_bucket_aggregate(store, doc, unit, kind):
    rows = _every_rows(store, doc, "restaurant", "R")
    key_label = f"{unit}(R)"
    agg_label = f"{kind}(R/price)"

    def bucket_key(row):
        interval = row[INTERVAL_KEY]
        end = min(interval.end, NOW_PIN + 1)
        return [
            TimestampValue(start)
            for start, _stop in bucket_spans(interval.start, end, unit)
        ]

    grouped = GroupedAggregate(
        rows,
        {key_label: bucket_key},
        {agg_label: (kind.lower(), lambda r: _price_contributions(r, "R"))},
    )
    columns = [key_label, agg_label]
    return ResultSet(
        columns, [{label: g[label] for label in columns} for g in grouped]
    )


def _hand_name_count(store, doc):
    rows = _every_rows(store, doc, "restaurant", "R")
    grouped = GroupedAggregate(
        rows,
        {"R/name": lambda r: r["R"].select("name")},
        {"COUNT(R)": ("count", lambda r: [1])},
    )
    columns = ["R/name", "COUNT(R)"]
    return ResultSet(
        columns, [{label: g[label] for label in columns} for g in grouped]
    )


def _hand_within(store, doc, days, target):
    window = Interval(NOW_PIN - days * SECONDS_PER_DAY, NOW_PIN + 1)
    rows = [
        row
        for row in _every_rows(store, doc, "restaurant", "R")
        if row[INTERVAL_KEY].overlaps(window)
        and _name_is("R", target)(row)
    ]
    out = [
        {
            "R/name": row["R"].select("name"),
            "TIME(R)": TimestampValue(row["R"].teid.timestamp),
        }
        for row in rows
    ]
    return ResultSet(["R/name", "TIME(R)"], out)


class TestHandPipelineEquivalence:
    """TXQL output must be byte-identical to relational.py pipelines —
    as planned, and with every optimizer decision undone on the plan,
    one at a time and all together."""

    def _check(self, corpus, query, hand):
        expected = str(hand)
        engine = _engine(corpus)
        assert str(engine.execute(query)) == expected, query
        plan = rewritten_plan(engine, query)
        for edit in (*EDITS, legacy_shape):
            assert str(engine.run(edit(plan))) == expected, (
                edit.__name__, query,
            )

    def test_coalesce_matches_hand_pipeline(self, corpus):
        store, _fti, _lifetime, vocab = corpus
        rng = random.Random(17)
        for _ in range(6):
            doc = f"g{rng.randint(0, 2)}.com"
            target = rng.choice(vocab["name"])
            query = (
                f'SELECT COALESCE R/name FROM doc("{doc}")[EVERY]'
                f'/restaurant R WHERE R/name = "{target}"'
            )
            self._check(corpus, query, _hand_coalesce(store, doc, target))

    def test_overlaps_join_matches_hand_pipeline(self, corpus):
        store, _fti, _lifetime, vocab = corpus
        rng = random.Random(23)
        for _ in range(6):
            left_doc = f"g{rng.randint(0, 2)}.com"
            right_doc = f"g{rng.randint(0, 2)}.com"
            left_name = rng.choice(vocab["name"])
            right_name = rng.choice(vocab["name"])
            query = (
                f'SELECT R/name, TIME(R), TIME(S) FROM '
                f'doc("{left_doc}")[EVERY]/restaurant R, '
                f'doc("{right_doc}")[EVERY]/restaurant S '
                f'WHERE R/name = "{left_name}" AND S/name = "{right_name}" '
                f"AND R OVERLAPS S"
            )
            hand = _hand_overlaps(
                store, left_doc, right_doc, left_name, right_name
            )
            self._check(corpus, query, hand)

    def test_bucketed_aggregates_match_hand_pipeline(self, corpus):
        store, _fti, _lifetime, _vocab = corpus
        rng = random.Random(31)
        for _ in range(8):
            doc = f"g{rng.randint(0, 2)}.com"
            unit = rng.choice(("DAY", "WEEK", "MONTH", "YEAR"))
            kind = rng.choice(("AVG", "SUM", "COUNT", "MIN", "MAX"))
            query = (
                f'SELECT {unit}(R), {kind}(R/price) FROM doc("{doc}")'
                f"[EVERY]/restaurant R GROUP BY {unit}(R)"
            )
            hand = _hand_bucket_aggregate(store, doc, unit, kind)
            self._check(corpus, query, hand)

    def test_group_by_name_matches_hand_pipeline(self, corpus):
        store, _fti, _lifetime, _vocab = corpus
        for i in range(3):
            doc = f"g{i}.com"
            query = (
                f'SELECT R/name, COUNT(R) FROM doc("{doc}")'
                "[EVERY]/restaurant R GROUP BY R/name"
            )
            self._check(corpus, query, _hand_name_count(store, doc))

    def test_every_within_matches_hand_pipeline(self, corpus):
        store, _fti, _lifetime, vocab = corpus
        rng = random.Random(41)
        for _ in range(6):
            doc = f"g{rng.randint(0, 2)}.com"
            days = rng.choice((15, 25, 35, 45))
            target = rng.choice(vocab["name"])
            query = (
                f'SELECT R/name, TIME(R) FROM doc("{doc}")'
                f"[EVERY WITHIN {days} DAYS]/restaurant R "
                f'WHERE R/name = "{target}"'
            )
            hand = _hand_within(store, doc, days, target)
            self._check(corpus, query, hand)

    def test_rewriter_off_agrees_too(self, corpus):
        store, _fti, _lifetime, vocab = corpus
        target = vocab["name"][0]
        query = (
            'SELECT R/name, TIME(R) FROM doc("g0.com")'
            "[EVERY WITHIN 45 DAYS]/restaurant R "
            f'WHERE R/name = "{target}"'
        )
        expected = str(_hand_within(store, "g0.com", 45, target))
        engine = _engine(corpus)
        for planned in (rewritten_plan, unrewritten_plan):
            plan = planned(engine, query)
            for shape in (engine.run, lambda p: engine.run(legacy_shape(p))):
                assert str(shape(plan)) == expected, planned.__name__
