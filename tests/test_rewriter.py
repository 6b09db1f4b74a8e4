"""Tests for the algebraic rewriter (time folding, window pushdown)."""

import pytest

from benchmarks.planedits import run_unrewritten
from repro.clock import SECONDS_PER_DAY, parse_date
from repro.query.ast import BinOp, DateLiteral, EVERY
from repro.query.parser import parse_query
from repro.query.rewriter import TimeWindow, rewrite
from repro.query.values import TimestampValue

JAN_10 = parse_date("10/01/2001")
JAN_20 = parse_date("20/01/2001")


def _rewrite(text, now=None):
    return rewrite(parse_query(text), now=now)


class TestTimeWindow:
    def test_intersect(self):
        a = TimeWindow(start=10, end=30)
        b = TimeWindow(start=20, end=40)
        assert a.intersect(b) == TimeWindow(20, 30)

    def test_empty_and_unbounded(self):
        assert TimeWindow(30, 10).is_empty
        assert TimeWindow().is_unbounded
        assert not TimeWindow(start=5).is_unbounded

    def test_pins_instant(self):
        assert TimeWindow(7, 8).pins_instant() == 7
        assert TimeWindow(7, 9).pins_instant() is None


class TestConstantFolding:
    def test_date_plus_interval(self):
        query, _ = _rewrite(
            'SELECT R FROM doc("g")/r R WHERE TIME(R) > 10/01/2001 + 3 DAYS'
        )
        right = query.where.right
        assert isinstance(right, DateLiteral)
        assert right.ts == JAN_10 + 3 * SECONDS_PER_DAY

    def test_now_minus_interval_with_clock(self):
        query, _ = _rewrite(
            'SELECT R FROM doc("g")/r R WHERE TIME(R) > NOW - 2 DAYS',
            now=JAN_20,
        )
        right = query.where.right
        assert isinstance(right, DateLiteral)
        assert right.ts == JAN_20 - 2 * SECONDS_PER_DAY

    def test_now_unfolded_without_clock(self):
        query, _ = _rewrite(
            'SELECT R FROM doc("g")/r R WHERE TIME(R) > NOW - 2 DAYS'
        )
        assert isinstance(query.where.right, BinOp)

    @pytest.mark.parametrize("constant", [
        "26/01/2001 - 10/01/2001",  # a duration, not a timestamp
        "10/01/2001 + 5",           # a number is not an interval
    ])
    def test_non_interval_arithmetic_stays_unfolded(self, constant):
        query, _ = _rewrite(
            f'SELECT R FROM doc("g")/r R WHERE TIME(R) > {constant}'
        )
        assert isinstance(query.where.right, BinOp)

    def test_folding_inside_functions(self):
        query, _ = _rewrite(
            'SELECT R FROM doc("g")/r R '
            "WHERE CREATE TIME(R) >= 10/01/2001 + 1 DAYS"
        )
        assert isinstance(query.where.right, DateLiteral)


class TestWindowExtraction:
    def test_lower_bound(self):
        _, windows = _rewrite(
            'SELECT R FROM doc("g")[EVERY]/r R WHERE TIME(R) >= 10/01/2001'
        )
        assert windows["R"] == TimeWindow(start=JAN_10)

    def test_strict_bounds(self):
        _, windows = _rewrite(
            'SELECT R FROM doc("g")[EVERY]/r R '
            "WHERE TIME(R) > 10/01/2001 AND TIME(R) < 20/01/2001"
        )
        assert windows["R"] == TimeWindow(JAN_10 + 1, JAN_20)

    def test_mirrored_comparison(self):
        _, windows = _rewrite(
            'SELECT R FROM doc("g")[EVERY]/r R WHERE 10/01/2001 <= TIME(R)'
        )
        assert windows["R"].start == JAN_10

    def test_conjuncts_intersect(self):
        _, windows = _rewrite(
            'SELECT R FROM doc("g")[EVERY]/r R '
            "WHERE TIME(R) >= 10/01/2001 AND TIME(R) <= 20/01/2001 "
            "AND TIME(R) >= 12/01/2001"
        )
        assert windows["R"] == TimeWindow(
            parse_date("12/01/2001"), JAN_20 + 1
        )

    def test_disjunction_not_pushed(self):
        _, windows = _rewrite(
            'SELECT R FROM doc("g")[EVERY]/r R '
            'WHERE TIME(R) >= 10/01/2001 OR R/name = "x"'
        )
        assert "R" not in windows

    def test_time_with_path_not_pushed(self):
        # TIME() over a path expression is not a version-timestamp test.
        _, windows = _rewrite(
            'SELECT R FROM doc("g")[EVERY]/r R WHERE TIME(R) != 10/01/2001'
        )
        assert "R" not in windows

    def test_multi_variable_windows(self):
        _, windows = _rewrite(
            'SELECT R1 FROM doc("g")[EVERY]/r R1, doc("g")[EVERY]/r R2 '
            "WHERE TIME(R1) >= 10/01/2001 AND TIME(R2) < 20/01/2001"
        )
        assert windows["R1"].start == JAN_10
        assert windows["R2"].end == JAN_20


class TestPointCollapse:
    def test_equality_becomes_snapshot(self):
        query, windows = _rewrite(
            'SELECT R FROM doc("g")[EVERY]/r R WHERE TIME(R) = 10/01/2001'
        )
        item = query.from_items[0]
        assert item.time_spec is not EVERY
        assert isinstance(item.time_spec, DateLiteral)
        assert item.time_spec.ts == JAN_10
        assert "R" not in windows  # consumed by the collapse

    def test_snapshot_bindings_untouched(self):
        query, windows = _rewrite(
            'SELECT R FROM doc("g")[10/01/2001]/r R '
            "WHERE TIME(R) >= 01/01/2001"
        )
        assert query.from_items[0].time_spec.ts == JAN_10

    def test_where_clause_is_kept(self):
        query, _ = _rewrite(
            'SELECT R FROM doc("g")[EVERY]/r R WHERE TIME(R) = 10/01/2001'
        )
        assert query.where is not None  # soundness: predicate re-checked


class TestEndToEndEquivalence:
    """Rewriting never changes query answers."""

    QUERIES = (
        'SELECT TIME(R), R/price FROM doc("guide.com")[EVERY]/restaurant R '
        "WHERE TIME(R) >= 15/01/2001",
        'SELECT R/name FROM doc("guide.com")[EVERY]/restaurant R '
        "WHERE TIME(R) = 15/01/2001",
        'SELECT R/name FROM doc("guide.com")[EVERY]/restaurant R '
        'WHERE R/name = "Napoli" AND TIME(R) < 31/01/2001',
        'SELECT R/name FROM doc("guide.com")[15/01/2001 + 1 WEEKS]'
        "/restaurant R",
        'SELECT R/name FROM doc("guide.com")[EVERY]/restaurant R '
        "WHERE TIME(R) - 01/01/2001 > 26/01/2001 - 01/01/2001",
        'SELECT TIME(R) FROM doc("guide.com")[EVERY]/restaurant R '
        "WHERE TIME(R) > 15/01/2001 + 5",
    )

    @pytest.mark.parametrize("query", QUERIES)
    def test_same_results(self, figure1_db, query):
        with_rewriter = sorted(str(figure1_db.query(query)).splitlines())
        without = sorted(
            str(run_unrewritten(figure1_db.engine, query)).splitlines()
        )
        assert with_rewriter == without

    def test_empty_window_short_circuits(self, figure1_db):
        result = figure1_db.query(
            'SELECT R FROM doc("guide.com")[EVERY]/restaurant R '
            "WHERE TIME(R) > 01/01/2002 AND TIME(R) < 01/01/2001"
        )
        assert len(result) == 0


class TestDateArithmetic:
    """``timestamp - timestamp`` is a number of seconds, ``timestamp ±
    number or interval`` a timestamp: the same values whether the
    rewriter folded the constants or the evaluator computed them."""

    QUERY = (
        "SELECT 26/01/2001 - 01/01/2001, TIME(R) - 01/01/2001, "
        "TIME(R) + 2 DAYS, 15/01/2001 - 1 DAYS, 01/01/2001 + 5 "
        'FROM doc("guide.com")/restaurant R'
    )

    @pytest.mark.parametrize("rewritten", [True, False])
    def test_values_and_types(self, figure1_db, rewritten):
        if rewritten:
            result = figure1_db.query(self.QUERY)
        else:
            result = run_unrewritten(figure1_db.engine, self.QUERY)
        assert len(result) == 1
        (row,) = [list(row.values()) for row in result]
        assert row == [
            25 * SECONDS_PER_DAY,
            30 * SECONDS_PER_DAY,
            parse_date("02/02/2001"),
            parse_date("14/01/2001"),
            parse_date("01/01/2001") + 5,
        ]
        kinds = [isinstance(value, TimestampValue) for value in row]
        assert kinds == [False, False, True, True, True]
        assert str(row[0]) == "2160000"


class TestFoldingInSelect:
    def test_select_items_folded(self):
        query, _ = _rewrite(
            'SELECT TIME(R) FROM doc("g")/r R'
        )
        # A folded SELECT with arithmetic:
        query, _ = _rewrite(
            "SELECT 10/01/2001 + 3 DAYS FROM doc(\"g\")/r R"
        )
        item = query.select_items[0]
        assert isinstance(item, DateLiteral)
        assert item.ts == JAN_10 + 3 * 24 * 3600
