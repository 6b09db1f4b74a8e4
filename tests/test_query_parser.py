"""Tests for the TXQL lexer and parser."""

import pytest

from repro.clock import SECONDS_PER_DAY, parse_date
from repro.errors import QuerySyntaxError
from repro.query import parse_query, tokenize_query
from repro.query.ast import (
    EVERY,
    BinOp,
    DateLiteral,
    EveryWithin,
    FuncCall,
    IntervalLiteral,
    Literal,
    NotOp,
    NowLiteral,
    VarPath,
    bucket_call,
    is_aggregate_expr,
)
from repro.query.lexer import DATE, IDENT, NUMBER, STRING, SYMBOL


class TestLexer:
    def test_tokens(self):
        tokens = tokenize_query('SELECT R FROM doc("g.com") R')
        kinds = [t.kind for t in tokens[:-1]]
        assert kinds == [IDENT, IDENT, IDENT, IDENT, SYMBOL, STRING, SYMBOL, IDENT]

    def test_date_not_three_numbers(self):
        tokens = tokenize_query("26/01/2001")
        assert tokens[0].kind == DATE
        assert tokens[0].value == "26/01/2001"

    def test_path_not_date(self):
        tokens = tokenize_query("R/price")
        assert [t.kind for t in tokens[:-1]] == [IDENT, SYMBOL, IDENT]

    def test_two_char_symbols(self):
        tokens = tokenize_query("a//b <= c == d != e >= f")
        symbols = [t.value for t in tokens if t.kind == SYMBOL]
        assert symbols == ["//", "<=", "==", "!=", ">="]

    def test_strings_both_quotes(self):
        tokens = tokenize_query("\"double\" 'single'")
        assert [t.value for t in tokens[:-1]] == ["double", "single"]

    def test_unterminated_string(self):
        with pytest.raises(QuerySyntaxError):
            tokenize_query('SELECT "oops')

    def test_junk_character(self):
        with pytest.raises(QuerySyntaxError):
            tokenize_query("SELECT R § FROM")

    def test_numbers(self):
        tokens = tokenize_query("15 3.25")
        assert [t.kind for t in tokens[:-1]] == [NUMBER, NUMBER]


class TestParserStructure:
    def test_q1_shape(self):
        q = parse_query(
            'SELECT R FROM doc("guide.com")[26/01/2001]/restaurant R'
        )
        assert len(q.select_items) == 1
        assert isinstance(q.select_items[0], VarPath)
        item = q.from_items[0]
        assert item.url == "guide.com"
        assert isinstance(item.time_spec, DateLiteral)
        assert item.time_spec.ts == parse_date("26/01/2001")
        assert item.path == "restaurant"
        assert item.var == "R"

    def test_every(self):
        q = parse_query('SELECT R FROM doc("g")[EVERY]/r R')
        assert q.from_items[0].time_spec is EVERY

    def test_no_qualifier_means_current(self):
        q = parse_query('SELECT R FROM doc("g")/r R')
        assert q.from_items[0].time_spec is None

    def test_descendant_path(self):
        q = parse_query('SELECT R FROM doc("g")//price R')
        assert q.from_items[0].path == "//price"

    def test_no_path_binds_root(self):
        q = parse_query('SELECT D FROM doc("g") D')
        assert q.from_items[0].path == ""

    def test_as_keyword_optional(self):
        q = parse_query('SELECT R FROM doc("g")/r AS R')
        assert q.from_items[0].var == "R"

    def test_multiple_from_items(self):
        q = parse_query(
            'SELECT R1 FROM doc("g")[01/01/2001]/r R1, doc("g")/r R2 '
            "WHERE R1/name = R2/name"
        )
        assert [f.var for f in q.from_items] == ["R1", "R2"]

    def test_distinct(self):
        q = parse_query('SELECT DISTINCT R FROM doc("g")/r R')
        assert q.distinct

    def test_label_round_trip_parses(self):
        text = (
            'SELECT TIME(R), R/price FROM doc("g")[EVERY]/restaurant R '
            'WHERE R/name = "Napoli"'
        )
        q = parse_query(text)
        again = parse_query(q.label())
        assert again.label() == q.label()

    def test_limit(self):
        q = parse_query('SELECT R FROM doc("g")/r R LIMIT 3')
        assert q.limit == 3

    def test_limit_zero(self):
        q = parse_query('SELECT R FROM doc("g")/r R LIMIT 0')
        assert q.limit == 0

    def test_no_limit_is_none(self):
        q = parse_query('SELECT R FROM doc("g")/r R')
        assert q.limit is None

    def test_limit_after_where(self):
        q = parse_query(
            'SELECT R FROM doc("g")/r R WHERE R/name = "x" LIMIT 2'
        )
        assert q.limit == 2
        assert q.where is not None

    def test_limit_label_round_trip(self):
        q = parse_query('SELECT R FROM doc("g")/r R LIMIT 5')
        assert "LIMIT 5" in q.label()
        assert parse_query(q.label()).limit == 5


class TestParserExpressions:
    def _where(self, text):
        return parse_query(f'SELECT R FROM doc("g")/r R WHERE {text}').where

    def test_comparison_operators(self):
        for op in ("=", "==", "~", "!=", "<", "<=", ">", ">="):
            expr = self._where(f"R/price {op} 10")
            assert isinstance(expr, BinOp) and expr.op == op

    def test_and_or_precedence(self):
        expr = self._where("R = 1 OR R = 2 AND R = 3")
        assert expr.op == "OR"
        assert expr.right.op == "AND"

    def test_parentheses(self):
        expr = self._where("(R = 1 OR R = 2) AND R = 3")
        assert expr.op == "AND"
        assert expr.left.op == "OR"

    def test_not(self):
        expr = self._where('NOT R/name = "X"')
        assert isinstance(expr, NotOp)

    def test_var_path_expression(self):
        expr = self._where("R/menu//price < 10")
        assert expr.left.path == "menu//price"

    def test_functions(self):
        q = parse_query(
            "SELECT TIME(R), PREVIOUS(R), DIFF(R, R) "
            'FROM doc("g")/r R'
        )
        names = [item.name for item in q.select_items]
        assert names == ["TIME", "PREVIOUS", "DIFF"]

    def test_two_word_functions(self):
        expr = self._where("CREATE TIME(R) >= 11/01/2001")
        assert expr.left.name == "CREATE_TIME"
        expr = self._where("DELETE TIME(R) < NOW")
        assert expr.left.name == "DELETE_TIME"

    def test_time_arithmetic(self):
        expr = self._where("TIME(R) > NOW - 14 DAYS")
        right = expr.right
        assert isinstance(right, BinOp) and right.op == "-"
        assert isinstance(right.left, NowLiteral)
        assert isinstance(right.right, IntervalLiteral)
        assert right.right.seconds == 14 * SECONDS_PER_DAY

    def test_date_plus_weeks_in_qualifier(self):
        q = parse_query(
            'SELECT R FROM doc("g")[26/01/2001 + 2 WEEKS]/r R'
        )
        spec = q.from_items[0].time_spec
        assert isinstance(spec, BinOp) and spec.op == "+"

    def test_aggregates_detected(self):
        q = parse_query('SELECT SUM(R), COUNT(R) FROM doc("g")/r R')
        assert all(is_aggregate_expr(e) for e in q.select_items)
        assert not is_aggregate_expr(Literal(1))

    def test_string_and_number_literals(self):
        q = parse_query(
            "SELECT R FROM doc(\"g\")/r R WHERE R/n = 'text' AND R/p = 3.5"
        )
        conj = q.where
        assert conj.left.right.value == "text"
        assert conj.right.right.value == 3.5


class TestSequencedSyntax:
    def test_select_coalesce(self):
        q = parse_query('SELECT COALESCE R/name FROM doc("g")[EVERY]/r R')
        assert q.coalesce
        assert not q.distinct

    def test_coalesce_defaults_off(self):
        q = parse_query('SELECT R FROM doc("g")/r R')
        assert not q.coalesce
        assert q.group_by is None

    def test_group_by_bucket_call(self):
        q = parse_query(
            'SELECT MONTH(R), COUNT(R) FROM doc("g")[EVERY]/r R '
            "GROUP BY MONTH(R)"
        )
        assert len(q.group_by) == 1
        assert isinstance(q.group_by[0], FuncCall)
        assert bucket_call(q.group_by[0]) == ("MONTH", "R")

    def test_group_by_var_path(self):
        q = parse_query(
            'SELECT R/name, COUNT(R) FROM doc("g")[EVERY]/r R '
            "GROUP BY R/name"
        )
        assert isinstance(q.group_by[0], VarPath)
        assert q.group_by[0].path == "name"

    def test_group_by_between_where_and_limit(self):
        q = parse_query(
            'SELECT YEAR(R), SUM(R/price) FROM doc("g")[EVERY]/r R '
            "WHERE R/price > 5 GROUP BY YEAR(R) LIMIT 2"
        )
        assert q.where is not None
        assert q.group_by is not None
        assert q.limit == 2

    def test_overlaps_comparison(self):
        q = parse_query(
            'SELECT R FROM doc("g")[EVERY]/r R, doc("h")[EVERY]/r S '
            "WHERE R OVERLAPS S"
        )
        assert isinstance(q.where, BinOp)
        assert q.where.op == "OVERLAPS"
        assert q.where.left.var == "R"
        assert q.where.right.var == "S"

    def test_overlaps_binds_tighter_than_and(self):
        q = parse_query(
            'SELECT R FROM doc("g")[EVERY]/r R, doc("h")[EVERY]/r S '
            'WHERE R OVERLAPS S AND R/name = "x"'
        )
        assert q.where.op == "AND"
        assert q.where.left.op == "OVERLAPS"

    def test_every_within_qualifier(self):
        q = parse_query('SELECT R FROM doc("g")[EVERY WITHIN 10 DAYS]/r R')
        spec = q.from_items[0].time_spec
        assert isinstance(spec, EveryWithin)
        assert spec.seconds == 10 * SECONDS_PER_DAY
        assert spec.label() == "EVERY WITHIN 10 DAYS"

    def test_sequenced_labels_round_trip(self):
        for text in (
            'SELECT COALESCE R/name FROM doc("g")[EVERY]/r R',
            'SELECT MONTH(R), AVG(R/price) FROM doc("g")[EVERY]/r R '
            "GROUP BY MONTH(R)",
            'SELECT R FROM doc("g")[EVERY WITHIN 2 WEEKS]/r R',
            'SELECT R FROM doc("g")[EVERY]/r R, doc("h")[EVERY]/r S '
            "WHERE R OVERLAPS S",
        ):
            q = parse_query(text)
            assert parse_query(q.label()).label() == q.label()

    @pytest.mark.parametrize(
        "bad",
        [
            # DISTINCT and COALESCE are mutually exclusive row regimes.
            'SELECT DISTINCT COALESCE R FROM doc("g")/r R',
            # COALESCE merges rows; aggregates/grouping collapse them.
            'SELECT COALESCE COUNT(R) FROM doc("g")[EVERY]/r R',
            'SELECT COALESCE R FROM doc("g")[EVERY]/r R GROUP BY R/name',
            # Grouping terms must not themselves aggregate.
            'SELECT COUNT(R) FROM doc("g")[EVERY]/r R GROUP BY COUNT(R)',
            # GROUP BY over a variable no FROM item binds.
            'SELECT X/name FROM doc("g")[EVERY]/r R GROUP BY X/name',
            # Window clause needs an integer amount and a known unit.
            'SELECT R FROM doc("g")[EVERY WITHIN ten DAYS]/r R',
            'SELECT R FROM doc("g")[EVERY WITHIN 1.5 DAYS]/r R',
            'SELECT R FROM doc("g")[EVERY WITHIN 10 PARSECS]/r R',
            'SELECT R FROM doc("g")[EVERY WITHIN]/r R',
            # GROUP BY with nothing after it.
            'SELECT COUNT(R) FROM doc("g")[EVERY]/r R GROUP BY',
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(QuerySyntaxError):
            parse_query(bad)


class TestParserErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "FROM doc(\"g\") R",
            "SELECT FROM doc(\"g\") R",
            "SELECT R",
            "SELECT R FROM doc(g) R",
            "SELECT R FROM doc(\"g\")[/r R",
            "SELECT R FROM doc(\"g\")/ R",
            "SELECT R FROM doc(\"g\") R trailing",
            "SELECT R FROM doc(\"g\") R WHERE",
            "SELECT R FROM doc(\"g\") R WHERE R =",
            "SELECT X FROM doc(\"g\") R",  # unbound variable
            "SELECT R FROM doc(\"g\") R, doc(\"h\") R",  # duplicate var
            "SELECT TIME( FROM doc(\"g\") R",
            "SELECT R FROM doc(\"g\") R LIMIT",
            "SELECT R FROM doc(\"g\") R LIMIT 1.5",
            "SELECT R FROM doc(\"g\") R LIMIT two",
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(QuerySyntaxError):
            parse_query(bad)


class TestOversizedIntegers:
    """An integer literal past Python's conversion limit, or a LIMIT past
    ``sys.maxsize``, is a syntax error at parse time: never a bare
    ``ValueError`` from ``int()`` or an ``islice`` failure at run time."""

    NINES = "9" * 5000
    BASE = 'SELECT R FROM doc("guide.com")'

    @pytest.mark.parametrize("query", [
        f'{BASE}[EVERY]/restaurant R LIMIT {NINES}',
        f'{BASE}[EVERY]/restaurant R WHERE R/price > {NINES}',
        f'{BASE}[NOW - {NINES} DAYS]/restaurant R',
        f'{BASE}[EVERY WITHIN {NINES} DAYS]/restaurant R',
    ])
    def test_too_many_digits(self, query):
        with pytest.raises(QuerySyntaxError, match="5000 digits is too long"):
            parse_query(query)

    def test_limit_above_maxsize(self):
        with pytest.raises(QuerySyntaxError, match="LIMIT must be at most"):
            parse_query(f"{self.BASE}[EVERY]/restaurant R "
                        "LIMIT 99999999999999999999999")

    def test_limit_at_maxsize_parses(self):
        import sys

        q = parse_query(f"{self.BASE}/restaurant R LIMIT {sys.maxsize}")
        assert q.limit == sys.maxsize

    def test_refused_by_the_database(self, figure1_db):
        for query in (f"{self.BASE}[EVERY]/restaurant R LIMIT {self.NINES}",
                      f"{self.BASE}[EVERY]/restaurant R "
                      "LIMIT 99999999999999999999999"):
            with pytest.raises(QuerySyntaxError):
                figure1_db.query(query)
