"""Recursive-descent parser for TXQL.

Grammar (lexer terminals in caps)::

    query        := SELECT [DISTINCT | COALESCE] expr ("," expr)*
                    FROM from_item ("," from_item)* [WHERE or_expr]
                    [GROUP BY expr ("," expr)*] [LIMIT NUMBER]
    from_item    := DOC "(" STRING ")" ["[" time_spec "]"] [path] [AS] IDENT
    time_spec    := EVERY [WITHIN NUMBER unit] | time_expr
    or_expr      := and_expr (OR and_expr)*
    and_expr     := not_expr (AND not_expr)*
    not_expr     := [NOT] comparison
    comparison   := additive [cmp_op additive] | additive OVERLAPS additive
    cmp_op       := "=" | "==" | "~" | "!=" | "<" | "<=" | ">" | ">="
    additive     := primary (("+"|"-") (NUMBER unit | primary))*
    primary      := literal | func_call | var_path | "(" or_expr ")"
    func_call    := FUNC "(" [expr ("," expr)*] ")"
                  | (CREATE|DELETE) TIME "(" expr ")"
    var_path     := IDENT [("/"|"//") steps]
    literal      := STRING | NUMBER | DATE | NOW

Paths inside expressions re-use :class:`repro.xmlcore.path.Path` syntax and
are kept as strings on the AST (compiled by the executor).
"""

from __future__ import annotations

import sys

from ..clock import interval_seconds, INTERVAL_UNITS, parse_date
from ..errors import QuerySyntaxError
from .ast import (
    EVERY,
    FUNCTIONS,
    BinOp,
    DateLiteral,
    EveryWithin,
    FromItem,
    FuncCall,
    IntervalLiteral,
    Literal,
    NotOp,
    NowLiteral,
    PathApply,
    Query,
    VarPath,
    is_aggregate_expr,
)
from .lexer import DATE, EOF, IDENT, NUMBER, STRING, tokenize_query

_COMPARISONS = ("=", "==", "~", "!=", "<", "<=", ">", ">=")


def parse_query(text):
    """Parse TXQL text into a :class:`~repro.query.ast.Query`."""
    return _Parser(tokenize_query(text)).parse()


class _Parser:
    def __init__(self, tokens):
        self._tokens = tokens
        self._pos = 0

    # -- cursor helpers ------------------------------------------------------

    def _peek(self, offset=0):
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _next(self):
        token = self._peek()
        if token.kind != EOF:
            self._pos += 1
        return token

    def _error(self, message):
        token = self._peek()
        raise QuerySyntaxError(
            f"{message} (found {token.value!r})", token.position
        )

    @staticmethod
    def _integer(token):
        """``int(token.value)``; a literal longer than Python converts is
        a syntax error, not a ``ValueError``."""
        try:
            return int(token.value)
        except ValueError:
            raise QuerySyntaxError(
                f"integer literal of {len(token.value)} digits is too long",
                token.position,
            ) from None

    def _expect_keyword(self, word):
        if not self._peek().is_keyword(word):
            self._error(f"expected {word}")
        return self._next()

    def _expect_symbol(self, symbol):
        if not self._peek().is_symbol(symbol):
            self._error(f"expected {symbol!r}")
        return self._next()

    def _accept_keyword(self, word):
        if self._peek().is_keyword(word):
            self._next()
            return True
        return False

    def _accept_symbol(self, symbol):
        if self._peek().is_symbol(symbol):
            self._next()
            return True
        return False

    # -- grammar --------------------------------------------------------------

    def parse(self):
        explain = None
        if self._accept_keyword("EXPLAIN"):
            explain = "analyze" if self._accept_keyword("ANALYZE") else "plan"
        self._expect_keyword("SELECT")
        distinct = self._accept_keyword("DISTINCT")
        coalesce = self._accept_keyword("COALESCE")
        if distinct and coalesce:
            raise QuerySyntaxError(
                "DISTINCT and COALESCE cannot be combined"
            )
        select_items = [self._expr()]
        while self._accept_symbol(","):
            select_items.append(self._expr())
        self._expect_keyword("FROM")
        from_items = [self._from_item()]
        while self._accept_symbol(","):
            from_items.append(self._from_item())
        where = None
        if self._accept_keyword("WHERE"):
            where = self._or_expr()
        group_by = None
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by = [self._expr()]
            while self._accept_symbol(","):
                group_by.append(self._expr())
            for term in group_by:
                if is_aggregate_expr(term):
                    raise QuerySyntaxError(
                        "aggregate functions are not allowed in GROUP BY"
                    )
        limit = None
        if self._accept_keyword("LIMIT"):
            limit = self._limit_count()
        if self._peek().kind != EOF:
            self._error("unexpected trailing input")
        if coalesce:
            if group_by is not None:
                raise QuerySyntaxError(
                    "COALESCE and GROUP BY cannot be combined"
                )
            if any(is_aggregate_expr(e) for e in select_items):
                raise QuerySyntaxError(
                    "COALESCE cannot be combined with aggregate functions"
                )
        self._check_variables(select_items, from_items, where, group_by)
        return Query(select_items, from_items, where, distinct, limit,
                     explain, coalesce, group_by)

    def _limit_count(self):
        token = self._peek()
        if token.kind != NUMBER or "." in token.value:
            self._error("LIMIT expects a non-negative integer")
        self._next()
        count = self._integer(token)
        if count > sys.maxsize:
            raise QuerySyntaxError(
                f"LIMIT must be at most {sys.maxsize}", token.position
            )
        return count

    def _check_variables(self, select_items, from_items, where,
                         group_by=None):
        declared = {f.var for f in from_items}
        if len(declared) != len(from_items):
            raise QuerySyntaxError("duplicate FROM variable")
        used = []
        for expr in select_items:
            used.extend(expr.walk())
        if where is not None:
            used.extend(where.walk())
        for expr in group_by or ():
            used.extend(expr.walk())
        for node in used:
            if isinstance(node, VarPath) and node.var not in declared:
                raise QuerySyntaxError(
                    f"unbound variable {node.var!r}"
                )

    def _from_item(self):
        self._expect_keyword("DOC")
        self._expect_symbol("(")
        url_token = self._next()
        if url_token.kind != STRING:
            self._error("doc() expects a quoted document name")
        self._expect_symbol(")")
        time_spec = None
        if self._accept_symbol("["):
            if self._accept_keyword("EVERY"):
                if self._accept_keyword("WITHIN"):
                    time_spec = self._within_window()
                else:
                    time_spec = EVERY
            else:
                time_spec = self._time_expr()
            self._expect_symbol("]")
        path = ""
        if self._peek().is_symbol("/") or self._peek().is_symbol("//"):
            path = self._path_string()
        self._accept_keyword("AS")
        var_token = self._next()
        if var_token.kind != IDENT or var_token.value.upper() in (
            "WHERE",
            "FROM",
            "SELECT",
        ):
            self._error("expected a binding variable after the document")
        return FromItem(url_token.value, time_spec, path, var_token.value)

    def _within_window(self):
        """``EVERY WITHIN n UNIT`` — a NOW-relative sequenced window."""
        amount_token = self._peek()
        unit_token = self._peek(1)
        if not (
            amount_token.kind == NUMBER
            and "." not in amount_token.value
            and unit_token.kind == IDENT
            and unit_token.value.upper() in INTERVAL_UNITS
        ):
            self._error("WITHIN expects a duration like 30 DAYS")
        self._next()
        self._next()
        amount = self._integer(amount_token)
        return EveryWithin(
            interval_seconds(amount, unit_token.value),
            f"{amount} {unit_token.value.upper()}",
        )

    def _path_string(self):
        """Consume ``/step//step...`` tokens and rebuild the path text.

        A leading ``/`` is dropped (paths are relative to the binding); a
        leading ``//`` is kept (descendant axis from the binding).
        """
        parts = []
        first = True
        while self._peek().is_symbol("/") or self._peek().is_symbol("//"):
            separator = self._next().value
            if not (first and separator == "/"):
                parts.append(separator)
            step = self._peek()
            if step.kind == IDENT or step.is_symbol("*"):
                self._next()
                parts.append(step.value)
            else:
                self._error("expected a path step")
            first = False
        return "".join(parts)

    # -- expressions ----------------------------------------------------------------

    def _expr(self):
        return self._or_expr()

    def _or_expr(self):
        left = self._and_expr()
        while self._accept_keyword("OR"):
            left = BinOp("OR", left, self._and_expr())
        return left

    def _and_expr(self):
        left = self._not_expr()
        while self._accept_keyword("AND"):
            left = BinOp("AND", left, self._not_expr())
        return left

    def _not_expr(self):
        if self._accept_keyword("NOT"):
            return NotOp(self._not_expr())
        return self._comparison()

    def _comparison(self):
        left = self._additive()
        token = self._peek()
        if token.kind == "SYMBOL" and token.value in _COMPARISONS:
            self._next()
            return BinOp(token.value, left, self._additive())
        if token.is_keyword("OVERLAPS"):
            self._next()
            return BinOp("OVERLAPS", left, self._additive())
        return left

    def _additive(self):
        left = self._primary()
        while True:
            token = self._peek()
            if not (token.is_symbol("+") or token.is_symbol("-")):
                return left
            op = self._next().value
            right = self._interval_or_primary()
            left = BinOp(op, left, right)

    def _interval_or_primary(self):
        token = self._peek()
        unit_token = self._peek(1)
        if (
            token.kind == NUMBER
            and unit_token.kind == IDENT
            and unit_token.value.upper() in INTERVAL_UNITS
        ):
            self._next()
            self._next()
            amount = self._integer(token)
            return IntervalLiteral(
                interval_seconds(amount, unit_token.value),
                f"{amount} {unit_token.value.upper()}",
            )
        return self._primary()

    def _time_expr(self):
        """Timestamp expressions in FROM qualifiers (no variables)."""
        expr = self._additive()
        return expr

    def _primary(self):
        token = self._peek()
        if token.is_symbol("("):
            self._next()
            inner = self._or_expr()
            self._expect_symbol(")")
            return inner
        if token.kind == STRING:
            self._next()
            return Literal(token.value)
        if token.kind == NUMBER:
            self._next()
            value = (float(token.value) if "." in token.value
                     else self._integer(token))
            return Literal(value)
        if token.kind == DATE:
            self._next()
            return DateLiteral(parse_date(token.value))
        if token.is_keyword("NOW"):
            self._next()
            return NowLiteral()
        if token.kind == IDENT:
            return self._ident_expr()
        self._error("expected an expression")

    def _ident_expr(self):
        token = self._next()
        upper = token.value.upper()

        # Two-word functions: CREATE TIME(...), DELETE TIME(...).
        if upper in ("CREATE", "DELETE") and self._peek().is_keyword("TIME"):
            self._next()
            return self._maybe_path(self._call(f"{upper}_TIME"))
        if upper in FUNCTIONS and self._peek().is_symbol("("):
            return self._maybe_path(self._call(upper))
        # Otherwise: a variable, optionally with a path.
        path = ""
        if self._peek().is_symbol("/") or self._peek().is_symbol("//"):
            path = self._path_string()
        return VarPath(token.value, path)

    def _maybe_path(self, expr):
        """Allow a trailing path on a function result: CURRENT(R)/name."""
        if self._peek().is_symbol("/") or self._peek().is_symbol("//"):
            return PathApply(expr, self._path_string())
        return expr

    def _call(self, name):
        self._expect_symbol("(")
        args = []
        if not self._peek().is_symbol(")"):
            args.append(self._expr())
            while self._accept_symbol(","):
                args.append(self._expr())
        self._expect_symbol(")")
        return FuncCall(name, args)
