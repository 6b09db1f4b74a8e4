"""Middleware translation of TXQL onto the full-version store.

The stratum layer parses the same TXQL text, then evaluates it by brute
force over complete stored versions:

* a snapshot qualifier becomes "find the version valid at *t* (a catalog
  lookup), read it completely, navigate the path";
* ``EVERY`` becomes "read *every* stored version";
* predicates and projections are evaluated on the materialized trees.

Two of the paper's observations fall straight out of this implementation:

* identity queries (``==``) and the version-navigation / lifetime functions
  **cannot be translated** — the underlying store has no persistent element
  identity — so they raise :class:`UnsupportedInStratumError` ("many queries
  can be difficult to express", Section 3.2);
* every query pays full-version reads even when the native system needs no
  reconstruction at all (Q2's "note that reconstruction of the documents is
  not needed"), which is what benchmark E8 quantifies.
"""

from __future__ import annotations

from fnmatch import fnmatch
from itertools import product

from repro.equality.similarity import similar
from repro.equality.value import coerce_scalar, value_equal
from repro.errors import QueryPlanError, TemporalXMLError
from repro.operators.relational import finish_aggregate
from repro.query.ast import (
    AGGREGATES,
    EVERY,
    BinOp,
    DateLiteral,
    FuncCall,
    IntervalLiteral,
    Literal,
    NotOp,
    NowLiteral,
    Query,
    VarPath,
    is_aggregate_expr,
)
from repro.query.executor import ResultSet, _aggregatable
from repro.query.parser import parse_query
from repro.query.values import TimestampValue
from repro.xmlcore.node import Element
from repro.xmlcore.path import Path


class UnsupportedInStratumError(TemporalXMLError):
    """The query needs features the stratum approach cannot translate."""


#: Functions requiring persistent identity or delta infrastructure.
_UNTRANSLATABLE = frozenset(
    {"CREATE_TIME", "DELETE_TIME", "PREVIOUS", "NEXT", "CURRENT", "DIFF"}
)


class _StratumBinding:
    """A bound element: just a tree and its version timestamp."""

    __slots__ = ("tree", "timestamp")

    def __init__(self, tree, timestamp):
        self.tree = tree
        self.timestamp = timestamp

    def select(self, path):
        compiled = Path(path)
        if compiled.is_empty:
            return [self.tree]
        return compiled.select(self.tree)


class StratumQueryProcessor:
    """Executes TXQL by translation over a :class:`StratumStore`."""

    def __init__(self, store, similarity_threshold=0.7):
        self.store = store
        self.similarity_threshold = similarity_threshold

    def execute(self, query):
        if isinstance(query, str):
            query = parse_query(query)
        if not isinstance(query, Query):
            raise QueryPlanError("execute() takes TXQL text or a Query")
        self._reject_untranslatable(query)

        binding_lists = [
            self._bind(item) for item in query.from_items
        ]
        variables = query.variables()
        rows = (
            dict(zip(variables, combo))
            for combo in product(*binding_lists)
            if query.where is None
            or _truth(self._eval(query.where, dict(zip(variables, combo))))
        )

        aggregates = [is_aggregate_expr(e) for e in query.select_items]
        if any(aggregates):
            if not all(aggregates):
                raise QueryPlanError(
                    "cannot mix aggregate and non-aggregate SELECT items"
                )
            return self._aggregate(query, rows)
        return self._project(query, rows)

    def _reject_untranslatable(self, query):
        exprs = list(query.select_items)
        if query.where is not None:
            exprs.append(query.where)
        for expr in exprs:
            for node in expr.walk():
                if isinstance(node, FuncCall) and node.name in _UNTRANSLATABLE:
                    raise UnsupportedInStratumError(
                        f"{node.name} needs persistent element identity / "
                        "delta storage, which the stratum store lacks"
                    )
                if isinstance(node, BinOp) and node.op == "==":
                    raise UnsupportedInStratumError(
                        "identity equality (==) needs persistent element "
                        "identifiers, which the stratum store lacks"
                    )

    # -- FROM binding ------------------------------------------------------------

    def _bind(self, item):
        docs = self._resolve_documents(item.url)
        path = Path(item.path) if item.path else None
        bindings = []
        if item.time_spec is EVERY:
            for name in docs:
                for ts, tree in self.store.all_versions(name):
                    bindings.extend(self._bind_tree(tree, path, ts))
            return bindings
        ts = self._resolve_time(item.time_spec)
        for name in docs:
            tree = self.store.snapshot(name, ts)
            if tree is None:
                continue
            doc = self.store.document(name)
            version = doc.version_at(ts)
            bindings.extend(self._bind_tree(tree, path, version.timestamp))
        return bindings

    def _resolve_documents(self, url):
        if any(ch in url for ch in "*?["):
            return [
                name
                for name in self.store.documents(include_deleted=True)
                if fnmatch(name, url)
            ]
        self.store.document(url)  # raises on unknown names
        return [url]

    def _resolve_time(self, time_spec):
        if time_spec is None:
            return self.store.clock.now()
        value = self._eval(time_spec, {})
        if not isinstance(value, int):
            raise QueryPlanError("time qualifier must be a timestamp")
        return int(value)

    @staticmethod
    def _bind_tree(tree, path, ts):
        elements = [tree] if path is None else path.select(tree)
        return [_StratumBinding(el, ts) for el in elements]

    # -- expression evaluation -----------------------------------------------------

    def _eval(self, expr, row):
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, DateLiteral):
            return TimestampValue(expr.ts)
        if isinstance(expr, NowLiteral):
            return TimestampValue(self.store.clock.now())
        if isinstance(expr, IntervalLiteral):
            return expr.seconds
        if isinstance(expr, VarPath):
            binding = row[expr.var]
            if not expr.path:
                return binding
            return binding.select(expr.path)
        if isinstance(expr, NotOp):
            return not _truth(self._eval(expr.expr, row))
        if isinstance(expr, FuncCall):
            if expr.name == "TIME":
                binding = self._eval(expr.args[0], row)
                if not isinstance(binding, _StratumBinding):
                    raise QueryPlanError("TIME expects a bound variable")
                return TimestampValue(binding.timestamp)
            if expr.name == "DOCTIME":
                binding = self._eval(expr.args[0], row)
                if not isinstance(binding, _StratumBinding):
                    raise QueryPlanError("DOCTIME expects a bound variable")
                from repro.warehouse.doctime import extract_document_time

                ts = extract_document_time(binding.tree)
                return TimestampValue(ts) if ts is not None else None
            if expr.name == "SIMILARITY":
                left = _node(_first(self._eval(expr.args[0], row)))
                right = _node(_first(self._eval(expr.args[1], row)))
                from repro.equality.similarity import similarity

                return similarity(left, right)
            if expr.name == "EXISTS":
                return _truth(self._eval(expr.args[0], row))
            raise QueryPlanError(f"unknown function {expr.name}")
        if isinstance(expr, BinOp):
            return self._binop(expr, row)
        raise QueryPlanError(f"cannot evaluate {type(expr).__name__}")

    def _binop(self, expr, row):
        if expr.op == "AND":
            return _truth(self._eval(expr.left, row)) and _truth(
                self._eval(expr.right, row)
            )
        if expr.op == "OR":
            return _truth(self._eval(expr.left, row)) or _truth(
                self._eval(expr.right, row)
            )
        if expr.op in ("+", "-"):
            left = _scalar(self._eval(expr.left, row))
            right = _scalar(self._eval(expr.right, row))
            if not isinstance(left, (int, float)) or not isinstance(
                right, (int, float)
            ):
                return None
            return left + right if expr.op == "+" else left - right
        left = self._eval(expr.left, row)
        right = self._eval(expr.right, row)
        for lhs in _expand(left):
            for rhs in _expand(right):
                if self._compare(expr.op, lhs, rhs):
                    return True
        return False

    def _compare(self, op, left, right):
        if left is None or right is None:
            return False
        if op == "~":
            return similar(
                _node(left), _node(right), self.similarity_threshold
            )
        if op == "=":
            return value_equal(_node(left), _node(right))
        if op == "!=":
            return not value_equal(_node(left), _node(right))
        lhs = _scalar(left)
        rhs = _scalar(right)
        both_numeric = isinstance(lhs, (int, float)) and isinstance(
            rhs, (int, float)
        )
        both_text = isinstance(lhs, str) and isinstance(rhs, str)
        if not (both_numeric or both_text):
            return False
        if op == "<":
            return lhs < rhs
        if op == "<=":
            return lhs <= rhs
        if op == ">":
            return lhs > rhs
        if op == ">=":
            return lhs >= rhs
        raise QueryPlanError(f"unknown comparison {op!r}")

    # -- result building ---------------------------------------------------------------

    def _project(self, query, rows):
        columns = [item.label() for item in query.select_items]
        out = []
        seen = set()
        for row in rows:
            values = {}
            for label, item in zip(columns, query.select_items):
                value = self._eval(item, row)
                if isinstance(value, _StratumBinding):
                    value = value.tree
                if isinstance(value, list):
                    value = [
                        v.tree if isinstance(v, _StratumBinding) else v
                        for v in value
                    ]
                values[label] = value
            if query.distinct:
                key = tuple(_render_key(values[c]) for c in columns)
                if key in seen:
                    continue
                seen.add(key)
            out.append(values)
        return ResultSet(columns, out)

    def _aggregate(self, query, rows):
        columns = [item.label() for item in query.select_items]
        specs = []
        for item in query.select_items:
            if not (isinstance(item, FuncCall) and item.name in AGGREGATES):
                raise QueryPlanError("aggregates must be top-level")
            specs.append((item.name, item.args[0]))
        accumulators = [[] for _ in specs]
        for row in rows:
            for acc, (_name, arg) in zip(accumulators, specs):
                value = self._eval(arg, row)
                if isinstance(value, _StratumBinding):
                    value = value.tree
                acc.extend(_aggregatable(value))
        values = {
            label: finish_aggregate(name.lower(), acc)
            for label, (name, _arg), acc in zip(columns, specs, accumulators)
        }
        return ResultSet(columns, [values])


# -- small helpers --------------------------------------------------------------------


def _truth(value):
    if value is None:
        return False
    if isinstance(value, list):
        return bool(value)
    if isinstance(value, _StratumBinding):
        return True
    return bool(value)


def _expand(value):
    return value if isinstance(value, list) else [value]


def _first(value):
    if isinstance(value, list):
        return value[0] if value else None
    return value


def _node(value):
    if isinstance(value, _StratumBinding):
        return value.tree
    return value


def _scalar(value):
    value = _first(value)
    if value is None:
        return None
    if isinstance(value, TimestampValue):
        return value
    return coerce_scalar(_node(value))


def _render_key(value):
    from repro.xmlcore.serializer import serialize

    if isinstance(value, list):
        return tuple(_render_key(v) for v in value)
    if isinstance(value, Element):
        return serialize(value)
    return value
