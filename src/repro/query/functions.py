"""Expression evaluation: functions, comparisons, time arithmetic.

The :class:`Evaluator` walks TXQL expression trees against one binding row
(``{variable: BoundElement}``).  The three comparison regimes of Section
7.4 live here:

* ``=``  — value equality with numeric coercion (deep for node pairs),
* ``==`` — persistent-identifier (EID) equality,
* ``~``  — the similarity operator (threshold:
  :data:`repro.equality.similarity.DEFAULT_THRESHOLD`).

Comparisons over node-sets use existential semantics: ``R/price < 10`` is
true when *some* selected price is below 10, matching the semistructured
query languages the paper builds on.
"""

from __future__ import annotations

from ..clock import Interval, bucket_floor
from ..equality.similarity import similar, similarity
from ..equality.value import coerce_scalar, value_equal
from ..errors import QueryPlanError
from ..operators.diffop import Diff
from ..operators.lifetime import CreTime, DelTime
from ..operators.navigation import current_teid, next_teid, previous_teid
from ..xmlcore.node import Element
from .ast import (
    AGGREGATES,
    BinOp,
    DateLiteral,
    FuncCall,
    IntervalLiteral,
    Literal,
    NotOp,
    NowLiteral,
    PathApply,
    VarPath,
)
from .values import (
    BoundElement,
    NodeValue,
    TimestampValue,
    as_node,
    expand,
    truth,
)

_ORDERED_OPS = {"<", "<=", ">", ">="}


class Evaluator:
    """Evaluates expressions for one query engine configuration."""

    def __init__(self, engine):
        self.engine = engine

    # -- entry point -------------------------------------------------------------

    def eval(self, expr, row):
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, DateLiteral):
            return TimestampValue(expr.ts)
        if isinstance(expr, NowLiteral):
            return TimestampValue(self.engine.now())
        if isinstance(expr, IntervalLiteral):
            return expr.seconds
        if isinstance(expr, VarPath):
            return self._var_path(expr, row)
        if isinstance(expr, FuncCall):
            return self._call(expr, row)
        if isinstance(expr, BinOp):
            return self._binop(expr, row)
        if isinstance(expr, NotOp):
            return not truth(self.eval(expr.expr, row))
        if isinstance(expr, PathApply):
            return self._path_apply(expr, row)
        raise QueryPlanError(f"cannot evaluate {type(expr).__name__}")

    def predicate(self, expr, row):
        return truth(self.eval(expr, row))

    # -- variables and paths --------------------------------------------------------

    def _path_apply(self, expr, row):
        base = self.eval(expr.base, row)
        if base is None:
            return []
        if isinstance(base, BoundElement):
            return base.select(expr.path)
        if isinstance(base, NodeValue):
            from ..xmlcore.path import Path

            return [
                NodeValue(base.doc_id, node)
                for node in Path(expr.path).select(base.node)
            ]
        raise QueryPlanError(
            f"cannot apply a path to {type(base).__name__}"
        )

    def _var_path(self, expr, row):
        bound = row[expr.var]
        if not expr.path:
            return bound
        return bound.select(expr.path)

    # -- functions ---------------------------------------------------------------------

    def _call(self, expr, row):
        name = expr.name
        if name in AGGREGATES:
            raise QueryPlanError(
                f"aggregate {name} is only allowed at the top of a SELECT item"
            )
        handler = getattr(self, f"_fn_{name.lower()}", None)
        if handler is None:
            raise QueryPlanError(f"unknown function {name}")
        return handler(expr.args, row)

    def _bound_arg(self, args, row, fn_name):
        if len(args) != 1:
            raise QueryPlanError(f"{fn_name} takes exactly one argument")
        value = self.eval(args[0], row)
        if not isinstance(value, BoundElement):
            raise QueryPlanError(
                f"{fn_name} expects a bound variable, got {type(value).__name__}"
            )
        return value

    def _fn_time(self, args, row):
        """TIME(R): the timestamp of the element version."""
        return TimestampValue(self._bound_arg(args, row, "TIME").teid.timestamp)

    def _fn_create_time(self, args, row):
        bound = self._bound_arg(args, row, "CREATE TIME")
        operator = CreTime(
            self.engine.store,
            bound.teid,
            strategy=self.engine.optimizer.lifetime_strategy_for(bound.teid),
            lifetime_index=self.engine.lifetime,
            tracer=self.engine.tracer,
        )
        return TimestampValue(operator.value())

    def _fn_delete_time(self, args, row):
        bound = self._bound_arg(args, row, "DELETE TIME")
        operator = DelTime(
            self.engine.store,
            bound.teid,
            strategy=self.engine.optimizer.lifetime_strategy_for(bound.teid),
            lifetime_index=self.engine.lifetime,
            tracer=self.engine.tracer,
        )
        ts = operator.value()
        # Under a snapshot pin a deletion that happened after the pin has
        # not happened yet from this query's point of view.
        pin = self.engine.pinned_now
        if pin is not None and ts is not None and ts > pin:
            ts = None
        return TimestampValue(ts) if ts is not None else None

    def _fn_doctime(self, args, row):
        """DOCTIME(R): the document time embedded in the element's metadata
        (Section 3.1's third time aspect); None when the version carries
        none."""
        from ..warehouse.doctime import extract_document_time

        bound = self._bound_arg(args, row, "DOCTIME")
        ts = extract_document_time(bound.tree)
        return TimestampValue(ts) if ts is not None else None

    def _fn_previous(self, args, row):
        bound = self._bound_arg(args, row, "PREVIOUS")
        teid = previous_teid(self.engine.store, bound.teid)
        return self._navigate(bound, teid)

    def _fn_next(self, args, row):
        bound = self._bound_arg(args, row, "NEXT")
        teid = next_teid(self.engine.store, bound.teid)
        pin = self.engine.pinned_now
        if pin is not None and teid is not None and teid.timestamp > pin:
            teid = None  # the successor version is after the snapshot pin
        return self._navigate(bound, teid)

    def _fn_current(self, args, row):
        bound = self._bound_arg(args, row, "CURRENT")
        pin = self.engine.pinned_now
        if pin is None:
            teid = current_teid(self.engine.store, bound.eid)
        else:
            teid = self._pinned_current_teid(bound.eid, pin)
        return self._navigate(bound, teid)

    def _pinned_current_teid(self, eid, pin):
        """CURRENT as of the snapshot pin: the element's version in the
        document version valid at the pin (None when either is gone)."""
        store = self.engine.store
        entry = store.delta_index(eid.doc_id).version_at(pin)
        if entry is None:
            return None
        tree = self.engine.active_cache.document_at(eid.doc_id, pin)
        if tree is None or tree.find_by_xid(eid.xid) is None:
            return None
        from ..model.identifiers import TEID

        return TEID(eid.doc_id, eid.xid, entry.timestamp)

    def _navigate(self, bound, teid):
        if teid is None:
            return None
        dindex = self.engine.store.delta_index(teid.doc_id)
        entry = dindex.version_at(teid.timestamp)
        interval = Interval(entry.timestamp, dindex.end_of(entry))
        target = BoundElement(
            self.engine.store, teid, interval,
            cache=self.engine.active_cache,
        )
        # The element may not exist in the navigated-to version.
        if target.try_tree() is None:
            return None
        return target

    def _fn_diff(self, args, row):
        if len(args) != 2:
            raise QueryPlanError("DIFF takes exactly two arguments")
        first = self._diff_operand(args[0], row)
        second = self._diff_operand(args[1], row)
        if first is None or second is None:
            return None
        return Diff(self.engine.store).run(first, second)

    def _diff_operand(self, expr, row):
        value = self.eval(expr, row)
        if isinstance(value, list):
            value = value[0] if value else None
        if value is None:
            return None
        node = as_node(value)
        if not isinstance(node, Element):
            raise QueryPlanError("DIFF operands must be elements")
        return node

    def _fn_similarity(self, args, row):
        if len(args) != 2:
            raise QueryPlanError("SIMILARITY takes exactly two arguments")
        left = as_node(_first(self.eval(args[0], row)))
        right = as_node(_first(self.eval(args[1], row)))
        if left is None or right is None:
            return None
        return similarity(left, right)

    def _fn_exists(self, args, row):
        if len(args) != 1:
            raise QueryPlanError("EXISTS takes exactly one argument")
        return truth(self.eval(args[0], row))

    # -- temporal buckets ---------------------------------------------------------------

    def _bucket(self, unit, args, row):
        """DAY/WEEK/MONTH/YEAR(R): the bucket start of the version time.

        In GROUP BY position the executor expands the call over every
        bucket the row's validity overlaps; evaluated directly it floors
        the version timestamp to its bucket start.
        """
        bound = self._bound_arg(args, row, unit)
        return TimestampValue(bucket_floor(bound.teid.timestamp, unit))

    def _fn_day(self, args, row):
        return self._bucket("DAY", args, row)

    def _fn_week(self, args, row):
        return self._bucket("WEEK", args, row)

    def _fn_month(self, args, row):
        return self._bucket("MONTH", args, row)

    def _fn_year(self, args, row):
        return self._bucket("YEAR", args, row)

    # -- binary operators -------------------------------------------------------------------

    def _binop(self, expr, row):
        op = expr.op
        if op == "AND":
            return (
                truth(self.eval(expr.left, row))
                and truth(self.eval(expr.right, row))
            )
        if op == "OR":
            return (
                truth(self.eval(expr.left, row))
                or truth(self.eval(expr.right, row))
            )
        if op in ("+", "-"):
            return self._arith(op, expr, row)
        if op == "OVERLAPS":
            return self._overlaps(expr, row)
        left = self.eval(expr.left, row)
        right = self.eval(expr.right, row)
        return self._compare(op, left, right)

    def _overlaps(self, expr, row):
        """``X OVERLAPS Y``: do the bindings' validity intervals intersect?

        A binding without an interval (a snapshot binding) is treated as
        unconstrained — it overlaps everything, matching
        :class:`~repro.operators.relational.TemporalJoin`'s pass-through
        for rows that carry no ``__interval__``.
        """
        left = self.eval(expr.left, row)
        right = self.eval(expr.right, row)
        for value in (left, right):
            if not isinstance(value, BoundElement):
                raise QueryPlanError(
                    "OVERLAPS expects bound variables, got "
                    f"{type(value).__name__}"
                )
        if left.interval is None or right.interval is None:
            return True
        return left.interval.overlaps(right.interval)

    def _arith(self, op, expr, row):
        left = _numeric(self.eval(expr.left, row))
        right = _numeric(self.eval(expr.right, row))
        if left is None or right is None:
            return None
        result = left + right if op == "+" else left - right
        if isinstance(left, TimestampValue):
            return TimestampValue(result)
        return result

    def _compare(self, op, left, right):
        for lhs in expand(left):
            for rhs in expand(right):
                if self._atom_compare(op, lhs, rhs):
                    return True
        return False

    def _atom_compare(self, op, left, right):
        if left is None or right is None:
            return False
        if op == "==":
            return self._identity(left, right)
        if op == "~":
            left_node = as_node(left)
            right_node = as_node(right)
            return similar(left_node, right_node)
        if op == "=":
            return value_equal(as_node(left), as_node(right))
        if op == "!=":
            return not value_equal(as_node(left), as_node(right))
        if op in _ORDERED_OPS:
            return _ordered(op, left, right)
        raise QueryPlanError(f"unknown comparison operator {op!r}")

    @staticmethod
    def _identity(left, right):
        left_eid = _eid_of(left)
        right_eid = _eid_of(right)
        if left_eid is None or right_eid is None:
            return False
        return left_eid == right_eid


def _eid_of(value):
    if isinstance(value, BoundElement):
        return value.eid
    if isinstance(value, NodeValue):
        return value.eid
    return None


def _first(value):
    if isinstance(value, list):
        return value[0] if value else None
    return value


def _numeric(value):
    value = _first(value)
    if value is None:
        return None
    if isinstance(value, TimestampValue):
        return value
    scalar = coerce_scalar(as_node(value))
    return scalar if isinstance(scalar, (int, float)) else None


def _ordered(op, left, right):
    lhs = coerce_scalar(as_node(_first(left)))
    rhs = coerce_scalar(as_node(_first(right)))
    numeric = isinstance(lhs, (int, float)) and isinstance(rhs, (int, float))
    textual = isinstance(lhs, str) and isinstance(rhs, str)
    if not (numeric or textual):
        return False
    if op == "<":
        return lhs < rhs
    if op == "<=":
        return lhs <= rhs
    if op == ">":
        return lhs > rhs
    return lhs >= rhs
