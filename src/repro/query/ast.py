"""Abstract syntax for TXQL queries.

Plain dataclasses; every expression node knows how to ``label()`` itself
(the column heading in result sets) and exposes ``walk()`` for the planner's
predicate analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..clock import format_timestamp

#: Sentinel for the EVERY time qualifier.
EVERY = "EVERY"


@dataclass(frozen=True)
class EveryWithin:
    """``[EVERY WITHIN n UNIT]`` — a ``NOW``-relative sequenced window.

    Sugar for an EVERY binding restricted to the versions whose validity
    intersects ``[NOW - seconds, NOW]`` (everything that *was current* at
    some point in the window — TIME() of an included version may predate
    the window).  Desugared before planning into the EVERY sentinel plus a
    :class:`~repro.query.rewriter.TimeWindow`, so it composes with the
    rewriter's ``TIME(R)``-derived windows by intersection and with a
    pinned session's horizon (``NOW`` is the pin).
    """

    seconds: int
    text: str = ""

    def label(self):
        return f"EVERY WITHIN {self.text or f'{self.seconds} SECONDS'}"


class Expr:
    """Base class of all expression nodes."""

    def walk(self):
        """Yield self and all descendant expressions."""
        yield self


@dataclass
class Literal(Expr):
    """String or numeric constant."""

    value: object

    def label(self):
        if isinstance(self.value, str):
            return f'"{self.value}"'
        return str(self.value)


@dataclass
class DateLiteral(Expr):
    """A calendar instant, held as a timestamp."""

    ts: int

    def label(self):
        return format_timestamp(self.ts)


@dataclass
class NowLiteral(Expr):
    """``NOW`` — resolved to the store clock at execution time."""

    def label(self):
        return "NOW"


@dataclass
class IntervalLiteral(Expr):
    """A duration (``14 DAYS``), held in seconds."""

    seconds: int
    text: str = ""

    def label(self):
        return self.text or f"{self.seconds} SECONDS"


@dataclass
class VarPath(Expr):
    """A variable optionally navigated by a path: ``R`` or ``R/price``."""

    var: str
    path: str = ""

    def label(self):
        if not self.path:
            return self.var
        separator = "" if self.path.startswith("/") else "/"
        return f"{self.var}{separator}{self.path}"


@dataclass
class FuncCall(Expr):
    """Function application: TIME, CREATE TIME, PREVIOUS, SUM, DIFF, ..."""

    name: str
    args: list = field(default_factory=list)

    def label(self):
        inner = ", ".join(a.label() for a in self.args)
        return f"{self.name}({inner})"

    def walk(self):
        yield self
        for arg in self.args:
            yield from arg.walk()


@dataclass
class PathApply(Expr):
    """A path applied to a computed expression: ``CURRENT(R)/name``.

    The paper's Section 6.1 example ``SELECT DISTINCT CURRENT(R)/name``
    navigates from a function result; ``base`` is any expression producing
    an element (or None), ``path`` the downward path to apply.
    """

    base: Expr
    path: str

    def label(self):
        separator = "" if self.path.startswith("/") else "/"
        return f"{self.base.label()}{separator}{self.path}"

    def walk(self):
        yield self
        yield from self.base.walk()


@dataclass
class BinOp(Expr):
    """Binary operator: comparisons, AND/OR, time arithmetic."""

    op: str
    left: Expr
    right: Expr

    def label(self):
        return f"{self.left.label()} {self.op} {self.right.label()}"

    def walk(self):
        yield self
        yield from self.left.walk()
        yield from self.right.walk()


@dataclass
class NotOp(Expr):
    expr: Expr

    def label(self):
        return f"NOT {self.expr.label()}"

    def walk(self):
        yield self
        yield from self.expr.walk()


@dataclass
class FromItem:
    """One binding source: ``doc("url")[timespec]/path VAR``.

    ``time_spec`` is ``None`` (current snapshot), the :data:`EVERY`
    sentinel, or an expression evaluating to a timestamp.
    """

    url: str
    time_spec: object
    path: str
    var: str

    def label(self):
        qualifier = ""
        if self.time_spec is EVERY:
            qualifier = "[EVERY]"
        elif self.time_spec is not None:
            qualifier = f"[{self.time_spec.label()}]"
        if self.path:
            separator = "" if self.path.startswith("/") else "/"
            suffix = f"{separator}{self.path}"
        else:
            suffix = ""
        return f'doc("{self.url}"){qualifier}{suffix} {self.var}'


@dataclass
class Query:
    """A full SELECT/FROM/WHERE[/GROUP BY][/LIMIT] query.

    ``limit`` caps the number of result rows; with streaming binding
    enumeration the executor stops the underlying index scan as soon as
    the cap is reached (early exit, not a post-filter).

    ``coalesce`` marks ``SELECT COALESCE``: value-equivalent result rows
    are merged over maximal validity intervals (the sequenced coalescing
    operator); the merged interval is returned as a trailing ``VALID``
    column.

    ``group_by`` is ``None`` or the list of grouping expressions —
    variable paths or the temporal bucket functions
    DAY/WEEK/MONTH/YEAR(R), which expand a row into every calendar bucket
    its validity interval overlaps.

    ``explain`` marks an ``EXPLAIN`` prefix: ``None`` (run normally),
    ``"plan"`` (describe without executing) or ``"analyze"`` (execute
    under a tracer and return the per-operator report).
    """

    select_items: list
    from_items: list
    where: Expr = None
    distinct: bool = False
    limit: int = None
    explain: str = None
    coalesce: bool = False
    group_by: list = None

    def label(self):
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        if self.coalesce:
            parts.append("COALESCE")
        parts.append(", ".join(e.label() for e in self.select_items))
        parts.append("FROM")
        parts.append(", ".join(f.label() for f in self.from_items))
        if self.where is not None:
            parts.append("WHERE")
            parts.append(self.where.label())
        if self.group_by:
            parts.append("GROUP BY")
            parts.append(", ".join(e.label() for e in self.group_by))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        return " ".join(parts)

    def variables(self):
        return [item.var for item in self.from_items]


#: Aggregate function names (checked by parser and executor).
AGGREGATES = frozenset({"SUM", "COUNT", "AVG", "MIN", "MAX"})

#: Temporal bucket functions usable in GROUP BY (and anywhere an
#: expression is allowed, where they evaluate to the bucket start of the
#: binding's version timestamp).
TEMPORAL_BUCKETS = frozenset({"DAY", "WEEK", "MONTH", "YEAR"})

#: Two-word function spellings normalized by the parser.
FUNCTIONS = frozenset(
    {
        "TIME",
        "CREATE_TIME",
        "DELETE_TIME",
        "DOCTIME",
        "PREVIOUS",
        "NEXT",
        "CURRENT",
        "DIFF",
        "SIMILARITY",
        "EXISTS",
    }
) | AGGREGATES | TEMPORAL_BUCKETS


def is_aggregate_expr(expr):
    """True if ``expr`` contains an aggregate call anywhere."""
    return any(
        isinstance(node, FuncCall) and node.name in AGGREGATES
        for node in expr.walk()
    )


def bucket_call(expr):
    """``MONTH(R)``-shaped bucket call → ``(unit, var)``, else ``None``.

    Bucket calls participating in GROUP BY must name a bare bound
    variable — the bucketed quantity is the row's validity interval, and
    only a variable binding carries one.
    """
    if (
        isinstance(expr, FuncCall)
        and expr.name in TEMPORAL_BUCKETS
        and len(expr.args) == 1
        and isinstance(expr.args[0], VarPath)
        and not expr.args[0].path
    ):
        return expr.name, expr.args[0].var
    return None
