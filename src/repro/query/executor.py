"""Query execution: ``execute`` = parse → ``rewrite`` → ``plan`` → ``run``.

:meth:`QueryEngine.plan` turns a rewritten query into a
:class:`~repro.query.optimizer.QueryPlan` — plain data holding every
decision: conjunct order, one
:class:`~repro.query.optimizer.FromItemPlan` per FROM item (strategy,
pattern, snapshot instant or version range, lookup bounds), prefilters,
materialization order, the validated output stage and the limit.
:meth:`QueryEngine.run` executes that value as one pipeline of the
iterator operators in :mod:`repro.operators.relational` — scans → ``Join``
→ ``Select`` → ``Project`` [→ ``Distinct`` | → ``Coalesce``] or
``GroupedAggregate`` → limit — and asks the optimizer for nothing.
``EXPLAIN`` prints the same value (``plan.describe()`` /
``plan.render()``); ``EXPLAIN ANALYZE`` is ``execute`` under a tracer,
one span per stage under the names EXPLAIN prints.

Results are delivered as a :class:`ResultSet`, which renders to the
``<results><result>...`` envelope the paper assumes ("the results of an
outer query is delivered as default in a document with enclosing tags named
results"), or as plain Python rows for programmatic use.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import islice

from ..clock import Interval, bucket_spans
from ..equality.value import coerce_scalar
from ..errors import NoSuchDocumentError, QueryPlanError
from ..index.stats import JoinStats
from ..obs import (
    NULL_TRACER,
    ExplainAnalyzeReport,
    MetricsRegistry,
    PlanReport,
    Tracer,
)
from ..operators.relational import (
    INTERVAL_KEY,
    Coalesce,
    Distinct,
    GroupedAggregate,
    Join,
    Project,
    Select,
)
from ..xmlcore.node import Element, Text
from ..xmlcore.serializer import serialize
from .ast import (
    AGGREGATES,
    FuncCall,
    Query,
    VarPath,
    bucket_call,
    is_aggregate_expr,
)
from .functions import Evaluator
from .optimizer import FromItemPlan, Optimizer, QueryPlan
from .parser import parse_query
from .planner import bind_planned
# Not called by the engine (rewrite() desugars first); re-exported because
# stage compositions that skip the rewriter import it from here.
from .rewriter import desugar, rewrite  # noqa: F401
from .values import (
    BoundElement,
    NodeValue,
    SnapshotCache,
    TimestampValue,
    as_node,
)


class ResultSet:
    """Materialized query results: named columns, plain-value rows.

    ``stats`` carries this execution's registry delta (the per-query
    counters), attached by :meth:`QueryEngine.execute` — returned with the
    result rather than only parked on the engine, so concurrently executing
    queries each keep their own numbers."""

    def __init__(self, columns, rows):
        self.columns = columns
        self.rows = rows
        self.stats = None

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def scalars(self, column=None):
        """All values of one column (default: the only column)."""
        name = column if column is not None else self._single_column()
        return [row[name] for row in self.rows]

    def scalar(self, column=None):
        """The single value of a single-row result (aggregates)."""
        values = self.scalars(column)
        if len(values) != 1:
            raise QueryPlanError(
                f"scalar() on a result with {len(values)} rows"
            )
        return values[0]

    def _single_column(self):
        if len(self.columns) != 1:
            raise QueryPlanError("result has more than one column")
        return self.columns[0]

    def to_xml(self):
        """The ``<results><result>...`` envelope of Section 5."""
        envelope = Element("results")
        for row in self.rows:
            result = Element("result")
            for name in self.columns:
                result.append(_render_value(name, row[name]))
            envelope.append(result)
        return envelope

    def to_xml_string(self, indent=2):
        return serialize(self.to_xml(), indent=indent)

    def __str__(self):
        """Plain-text table (used by the benchmark harness printouts)."""
        headers = list(self.columns)
        table = [
            [_plain_text(row[name]) for name in headers] for row in self.rows
        ]
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in table), 1)
            if table
            else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for row in table:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)


class QueryEngine:
    """Executes TXQL against a store and its indexes.

    ``fti`` and ``lifetime`` are optional: without an FTI every FROM item
    plans as a navigational scan, without a lifetime index CREATE TIME /
    DELETE TIME raise :class:`~repro.errors.QueryPlanError`."""

    def __init__(self, store, fti=None, lifetime=None, tracer=None):
        self.store = store
        self.fti = fti
        self.lifetime = lifetime
        self._evaluator = Evaluator(self)
        #: Materialization cache of the query being executed (a fresh one
        #: per run() call; bindings keep a reference, so results stay valid
        #: after the call returns).
        self.active_cache = SnapshotCache(store)
        #: Cumulative join-engine counters across this engine's index scans
        #: (surfaced alongside the FTI's ``stats``; diffable per query through
        #: :attr:`registry`).
        self.join_stats = JoinStats()
        #: The cost-based planner: statistics, plan enumeration, conjunct
        #: ordering, and the per-call lifetime decision all live here.
        self.optimizer = Optimizer(self)
        #: Every counter source in this engine, under one snapshot/delta
        #: protocol (see :mod:`repro.obs.registry`).
        self.registry = MetricsRegistry()
        self._register_metric_sources()
        #: Registry deltas of the most recent ``execute()`` call.  Kept for
        #: convenience on this engine; the same object is attached to the
        #: returned ``ResultSet.stats``, which is the race-free way to read
        #: per-query costs when engines are shared or queries interleave.
        self.last_query_stats = None
        #: Snapshot-isolation pin (a commit timestamp) or ``None``.  When
        #: set — by a serving :class:`~repro.serving.session.Session` — the
        #: engine evaluates every query *as of* that instant: ``NOW`` is the
        #: pin, EVERY scans stop at it, and CURRENT/NEXT/DELETE TIME do not
        #: see past it, so results match a store quiesced at the pin.
        self.pinned_now = None
        self.tracer = NULL_TRACER
        if tracer is not None:
            self.attach_tracer(tracer)

    def _register_metric_sources(self):
        registry = self.registry
        repo = self.store.repository
        registry.register("store", repo.counter_snapshot)
        registry.register("anchors", repo.anchor_stats)
        if self.fti is not None:
            registry.register(self.fti.metrics_label, self.fti.stats)
        if self.lifetime is not None:
            registry.register(self.lifetime.metrics_label,
                              self.lifetime.stats)
        registry.register("join", self.join_stats)
        registry.register(self.optimizer.metrics_label,
                          self.optimizer.counters)

    # -- tracing --------------------------------------------------------------------

    def attach_tracer(self, tracer):
        """Trace subsequent queries; binds the tracer to this registry."""
        if getattr(tracer, "enabled", False):
            tracer.registry = self.registry
        self.tracer = tracer
        return tracer

    def detach_tracer(self):
        self.tracer = NULL_TRACER

    # -- time context ------------------------------------------------------------

    def now(self):
        if self.pinned_now is not None:
            return self.pinned_now
        return self.store.clock.now()

    def horizon_start(self):
        """Lower bound for EVERY scans (before any stored version)."""
        from ..clock import BEFORE_TIME

        return BEFORE_TIME + 1

    def horizon_end(self):
        """Exclusive upper bound for EVERY scans.

        A pinned engine stops just past the pin so versions committed
        after it are invisible; versions committed *at* the pin are in."""
        if self.pinned_now is not None:
            return self.pinned_now + 1
        from ..clock import UNTIL_CHANGED

        return UNTIL_CHANGED - 1

    def resolve_time(self, time_spec):
        """Timestamp of a FROM qualifier (``None`` = current time)."""
        if time_spec is None:
            return self.now()
        for node in time_spec.walk():
            if isinstance(node, VarPath):
                raise QueryPlanError(
                    "a FROM time qualifier cannot reference a variable "
                    f"({node.label()})"
                )
        value = self._evaluator.eval(time_spec, {})
        if not isinstance(value, int):
            raise QueryPlanError(
                f"time qualifier did not evaluate to a timestamp: {value!r}"
            )
        return int(value)

    # -- planning -----------------------------------------------------------------

    def plan(self, query, windows):
        """Decide how a rewritten query runs; returns the
        :class:`~repro.query.optimizer.QueryPlan`.

        ``query, windows`` is what :func:`~repro.query.rewriter.rewrite`
        (or :func:`~repro.query.rewriter.desugar`) returned.  All
        validation happens here — time qualifiers, aggregate / GROUP BY /
        COALESCE legality and arity — so EXPLAIN rejects exactly what
        ``execute`` rejects.  An unknown document is the one error kept
        *in* the plan (``strategy: "error"``) for EXPLAIN to print;
        :meth:`run` raises it.
        """
        optimizer = self.optimizer
        where = optimizer.order_conjuncts(query.where)
        items = []
        for item in query.from_items:
            try:
                items.append(optimizer.plan_from_item(
                    item, where, window=windows.get(item.var)
                ))
            except NoSuchDocumentError:
                items.append(FromItemPlan(
                    item, [], "error",
                    reason=f"unknown document {item.url!r}",
                ))
        return QueryPlan(
            query=query,
            where=where,
            items=items,
            prefilters=optimizer.prefilter_map(query.variables(), where),
            materialization_order=optimizer.materialization_order(items),
            limit=query.limit,
            **_output_stage(query),
        )

    def _planned(self, query):
        """parse → rewrite → plan: the front half of :meth:`execute`."""
        if isinstance(query, str):
            query = parse_query(query)
        with self.tracer.span("Rewrite"):
            query, windows = rewrite(query, now=self.now())
        with self.tracer.span("Plan"):
            return self.plan(query, windows)

    def explain(self, query):
        """Describe the plan for a query without executing it: the list
        of per-FROM-item dicts of
        :meth:`QueryPlan.describe <repro.query.optimizer.QueryPlan.describe>`
        (``explain_text`` renders the whole plan, stages included)."""
        return self._planned(query).describe()

    def explain_text(self, query):
        """Human-readable plan: the pipeline stages, then per FROM item
        the chosen scan, its estimates, and the priced alternatives the
        optimizer rejected."""
        return self._planned(query).render()

    # -- execution ------------------------------------------------------------------

    def execute(self, query):
        """Run a query (TXQL text or parsed AST); returns a ResultSet.

        An ``EXPLAIN`` query returns a :class:`~repro.obs.PlanReport`
        instead; ``EXPLAIN ANALYZE`` returns an
        :class:`~repro.obs.ExplainAnalyzeReport` (executed under a tracer).
        """
        if isinstance(query, str):
            query = parse_query(query)
        if not isinstance(query, Query):
            raise QueryPlanError("execute() takes TXQL text or a Query")
        if query.explain is not None:
            stripped = replace(query, explain=None)
            if query.explain == "analyze":
                return self.explain_analyze(stripped)
            plan = self._planned(stripped)
            return PlanReport(stripped.label(), plan.describe(),
                              plan.render())

        before = self.registry.snapshot()
        with self.tracer.span("Query", query=query.label(),
                              limit=query.limit):
            result = self.run(self._planned(query))
        stats = MetricsRegistry.delta(before, self.registry.snapshot())
        result.stats = stats
        self.last_query_stats = stats
        return result

    def explain_analyze(self, query):
        """Execute under a fresh tracer; returns the per-operator report."""
        if isinstance(query, str):
            query = parse_query(query)
        if query.explain is not None:
            query = replace(query, explain=None)
        tracer = Tracer(self.registry)
        saved = self.tracer
        self.tracer = tracer
        try:
            result = self.execute(query)
        finally:
            self.tracer = saved
        return ExplainAnalyzeReport(query.label(), result, tracer.roots[0])

    def run(self, plan):
        """Execute a :class:`~repro.query.optimizer.QueryPlan`.

        One lazy pipeline: the scans feed the :class:`Join` (first FROM
        item streamed, so LIMIT stops its scan mid-flight; the rest
        prefiltered and materialized in plan order), then every stage
        ``plan.stages()`` lists — the lines EXPLAIN prints — is stacked on
        top, producer first, each under a span of that name.
        """
        for item in plan.items:
            if item.strategy == "error":
                raise NoSuchDocumentError(f"query references {item.reason}")
        evaluator = self._evaluator
        self.active_cache = SnapshotCache(self.store)

        sources = {
            item.item.var: bind_planned(self, item) for item in plan.items
        }
        variables = list(sources)
        rows = Join(
            sources,
            prefilters={
                variable: _all_hold(evaluator, conjuncts)
                for variable, conjuncts in plan.prefilters.items()
            },
            order=[variables[i] for i in plan.materialization_order],
        )
        stage = {
            # The product above; it gets a span when the plan lists it.
            "Join": lambda rows: rows,
            "Filter": lambda rows: Select(
                rows, lambda row: evaluator.predicate(plan.where, row)
            ),
            "Project": lambda rows: Project(rows, self._select_columns(plan)),
            "Distinct": lambda rows: Distinct(rows, key=lambda values: tuple(
                _distinct_key(value) for value in values.values()
            )),
            "Coalesce": lambda rows: _valid_column(Coalesce(rows)),
            "Aggregate": lambda rows: self._aggregated(plan, rows),
            "GroupBy": lambda rows: self._aggregated(plan, rows),
            "Limit": lambda rows: islice(rows, plan.limit),
        }
        for name, _detail in reversed(plan.stages()):
            rows = self.tracer.traced_iter(name, stage[name](rows))
        return ResultSet(list(plan.columns), list(rows))

    def _select_columns(self, plan):
        """``Project`` columns: the SELECT items, plus — under COALESCE —
        the row's validity interval for :class:`Coalesce` to merge."""
        columns = {
            label: _evaluating(self._evaluator, item)
            for label, item in zip(plan.columns, plan.query.select_items)
        }
        if plan.output == "Coalesce":
            columns[INTERVAL_KEY] = _row_interval
        return columns

    def _aggregated(self, plan, rows):
        """The aggregate output stage: one
        :class:`~repro.operators.relational.GroupedAggregate`, global
        (no keys, one row even over empty input) or grouped, with
        temporal bucket calls expanding each row over the calendar
        buckets its validity overlaps.  ``SELECT DISTINCT`` with
        aggregates has SQL ``COUNT(DISTINCT ...)`` semantics: within each
        group, only the first row per distinct tuple of aggregate
        arguments contributes.
        """
        evaluator = self._evaluator
        keys = {}
        for label, expr in plan.group_keys.items():
            bucket = bucket_call(expr)
            if bucket is not None:
                unit, _var = bucket
                keys[label] = lambda row, u=unit: self._bucket_values(u, row)
            else:
                keys[label] = _evaluating(evaluator, expr)
        specs = {
            label: (
                name.lower(),
                lambda row, a=arg: _aggregatable(evaluator.eval(a, row)),
            )
            for label, (name, arg) in plan.aggregates.items()
        }
        distinct_key = None
        if plan.query.distinct and plan.aggregates:
            arguments = [arg for _name, arg in plan.aggregates.values()]

            def distinct_key(row):
                return tuple(
                    _distinct_key(evaluator.eval(arg, row))
                    for arg in arguments
                )

        for group in GroupedAggregate(rows, keys, specs,
                                      distinct_key=distinct_key):
            yield {label: group[label] for label in plan.columns}

    def _bucket_values(self, unit, row):
        """Bucket starts of every calendar bucket the row's validity
        overlaps (the GROUP BY expansion of ``MONTH(R)`` & co.).

        Open intervals clip at ``now + 1`` so the expansion stays finite.
        Every binding carries its version's interval, so a snapshot row
        falls in the buckets its version overlaps; a joined row whose
        intervals never overlap falls in none.
        """
        interval = _row_interval(row)
        if interval is None:
            return []
        end = min(interval.end, self.now() + 1)
        return [
            TimestampValue(start)
            for start, _stop in bucket_spans(interval.start, end, unit)
        ]


# -- pipeline helpers ---------------------------------------------------------------


def _output_stage(query):
    """Validate the SELECT list against GROUP BY / COALESCE and name the
    output stage: the ``output`` / ``columns`` / ``aggregates`` /
    ``group_keys`` fields of the :class:`QueryPlan`.

    Without GROUP BY every SELECT item must be an aggregate (or none is);
    with it, the non-aggregate SELECT items must repeat grouping
    expressions.
    """
    columns = [item.label() for item in query.select_items]
    if query.group_by is None and not any(
        is_aggregate_expr(item) for item in query.select_items
    ):
        if query.coalesce:
            return {"output": "Coalesce", "columns": columns + ["VALID"]}
        return {"output": "Project", "columns": columns}
    if query.coalesce:
        raise QueryPlanError(
            "COALESCE cannot be combined with aggregates or GROUP BY"
        )
    group_keys = {expr.label(): expr for expr in query.group_by or ()}
    aggregates = {}
    for item, label in zip(query.select_items, columns):
        if isinstance(item, FuncCall) and item.name in AGGREGATES:
            if len(item.args) != 1:
                raise QueryPlanError(
                    f"{item.name} takes exactly one argument"
                )
            aggregates[label] = (item.name, item.args[0])
        elif is_aggregate_expr(item):
            raise QueryPlanError("aggregates must be top-level SELECT items")
        elif not group_keys:
            raise QueryPlanError(
                "cannot mix aggregate and non-aggregate SELECT items"
            )
        elif label not in group_keys:
            raise QueryPlanError(
                f"SELECT item {label} must be an aggregate or appear "
                "in GROUP BY"
            )
    return {
        "output": "GroupBy" if query.group_by is not None else "Aggregate",
        "columns": columns,
        "aggregates": aggregates,
        "group_keys": group_keys,
    }


def _evaluating(evaluator, expr):
    """``row -> value of expr`` (a Project column / grouping key)."""
    return lambda row: evaluator.eval(expr, row)


def _all_hold(evaluator, conjuncts):
    """``row -> do all conjuncts hold`` (a Join prefilter)."""
    return lambda row: all(evaluator.predicate(c, row) for c in conjuncts)


def _valid_column(rows):
    """SELECT COALESCE delivers each merged interval as a trailing
    ``VALID`` column (``None`` for joined rows whose bindings were never
    valid together — those keep their multiplicity)."""
    for row in rows:
        row["VALID"] = row.pop(INTERVAL_KEY, None)
        yield row


# -- aggregation helpers ------------------------------------------------------------


def _row_interval(row):
    """Intersection of the row's binding validity intervals (every binding
    carries its version's); ``None`` when they never overlap — the row
    was never simultaneously valid."""
    interval = None
    for binding in row.values():
        if interval is None:
            interval = binding.interval
        else:
            interval = interval.intersect(binding.interval)
            if interval is None:
                return None
    return interval


def _aggregatable(value):
    """Flatten one row's contribution to an aggregate into scalar values.

    A bare variable binding contributes the sentinel ``1`` *without
    materializing its tree* — this is the reading under which the paper's
    Q2 (``SELECT SUM(R)`` to "retrieve the number of restaurants") is
    well-typed AND needs no document reconstruction ("this is important,
    and shows that in many cases the storage of only deltas ... does not
    create performance problems").  Path-selected values (``SUM(R/price)``)
    coerce numerically.
    """
    if value is None:
        return []
    if isinstance(value, list):
        out = []
        for item in value:
            out.extend(_aggregatable(item))
        return out
    if isinstance(value, BoundElement):
        return [1]
    if isinstance(value, NodeValue):
        scalar = coerce_scalar(as_node(value))
        return [scalar if isinstance(scalar, (int, float)) else 1]
    if isinstance(value, (int, float)):
        return [value]
    scalar = coerce_scalar(value)
    return [scalar if isinstance(scalar, (int, float)) else 1]


# -- rendering helpers -----------------------------------------------------------------


def _render_value(label, value):
    holder = Element("value", {"of": label})
    _render_into(holder, value)
    if (
        len(holder.children) == 1
        and isinstance(holder.children[0], Element)
    ):
        # A single element result is delivered directly (paper examples show
        # the selected element inside <result> without extra wrapping).
        return holder.children[0]
    return holder


def _render_into(holder, value):
    if value is None:
        return
    if isinstance(value, list):
        for item in value:
            _render_into(holder, item)
        return
    if isinstance(value, BoundElement):
        holder.append(value.tree.copy())
        return
    if isinstance(value, NodeValue):
        holder.append(value.node.copy())
        return
    if isinstance(value, Element):
        holder.append(value.copy())
        return
    if isinstance(value, Text):
        holder.append(value.copy())
        return
    holder.append(Text(str(value)))


def _plain_text(value):
    if value is None:
        return ""
    if isinstance(value, list):
        return ", ".join(_plain_text(v) for v in value)
    if isinstance(value, (BoundElement, NodeValue)):
        node = as_node(value)
        if isinstance(node, Element):
            return serialize(node)
        return node.value
    if isinstance(value, Element):
        return serialize(value)
    if isinstance(value, (TimestampValue, Interval)):
        return str(value)
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _distinct_key(value):
    if isinstance(value, list):
        return tuple(_distinct_key(v) for v in value)
    if isinstance(value, (BoundElement, NodeValue)):
        node = as_node(value)
        return serialize(node) if isinstance(node, Element) else node.value
    if isinstance(value, Element):
        return serialize(value)
    return value
