"""Cost-based whole-query planning: the decisions behind a :class:`QueryPlan`.

:meth:`QueryEngine.plan <repro.query.executor.QueryEngine.plan>` asks
the :class:`Optimizer` for every decision a query needs and records them
in one plain value, the :class:`QueryPlan` — which EXPLAIN prints,
EXPLAIN ANALYZE traces and ``QueryEngine.run`` executes without asking
the optimizer anything again.  For every FROM item the optimizer
enumerates the executable alternatives (pattern-index scan vs.
navigational scan), prices each with the statistics collected by
:class:`~repro.index.statistics.CorpusStatistics`, and picks the cheapest
(:class:`FromItemPlan`); around the per-item choice it orders WHERE
conjuncts and FROM materialization by estimated selectivity, selects and
ranks pushdown predicates (rarest term first) and bounds history lookups
with the rewriter's time windows.  CREATE TIME / DELETE TIME need no
decision: they read the lifetime index whenever the engine has one
(§7.3.6's "best solution") and walk the delta chain only without it.

The cost model is deliberately small — six weights over counters the
engine already measures (see ``docs/PLANNER.md`` for the calibration
story):

=====================  ======  ==============================================
weight                  value  unit of work
=====================  ======  ==============================================
``COST_POSTING_SCAN``     1.0  one posting examined in an FTI list
``COST_JOIN_PROBE``       1.0  one candidate tested by the structural join
``COST_VERSION_EXPAND``   2.0  one binding expanded from a match interval
``COST_DELTA_READ``      40.0  one delta applied during reconstruction
``COST_ANCHOR_READ``     60.0  one snapshot/current anchor materialized
``COST_ELEMENT_WALK``    0.25  one element visited by a navigational walk
=====================  ======  ==============================================

Posting-scan estimates are *exact* (list lengths and bisect prefixes);
row estimates are upper bounds (the smallest participating posting list).
Every transformation is result-preserving: pushdowns are pre-filters the
WHERE clause re-verifies, windowed lookups are lossless for window-clipped
expansion, conjunct reordering permutes a commutative AND only between
error-barrier conjuncts (ones that can raise keep their relative position,
so error behavior matches the textual order), and prefilters evaluate
exactly the conjuncts the full WHERE would.  Because the plan is a value,
each transformation is checked as its own law: the tests undo one decision
at a time on a :class:`QueryPlan` (textual conjunct order, no prefilters,
first pushdown only, unbounded scans, ...) and assert byte-identical
results.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from ..errors import QueryPlanError
from ..xmlcore.path import Path
from .ast import EVERY, BinOp, FuncCall, Literal, VarPath
from .planner import (
    _build_pattern,
    _conjuncts,
    _pushable_values,
    _resolve_documents,
)
from .rewriter import TimeWindow

# -- cost model weights (abstract units; relative magnitudes matter) -----------

COST_POSTING_SCAN = 1.0
COST_JOIN_PROBE = 1.0
COST_VERSION_EXPAND = 2.0
COST_DELTA_READ = 40.0
COST_ANCHOR_READ = 60.0
COST_ELEMENT_WALK = 0.25


@dataclass
class PlanAlternative:
    """One executable plan for a FROM item, with its estimated price."""

    strategy: str       # "index" | "navigate"
    operator: str       # TPatternScan | TPatternScanAll | NavScan
    cost: float
    est_rows: int
    chosen: bool = False

    def as_dict(self):
        return {
            "strategy": self.strategy,
            "operator": self.operator,
            "cost": round(self.cost, 1),
            "rows": self.est_rows,
            "chosen": self.chosen,
        }


@dataclass
class FromItemPlan:
    """Every decision for one FROM item — what ``bind_planned`` executes
    and what EXPLAIN describes, so the two can never drift."""

    item: object
    doc_ids: list
    strategy: str            # "index" | "navigate" | "empty" | "error"
    operator: str | None = None
    pattern: object = None   # compiled Pattern for index plans
    pushdowns: list = field(default_factory=list)  # [(steps, value), ...]
    #: Cost flip: navigational scan chosen over an eligible index scan.
    #: The bindings are then sorted into the index path's canonical
    #: ``(doc_id, timestamp, xid)`` order, so flipping never reorders rows.
    sorted_nav: bool = False
    window: TimeWindow | None = None
    #: Snapshot items: the instant the time qualifier resolved to.
    timestamp: int | None = None
    #: EVERY items: the half-open timestamp range of the versions bound —
    #: the rewriter window intersected with the engine's scan horizon (a
    #: pinned session bounds history even without a TIME predicate).
    versions: tuple | None = None
    #: EVERY index scans: ``(start, end)`` bounds of the FTI lookups
    #: (``None`` reads the full-history posting lists).
    scan_bounds: tuple | None = None
    est_rows: int | None = None
    cost: float | None = None
    alternatives: list = field(default_factory=list)
    reason: str | None = None

    def describe(self):
        """The EXPLAIN dict for this FROM item."""
        info = {"variable": self.item.var, "source": self.item.label(),
                "strategy": self.strategy}
        if self.strategy in ("empty", "error"):
            info["reason"] = self.reason
            return info
        info["documents"] = len(self.doc_ids)
        if self.strategy == "index":
            info["operator"] = self.operator
            info["pattern"] = [n.term for n in self.pattern.nodes()]
            if self.pushdowns:
                info["pushdown"] = str(self.pushdowns[0][1])
                if len(self.pushdowns) > 1:
                    info["pushdowns"] = [
                        str(value) for _steps, value in self.pushdowns
                    ]
        if self.reason is not None:
            info["reason"] = self.reason
        if self.est_rows is not None:
            info["est_rows"] = self.est_rows
        if self.cost is not None:
            info["est_cost"] = round(self.cost, 1)
        if self.alternatives:
            info["alternatives"] = [a.as_dict() for a in self.alternatives]
        if self.window is not None and self.item.time_spec is EVERY:
            info["window"] = str(self.window)
        return info


@dataclass
class QueryPlan:
    """One query, fully decided: the value EXPLAIN prints, EXPLAIN ANALYZE
    traces and :meth:`QueryEngine.run` executes.

    Plain data — ``dataclasses.replace`` a field and run the result to
    check a single optimizer decision in isolation.
    """

    query: object                # the rewritten Query this plan answers
    where: object                # WHERE with its conjuncts in evaluation order
    items: list                  # one FromItemPlan per FROM item, FROM order
    #: variable -> total single-variable conjuncts evaluated on its
    #: bindings before the FROM product multiplies them.
    prefilters: dict
    #: Indices (into ``items``) of the non-streamed FROM items, in the
    #: order their binding lists are materialized.
    materialization_order: list
    output: str                  # "Project" | "Aggregate" | "GroupBy" | "Coalesce"
    columns: list                # result column labels
    #: SELECT label -> (aggregate NAME, argument expr), in SELECT order.
    aggregates: dict = field(default_factory=dict)
    #: GROUP BY label -> grouping expression.
    group_keys: dict = field(default_factory=dict)
    limit: int | None = None

    def stages(self):
        """The pipeline above the scans, consumer first, as ``(name,
        detail)`` pairs — the lines EXPLAIN prints and, read bottom-up,
        the spans EXPLAIN ANALYZE records after the scans."""
        stages = []
        if self.limit is not None:
            stages.append(("Limit", str(self.limit)))
        if self.output == "Coalesce":
            stages.append(("Coalesce", None))
            stages.append(("Project", ", ".join(self.columns[:-1])))
        elif self.output == "Project":
            if self.query.distinct:
                stages.append(("Distinct", None))
            stages.append(("Project", ", ".join(self.columns)))
        else:
            detail = ", ".join(self.aggregates)
            if self.group_keys:
                detail += " BY " + ", ".join(self.group_keys)
            if self.query.distinct:
                detail = "DISTINCT " + detail
            stages.append((self.output, detail))
        if self.where is not None:
            stages.append(("Filter", self.where.label()))
        if len(self.items) > 1:
            rest = [self.items[i].item.var for i in self.materialization_order]
            detail = f"stream {self.items[0].item.var}; materialize " + (
                ", ".join(rest)
            )
            filtered = [v for v in self.query.variables() if v in self.prefilters]
            if filtered:
                detail += "; prefilter " + ", ".join(filtered)
            stages.append(("Join", detail))
        return stages

    def describe(self):
        """The per-FROM-item EXPLAIN dicts."""
        return [item.describe() for item in self.items]

    def render(self):
        """Human-readable plan: the stages, then per FROM item the chosen
        scan, its estimates, and the priced alternatives it beat."""
        lines = [
            name if detail is None else f"{name}: {detail}"
            for name, detail in self.stages()
        ]
        for info in self.describe():
            lines.append(f"{info['variable']}: {info['source']}")
            lines.append(f"  strategy: {info['strategy']}")
            for key in ("operator", "pattern", "pushdown", "pushdowns",
                        "window", "documents", "reason"):
                if key in info:
                    lines.append(f"  {key}: {info[key]}")
            if "est_rows" in info or "est_cost" in info:
                est = []
                if "est_rows" in info:
                    est.append(f"rows={info['est_rows']}")
                if "est_cost" in info:
                    est.append(f"cost={info['est_cost']}")
                lines.append(f"  estimate: {'  '.join(est)}")
            for alt in info.get("alternatives", ()):
                marker = "*" if alt["chosen"] else " "
                lines.append(
                    f"  {marker} {alt['strategy']} ({alt['operator']}): "
                    f"cost={alt['cost']}  rows={alt['rows']}"
                )
        return "\n".join(lines)


@dataclass
class PlannerCounters:
    """What the optimizer did, under the registry's snapshot protocol."""

    plans: int = 0
    index_chosen: int = 0
    nav_chosen: int = 0
    cost_flips: int = 0          # navigation priced below an eligible index
    pushdowns: int = 0           # predicates compiled into scan patterns
    conjuncts_reordered: int = 0
    from_items_reordered: int = 0


class Optimizer:
    """Plans queries for one :class:`~repro.query.executor.QueryEngine`."""

    metrics_label = "planner"

    def __init__(self, engine):
        from ..index.statistics import CorpusStatistics

        # A proxy, not a reference: the engine owns this optimizer, and a
        # cycle would leave a dropped engine to the cycle collector.
        self.engine = weakref.proxy(engine)
        self.statistics = CorpusStatistics(engine.store, engine.fti)
        self.counters = PlannerCounters()

    # -- per-FROM-item planning ------------------------------------------------

    def plan_from_item(self, item, where, window=None):
        """Enumerate and price the alternatives for one FROM item.

        Raises :class:`~repro.errors.NoSuchDocumentError` for unknown
        non-glob URLs and :class:`~repro.errors.QueryPlanError` for a time
        qualifier that does not resolve to a timestamp.
        """
        engine = self.engine
        self.counters.plans += 1
        if window is not None and window.is_empty:
            return FromItemPlan(item, [], "empty", window=window,
                                reason="rewriter window is empty")
        doc_ids = _resolve_documents(
            engine.store, item.url, as_of=engine.pinned_now
        )
        plan = FromItemPlan(item, doc_ids, "navigate", operator="NavScan",
                            window=window)
        is_every = item.time_spec is EVERY
        if is_every:
            start = engine.horizon_start()
            end = engine.horizon_end()
            if window is not None:
                start = max(start, window.start)
                end = min(end, window.end)
            plan.versions = plan.scan_bounds = (start, end)
        else:
            plan.timestamp = engine.resolve_time(item.time_spec)

        eligible = engine.fti is not None and item.path and "*" not in item.path
        if eligible:
            candidates = _pushable_values(item.var, where)
            plan.pattern, plan.pushdowns, error = self._compile_pattern(
                item, self._rank_pushdowns(candidates), candidates
            )
            if plan.pattern is None:
                eligible = False
                plan.reason = error
            self.counters.pushdowns += len(plan.pushdowns)
        else:
            plan.reason = self._ineligible_reason(item)

        chosen = nav_alt = self._price_nav(plan)
        plan.alternatives.append(nav_alt)
        if eligible:
            chosen = index_alt = self._price_index(plan)
            plan.alternatives.insert(0, index_alt)
            # Flips are restricted to EVERY items: there both strategies
            # share the canonical (doc_id, timestamp, xid) output order, so
            # flipping cannot reorder rows.  Snapshot scans keep the index
            # whenever eligible — their streamed first-emission order has
            # no cheap navigational equivalent.
            if is_every and nav_alt.cost < index_alt.cost:
                chosen = nav_alt
                plan.sorted_nav = True
                self.counters.cost_flips += 1
                plan.reason = (
                    f"cost-based: navigational scan cheaper "
                    f"(est {nav_alt.cost:.0f} vs {index_alt.cost:.0f})"
                )
        chosen.chosen = True
        plan.strategy = chosen.strategy
        plan.operator = chosen.operator
        plan.est_rows = chosen.est_rows
        plan.cost = chosen.cost
        if plan.strategy == "index":
            self.counters.index_chosen += 1
        else:
            self.counters.nav_chosen += 1
        return plan

    def _ineligible_reason(self, item):
        if not item.path:
            return "no path (binds the document root)"
        if "*" in item.path:
            return "wildcard step is not indexable"
        return "no full-text index attached"

    def _rank_pushdowns(self, candidates):
        """Every ``R/path = literal`` conjunct is pushed into the pattern,
        rarest term first, so the join's most selective list leads."""

        def frequency(candidate):
            rarest = self.statistics.rarest_token(candidate[1])
            return rarest[1] if rarest is not None else float("inf")

        return sorted(candidates, key=frequency)

    def _compile_pattern(self, item, pushdowns, candidates):
        """Build the pattern tree; when the full pushdown set does not
        compile, retry with the first textual candidate alone before
        declaring the item unindexable."""
        steps = Path(item.path).steps
        try:
            return _build_pattern(steps, pushdowns), pushdowns, None
        except QueryPlanError as exc:
            if len(pushdowns) > 1:
                try:
                    single = candidates[:1]
                    return _build_pattern(steps, single), single, None
                except QueryPlanError as retry_exc:
                    exc = retry_exc
            return None, [], str(exc)

    # -- alternative pricing -----------------------------------------------------

    def _price_index(self, plan):
        stats = self.statistics
        is_every = plan.versions is not None
        if is_every:
            counts = [
                stats.term_scan_window(node.term, *plan.scan_bounds)
                for node in plan.pattern.nodes()
            ]
        else:
            counts = [
                stats.term_scan_at(node.term, plan.timestamp)
                for node in plan.pattern.nodes()
            ]
        scanned = sum(counts)
        est_rows = min(counts) if counts else 0
        cost = scanned * (COST_POSTING_SCAN + COST_JOIN_PROBE)
        if is_every:
            cost += est_rows * COST_VERSION_EXPAND
        operator = "TPatternScanAll" if is_every else "TPatternScan"
        return PlanAlternative("index", operator, cost, est_rows)

    def _price_nav(self, plan):
        stats = self.statistics
        item = plan.item
        path = Path(item.path) if item.path else None
        cost = 0.0
        rows = 0
        if plan.versions is not None:
            for doc_id in plan.doc_ids:
                versions = stats.versions_between(doc_id, *plan.versions)
                if not versions:
                    continue
                elements = stats.element_count(doc_id)
                cost += (
                    COST_ANCHOR_READ
                    + (versions - 1) * COST_DELTA_READ
                    + versions * elements * COST_ELEMENT_WALK
                )
                rows += versions * stats.path_count(doc_id, path)
        else:
            ts = plan.timestamp
            for doc_id in plan.doc_ids:
                if not stats.versions_between(doc_id, ts, ts + 1):
                    continue
                elements = stats.element_count(doc_id)
                cost += (
                    COST_ANCHOR_READ
                    + stats.delta_chain_depth(doc_id, ts) * COST_DELTA_READ
                    + elements * COST_ELEMENT_WALK
                )
                rows += stats.path_count(doc_id, path)
        return PlanAlternative("navigate", "NavScan", cost, rows)

    # -- WHERE conjunct ordering --------------------------------------------------

    def order_conjuncts(self, where):
        """Reorder top-level AND conjuncts cheapest-and-most-selective
        first.  AND is commutative and the evaluator short-circuits, so
        for *total* conjuncts this only changes which one rejects a row
        first.  Conjuncts that can raise (function calls, ``TIME`` over a
        navigated path, non-variable ``OVERLAPS`` operands) are
        **barriers**: they keep their position, and sorting happens only
        within the maximal runs of safe conjuncts between them.  The set
        of conjuncts evaluated before any potentially raising one is
        therefore unchanged, so errors surface for exactly the rows (and
        in exactly the order) the textual WHERE would raise them."""
        if where is None:
            return where
        conjuncts = list(_conjuncts(where))
        if len(conjuncts) < 2:
            return where
        ranked = []
        run = []
        for conjunct in conjuncts:
            if _may_raise(conjunct):
                ranked.extend(sorted(run, key=self._conjunct_rank))
                ranked.append(conjunct)
                run = []
            else:
                run.append(conjunct)
        ranked.extend(sorted(run, key=self._conjunct_rank))
        if ranked != conjuncts:
            self.counters.conjuncts_reordered += 1
        ordered = ranked[0]
        for conjunct in ranked[1:]:
            ordered = BinOp("AND", ordered, conjunct)
        return ordered

    def _conjunct_rank(self, conjunct):
        """(expense class, estimated matches): 0 = timestamp compare or
        interval overlap, 1 = value predicate (ranked by rarest-term
        frequency), 2 = other expressions, 3 = anything calling an
        expensive function."""
        if _time_comparison_var(conjunct) is not None:
            return (0, 0.0)
        if isinstance(conjunct, BinOp) and conjunct.op == "OVERLAPS":
            # Interval intersection on already-bound rows: as cheap as a
            # timestamp compare, but rarely as selective as an equality
            # pin, so it sorts after plain TIME compares.
            return (0, 1.0)
        value_pred = _value_predicate(conjunct)
        if value_pred is not None:
            _var, op, literal = value_pred
            if op == "=":
                rarest = self.statistics.rarest_token(literal)
                if rarest is not None:
                    return (1, float(rarest[1]))
            return (1, float("inf"))
        if any(
            isinstance(node, FuncCall) and node.name != "TIME"
            for node in conjunct.walk()
        ):
            return (3, 0.0)
        return (2, 0.0)

    def prefilter_map(self, variables, where):
        """Per-variable conjuncts safe to evaluate on a single binding
        before the FROM product is formed.

        Only total, cheap predicate classes participate (timestamp
        comparisons, interval overlaps, value predicates), and only from
        the *leading* run of safe conjuncts — a conjunct positioned after
        one that can raise must not run early, because rejecting a row
        with it could suppress the error the textual WHERE order would
        have raised.  Within the leading run, pre-filtering is exactly
        the evaluation the product would do anyway — just earlier, once
        per binding instead of once per combination."""
        out = {}
        if where is None or len(variables) < 2:
            return out
        for conjunct in _conjuncts(where):
            if _may_raise(conjunct):
                break
            rank = self._conjunct_rank(conjunct)[0]
            if rank > 1:
                continue
            vars_used = {
                node.var for node in conjunct.walk()
                if isinstance(node, VarPath)
            }
            if len(vars_used) == 1:
                out.setdefault(next(iter(vars_used)), []).append(conjunct)
        return out

    def materialization_order(self, plans):
        """Indices of the non-streamed FROM items (all but the first),
        cheapest estimated row count first — an empty list short-circuits
        the whole product before the expensive lists materialize."""
        order = sorted(
            range(1, len(plans)),
            key=lambda i: (
                plans[i].est_rows if plans[i].est_rows is not None else 1 << 30,
                i,
            ),
        )
        if order != list(range(1, len(plans))):
            self.counters.from_items_reordered += 1
        return order


# -- conjunct shape helpers ------------------------------------------------------


def _time_comparison_var(conjunct):
    """``TIME(R) cmp literal`` (either side) → the variable, else None.

    The argument must be a *bare* variable: ``TIME(R/price)`` raises at
    evaluation (TIME needs a bound element), so it must not classify as a
    safe, hoistable timestamp compare."""
    if not isinstance(conjunct, BinOp) or conjunct.op not in (
        "<", "<=", ">", ">=", "=", "!=",
    ):
        return None
    for this, other in (
        (conjunct.left, conjunct.right),
        (conjunct.right, conjunct.left),
    ):
        if (
            isinstance(this, FuncCall)
            and this.name == "TIME"
            and len(this.args) == 1
            and isinstance(this.args[0], VarPath)
            and not this.args[0].path
            and not isinstance(other, (BinOp, FuncCall))
        ):
            return this.args[0].var
    return None


def _safe_time_call(node):
    """``TIME(R)`` over a bare variable — the one function shape that is
    total over binding rows (every binding is a BoundElement)."""
    return (
        node.name == "TIME"
        and len(node.args) == 1
        and isinstance(node.args[0], VarPath)
        and not node.args[0].path
    )


def _may_raise(conjunct):
    """Can evaluating this conjunct raise on some binding row?

    Function calls may reject their argument shapes at evaluation time
    (``TIME`` on a navigated path, ``CREATE TIME`` on a literal, unknown
    aggregates, ...), and ``OVERLAPS`` requires both operands to be bound
    variables.  Everything else in the expression language is total over
    rows: comparisons coerce, paths select (possibly nothing), AND/OR/NOT
    combine truth values."""
    for node in conjunct.walk():
        if isinstance(node, FuncCall):
            if not _safe_time_call(node):
                return True
        elif isinstance(node, BinOp) and node.op == "OVERLAPS":
            for side in (node.left, node.right):
                if not (isinstance(side, VarPath) and not side.path):
                    return True
    return False


def _value_predicate(conjunct):
    """``R/path cmp literal`` (either side) → (var, op, literal value).

    Only plain comparisons qualify: ``~`` (similarity) is excluded so an
    expensive DIFF-backed predicate never classifies as a cheap prefilter.
    """
    if not isinstance(conjunct, BinOp) or conjunct.op not in (
        "=", "!=", "<", "<=", ">", ">=",
    ):
        return None
    for this, other in (
        (conjunct.left, conjunct.right),
        (conjunct.right, conjunct.left),
    ):
        if isinstance(this, VarPath) and isinstance(other, Literal):
            return (this.var, conjunct.op, other.value)
    return None
