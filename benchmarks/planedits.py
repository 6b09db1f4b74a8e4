"""Reference plans, obtained by composing the query stages or by editing
a :class:`~repro.query.optimizer.QueryPlan` — never by configuring a
different engine.

``QueryEngine.execute`` is parse → ``rewrite`` → ``plan`` → ``run``.  The
comparisons the benches and tests draw are against:

* **no rewriting** — :func:`unrewritten_plan` swaps ``rewrite`` for
  ``desugar`` (only the ``EVERY WITHIN`` sugar is lowered; no folding, no
  time-range pushdown, no point collapse);
* **one optimizer decision undone** — each function in :data:`EDITS`
  returns the plan with a single decision reverted; running it must give
  byte-identical results, which checks that transformation as its own law;
* **the pre-optimizer plan shape** — :func:`legacy_shape` applies every
  edit: textual conjunct order, no prefilters, textual materialization
  order, at most the first textual pushdown, full-history FTI lookups, and
  the index whenever it is eligible.

The navigational baseline needs no helper: ``QueryEngine(store,
lifetime=lifetime)`` without an FTI plans a NavScan for every FROM item.

Bench scripts import this as ``planedits`` (their directory is on the
path), tests as ``benchmarks.planedits``; nothing under ``src/repro``
imports it.
"""

from dataclasses import replace

from repro.query.executor import desugar, parse_query, rewrite
from repro.query.planner import _build_pattern, _pushable_values
from repro.xmlcore.path import Path


def rewritten_plan(engine, text):
    """The plan ``engine.execute(text)`` runs."""
    return engine.plan(*rewrite(parse_query(text), now=engine.now()))


def unrewritten_plan(engine, text):
    """Plan ``text`` with the algebraic rewriter skipped."""
    return engine.plan(*desugar(parse_query(text), now=engine.now()))


def run_unrewritten(engine, text):
    return engine.run(unrewritten_plan(engine, text))


# -- single optimizer decisions, undone -------------------------------------


def textual_conjuncts(plan):
    """WHERE conjuncts evaluated in the order they were written."""
    return replace(plan, where=plan.query.where)


def no_prefilters(plan):
    """No conjunct runs before the FROM product is formed."""
    return replace(plan, prefilters={})


def textual_materialization(plan):
    """Non-streamed FROM items materialize in FROM order."""
    return replace(
        plan, materialization_order=list(range(1, len(plan.items)))
    )


def first_pushdown_only(plan):
    """At most one predicate — the first pushable conjunct as written —
    is compiled into each index pattern."""

    def edit(item):
        if item.pattern is None:
            return item
        first = _pushable_values(item.item.var, plan.query.where)[:1]
        return replace(
            item,
            pushdowns=first,
            pattern=_build_pattern(Path(item.item.path).steps, first),
        )

    return replace(plan, items=[edit(item) for item in plan.items])


def unbounded_scans(plan):
    """EVERY index scans read the full-history posting lists (the version
    range still clips what they bind)."""
    return replace(
        plan, items=[replace(item, scan_bounds=None) for item in plan.items]
    )


def no_cost_flip(plan):
    """An eligible index scan is used even where navigation priced lower."""

    def edit(item):
        if not item.sorted_nav:
            return item
        return replace(item, strategy="index", operator="TPatternScanAll",
                       sorted_nav=False)

    return replace(plan, items=[edit(item) for item in plan.items])


EDITS = (
    textual_conjuncts,
    no_prefilters,
    textual_materialization,
    first_pushdown_only,
    unbounded_scans,
    no_cost_flip,
)


def legacy_shape(plan):
    """Every edit at once: the plan the pre-optimizer planner built."""
    for edit in EDITS:
        plan = edit(plan)
    return plan

