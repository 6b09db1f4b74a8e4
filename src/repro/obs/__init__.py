"""Unified observability: metrics registry, tracer, EXPLAIN ANALYZE.

The paper's whole evaluation (Sections 7–8) argues in *logical operator
cost* — delta reads, postings scanned, join probes.  This package gives
those costs one home:

:class:`MetricsRegistry`
    A central registry of counter sources.  Every stats object in the
    engine (``IndexStats``, ``JoinStats``, ``AnchorStats``, the repository
    read counters) is a plain dataclass or mapping the registry reads
    field by field, so "what did this region cost" is always a dict
    subtraction of two ``snapshot()`` calls — no per-object ``reset()``
    choreography.

:class:`Tracer` / :data:`NULL_TRACER`
    Hierarchical spans with exclusive-cost attribution.  The query
    executor wraps every operator in the plan tree; each span records wall
    time, rows emitted, and the registry counter deltas attributable to
    *its own* work (children's costs are subtracted out).  The disabled
    path is a shared no-op singleton: no spans, no snapshots, no timing.

:class:`ExplainAnalyzeReport`
    ``EXPLAIN ANALYZE <query>`` in TXQL (and ``repro trace`` on the CLI):
    runs the query under a tracer and renders the per-operator tree, with
    JSON export for tooling.
"""

from .explain import ExplainAnalyzeReport, PlanReport
from .registry import MetricsRegistry
from .tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "ExplainAnalyzeReport",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "PlanReport",
    "Span",
    "Tracer",
]
