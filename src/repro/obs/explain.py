"""EXPLAIN / EXPLAIN ANALYZE result objects.

``EXPLAIN <query>`` returns a :class:`PlanReport` (the planner's per-FROM
item description, no execution).  ``EXPLAIN ANALYZE <query>`` executes the
query under a :class:`~repro.obs.tracer.Tracer` and returns an
:class:`ExplainAnalyzeReport`: the real result set plus the span tree,
renderable as text or exportable as JSON (the ``repro trace`` CLI).
"""

from __future__ import annotations

import json

from .tracer import Span

#: Registry keys surfaced in the rendered tree, with their short labels.
#: Keys are matched by suffix so every index prefix (``fti``, ``delta_fti``,
#: ``lifetime`` ...) contributes to the same display column.
_DISPLAY = (
    ("store.delta_reads", "deltas"),
    ("store.snapshot_reads", "snaps"),
    ("store.current_reads", "current"),
    (".postings_scanned", "postings"),
    (".lookups", "lookups"),
    ("join.candidates_probed", "probes"),
    ("join.matches_emitted", "matches"),
)


def summarize_metrics(metrics):
    """Collapse dotted registry keys into the short display columns."""
    out = {}
    for suffix, label in _DISPLAY:
        total = sum(
            value for key, value in metrics.items()
            if key == suffix or key.endswith(suffix)
        )
        if total:
            out[label] = total
    return out


class PlanReport:
    """EXPLAIN without ANALYZE: the plan description, nothing executed."""

    def __init__(self, query_text, plan, text):
        self.query = query_text
        self.plan = plan      # list of per-FROM-item dicts
        self.text = text

    def __str__(self):
        return self.text


class ExplainAnalyzeReport:
    """EXPLAIN ANALYZE: the executed result plus its trace."""

    def __init__(self, query_text, result, root):
        self.query = query_text
        self.result = result  # the ResultSet the query produced
        self.root = root      # root Span of the trace tree

    # -- aggregates ---------------------------------------------------------------

    def totals(self):
        """Inclusive counter deltas of the whole query."""
        return self.root.total_metrics()

    def row_accounting(self):
        """Estimated vs. actual rows per estimated operator.

        One dict per span that carried a planner estimate
        (``est_rows``) — the regression hook for keeping the cost model
        honest: estimates are upper bounds, so ``rows <= est_rows`` for
        every completed scan."""
        out = []

        def visit(span):
            est = span.attrs.get("est_rows")
            if est is not None:
                out.append({
                    "operator": span.name,
                    "source": span.attrs.get("source"),
                    "est_rows": est,
                    "rows": span.rows,
                    "complete": span.complete,
                })
            for child in span.children:
                visit(child)

        visit(self.root)
        return out

    # -- rendering ----------------------------------------------------------------

    def render(self):
        lines = [f"EXPLAIN ANALYZE  {self.query}"]
        self._render_span(self.root, lines, prefix="", is_last=True,
                          is_root=True)
        summary = summarize_metrics(self.totals())
        tail = "  ".join(f"{k}={v}" for k, v in summary.items())
        lines.append(
            f"rows: {len(self.result)}  "
            f"total: {self.root.total_wall_ms():.3f} ms"
            + (f"  [{tail}]" if tail else "")
        )
        return "\n".join(lines)

    def _render_span(self, span, lines, prefix, is_last, is_root=False):
        if is_root:
            connector = ""
            child_prefix = ""
        else:
            connector = prefix + ("`- " if is_last else "|- ")
            child_prefix = prefix + ("   " if is_last else "|  ")
        label = span.name
        detail = span.attrs.get("source") or span.attrs.get("detail")
        if detail:
            label += f" [{detail}]"
        parts = [label]
        if span.rows is not None:
            est = span.attrs.get("est_rows")
            parts.append(
                f"rows={span.rows} (est={est})" if est is not None
                else f"rows={span.rows}"
            )
        parts.append(f"self={span.wall_ms:.3f}ms")
        if span.children:
            parts.append(f"total={span.total_wall_ms():.3f}ms")
        summary = summarize_metrics(span.metrics)
        parts.extend(f"{k}={v}" for k, v in summary.items())
        if not span.complete:
            parts.append("(early exit)")
        lines.append(connector + "  ".join(parts))
        for i, child in enumerate(span.children):
            self._render_span(child, lines, child_prefix,
                              i == len(span.children) - 1)

    # -- JSON export --------------------------------------------------------------

    def to_json(self):
        return {
            "query": self.query,
            "columns": list(self.result.columns),
            "row_count": len(self.result),
            "totals": self.totals(),
            "wall_ms": round(self.root.total_wall_ms(), 6),
            "trace": self.root.to_dict(),
        }

    def to_json_string(self, indent=2):
        return json.dumps(self.to_json(), indent=indent, sort_keys=True)

    @classmethod
    def trace_from_json(cls, data):
        """Rebuild the span tree of an exported trace (round-trip helper)."""
        if isinstance(data, str):
            data = json.loads(data)
        return Span.from_dict(data["trace"])

    def __str__(self):
        return self.render()
