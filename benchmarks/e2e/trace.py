"""The traced run: timing wrappers around public callables of ``repro``,
installed from here and nowhere else, at the attribute where each caller
looks the callable up.  Nothing under ``src/`` knows it is being traced.

A span is ``(name, start, end, parent, op id, query class, self seconds)``.
Each thread keeps its own stack, so a span's parent is whatever was open
on that thread when it started.  A lazy iterator is one span that accrues
time per ``next()``.  A span's self time is its duration minus the time
its children were open; per-layer ``*_self_s`` metrics are sums of self
time by span name.
"""

from __future__ import annotations

import json
import statistics
import threading
import time

import repro.operators.patternscan as patternscan
import repro.operators.tpatternscan as tpatternscan
import repro.query.executor as executor
import repro.storage.recover as recover
import repro.storage.store as store
from repro.index.fti import TemporalFullTextIndex
from repro.index.lifetime import LifetimeIndex
from repro.index.relevance import TemporalKeywordScorer
from repro.operators.lifetime import CreTime, DelTime
from repro.query.executor import QueryEngine
from repro.query.optimizer import Optimizer
from repro.serving.server import ServingServer
from repro.serving.session import Session, SessionManager
from repro.storage.checkpoint import Checkpointer
from repro.storage.journal import CommitJournal
from repro.storage.repository import Repository
from repro.storage.store import CommitBatch, TemporalDocumentStore

CALL, ITER = "call", "iter"

#: (owner, attribute, span name, kind).  A span is named after the
#: per-layer metric its self time is summed into.
TABLE = (
    (store, "parse", "xmlcore.parse_self_s", CALL),
    (store, "diff", "diff.diff_self_s", CALL),
    (TemporalDocumentStore, "put", "storage.store.other_self_s", CALL),
    (TemporalDocumentStore, "update", "storage.store.other_self_s", CALL),
    (CommitBatch, "put", "storage.store.other_self_s", CALL),
    (CommitBatch, "update", "storage.store.other_self_s", CALL),
    (CommitBatch, "commit", "storage.store.other_self_s", CALL),
    (Repository, "commit_initial", "storage.repository.commit_self_s", CALL),
    (Repository, "commit_version", "storage.repository.commit_self_s", CALL),
    (Repository, "reconstruct", "storage.repository.reconstruct_self_s", CALL),
    (Repository, "reconstruct_at", "storage.repository.reconstruct_self_s", CALL),
    (Repository, "reconstruct_range", "storage.repository.reconstruct_self_s", ITER),
    (TemporalFullTextIndex, "document_committed", "index.fti.maintain_self_s", CALL),
    (LifetimeIndex, "document_committed", "index.lifetime.maintain_self_s", CALL),
    (TemporalFullTextIndex, "lookup", "index.fti.lookup_self_s", CALL),
    (TemporalFullTextIndex, "lookup_t", "index.fti.lookup_self_s", CALL),
    (TemporalFullTextIndex, "lookup_h", "index.fti.lookup_self_s", CALL),
    (TemporalFullTextIndex, "lookup_w", "index.fti.lookup_self_s", CALL),
    (CommitJournal, "document_committed", "storage.journal.encode_self_s", CALL),
    (CommitJournal, "append", "storage.journal.group_write_self_s", CALL),
    (CommitJournal, "commit_group", "storage.journal.group_write_self_s", CALL),
    (Checkpointer, "checkpoint", "storage.checkpoint.write_self_s", CALL),
    (recover, "recover_store", "storage.recover.journal_apply_self_s", CALL),
    (recover, "load_store", "storage.recover.checkpoint_load_self_s", CALL),
    (recover, "replay_history", "storage.recover.history_replay_self_s", CALL),
    (recover, "scan_journal", "storage.journal.scan_self_s", CALL),
    (recover, "apply_script", "storage.recover.journal_apply_self_s", CALL),
    (executor, "parse_query", "query.parser.parse_self_s", CALL),
    (executor, "rewrite", "query.rewriter.rewrite_self_s", CALL),
    (executor, "desugar", "query.rewriter.rewrite_self_s", CALL),
    (Optimizer, "plan_from_item", "query.optimizer.plan_self_s", CALL),
    (executor, "bind_planned", "query.planner.bind_self_s", ITER),
    (patternscan, "structural_join", "pattern.structjoin.join_self_s", ITER),
    (tpatternscan, "structural_join", "pattern.structjoin.join_self_s", ITER),
    (CreTime, "value", "operators.lifetime.self_s", CALL),
    (DelTime, "value", "operators.lifetime.self_s", CALL),
    (TemporalKeywordScorer, "search_t", "index.relevance.search_self_s", CALL),
    (TemporalKeywordScorer, "search_window", "index.relevance.search_self_s", CALL),
    (QueryEngine, "execute", "query.executor.self_s", CALL),
    (ServingServer, "dispatch", "serving.server.dispatch_self_s", CALL),
    (Session, "query", "serving.session.query_self_s", CALL),
    (SessionManager, "put", "serving.session.commit_self_s", CALL),
    (SessionManager, "update", "serving.session.commit_self_s", CALL),
)

#: Index maintenance under recovery is replay, not ingest.
_UNDER_RECOVERY = {
    "index.fti.maintain_self_s": "index.fti.replay_self_s",
    "index.lifetime.maintain_self_s": "index.lifetime.replay_self_s",
}

SELF_TIME_LAYERS = sorted(
    {name for _o, _a, name, _k in TABLE} | set(_UNDER_RECOVERY.values())
)


class _Span:
    __slots__ = ("name", "start", "end", "parent", "op", "klass", "region",
                 "open_s", "child_s")

    def __init__(self, name, parent, op, klass, region):
        self.name, self.parent, self.op, self.klass = name, parent, op, klass
        self.region = region
        self.start = self.end = None
        self.open_s = self.child_s = 0.0


class Tracer:
    """Spans stay in memory until :meth:`write`."""

    def __init__(self):
        self.enabled = False  # spans are recorded inside timed regions only
        self.region = None    # label of the timed region that is open
        self.spans = []
        self._local = threading.local()
        self._originals = []
        self.stretches = 0  # times any span was (re)opened
        self.script_ops = 0
        self.rows_bound = 0
        self._dispatch_ms = {}  # request tag -> server-side dispatch time

    # -- the per-thread span stack ----------------------------------------------

    def begin_op(self, op, klass):
        """Tag the spans this thread records next with an operation id."""
        self._local.op, self._local.klass = op, klass

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _open(self, name):
        local = self._local
        stack = self._stack()
        parent = stack[-1] if stack else None
        if name in _UNDER_RECOVERY and getattr(local, "recovering", 0):
            name = _UNDER_RECOVERY[name]
        span = _Span(name, parent, getattr(local, "op", None),
                     getattr(local, "klass", None), self.region)
        self.spans.append(span)  # list.append is atomic under the GIL
        return span

    def _run(self, span, fn, args, kwargs):
        """One stretch of ``span`` being open on this thread."""
        stack = self._stack()
        stack.append(span)
        self.stretches += 1
        start = time.perf_counter()
        if span.start is None:
            span.start = start
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            elapsed = span.end - start
            span.open_s += elapsed
            stack.pop()
            if stack:
                stack[-1].child_s += elapsed

    # -- wrappers ------------------------------------------------------------------

    def _wrap_call(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            return tracer._run(tracer._open(name), fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def _wrap_iter(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            iterator = iter(tracer._run(span, fn, args, kwargs))
            return tracer._drain(span, iterator, name)

        traced.__wrapped__ = fn
        return traced

    def _drain(self, span, iterator, name):
        count_rows = name == "query.planner.bind_self_s"
        while True:
            try:
                item = self._run(span, next, (iterator,), {})
            except StopIteration:
                return
            if count_rows:
                self.rows_bound += 1
            yield item

    def _special(self, owner, attribute, fn, wrapped):
        """The few wrappers that also read a count off the call."""
        tracer = self
        if (owner, attribute) == (store, "diff"):
            def traced(*args, **kwargs):
                script = wrapped(*args, **kwargs)
                if tracer.enabled:
                    tracer.script_ops += len(script.ops)
                return script
        elif (owner, attribute) == (recover, "recover_store"):
            def traced(*args, **kwargs):
                local = tracer._local
                local.recovering = getattr(local, "recovering", 0) + 1
                try:
                    return wrapped(*args, **kwargs)
                finally:
                    local.recovering -= 1
        elif (owner, attribute) == (ServingServer, "dispatch"):
            def traced(server, session, request):
                tag = request.get("tag")
                if tag is not None:
                    tracer.begin_op(tag, "served")
                start = time.perf_counter()
                try:
                    return wrapped(server, session, request)
                finally:
                    if tag is not None and tracer.enabled:
                        elapsed = (time.perf_counter() - start) * 1e3
                        tracer._dispatch_ms[tag] = elapsed
        else:
            return wrapped
        traced.__wrapped__ = fn
        return traced

    def install(self):
        for owner, attribute, name, kind in TABLE:
            fn = owner.__dict__[attribute]
            wrap = self._wrap_iter if kind == ITER else self._wrap_call
            wrapped = self._special(owner, attribute, fn, wrap(fn, name))
            self._originals.append((owner, attribute, fn))
            setattr(owner, attribute, wrapped)

    def uninstall(self):
        for owner, attribute, fn in reversed(self._originals):
            setattr(owner, attribute, fn)
        self._originals.clear()

    # -- what the spans say -----------------------------------------------------------

    def self_seconds(self, phase=""):
        """Self time summed by span name, over the regions whose label
        starts with ``phase``."""
        totals = dict.fromkeys(SELF_TIME_LAYERS, 0.0)
        for span in self.spans:
            if span.region.startswith(phase):
                totals[span.name] += span.open_s - span.child_s
        return totals

    def top_layers(self, phase, count=3):
        """The ``count`` largest self times inside one phase."""
        totals = self.self_seconds(phase)
        return sorted(totals.items(), key=lambda kv: -kv[1])[:count]

    def span_cost_s(self, samples=20000):
        """What one span costs, measured on a no-op through the same wrapper."""
        probe = Tracer()
        probe.enabled = True
        noop = probe._wrap_call(lambda: None, "storage.store.other_self_s")
        bare = (lambda: None)
        start = time.perf_counter()
        for _ in range(samples):
            noop()
        wrapped = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(samples):
            bare()
        return max(0.0, wrapped - (time.perf_counter() - start)) / samples

    def layer_metrics(self, client_seconds):
        """Per-layer metrics the spans alone decide.  ``client_seconds`` is
        the timed regions' wall time, once per closed-loop client."""
        totals = self.self_seconds()
        metrics = {name: (value, "s") for name, value in totals.items()}
        attributed = sum(totals.values())
        overhead = self.stretches * self.span_cost_s()
        metrics["trace.unattributed_share"] = (
            (client_seconds - attributed) / client_seconds, "ratio")
        metrics["trace.overhead_share"] = (
            overhead / max(client_seconds - overhead, 1e-9), "ratio")
        metrics["diff.script_ops"] = (self.script_ops, "count")
        return metrics

    def query_counters(self, registry_delta, rows_bound, rows_returned):
        """Counts of the query phase, from the engine's own registry."""
        probed = registry_delta.get("join.candidates_probed", 0)
        matched = registry_delta.get("join.matches_emitted", 0)
        return {
            "index.fti.postings_scanned": (
                registry_delta.get("fti.postings_scanned", 0), "count"),
            "pattern.structjoin.candidates_probed": (probed, "count"),
            "pattern.structjoin.useful_ratio": (
                matched / probed if probed else 0.0, "ratio"),
            "storage.repository.delta_reads": (
                registry_delta.get("store.delta_reads", 0), "count"),
            "storage.repository.snapshot_reads": (
                registry_delta.get("store.snapshot_reads", 0), "count"),
            "query.executor.rows_bound_per_row_returned": (
                rows_bound / rows_returned if rows_returned else 0.0,
                "ratio"),
        }

    def wire_overhead(self, tagged_latencies):
        """Client-observed latency minus the server's dispatch time."""
        gaps = [
            latency - self._dispatch_ms[tag]
            for tag, latency in tagged_latencies if tag in self._dispatch_ms
        ]
        value = statistics.median(gaps) if gaps else 0.0
        return {"serving.wire.overhead_p50_ms": (value, "ms")}

    def write(self, path):
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            {
                "name": s.name, "start": s.start, "end": s.end,
                "parent": index.get(id(s.parent)), "op": s.op,
                "class": s.klass, "region": s.region,
                "self_s": s.open_s - s.child_s,
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": rows}, handle)
