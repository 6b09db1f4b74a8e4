"""Hierarchical spans with exclusive-cost attribution.

A :class:`Span` is one operator (or phase) of a query plan.  Spans form a
tree that mirrors the plan; each records

* ``rows`` — items it yielded (for iterator spans),
* ``wall_ms`` — wall time spent in *its own* code (children excluded),
* ``metrics`` — registry counter deltas attributable to its own code.

Attribution works through a dynamic frame stack.  Entering a region
(either a ``with tracer.span(...)`` block or one ``next()`` step of a
``tracer.traced_iter(...)``) pushes a frame that snapshots the registry;
leaving it subtracts, then subtracts again whatever *nested* regions
already claimed, and charges the remainder to the region's span.  Because
Python generators advance inside their consumer's ``next()``, lazily
interleaved operators (a scan feeding a filter feeding a projection, with
LIMIT stopping everything mid-flight) attribute correctly without any
cooperation from the operators themselves.

When tracing is off the engine holds :data:`NULL_TRACER` — a stateless
singleton whose ``span()`` returns a shared no-op and whose
``traced_iter()`` returns the iterable untouched.  No spans, no registry
snapshots, no clock reads: ``benchmarks/bench_observability`` counts all
three over one query on the disabled path.
"""

from __future__ import annotations

import time

from .registry import MetricsRegistry


class Span:
    """One node of the trace tree."""

    __slots__ = ("name", "attrs", "parent", "children", "rows", "wall_ms",
                 "metrics", "complete")

    def __init__(self, name, attrs=None, parent=None):
        self.name = name
        self.attrs = dict(attrs) if attrs else {}
        self.parent = parent
        self.children = []
        self.rows = None      # set for iterator spans
        self.wall_ms = 0.0    # exclusive
        self.metrics = {}     # exclusive counter deltas (nonzero only)
        self.complete = False

    # -- accumulation (called by the tracer) ------------------------------------

    def add_metrics(self, deltas):
        for key, value in deltas.items():
            if value:
                self.metrics[key] = self.metrics.get(key, 0) + value

    # -- aggregate views ---------------------------------------------------------

    def total_wall_ms(self):
        """Inclusive wall time: this span plus all descendants."""
        return self.wall_ms + sum(c.total_wall_ms() for c in self.children)

    def total_metrics(self):
        """Inclusive counter deltas: this span plus all descendants."""
        total = dict(self.metrics)
        for child in self.children:
            for key, value in child.total_metrics().items():
                total[key] = total.get(key, 0) + value
        return total

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name):
        """First span named ``name`` in pre-order, or ``None``."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    # -- serialization ------------------------------------------------------------

    def to_dict(self):
        out = {
            "name": self.name,
            "wall_ms": round(self.wall_ms, 6),
            "metrics": dict(self.metrics),
            "complete": self.complete,
            "children": [child.to_dict() for child in self.children],
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.rows is not None:
            out["rows"] = self.rows
        return out

    @classmethod
    def from_dict(cls, data, parent=None):
        span = cls(data["name"], data.get("attrs"), parent=parent)
        span.wall_ms = data.get("wall_ms", 0.0)
        span.metrics = dict(data.get("metrics", {}))
        span.complete = data.get("complete", False)
        span.rows = data.get("rows")
        span.children = [
            cls.from_dict(child, parent=span)
            for child in data.get("children", [])
        ]
        return span

    def __repr__(self):
        rows = f" rows={self.rows}" if self.rows is not None else ""
        return (
            f"Span({self.name!r}{rows} wall={self.wall_ms:.3f}ms "
            f"children={len(self.children)})"
        )


class _Frame:
    """One active attribution region on the tracer's dynamic stack."""

    __slots__ = ("span", "t0", "before", "inner_wall", "inner_metrics")

    def __init__(self, span, t0, before):
        self.span = span
        self.t0 = t0
        self.before = before
        self.inner_wall = 0.0     # wall time claimed by nested regions
        self.inner_metrics = {}   # counter deltas claimed by nested regions


class _SpanContext:
    """``with tracer.span(...):`` — a block-shaped region."""

    __slots__ = ("_tracer", "_name", "_attrs", "span")

    def __init__(self, tracer, name, attrs):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self.span = None

    def __enter__(self):
        self.span = self._tracer._start(self._name, self._attrs)
        self._tracer._push(self.span)
        return self.span

    def __exit__(self, exc_type, exc, tb):
        self._tracer._pop()
        self.span.complete = exc_type is None
        return False


class Tracer:
    """Collects a span tree over a :class:`MetricsRegistry`."""

    enabled = True

    def __init__(self, registry=None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.roots = []
        self._stack = []

    @property
    def current_span(self):
        return self._stack[-1].span if self._stack else None

    # -- public region constructors ---------------------------------------------

    def span(self, name, **attrs):
        """A block region: ``with tracer.span("Project") as span: ...``."""
        return _SpanContext(self, name, attrs)

    def traced_iter(self, name, iterable, **attrs):
        """Wrap an iterable; each ``next()`` is charged to one span.

        The span is created (and parented) immediately — so the plan tree
        shape reflects where the operator was *constructed* — but cost
        accrues step by step as the consumer pulls, which is what makes
        lazily interleaved pipelines attribute correctly.
        """
        span = self._start(name, attrs)
        span.rows = 0
        return self._iterate(span, iterable)

    # -- internals ----------------------------------------------------------------

    def _start(self, name, attrs):
        parent = self.current_span
        span = Span(name, attrs, parent=parent)
        if parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)
        return span

    def _push(self, span):
        self._stack.append(
            _Frame(span, time.perf_counter(), self.registry.snapshot())
        )

    def _pop(self):
        frame = self._stack.pop()
        wall = (time.perf_counter() - frame.t0) * 1000.0
        raw = MetricsRegistry.delta(frame.before, self.registry.snapshot())
        frame.span.wall_ms += max(0.0, wall - frame.inner_wall)
        inner = frame.inner_metrics
        frame.span.add_metrics(
            {k: v - inner.get(k, 0) for k, v in raw.items()}
        )
        if self._stack:
            parent = self._stack[-1]
            parent.inner_wall += wall
            for key, value in raw.items():
                if value:
                    parent.inner_metrics[key] = (
                        parent.inner_metrics.get(key, 0) + value
                    )

    def _iterate(self, span, iterable):
        iterator = iter(iterable)
        while True:
            self._push(span)
            try:
                item = next(iterator)
            except StopIteration:
                span.complete = True
                return
            finally:
                self._pop()
            span.rows += 1
            yield item


class _NullSpan:
    """Shared do-nothing span; supports the context-manager protocol."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: shared singletons, zero allocation per call."""

    enabled = False
    roots = ()
    current_span = None
    registry = None

    def span(self, name, **attrs):
        return _NULL_SPAN

    def traced_iter(self, name, iterable, **attrs):
        return iterable


NULL_TRACER = NullTracer()
