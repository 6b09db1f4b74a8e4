"""Observability overhead guard.

The tracer must be pay-for-use: an engine holding the :data:`NULL_TRACER`
(the default) does none of the tracer's work.  The guard counts that work
over one query instead of timing it — two wall-clock samples of the same
path disagree by more than any budget a regression would exceed on a
shared host — and asserts the disabled path creates no span, reads no
clock, and takes only the two registry snapshots ``execute()`` itself
takes for ``ResultSet.stats``.

The timings of the disabled path against itself and against the enabled
tracer are reported for information — the enabled tracer pays one
registry snapshot per span boundary and per iterator step, which is the
price of per-operator attribution, not a regression.
"""

from __future__ import annotations

import time

from harness import Table, relative_overhead
from repro import TemporalXMLDatabase
from repro.obs import NULL_TRACER, MetricsRegistry, Tracer
from repro.obs import tracer as tracer_module
from repro.workload import load_figure1

QUERY = (
    'SELECT TIME(R), R/price FROM doc("guide.com")[EVERY]/restaurant R'
    ' WHERE R/name="Napoli"'
)


def _database():
    db = TemporalXMLDatabase()
    load_figure1(db)
    return db


class _CountingClock:
    """Stands in for the ``time`` module: counts every clock read."""

    def __init__(self):
        self.reads = 0

    def __getattr__(self, name):
        clock = getattr(time, name)

        def read(*args):
            self.reads += 1
            return clock(*args)

        return read


def test_disabled_tracer_overhead(benchmark, emit, monkeypatch):
    db = _database()
    engine = db.engine

    def run_disabled():
        engine.detach_tracer()
        engine.execute(QUERY)

    def run_enabled():
        engine.attach_tracer(Tracer(MetricsRegistry()))
        engine.execute(QUERY)
        engine.detach_tracer()

    # The guard proper: one query under the null tracer, with the tracer's
    # three costs counted — spans made, clock reads, registry snapshots.
    engine.detach_tracer()
    spans, snapshots = [], []
    clock = _CountingClock()
    span_init, snapshot = tracer_module.Span.__init__, MetricsRegistry.snapshot

    def counting_span_init(self, *args, **kwargs):
        spans.append(args[0])
        span_init(self, *args, **kwargs)

    def counting_snapshot(self):
        snapshots.append(self)
        return snapshot(self)

    with monkeypatch.context() as patch:
        patch.setattr(tracer_module.Span, "__init__", counting_span_init)
        patch.setattr(MetricsRegistry, "snapshot", counting_snapshot)
        patch.setattr(tracer_module, "time", clock)
        engine.execute(QUERY)
    assert engine.tracer is NULL_TRACER
    assert spans == [], f"the null tracer made spans {spans}"
    assert clock.reads == 0, f"the null tracer read the clock {clock.reads}x"
    # execute() snapshots the engine's registry before and after the query
    # for ResultSet.stats; any further snapshot is the tracer's.
    assert snapshots == [engine.registry] * 2, (
        f"{len(snapshots)} registry snapshots; execute() takes 2"
    )

    # Same engine, same query, tracer off vs off and on vs off: timings for
    # information only (a shared host's jitter swamps a few percent).
    disabled_vs_disabled = relative_overhead(
        run_disabled, run_disabled, repeats=7, inner=30
    )
    enabled_vs_disabled = relative_overhead(
        run_disabled, run_enabled, repeats=7, inner=30
    )
    table = Table(
        "Observability: tracer overhead per query",
        ["comparison", "relative overhead"],
    )
    table.add("disabled vs disabled (noise, info)",
              f"{disabled_vs_disabled * 100:+.1f}%")
    table.add("enabled vs disabled (info)",
              f"{enabled_vs_disabled * 100:+.1f}%")
    table.note(
        "guarded by counts, not time: under the null tracer one query "
        "makes 0 spans, 0 tracer clock reads and the 2 registry snapshots "
        "of execute() itself"
    )
    emit(table)

    benchmark(run_disabled)


def test_null_tracer_primitives_are_free():
    """Micro-guard: the null tracer's calls must not allocate per call."""
    tracer = NULL_TRACER
    span_a = tracer.span("a", attr=1)
    span_b = tracer.span("b")
    assert span_a is span_b  # shared singleton, no allocation
    iterable = iter(range(3))
    assert tracer.traced_iter("scan", iterable) is iterable
    assert tracer.roots == ()
