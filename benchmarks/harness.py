"""Measurement utilities shared by the benchmark suite.

The paper argues in *logical* I/O (delta reads, seeks, postings scanned),
so every benchmark reports those alongside wall-clock time.
:class:`CostMeter` snapshots all relevant counters around a code region;
:class:`Table` prints the rows/series each benchmark regenerates.

Bench scripts import this as ``harness`` (their directory is on the path),
tests as ``benchmarks.harness``; nothing under ``src/repro`` imports it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.obs import MetricsRegistry


@dataclass
class Measurement:
    """Costs of one measured region."""

    wall_ms: float = 0.0
    seeks: int = 0
    pages_read: int = 0
    pages_written: int = 0
    delta_reads: int = 0
    snapshot_reads: int = 0
    current_reads: int = 0
    version_reads: int = 0  # stratum full-version reads
    forward_chains: int = 0        # reconstruction chains applied forward
    backward_chains: int = 0       # chains applied via inverted deltas
    range_scans: int = 0           # batched reconstruct_range sweeps
    postings_scanned: int = 0
    lookups: int = 0
    join_candidates_probed: int = 0   # postings the structural join tested
    join_candidates_scanned: int = 0  # nested-loop-equivalent posting touches
    join_matches: int = 0

    def estimated_io_ms(self, seek_ms=8.0, page_ms=0.1):
        return self.seeks * seek_ms + (
            self.pages_read + self.pages_written
        ) * page_ms

    def as_dict(self):
        return {
            "wall_ms": round(self.wall_ms, 3),
            "seeks": self.seeks,
            "pages_read": self.pages_read,
            "delta_reads": self.delta_reads,
            "snapshot_reads": self.snapshot_reads,
            "current_reads": self.current_reads,
            "version_reads": self.version_reads,
            "forward_chains": self.forward_chains,
            "backward_chains": self.backward_chains,
            "range_scans": self.range_scans,
            "postings_scanned": self.postings_scanned,
            "join_candidates_probed": self.join_candidates_probed,
            "join_candidates_scanned": self.join_candidates_scanned,
            "join_matches": self.join_matches,
        }


class CostMeter:
    """Context manager capturing disk/repository/index counter deltas.

    A thin view over a :class:`~repro.obs.MetricsRegistry`: construction
    registers every counter source of interest, ``measure()`` snapshots
    the registry around the region and maps the key deltas onto a
    :class:`Measurement` (the field names every benchmark reports).
    Seeks and pages come from ``disk``, the simulator the caller attached
    to ``store`` (``ablation.disk.attach``); without one they read 0.

    >>> disk = attach(store).disk                          # doctest: +SKIP
    >>> meter = CostMeter(store=store, disk=disk, indexes=[fti])  # doctest: +SKIP
    >>> with meter.measure() as m:                         # doctest: +SKIP
    ...     run_query()
    >>> m.result.delta_reads                               # doctest: +SKIP
    """

    def __init__(
        self, store=None, disk=None, stratum=None, indexes=(), join_stats=None
    ):
        self.store = store
        self.stratum = stratum
        self.indexes = list(indexes)
        self.join_stats = join_stats  # a repro.index.stats.JoinStats, or None
        registry = self.registry = MetricsRegistry()
        if store is not None:
            repo = store.repository
            registry.register("store", repo.counter_snapshot)
            registry.register("anchors", repo.anchor_stats)
        if disk is not None:
            registry.register("disk", lambda: disk.snapshot().as_dict())
        if stratum is not None:
            registry.register(
                "stratum_disk", lambda: stratum.disk.snapshot().as_dict()
            )
            registry.register(
                "stratum", lambda: {"version_reads": stratum.version_reads}
            )
        #: Registry prefixes whose lookups/postings_scanned feed the
        #: Measurement's index columns (one per constituent index; the
        #: hybrid FTI contributes both of its sides).
        self._index_prefixes = []
        for i, index in enumerate(self.indexes):
            for j, (_label, source) in enumerate(_metric_sources(index)):
                prefix = f"idx{i}_{j}"
                registry.register(prefix, source)
                self._index_prefixes.append(prefix)
        if join_stats is not None:
            registry.register("join", join_stats)

    def _capture(self):
        return self.registry.snapshot()

    def measure(self):
        return _Region(self)


class _Region:
    def __init__(self, meter):
        self._meter = meter
        self.result = None

    def __enter__(self):
        self._before = self._meter._capture()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        wall_ms = (time.perf_counter() - self._t0) * 1000.0
        d = MetricsRegistry.delta(self._before, self._meter._capture())
        measurement = Measurement(wall_ms=wall_ms)
        measurement.seeks = (
            d.get("disk.seeks", 0) + d.get("stratum_disk.seeks", 0)
        )
        measurement.pages_read = (
            d.get("disk.pages_read", 0) + d.get("stratum_disk.pages_read", 0)
        )
        measurement.pages_written = (
            d.get("disk.pages_written", 0)
            + d.get("stratum_disk.pages_written", 0)
        )
        measurement.delta_reads = d.get("store.delta_reads", 0)
        measurement.snapshot_reads = d.get("store.snapshot_reads", 0)
        measurement.current_reads = d.get("store.current_reads", 0)
        measurement.version_reads = d.get("stratum.version_reads", 0)
        measurement.forward_chains = d.get("anchors.forward_chains", 0)
        measurement.backward_chains = d.get("anchors.backward_chains", 0)
        measurement.range_scans = d.get("anchors.range_scans", 0)
        for prefix in self._meter._index_prefixes:
            measurement.lookups += d.get(f"{prefix}.lookups", 0)
            measurement.postings_scanned += d.get(
                f"{prefix}.postings_scanned", 0
            )
        measurement.join_candidates_probed = d.get("join.candidates_probed", 0)
        measurement.join_candidates_scanned = d.get(
            "join.candidates_scanned", 0
        )
        measurement.join_matches = d.get("join.matches_emitted", 0)
        self.result = measurement
        return False


def _metric_sources(index):
    """``(label, source)`` pairs an index contributes to a registry.

    Indexes advertise a ``metrics_label`` (``"fti"``, ``"delta_fti"``) and
    carry ``stats``; composite indexes (the hybrid FTI) override
    ``metric_sources()`` to expose each side separately.
    """
    custom = getattr(index, "metric_sources", None)
    if custom is not None:
        return list(custom())
    stats = getattr(index, "stats", None)
    if stats is None:
        return []
    return [(getattr(index, "metrics_label", "index"), stats)]


def relative_overhead(baseline_fn, candidate_fn, repeats=5, inner=20):
    """Wall-clock overhead of ``candidate_fn`` relative to ``baseline_fn``.

    Runs each thunk ``inner`` times per sample, takes the best of
    ``repeats`` samples for both sides (best-of-N is the standard
    noise-robust estimator for "how fast *can* this go"), and returns
    ``(candidate - baseline) / baseline``.  The observability overhead
    guard asserts this stays under 5% for the disabled tracer.
    """
    def best(fn):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(inner):
                fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    base = best(baseline_fn)
    candidate = best(candidate_fn)
    return (candidate - base) / base if base else 0.0


@dataclass
class Table:
    """A printable result table (the "rows/series the paper reports")."""

    title: str
    headers: list
    rows: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def add(self, *values):
        self.rows.append([_fmt(v) for v in values])

    def note(self, text):
        self.notes.append(text)

    def render(self):
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [f"== {self.title} =="]
        lines.append(
            "  ".join(h.ljust(w) for h, w in zip(self.headers, widths))
        )
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append(
                "  ".join(c.rjust(w) for c, w in zip(row, widths))
            )
        for note in self.notes:
            lines.append(f"   note: {note}")
        return "\n".join(lines)

    def echo(self):
        print()
        print(self.render())


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.3f}" if value < 100 else f"{value:.1f}"
    return str(value)
