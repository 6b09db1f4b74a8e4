"""Central metrics registry: one snapshot/delta protocol for every counter.

Before this existed, per-query cost reporting meant remembering which of
five stats objects to reset and *how* (``JoinStats.reset`` resets all six
fields, the repository counters are bare ints...).  The registry replaces
that with subtraction:

>>> before = registry.snapshot()                     # doctest: +SKIP
>>> run_query()                                      # doctest: +SKIP
>>> cost = MetricsRegistry.delta(before, registry.snapshot())  # doctest: +SKIP

A *source* is anything that can report a flat ``{key: number}`` mapping —
either a callable returning one, or an object with a ``snapshot()``
method.  Sources are registered under a prefix; the registry's snapshot is
the union of all sources' dicts with dotted keys (``"store.delta_reads"``,
``"fti.postings_scanned"``).  Counters must be cumulative (monotone within
a region) for deltas to mean anything; gauges like ``postings``/``bytes``
may shrink, which simply yields negative deltas.

The registry also owns plain :class:`Counter` and :class:`Histogram`
instruments for code that has no stats object of its own (the benchmark
harness uses histograms for wall-time samples).
"""

from __future__ import annotations


class Counter:
    """A single monotone counter owned by the registry."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def inc(self, amount=1):
        self.value += amount

    def __repr__(self):
        return f"Counter({self.name}={self.value})"


class Histogram:
    """Streaming summary of observed values (count/sum/min/max).

    Deliberately sketch-free: the engine's distributions are consumed by
    benchmarks and the overhead guard, which only need the moments.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def observe(self, value):
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def as_dict(self):
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Named counter sources + owned instruments, snapshot as one dict."""

    def __init__(self):
        self._sources = {}     # prefix -> callable returning {key: number}
        self._counters = {}    # name -> Counter
        self._histograms = {}  # name -> Histogram

    # -- sources ---------------------------------------------------------------

    def register(self, prefix, source):
        """Attach a source under ``prefix`` (re-registering replaces it).

        ``source`` is a zero-argument callable returning a flat mapping,
        or an object exposing ``snapshot()``.
        """
        if callable(source):
            fn = source
        elif hasattr(source, "snapshot"):
            fn = source.snapshot
        else:
            raise TypeError(
                f"source for {prefix!r} is neither callable nor has snapshot()"
            )
        self._sources[prefix] = fn

    def unregister(self, prefix):
        self._sources.pop(prefix, None)

    @property
    def prefixes(self):
        return sorted(self._sources)

    # -- owned instruments ---------------------------------------------------------

    def counter(self, name):
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def histogram(self, name):
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        return histogram

    @property
    def histograms(self):
        return dict(self._histograms)

    # -- the snapshot/delta protocol ---------------------------------------------

    def snapshot(self):
        """All sources and owned counters as one flat ``{dotted.key: n}``."""
        out = {}
        for prefix, fn in self._sources.items():
            for key, value in fn().items():
                if isinstance(value, (int, float)):
                    out[f"{prefix}.{key}"] = value
        for name, counter in self._counters.items():
            out[name] = counter.value
        return out

    @staticmethod
    def delta(before, after):
        """Per-key difference; keys new in ``after`` count from zero."""
        return {
            key: value - before.get(key, 0)
            for key, value in after.items()
        }

    @staticmethod
    def nonzero(deltas):
        """Drop the zero entries (display helper)."""
        return {key: value for key, value in deltas.items() if value}

