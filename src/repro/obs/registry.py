"""Central metrics registry: one snapshot/delta protocol for every counter.

Before this existed, per-query cost reporting meant remembering which of
five stats objects to reset and *how* (each zeroed its own fields, the
repository counters are bare ints...).  The registry replaces that with
subtraction:

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
"""

from __future__ import annotations


class MetricsRegistry:
    """Named counter sources, snapshot as one dict."""

    def __init__(self):
        self._sources = {}     # prefix -> callable returning {key: number}

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

    @property
    def prefixes(self):
        return sorted(self._sources)

    # -- the snapshot/delta protocol ---------------------------------------------

    def snapshot(self):
        """All sources as one flat ``{dotted.key: n}``."""
        out = {}
        for prefix, fn in self._sources.items():
            for key, value in fn().items():
                if isinstance(value, (int, float)):
                    out[f"{prefix}.{key}"] = value
        return out

    @staticmethod
    def delta(before, after):
        """Per-key difference; keys new in ``after`` count from zero."""
        return {
            key: value - before.get(key, 0)
            for key, value in after.items()
        }
