"""Central metrics registry: one snapshot/delta protocol for every counter.

Before this existed, per-query cost reporting meant remembering which of
five stats objects to reset and *how* (each zeroed its own fields, the
repository counters are bare ints...).  The registry replaces that with
subtraction:

>>> before = registry.snapshot()                     # doctest: +SKIP
>>> run_query()                                      # doctest: +SKIP
>>> cost = MetricsRegistry.delta(before, registry.snapshot())  # doctest: +SKIP

A *source* is a counter object — a mapping, or a dataclass whose fields
are its counters — or a zero-argument callable returning one.  Sources
are registered under a prefix; the registry's snapshot walks each one's
fields (``vars()`` of a dataclass), nested dicts included, and keeps the
numbers under dotted keys (``"store.delta_reads"``,
``"anchors.by_anchor.current"``).  Counters must be cumulative (monotone
within a region) for deltas to mean anything; gauges like
``postings``/``bytes`` may shrink, which simply yields negative deltas.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import fields, is_dataclass


class MetricsRegistry:
    """Named counter sources, snapshot as one dict."""

    def __init__(self):
        self._sources = {}     # prefix -> live field mapping, or a callable
        self._names = {}       # dotted prefix -> {key: dotted key}

    # -- sources ---------------------------------------------------------------

    def register(self, prefix, source):
        """Attach a source under ``prefix`` (re-registering replaces it).

        ``source`` is a mapping, a dataclass instance (read live through
        its ``vars()``), or a zero-argument callable returning either.
        """
        if not callable(source):
            source = _fields(source)
        self._sources[prefix] = source

    @property
    def prefixes(self):
        return sorted(self._sources)

    # -- the snapshot/delta protocol ---------------------------------------------

    def snapshot(self):
        """All sources as one flat ``{dotted.key: n}``."""
        out = {}
        for prefix, source in self._sources.items():
            if callable(source):
                source = _fields(source())
            self._flatten(prefix, source, out)
        return out

    def _flatten(self, prefix, mapping, out):
        names = self._names.get(prefix)
        if names is None:
            names = self._names[prefix] = {}
        for key, value in mapping.items():
            name = names.get(key)
            if name is None:
                name = names[key] = f"{prefix}.{key}"
            if isinstance(value, dict):
                self._flatten(name, value, out)
            elif isinstance(value, (int, float)):
                out[name] = value

    @staticmethod
    def delta(before, after):
        """Per-key difference; keys new in ``after`` count from zero."""
        return {
            key: value - before.get(key, 0)
            for key, value in after.items()
        }


def _fields(source):
    """``source``'s counters as a mapping: itself, or a dataclass's fields
    (its live ``vars()``, or a copy for a slots dataclass)."""
    if isinstance(source, Mapping):
        return source
    if is_dataclass(source) and not isinstance(source, type):
        if hasattr(source, "__dict__"):
            return vars(source)
        return {f.name: getattr(source, f.name) for f in fields(source)}
    raise TypeError(
        f"counter source {source!r} is neither a mapping nor a dataclass"
    )
