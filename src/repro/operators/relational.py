"""Traditional operators: selection, projection, joins, aggregates.

The paper assumes these exist ("we also assume the availability of
traditional operators, for example projection and join") and adds one
temporal flavour: a join whose condition includes validity-interval overlap.

All operators here are lazy iterators over **rows** — plain dicts mapping
variable names to values.  ``QueryEngine.run`` composes every TXQL query
from them (:class:`Join` → :class:`Select` → :class:`Project`
[→ :class:`Distinct` | → :class:`Coalesce`] or :class:`GroupedAggregate`).
Rows that carry a validity interval hold it under the reserved key
``"__interval__"``.
"""

from __future__ import annotations

from itertools import product

#: Reserved row key holding a :class:`~repro.clock.Interval`.
INTERVAL_KEY = "__interval__"

#: Aggregate kinds of :class:`GroupedAggregate` / :func:`finish_aggregate`.
AGGREGATE_KINDS = ("sum", "count", "avg", "min", "max")


class Select:
    """Filter rows by a predicate."""

    def __init__(self, source, predicate):
        self.source = source
        self.predicate = predicate

    def __iter__(self):
        for row in self.source:
            if self.predicate(row):
                yield row


class Project:
    """Map each row to a new row of named expressions.

    ``columns`` maps output names to callables over the input row.
    """

    def __init__(self, source, columns):
        self.source = source
        self.columns = columns

    def __iter__(self):
        for row in self.source:
            yield {name: fn(row) for name, fn in self.columns.items()}


class Join:
    """Product of per-variable binding lists: one ``{variable: binding}``
    row per combination, in nested-loop order over ``sources``.

    ``sources`` maps each variable to its bindings.  The first source
    *streams* — it is pulled one binding at a time, so a LIMIT above the
    join stops its scan mid-flight — and the others are materialized once,
    in ``order`` (a permutation of the non-first variables; default: as
    given).  The first empty materialized list ends the join before the
    remaining sources are drained.

    ``prefilters`` maps a variable to a predicate over the single-variable
    row ``{variable: binding}``; a binding that fails it never enters the
    product.  Neither ``order`` nor ``prefilters`` affects row order.
    """

    def __init__(self, sources, prefilters=None, order=None):
        self.sources = sources
        self.prefilters = prefilters or {}
        self.order = order

    def __iter__(self):
        first, *rest = self.sources
        lists = {}
        for variable in rest if self.order is None else self.order:
            lists[variable] = list(self._accepted(variable))
            if not lists[variable]:
                return
        rest_lists = [lists[variable] for variable in rest]
        for binding in self._accepted(first):
            for combination in product(*rest_lists):
                row = {first: binding}
                row.update(zip(rest, combination))
                yield row

    def _accepted(self, variable):
        accept = self.prefilters.get(variable)
        if accept is None:
            return self.sources[variable]
        return (
            binding for binding in self.sources[variable]
            if accept({variable: binding})
        )


class Distinct:
    """Duplicate elimination (by a key function, default: sorted items)."""

    def __init__(self, source, key=None):
        self.source = source
        self.key = key

    def __iter__(self):
        seen = set()
        for row in self.source:
            key = self.key(row) if self.key else _row_key(row)
            if key not in seen:
                seen.add(key)
                yield row


class Coalesce:
    """Merge value-equivalent rows with adjacent/overlapping intervals.

    The classic temporal *coalescing* operator — the one the paper says a
    valid-time variant of the system would additionally need (Section 3.1).
    Rows are grouped by their non-interval content; each group's validity
    intervals are merged into maximal disjoint intervals, and one row per
    merged interval is emitted.

    Example: three versions of a restaurant priced 15, 15, 18 coalesce into
    two rows — price 15 over the union of the first two validity intervals,
    price 18 over the third.

    Grouping contract: rows are value-equivalent when their non-interval
    columns compare equal under :func:`_row_key` (nodes by serialization,
    column order irrelevant).  Groups are emitted in first-seen order.
    Rows *without* an ``__interval__`` cannot participate in interval
    merging; they pass through with multiplicity preserved — a group seen
    n times without an interval yields n interval-less rows (before that
    group's merged-interval rows, if it also had timestamped members).
    """

    def __init__(self, source):
        self.source = source

    def __iter__(self):
        from ..clock import coalesce as merge_intervals

        groups = {}
        order = []
        for row in self.source:
            key = _row_key(row)
            if key not in groups:
                groups[key] = {"row": row, "intervals": [], "bare": 0}
                order.append(key)
            interval = row.get(INTERVAL_KEY)
            if interval is None:
                groups[key]["bare"] += 1
            else:
                groups[key]["intervals"].append(interval)
        for key in order:
            group = groups[key]
            if group["bare"]:
                bare = dict(group["row"])
                bare.pop(INTERVAL_KEY, None)
                for _ in range(group["bare"]):
                    yield dict(bare)
            for interval in merge_intervals(group["intervals"]):
                merged = dict(group["row"])
                merged[INTERVAL_KEY] = interval
                yield merged


class GroupedAggregate:
    """Group rows and aggregate within each group — the one aggregate
    operator, for GROUP BY and for global aggregation alike.

    ``keys`` maps output column names to callables producing a row's
    grouping value.  A key callable may return a **list** of values —
    temporal bucketing does, one bucket start per calendar bucket the
    row's validity overlaps — in which case the row contributes once per
    value (and, with several multi-valued keys, once per combination).  A
    row whose key list is empty falls into no group and is dropped.  With
    no keys at all every row falls into one global group, which is
    emitted even over empty input (``COUNT`` = 0, the others ``None``).

    ``specs`` maps output names to ``(kind, expr)`` where ``kind`` is one
    of :data:`AGGREGATE_KINDS` and ``expr`` returns the row's *list of
    contributions* (``count`` counts them, ``sum`` adds them, ...);
    ``None`` contributes ``[1]`` (bare ``COUNT(*)``-style counting).

    ``distinct_key`` (optional) maps a row to a hashable key; within each
    group only the first row per key contributes to the aggregates — SQL
    ``COUNT(DISTINCT ...)`` semantics.

    Groups are emitted sorted by their key values (via :func:`_sort_value`)
    so output order is deterministic regardless of input order.
    """

    def __init__(self, source, keys, specs, distinct_key=None):
        for name, (kind, _expr) in specs.items():
            if kind not in AGGREGATE_KINDS:
                raise ValueError(f"unknown aggregate {kind!r} for {name!r}")
        self.source = source
        self.keys = keys
        self.specs = specs
        self.distinct_key = distinct_key

    def _new_group(self, values):
        return {
            "values": values,
            "acc": {name: [] for name in self.specs},
            "seen": set(),
        }

    def __iter__(self):
        key_names = list(self.keys)
        groups = {} if key_names else {(): self._new_group({})}
        for row in self.source:
            combos = [{}]
            for name in key_names:
                produced = self.keys[name](row)
                values = produced if isinstance(produced, list) else [produced]
                combos = [
                    {**combo, name: value}
                    for combo in combos
                    for value in values
                ]
            if not combos:
                continue
            contributions = {}
            for name, (_kind, expr) in self.specs.items():
                if expr is None:
                    contributions[name] = [1]
                else:
                    values = expr(row)
                    contributions[name] = (
                        values if isinstance(values, list) else [values]
                    )
            dkey = self.distinct_key(row) if self.distinct_key else None
            for combo in combos:
                gid = tuple(_value_key(combo[name]) for name in key_names)
                group = groups.get(gid)
                if group is None:
                    group = groups[gid] = self._new_group(combo)
                if dkey is not None:
                    if dkey in group["seen"]:
                        continue
                    group["seen"].add(dkey)
                for name, values in contributions.items():
                    group["acc"][name].extend(values)

        def group_order(gid):
            values = groups[gid]["values"]
            return tuple(_sort_value(values[name]) for name in key_names)

        for gid in sorted(groups, key=group_order):
            group = groups[gid]
            out = dict(group["values"])
            for name, (kind, _expr) in self.specs.items():
                out[name] = finish_aggregate(kind, group["acc"][name])
            yield out


def finish_aggregate(kind, values):
    """Fold one aggregate's collected contributions into its result."""
    if kind == "count":
        return len(values)
    if not values:
        return None
    if kind == "sum":
        return sum(values)
    if kind == "avg":
        return sum(values) / len(values)
    if kind == "min":
        return min(values)
    return max(values)


def _row_key(row):
    """Hashable identity of a row for Distinct."""
    parts = []
    for name in sorted(row):
        if name == INTERVAL_KEY:
            continue
        parts.append((name, _value_key(row[name])))
    return tuple(parts)


def _value_key(value):
    from ..query.values import BoundElement, NodeValue
    from ..xmlcore.node import Element, Text
    from ..xmlcore.serializer import serialize

    if isinstance(value, (Element, Text)):
        return serialize(value)
    if isinstance(value, BoundElement):
        return serialize(value.tree)
    if isinstance(value, NodeValue):
        return serialize(value.node)
    if isinstance(value, list):
        return tuple(_value_key(v) for v in value)
    return value


def _sort_value(value):
    """Total order over heterogeneous grouping values.

    ``None`` sorts first, then numbers (timestamps are ints), then
    strings, then everything else by the string form of its value key
    (nodes order by their serialization).
    """
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (3, str(value))
    if isinstance(value, (int, float)):
        return (1, value)
    if isinstance(value, str):
        return (2, value)
    return (3, str(_value_key(value)))
