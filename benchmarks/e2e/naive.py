"""An evaluator for the benchmark's query templates that never touches the
engine: no store, no index, no differ — only the ``(ts, ((name, price),
...))`` states the generator went through (``Corpus.guide_states``).

Templates whose answer depends on how the differ matched elements across
versions (``==``, ``CREATE TIME``) have no model here; :func:`expected`
returns ``None`` for them.
"""

from __future__ import annotations

import calendar
from datetime import datetime, timezone

from .corpus import HOUR, START

DAY = 24 * HOUR
#: The engine's "until changed" end of a still-current version.
OPEN = None


def expected(query, guide_states, now):
    """Rows the query must return, normalised like :func:`observed`."""
    model = _MODELS.get(query.template)
    if model is None:
        return None
    return sorted(model(guide_states, now, *query.params))


def observed(query, result):
    """The engine's ``ResultSet`` in the same normal form."""
    return sorted(_NORMALISERS[query.template](result))


# -- the version timeline --------------------------------------------------------


def _versions(states):
    """``(start, end, restaurants)`` per version; the last one is open."""
    for index, (ts, restaurants) in enumerate(states):
        end = states[index + 1][0] if index + 1 < len(states) else OPEN
        yield ts, end, restaurants


def _state_at(states, instant):
    current = ()
    for ts, restaurants in states:
        if ts > instant:
            break
        current = restaurants
    return current


def _instant(hour):
    return START + hour * HOUR


# -- models -----------------------------------------------------------------------


def _asof_pred(guides, now, guide, hour, price):
    return [
        (name,) for name, p in _state_at(guides[guide], _instant(hour))
        if p < price
    ]


def _asof_sum(guides, now, guide, hour):
    return [(len(_state_at(guides[guide], _instant(hour))),)]


def _current_pred(guides, now, guide, price):
    return [(name, p) for name, p in guides[guide][-1][1] if p > price]


def _q3(guides, now, guide, name):
    return [
        (ts, p)
        for ts, _end, restaurants in _versions(guides[guide])
        for n, p in restaurants if n == name
    ]


def _coalesce(guides, now, guide, name):
    by_price = {}
    for ts, end, restaurants in _versions(guides[guide]):
        for n, p in restaurants:
            if n == name:
                by_price.setdefault(p, []).append((ts, end))
    rows = []
    for price, intervals in by_price.items():
        merged = []
        for start, end in sorted(intervals, key=lambda i: i[0]):
            if merged and merged[-1][1] is OPEN:
                continue
            if merged and start <= merged[-1][1]:
                if end is OPEN or end > merged[-1][1]:
                    merged[-1] = (merged[-1][0], end)
            else:
                merged.append((start, end))
        rows.extend((price, start, _end_key(end)) for start, end in merged)
    return rows


def _windowed_versions(states, now, seconds):
    """Versions whose validity meets the trailing window ``[now - s, now]``,
    each with its validity clipped at ``now`` for bucketing."""
    for start, end, restaurants in _versions(states):
        if start <= now and (end is OPEN or end > now - seconds):
            yield start, now if end is OPEN else end, restaurants


def _buckets(start, end, floor, following):
    bucket = floor(start)
    while bucket < end:
        yield bucket
        bucket = following(bucket)


def _month_floor(ts):
    moment = datetime.fromtimestamp(ts, timezone.utc)
    return calendar.timegm((moment.year, moment.month, 1, 0, 0, 0))


def _month_next(ts):
    moment = datetime.fromtimestamp(ts, timezone.utc)
    year, month = divmod(moment.month, 12)
    return calendar.timegm((moment.year + year, month + 1, 1, 0, 0, 0))


def _group_month(guides, now, guide, days):
    prices = {}
    for start, end, restaurants in _windowed_versions(
        guides[guide], now, days * DAY
    ):
        for bucket in _buckets(start, end, _month_floor, _month_next):
            prices.setdefault(bucket, []).extend(p for _n, p in restaurants)
    return [
        (bucket, round(sum(values) / len(values), 6))
        for bucket, values in prices.items()
    ]


def _within_all(guides, now, hours):
    counts = {}
    for states in guides.values():
        for start, end, restaurants in _windowed_versions(
            states, now, hours * HOUR
        ):
            for bucket in _buckets(
                start, end, lambda ts: ts - ts % DAY, lambda ts: ts + DAY
            ):
                counts[bucket] = counts.get(bucket, 0) + len(restaurants)
    return list(counts.items())


_MODELS = {
    "asof_pred": _asof_pred,
    "asof_sum": _asof_sum,
    "current_pred": _current_pred,
    "q3": _q3,
    "coalesce": _coalesce,
    "group_month": _group_month,
    "within_all": _within_all,
}
MODELLED = frozenset(_MODELS)


# -- normalising engine results -----------------------------------------------------


def _end_key(end):
    """Open ends sort last and compare equal across both sides."""
    return float("inf") if end is OPEN or end >= 2**62 else end


def _texts(value):
    return [node.node.text_content() for node in value]


def _names(result):
    return [(name,) for row in result.rows for name in _texts(row["R/name"])]


def _scalar(result):
    return [(int(next(iter(row.values()))),) for row in result.rows]


def _name_price(result):
    return [
        (_texts(row["R/name"])[0], int(_texts(row["R/price"])[0]))
        for row in result.rows
    ]


def _time_price(result):
    return [
        (int(row["TIME(R)"]), int(_texts(row["R/price"])[0]))
        for row in result.rows
    ]


def _price_valid(result):
    return [
        (int(_texts(row["R/price"])[0]), row["VALID"].start,
         _end_key(row["VALID"].end))
        for row in result.rows
    ]


def _bucket_value(result):
    bucket, value = result.columns
    return [
        (int(row[bucket]), round(float(row[value]), 6)) for row in result.rows
    ]


_NORMALISERS = {
    "asof_pred": _names,
    "asof_sum": _scalar,
    "current_pred": _name_price,
    "q3": _time_price,
    "coalesce": _price_valid,
    "group_month": _bucket_value,
    "within_all": _bucket_value,
}
