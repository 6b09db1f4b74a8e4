"""Transaction-time infrastructure: timestamps, clocks, and time arithmetic.

The paper models transaction time as an abstract, totally ordered domain.  We
represent timestamps as integers counting **seconds since the Unix epoch**,
which gives us three things for free:

* calendar literals from the paper (``26/01/2001``) convert losslessly,
* interval arithmetic (``NOW - 14 DAYS``) is plain integer arithmetic,
* a deterministic :class:`LogicalClock` can hand out strictly increasing
  commit times for tests and benchmarks without touching the wall clock.

Two sentinels structure the validity intervals used throughout the library:

``UNTIL_CHANGED`` (aka *forever*)
    Upper bound of the current version's validity interval ``[t, UC)``.

``BEFORE_TIME``
    A timestamp strictly smaller than every real timestamp; convenient as the
    lower bound of history scans.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from datetime import date

from .errors import TimeError

#: Type alias documenting intent; timestamps are plain ints (seconds).
Timestamp = int

#: Exclusive upper bound for the open-ended "still current" interval.
UNTIL_CHANGED: Timestamp = 2**62

#: Strictly before any representable real time.
BEFORE_TIME: Timestamp = -(2**62)

SECONDS_PER_MINUTE = 60
SECONDS_PER_HOUR = 60 * SECONDS_PER_MINUTE
SECONDS_PER_DAY = 24 * SECONDS_PER_HOUR
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY

#: Interval units accepted by :func:`interval_seconds` (and the TXQL parser).
INTERVAL_UNITS = {
    "SECOND": 1,
    "SECONDS": 1,
    "MINUTE": SECONDS_PER_MINUTE,
    "MINUTES": SECONDS_PER_MINUTE,
    "HOUR": SECONDS_PER_HOUR,
    "HOURS": SECONDS_PER_HOUR,
    "DAY": SECONDS_PER_DAY,
    "DAYS": SECONDS_PER_DAY,
    "WEEK": SECONDS_PER_WEEK,
    "WEEKS": SECONDS_PER_WEEK,
}

_DATE_RE = re.compile(
    r"^(?P<day>\d{1,2})/(?P<month>\d{1,2})/(?P<year>\d{4})"
    r"(?:[ T](?P<hour>\d{1,2}):(?P<minute>\d{2})(?::(?P<second>\d{2}))?)?$"
)

#: The Gregorian calendar repeats every 400 years; ``datetime.date`` covers
#: one such era (years 1-400) and the era number carries every other year,
#: below 1 and above 9999 included.
_DAYS_PER_ERA = 146097
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


def _days_from_civil(year, month, day):
    """Day count from 1970-01-01 in the proleptic Gregorian calendar;
    ``ValueError`` when the year has no such month or day."""
    era, year_of_era = divmod(year - 1, 400)
    ordinal = date(year_of_era + 1, month, day).toordinal()
    return era * _DAYS_PER_ERA + ordinal - _EPOCH_ORDINAL


def _civil_from_days(days):
    """``(year, month, day)`` of a day count from 1970-01-01."""
    era, day_of_era = divmod(days + _EPOCH_ORDINAL - 1, _DAYS_PER_ERA)
    civil = date.fromordinal(day_of_era + 1)
    return civil.year + era * 400, civil.month, civil.day


def parse_date(text):
    """Parse a paper-style date literal (``dd/mm/yyyy[ hh:mm[:ss]]``).

    Returns the timestamp (seconds since epoch, UTC).  Raises
    :class:`~repro.errors.TimeError` on malformed or out-of-range input.

    >>> parse_date("26/01/2001") == parse_date("26/01/2001 00:00")
    True
    """
    match = _DATE_RE.match(text.strip())
    if match is None:
        raise TimeError(f"malformed date literal: {text!r}")
    day = int(match.group("day"))
    month = int(match.group("month"))
    year = int(match.group("year"))
    hour = int(match.group("hour") or 0)
    minute = int(match.group("minute") or 0)
    second = int(match.group("second") or 0)
    if hour > 23 or minute > 59 or second > 59:
        raise TimeError(f"time of day out of range in date literal: {text!r}")
    try:
        days = _days_from_civil(year, month, day)
    except ValueError:
        raise TimeError(
            f"day or month out of range in date literal: {text!r}"
        ) from None
    return (
        days * SECONDS_PER_DAY
        + hour * SECONDS_PER_HOUR
        + minute * SECONDS_PER_MINUTE
        + second
    )


def format_timestamp(ts):
    """Render a timestamp back into the paper's ``dd/mm/yyyy[ hh:mm:ss]`` form.

    The two sentinels render as ``"UC"`` and ``"-inf"``.
    """
    if ts >= UNTIL_CHANGED:
        return "UC"
    if ts <= BEFORE_TIME:
        return "-inf"
    days, rem = divmod(ts, SECONDS_PER_DAY)
    year, month, day = _civil_from_days(days)
    hour, rem = divmod(rem, SECONDS_PER_HOUR)
    minute, second = divmod(rem, SECONDS_PER_MINUTE)
    text = f"{day:02d}/{month:02d}/{year:04d}"
    if hour or minute or second:
        text += f" {hour:02d}:{minute:02d}:{second:02d}"
    return text


def interval_seconds(amount, unit):
    """Convert ``(amount, unit)`` (e.g. ``(14, "DAYS")``) to seconds."""
    try:
        scale = INTERVAL_UNITS[unit.upper()]
    except KeyError:
        raise TimeError(f"unknown interval unit: {unit!r}") from None
    return amount * scale


@dataclass(frozen=True, order=True)
class Interval:
    """A half-open validity interval ``[start, end)`` in transaction time.

    ``end == UNTIL_CHANGED`` means the interval is still current.  Intervals
    are immutable value objects; all algebra below returns new instances.
    """

    start: Timestamp
    end: Timestamp

    def __post_init__(self):
        if self.start >= self.end:
            raise TimeError(
                f"empty or inverted interval [{self.start}, {self.end})"
            )

    def contains(self, ts):
        """True if ``ts`` falls inside ``[start, end)``."""
        return self.start <= ts < self.end

    def overlaps(self, other):
        """True if the two half-open intervals share at least one instant."""
        return self.start < other.end and other.start < self.end

    def intersect(self, other):
        """Intersection interval, or ``None`` if disjoint."""
        start = max(self.start, other.start)
        end = min(self.end, other.end)
        if start >= end:
            return None
        return Interval(start, end)

    def meets(self, other):
        """True if ``self`` ends exactly where ``other`` starts."""
        return self.end == other.start

    def merge(self, other):
        """Union of two overlapping or adjacent intervals.

        Raises :class:`~repro.errors.TimeError` when the union would not be a
        single interval.
        """
        if not (self.overlaps(other) or self.meets(other) or other.meets(self)):
            raise TimeError("cannot merge disjoint, non-adjacent intervals")
        return Interval(min(self.start, other.start), max(self.end, other.end))

    @property
    def is_current(self):
        """True if the interval extends to *until changed*."""
        return self.end >= UNTIL_CHANGED

    def __str__(self):
        return f"[{format_timestamp(self.start)}, {format_timestamp(self.end)})"


def coalesce(intervals):
    """Merge a collection of intervals into maximal disjoint intervals.

    The classic temporal-database *coalescing* step (the paper mentions it as
    the extra operator a valid-time variant would need).  Output is sorted by
    start time.

    >>> [str(i.start) + ".." + str(i.end) for i in coalesce(
    ...     [Interval(5, 7), Interval(1, 3), Interval(3, 6)])]
    ['1..7']
    """
    merged = []
    for interval in sorted(intervals):
        if merged and interval.start <= merged[-1].end:
            if interval.end > merged[-1].end:
                merged[-1] = Interval(merged[-1].start, interval.end)
        else:
            merged.append(interval)
    return merged


#: Units accepted by the temporal bucket helpers (and the TXQL GROUP BY
#: bucket functions DAY/WEEK/MONTH/YEAR).
BUCKET_UNITS = ("DAY", "WEEK", "MONTH", "YEAR")


def bucket_floor(ts, unit):
    """Start of the calendar bucket containing ``ts``.

    ``DAY`` buckets are UTC days, ``WEEK`` buckets are seven-day spans
    anchored at the epoch (01/01/1970 was a Thursday; the anchor is the
    epoch itself, not a weekday), ``MONTH``/``YEAR`` are calendar months
    and years.  All buckets are closed-open: ``[floor, next)``.
    """
    unit = unit.upper()
    if unit == "DAY":
        return (ts // SECONDS_PER_DAY) * SECONDS_PER_DAY
    if unit == "WEEK":
        return (ts // SECONDS_PER_WEEK) * SECONDS_PER_WEEK
    year, month, _day = _civil_from_days(ts // SECONDS_PER_DAY)
    if unit == "MONTH":
        return _days_from_civil(year, month, 1) * SECONDS_PER_DAY
    if unit == "YEAR":
        return _days_from_civil(year, 1, 1) * SECONDS_PER_DAY
    raise TimeError(f"unknown bucket unit: {unit!r}")


def bucket_next(start, unit):
    """Start of the bucket following the one that starts at ``start``."""
    unit = unit.upper()
    if unit == "DAY":
        return start + SECONDS_PER_DAY
    if unit == "WEEK":
        return start + SECONDS_PER_WEEK
    year, month, _day = _civil_from_days(start // SECONDS_PER_DAY)
    if unit == "MONTH":
        if month == 12:
            year, month = year + 1, 1
        else:
            month += 1
        return _days_from_civil(year, month, 1) * SECONDS_PER_DAY
    if unit == "YEAR":
        return _days_from_civil(year + 1, 1, 1) * SECONDS_PER_DAY
    raise TimeError(f"unknown bucket unit: {unit!r}")


def bucket_spans(start_ts, end_ts, unit):
    """Closed-open bucket spans ``(bucket_start, bucket_end)`` overlapping
    the half-open range ``[start_ts, end_ts)``, in ascending order.

    The first span may start before ``start_ts`` (its bucket merely
    *contains* it); callers clip if they need exact coverage.  An empty
    range yields nothing.
    """
    if start_ts >= end_ts:
        return
    bucket = bucket_floor(start_ts, unit)
    while bucket < end_ts:
        following = bucket_next(bucket, unit)
        yield bucket, following
        bucket = following


class LogicalClock:
    """A deterministic transaction-time source.

    The store asks the clock for a commit time on every update.  ``tick``
    controls the spacing between successive commits, which makes generated
    histories easy to reason about in tests ("one commit per simulated day").
    """

    def __init__(self, start=parse_date("01/01/2001"), tick=SECONDS_PER_DAY):
        if tick <= 0:
            raise TimeError("clock tick must be positive")
        self._now = start
        self._tick = tick
        # Timestamp allocation must stay strictly monotone under concurrent
        # commits (the MVCC read paths depend on it), so both advance
        # operations are a single atomic read-modify-write.
        self._lock = threading.Lock()

    def now(self):
        """Current time; does not advance the clock."""
        return self._now

    def advance(self, seconds=None):
        """Advance by ``seconds`` (default: one tick) and return the new time."""
        step = self._tick if seconds is None else seconds
        if step <= 0:
            raise TimeError("clock can only move forward")
        with self._lock:
            self._now = _commit_time(self._now + step)
            return self._now

    def advance_to(self, ts):
        """Jump forward to ``ts``; rejects travel into the past."""
        with self._lock:
            if ts < self._now:
                raise TimeError(
                    f"cannot move clock backwards ({format_timestamp(ts)} < "
                    f"{format_timestamp(self._now)})"
                )
            self._now = _commit_time(ts)
            return self._now


def _commit_time(ts):
    """``ts`` if it can stamp a commit: strictly between the two sentinels
    (the indexes store commit times as 64-bit integers)."""
    if not BEFORE_TIME < ts < UNTIL_CHANGED:
        raise TimeError(f"commit time {ts} is outside the representable range")
    return ts
