"""Tests for timestamps, intervals, and the logical clock."""

import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from repro.clock import (
    BEFORE_TIME,
    BUCKET_UNITS,
    Interval,
    LogicalClock,
    SECONDS_PER_DAY,
    SECONDS_PER_WEEK,
    UNTIL_CHANGED,
    bucket_floor,
    bucket_next,
    coalesce,
    format_timestamp,
    interval_seconds,
    parse_date,
)
from repro.errors import TimeError


class TestParseDate:
    def test_paper_literal(self):
        assert parse_date("26/01/2001") == parse_date("25/01/2001") + SECONDS_PER_DAY

    def test_epoch(self):
        assert parse_date("01/01/1970") == 0

    def test_with_time_of_day(self):
        base = parse_date("26/01/2001")
        assert parse_date("26/01/2001 01:30") == base + 5400
        assert parse_date("26/01/2001 00:00:59") == base + 59

    def test_leap_year(self):
        assert (
            parse_date("01/03/2000") - parse_date("28/02/2000")
            == 2 * SECONDS_PER_DAY
        )

    def test_non_leap_century(self):
        assert (
            parse_date("01/03/1900") - parse_date("28/02/1900")
            == SECONDS_PER_DAY
        )

    @pytest.mark.parametrize(
        "bad",
        ["", "2001-01-26", "32/01/2001", "01/13/2001", "29/02/2001",
         "26/01/2001 24:00", "26/1/01"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(TimeError):
            parse_date(bad)


class TestFormatTimestamp:
    def test_roundtrip_date_only(self):
        assert format_timestamp(parse_date("26/01/2001")) == "26/01/2001"

    def test_roundtrip_with_time(self):
        text = "05/07/1999 13:45:07"
        assert format_timestamp(parse_date(text)) == text

    def test_sentinels(self):
        assert format_timestamp(UNTIL_CHANGED) == "UC"
        assert format_timestamp(BEFORE_TIME) == "-inf"

    @given(st.integers(min_value=-(4 * 10**11), max_value=4 * 10**11))
    def test_property_roundtrip(self, ts):
        """Years -10 700 to 14 600: the text is what counting year by year
        gives, and wherever ``parse_date`` can read a year (four digits) it
        reads the timestamp back."""
        text = format_timestamp(ts)
        assert text == _format_year_by_year(ts)
        if parse_date("01/01/0000") <= ts <= parse_date("31/12/9999 23:59:59"):
            assert parse_date(text) == ts

    @pytest.mark.timeout(5)
    @pytest.mark.parametrize("ts", [2**61, -(2**61), 4 * 10**11 * SECONDS_PER_DAY])
    def test_the_far_future_costs_what_tomorrow_costs(self, ts):
        """The year loop needed one step per year (2**61 s is 7e10 years);
        the calendar repeats every 400, which is how the expectation gets
        there."""
        era = 146097 * SECONDS_PER_DAY
        eras, rest = divmod(ts, era)
        assert format_timestamp(ts) == _format_year_by_year(rest, eras * 400)

    def test_agrees_with_the_parent_on_recorded_timestamps(self):
        """10 000 seeded instants in 1970-2100 through ``format_timestamp``
        and every bucket helper; the digest was taken with the year-by-year
        implementation at commit 9dc5f09."""
        rng = random.Random(23)
        digest = hashlib.sha256()
        for _ in range(10_000):
            ts = rng.randrange(parse_date("01/01/2101"))
            row = [ts, format_timestamp(ts)]
            for unit in BUCKET_UNITS:
                floor = bucket_floor(ts, unit)
                row += [floor, bucket_next(floor, unit)]
            digest.update(repr(row).encode())
        assert digest.hexdigest() == (
            "35713235e2b3da3f8f3574ec8af44f2d00c320a739fe73cb4b3ddd962eec0290"
        )


def _format_year_by_year(ts, add_years=0):
    """``format_timestamp`` as it was before the O(1) calendar: the
    reference the new one must equal."""

    def year_days(year):
        leap = year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)
        return 366 if leap else 365

    days, rem = divmod(ts, SECONDS_PER_DAY)
    year = 1970
    while days >= year_days(year):
        days -= year_days(year)
        year += 1
    while days < 0:
        year -= 1
        days += year_days(year)
    month_days = [31, year_days(year) - 337, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]
    month = 0
    while days >= month_days[month]:
        days -= month_days[month]
        month += 1
    text = f"{days + 1:02d}/{month + 1:02d}/{year + add_years:04d}"
    if rem:
        hour, rem = divmod(rem, 3600)
        text += f" {hour:02d}:{rem // 60:02d}:{rem % 60:02d}"
    return text


class TestBuckets:
    @given(
        st.integers(min_value=-(4 * 10**11), max_value=4 * 10**11),
        st.sampled_from(BUCKET_UNITS),
    )
    def test_floor_and_next_bracket_the_instant(self, ts, unit):
        floor = bucket_floor(ts, unit)
        following = bucket_next(floor, unit)
        assert floor <= ts < following
        assert bucket_floor(following - 1, unit) == floor
        assert bucket_floor(following, unit) == following
        starts = {"DAY": "", "WEEK": "", "MONTH": "01/", "YEAR": "01/01/"}
        assert _format_year_by_year(floor).startswith(starts[unit])
        assert " " not in _format_year_by_year(floor)

    @pytest.mark.timeout(5)
    def test_far_buckets_answer_at_once(self):
        floor = bucket_floor(10**16, "MONTH")
        assert floor <= 10**16 < bucket_next(floor, "MONTH")
        assert format_timestamp(floor).startswith("01/")
        assert bucket_next(bucket_floor(-(10**16), "YEAR"), "YEAR") > -(10**16)


class TestIntervalSeconds:
    def test_units(self):
        assert interval_seconds(14, "DAYS") == 14 * SECONDS_PER_DAY
        assert interval_seconds(2, "weeks") == 2 * SECONDS_PER_WEEK
        assert interval_seconds(1, "HOUR") == 3600

    def test_unknown_unit(self):
        with pytest.raises(TimeError):
            interval_seconds(3, "FORTNIGHTS")


class TestInterval:
    def test_rejects_empty(self):
        with pytest.raises(TimeError):
            Interval(5, 5)
        with pytest.raises(TimeError):
            Interval(6, 5)

    def test_contains_half_open(self):
        interval = Interval(10, 20)
        assert interval.contains(10)
        assert interval.contains(19)
        assert not interval.contains(20)
        assert not interval.contains(9)

    def test_overlaps_and_intersect(self):
        a = Interval(0, 10)
        b = Interval(5, 15)
        assert a.overlaps(b) and b.overlaps(a)
        assert a.intersect(b) == Interval(5, 10)

    def test_adjacent_do_not_overlap(self):
        a = Interval(0, 10)
        b = Interval(10, 20)
        assert not a.overlaps(b)
        assert a.intersect(b) is None
        assert a.meets(b)

    def test_merge(self):
        assert Interval(0, 10).merge(Interval(10, 20)) == Interval(0, 20)
        with pytest.raises(TimeError):
            Interval(0, 5).merge(Interval(6, 9))

    def test_is_current(self):
        assert Interval(0, UNTIL_CHANGED).is_current
        assert not Interval(0, 10).is_current


class TestCoalesce:
    def test_merges_overlapping_and_adjacent(self):
        merged = coalesce([Interval(5, 7), Interval(1, 3), Interval(3, 6)])
        assert merged == [Interval(1, 7)]

    def test_keeps_gaps(self):
        merged = coalesce([Interval(0, 2), Interval(5, 8)])
        assert merged == [Interval(0, 2), Interval(5, 8)]

    def test_empty(self):
        assert coalesce([]) == []

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 100), st.integers(1, 20)
            ).map(lambda p: Interval(p[0], p[0] + p[1])),
            max_size=20,
        )
    )
    def test_property_disjoint_sorted_and_covering(self, intervals):
        merged = coalesce(intervals)
        # Sorted and pairwise disjoint with gaps.
        for left, right in zip(merged, merged[1:]):
            assert left.end < right.start
        # Same coverage: every input instant is covered by exactly the merge.
        covered = set()
        for interval in intervals:
            covered.update(range(interval.start, interval.end))
        merged_cover = set()
        for interval in merged:
            merged_cover.update(range(interval.start, interval.end))
        assert covered == merged_cover


class TestLogicalClock:
    def test_advances_by_tick(self):
        clock = LogicalClock(start=100, tick=5)
        assert clock.now() == 100
        assert clock.advance() == 105
        assert clock.advance(2) == 107

    def test_rejects_backwards(self):
        clock = LogicalClock(start=100)
        with pytest.raises(TimeError):
            clock.advance(-1)
        with pytest.raises(TimeError):
            clock.advance_to(99)

    def test_advance_to(self):
        clock = LogicalClock(start=100)
        assert clock.advance_to(150) == 150
        assert clock.advance_to(150) == 150  # same instant allowed

    def test_bad_tick(self):
        with pytest.raises(TimeError):
            LogicalClock(tick=0)

    def test_commit_times_stay_between_the_sentinels(self):
        """The indexes store commit times as 64-bit integers, and the
        sentinels bound every interval."""
        clock = LogicalClock(start=100)
        for ts in (UNTIL_CHANGED, 2**63, 2**70):
            with pytest.raises(TimeError):
                clock.advance_to(ts)
        assert clock.now() == 100
        clock = LogicalClock(start=UNTIL_CHANGED - 2, tick=1)
        assert clock.advance() == UNTIL_CHANGED - 1
        with pytest.raises(TimeError):
            clock.advance()
        assert clock.now() == UNTIL_CHANGED - 1

    def test_an_out_of_range_commit_changes_nothing(self):
        from repro import TemporalXMLDatabase

        db = TemporalXMLDatabase()
        db.put("d.xml", "<d><a>x</a></d>")
        with pytest.raises(TimeError):
            db.update("d.xml", "<d><a>y</a></d>", ts=2**63)
        with pytest.raises(TimeError):
            db.put("e.xml", "<d><a>z</a></d>", ts=2**64)
        assert db.documents() == ["d.xml"]
        rows = db.query('SELECT R FROM doc("d.xml")/a R').rows
        assert [row["R"].tree.text for row in rows] == ["x"]
        assert len(db.lifetime) == 3 and db.fti.posting_count() == 3
