"""Tests for PatternScan, TPatternScan, TPatternScanAll."""

import random

import pytest

from hypothesis import given, settings, strategies as st

from repro.clock import SECONDS_PER_DAY, format_timestamp
from repro.index import TemporalFullTextIndex
from repro.operators import PatternScan, Reconstruct, TPatternScan, TPatternScanAll
from repro.pattern import Pattern
from repro.query import QueryEngine
from repro.query.parser import parse_query
from repro.query.planner import bind_planned
from repro.query.rewriter import rewrite
from repro.storage import TemporalDocumentStore
from repro.workload import load_figure1

from tests.conftest import JAN_01, JAN_15, JAN_26, JAN_31


@pytest.fixture
def setup():
    store = TemporalDocumentStore()
    fti = store.subscribe(TemporalFullTextIndex())
    load_figure1(store)
    return store, fti


def _names(store, teids):
    out = []
    for teid in teids:
        subtree = Reconstruct(store, teid).run()
        out.append(subtree.find("name").text)
    return sorted(out)


class TestPatternScan:
    def test_current_snapshot_only(self, setup):
        store, fti = setup
        scan = PatternScan(fti, Pattern.from_path("restaurant"))
        teids = list(scan.teids())
        assert _names(store, teids) == ["Napoli"]

    def test_value_pattern(self, setup):
        store, fti = setup
        pattern = Pattern.from_path(
            "restaurant/name", value="Napoli", project_last=False
        )
        assert len(list(PatternScan(fti, pattern).teids())) == 1
        gone = Pattern.from_path(
            "restaurant/name", value="Akropolis", project_last=False
        )
        assert list(PatternScan(fti, gone).teids()) == []

    def test_doc_restriction(self, setup):
        store, fti = setup
        store.put("other.com", "<guide><restaurant><name>Solo</name></restaurant></guide>")
        pattern = Pattern.from_path("restaurant")
        unrestricted = list(PatternScan(fti, pattern).teids())
        assert len(unrestricted) == 2
        restricted = PatternScan(
            fti, pattern, docs={store.doc_id("other.com")}
        ).teids()
        assert len(list(restricted)) == 1


class TestTPatternScan:
    def test_snapshot_at_jan26(self, setup):
        store, fti = setup
        scan = TPatternScan(
            fti, Pattern.from_path("restaurant"), JAN_26, store=store
        )
        assert _names(store, scan.teids()) == ["Akropolis", "Napoli"]

    def test_snapshot_at_jan01(self, setup):
        store, fti = setup
        scan = TPatternScan(
            fti, Pattern.from_path("restaurant"), JAN_01, store=store
        )
        assert _names(store, scan.teids()) == ["Napoli"]

    def test_before_creation_empty(self, setup):
        store, fti = setup
        scan = TPatternScan(
            fti, Pattern.from_path("restaurant"), JAN_01 - 10, store=store
        )
        assert list(scan.teids()) == []

    def test_teids_normalized_to_version_commit(self, setup):
        store, fti = setup
        scan = TPatternScan(
            fti, Pattern.from_path("restaurant"), JAN_26, store=store
        )
        assert {t.timestamp for t in scan.teids()} == {JAN_15}


class TestTPatternScanAll:
    def test_whole_history(self, setup):
        store, fti = setup
        scan = TPatternScanAll(
            fti, Pattern.from_path("restaurant"), store=store
        )
        matches = list(scan.run())
        # Napoli has one maximal interval; Akropolis another.
        assert len(matches) == 2

    def test_match_intervals(self, setup):
        store, fti = setup
        pattern = Pattern.from_path(
            "restaurant/name", value="Akropolis", project_last=False
        )
        match = next(iter(TPatternScanAll(fti, pattern, store=store).run()))
        assert match.interval.start == JAN_15
        assert match.interval.end == JAN_31

    def test_per_version_expansion(self, setup):
        store, fti = setup
        pattern = Pattern.from_path(
            "restaurant/name", value="Napoli", project_last=False
        )
        scan = TPatternScanAll(fti, pattern, store=store)
        teids = list(scan.teids_per_version())
        assert [t.timestamp for t in teids] == [JAN_01, JAN_15, JAN_31]
        # All versions of the same element share the EID.
        assert len({t.eid for t in teids}) == 1

    def test_history_teids_normalized_like_snapshot(self, setup):
        # Regression: the history scan must push TEIDs through the same
        # store normalization as the snapshot scan, so both variants hand
        # out identical canonical TEIDs.
        store, fti = setup
        pattern = Pattern.from_path("restaurant")
        history = list(TPatternScanAll(fti, pattern, store=store).teids())
        assert history  # sanity
        for teid in history:
            assert store.normalize_teid(teid) == teid
        # Same elements as the snapshot scan sees — the history variant
        # anchors each at its first matching version instead of JAN_26's.
        snapshot = list(
            TPatternScan(fti, pattern, JAN_26, store=store).teids()
        )
        assert {t.eid for t in snapshot} == {t.eid for t in history}
        assert [t.timestamp for t in history] == [JAN_01, JAN_15]

    def test_value_that_never_existed(self, setup):
        store, fti = setup
        pattern = Pattern.from_path(
            "restaurant/name", value="Atlantis", project_last=False
        )
        assert list(TPatternScanAll(fti, pattern, store=store).run()) == []

    def test_temporal_join_rejects_disjoint_combination(self, setup):
        store, fti = setup
        # "akropolis" (Jan 15-31) never coexists with price "18" (Jan 31-).
        pattern = Pattern.from_path(
            "restaurant", value="18", project_last=False
        )
        # restrict further: restaurant containing both akropolis and 18
        from repro.pattern import PatternNode

        root = pattern.nodes()[0]
        root.add(PatternNode("akropolis", kind="word", relationship="contains"))
        rebuilt = Pattern(root)
        assert list(TPatternScanAll(fti, rebuilt, store=store).run()) == []


_LAW_WORDS = ("gold", "tin", "red")


def _generated_history(seed, versions):
    """Two documents whose ``item`` elements come, change words and go
    over ``versions`` commits (one document deleted on the way, maybe);
    the root is never an ``item``, so ``//item`` anchors every match.
    Returns the store, its FTI, the sorted commit times and the rng."""
    rng = random.Random(seed)

    def tree():
        items = "".join(
            "<item>{}<box>{}</box></item>".format(
                " ".join(rng.sample(_LAW_WORDS, rng.randint(1, 2))),
                rng.choice(_LAW_WORDS))
            for _ in range(rng.randint(0, 3)))
        return f"<guide>{items}<box><item>{rng.choice(_LAW_WORDS)}</item></box></guide>"

    store = TemporalDocumentStore()
    fti = store.subscribe(TemporalFullTextIndex())
    names = ["a.xml", "b.xml"]
    for name in names:
        store.put(name, tree())
    for _ in range(versions - 1):
        name = rng.choice(names)
        if len(names) > 1 and rng.random() < 0.15:
            store.delete(name)
            names.remove(name)
        else:
            store.update(name, tree())
    commits = sorted({entry.timestamp for name in ("a.xml", "b.xml")
                      for entry in store.delta_index(name).entries})
    return store, fti, commits, rng


def _bound_teids(engine, text):
    """The TEIDs TXQL binds the query's one FROM variable to, in order,
    and the FROM item's plan."""
    query, windows = rewrite(parse_query(text), now=engine.now())
    (item,) = engine.plan(query, windows).items
    return [binding.teid for binding in bind_planned(engine, item)], item


class TestTXQLBindsThroughTheScans:
    """TXQL's index bindings are the scan operators' own projection."""

    @given(st.integers(0, 10_000), st.integers(1, 7))
    @settings(max_examples=25, deadline=None)
    def test_snapshot_bindings_are_the_scan_teids(self, seed, versions):
        store, fti, commits, rng = _generated_history(seed, versions)
        engine = QueryEngine(store, fti=fti)
        # TXQL names days; commits are a day apart, the first at a midnight.
        ts = rng.choice([commits[0] - SECONDS_PER_DAY, *commits])
        bound, item = _bound_teids(
            engine, f'SELECT R FROM doc("*.xml")[{format_timestamp(ts)}]//item R')
        assert item.strategy == "index"
        scan = TPatternScan(fti, Pattern.from_path("//item"), item.timestamp,
                            store, docs=item.doc_ids)
        assert bound == list(scan.teids())

    @given(st.integers(0, 10_000), st.integers(1, 7), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_every_bindings_are_the_per_version_teids(self, seed, versions,
                                                      windowed):
        store, fti, commits, rng = _generated_history(seed, versions)
        engine = QueryEngine(store, fti=fti)
        text = 'SELECT R FROM doc("*.xml")[EVERY]//item R'
        if windowed:  # the rewriter turns this into the planned range
            cutoff = rng.choice(commits)
            text += f" WHERE TIME(R) >= {format_timestamp(cutoff)}"
        bound, item = _bound_teids(engine, text)
        assert item.strategy == "index"
        start, end = item.versions
        assert (start > engine.horizon_start()) == windowed
        scan = TPatternScanAll(fti, Pattern.from_path("//item"), store,
                               docs=item.doc_ids)

        def in_range(teid):
            dindex = store.delta_index(teid.doc_id)
            validity = dindex.validity(dindex.version_at(teid.timestamp))
            return validity.start < end and validity.end > start

        assert bound == [t for t in scan.teids_per_version() if in_range(t)]
