"""Equivalence harness: the streaming hash join vs. the seed nested loop.

The overhauled :func:`structural_join` must produce the *identical* match
set — ``(doc_id, xids, interval)`` triples — as the paper's backtracking
:func:`nested_loop_join` it replaced, across randomized tdocgen histories
and the edge cases that historically break structural joins (repeated
terms, branching patterns, adjacent intervals, empty lists).
"""

import itertools

import pytest

from benchmarks.ablation.joins import nested_loop_join
from repro.clock import SECONDS_PER_DAY, parse_date
from repro.index import JoinStats, TemporalFullTextIndex
from repro.index.postings import Posting
from repro.pattern import Pattern, PatternNode, structural_join
from repro.storage import TemporalDocumentStore
from repro.workload.tdocgen import TDocGenerator, build_collection

T0 = parse_date("01/01/2001")

_TAGS = ("section", "item", "entry", "record", "note", "para")


def busiest_tag(fti):
    """The generator tag with the longest history posting list — guaranteed
    non-empty whatever the seed produced."""
    return max(_TAGS, key=lambda tag: len(fti.lookup_h(tag)))


def match_keys(matches):
    return {(m.doc_id, m.xids(), m.interval) for m in matches}


def history_lists(fti, pattern, docs=None):
    return [fti.lookup_h(n.term, docs=docs) for n in pattern.nodes()]


def snapshot_lists(fti, pattern, ts, docs=None):
    return [fti.lookup_t(n.term, ts, docs=docs) for n in pattern.nodes()]


def branch_pattern():
    """A root bound by two children — the shape selectivity reordering
    and the per-edge hash indexes must not confuse."""
    root = PatternNode("doc")
    root.add(PatternNode("section", relationship="descendant"))
    root.add(PatternNode("item", relationship="descendant"))
    return Pattern(root)


PATTERNS = [
    Pattern.from_path("section"),
    Pattern.from_path("section/item"),
    Pattern.from_path("doc//item"),
    branch_pattern(),
]


@pytest.fixture(params=[3, 11, 42])
def generated(request):
    store = TemporalDocumentStore()
    fti = store.subscribe(TemporalFullTextIndex())
    generator = TDocGenerator(seed=request.param, p_update=0.3,
                              p_insert=0.1, p_delete=0.1)
    build_collection(store, n_docs=4, versions_per_doc=6,
                     generator=generator, start_ts=T0)
    return store, fti


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("pattern", PATTERNS, ids=repr)
    def test_history_join_identical(self, generated, pattern):
        _store, fti = generated
        lists = history_lists(fti, pattern)
        old = nested_loop_join(pattern, lists)
        new = list(structural_join(pattern, lists))
        assert match_keys(new) == match_keys(old)
        # Set semantics on both sides: no duplicate keys emitted.
        assert len(match_keys(new)) == len(new)
        assert len(match_keys(old)) == len(old)

    @pytest.mark.parametrize("pattern", PATTERNS, ids=repr)
    @pytest.mark.parametrize("day", [0, 2, 5, 30])
    def test_snapshot_join_identical(self, generated, pattern, day):
        _store, fti = generated
        ts = T0 + day * SECONDS_PER_DAY
        lists = snapshot_lists(fti, pattern, ts)
        old = nested_loop_join(pattern, lists)
        new = list(structural_join(pattern, lists))
        assert match_keys(new) == match_keys(old)

    def test_doc_restriction_identical(self, generated):
        store, fti = generated
        pattern = Pattern.from_path("doc//item")
        docs = {store.doc_id("doc1.xml"), store.doc_id("doc3.xml")}
        restricted = list(
            structural_join(pattern, history_lists(fti, pattern), docs=docs)
        )
        full = nested_loop_join(pattern, history_lists(fti, pattern))
        expected = {k for k in match_keys(full) if k[0] in docs}
        assert match_keys(restricted) == expected

    def test_single_doc_fast_path_identical(self, generated):
        store, fti = generated
        pattern = Pattern.from_path("section/item")
        only = {store.doc_id("doc2.xml")}
        lists = history_lists(fti, pattern)
        fast = list(structural_join(pattern, lists, docs=only))
        slow = [
            m for m in nested_loop_join(pattern, lists)
            if m.doc_id in only
        ]
        assert match_keys(fast) == match_keys(slow)

    def test_probed_never_exceeds_scanned(self, generated):
        _store, fti = generated
        pattern = Pattern.from_path(f"doc//{busiest_tag(fti)}")
        stats = JoinStats()
        list(structural_join(pattern, history_lists(fti, pattern),
                             stats=stats))
        assert stats.candidates_probed <= stats.candidates_scanned
        assert stats.matches_emitted > 0


class TestEdgeCases:
    def test_repeated_terms_in_one_element(self):
        store = TemporalDocumentStore()
        fti = store.subscribe(TemporalFullTextIndex())
        store.put("r.xml", "<doc><item>red red red</item></doc>", ts=T0)
        pattern = Pattern.from_path("item", value="red")
        lists = history_lists(fti, pattern)
        old = nested_loop_join(pattern, lists)
        new = list(structural_join(pattern, lists))
        assert match_keys(new) == match_keys(old)
        assert len(new) == 1  # set semantics collapse the occurrences

    def test_shared_parent_bound_by_two_children(self):
        store = TemporalDocumentStore()
        fti = store.subscribe(TemporalFullTextIndex())
        store.put(
            "s.xml",
            "<doc><section><item>a</item></section>"
            "<section><note>b</note></section></doc>",
            ts=T0,
        )
        root = PatternNode("section")
        root.add(PatternNode("item", relationship="child"))
        root.add(PatternNode("note", relationship="child"))
        pattern = Pattern(root)
        lists = history_lists(fti, pattern)
        old = nested_loop_join(pattern, lists)
        new = list(structural_join(pattern, lists))
        # No section has both an item and a note child.
        assert match_keys(new) == match_keys(old) == set()

    def test_empty_posting_list(self):
        store = TemporalDocumentStore()
        fti = store.subscribe(TemporalFullTextIndex())
        store.put("e.xml", "<doc><item>x</item></doc>", ts=T0)
        pattern = Pattern.from_path("item", value="missing")
        lists = history_lists(fti, pattern)
        assert lists[-1] == []
        assert nested_loop_join(pattern, lists) == []
        assert list(structural_join(pattern, lists)) == []

    def test_adjacent_intervals_do_not_join(self):
        # Parent valid [T0, T0+10); child born exactly at T0+10.  Half-open
        # semantics: no shared instant, no match — and the bisect prune in
        # the hash join must agree with the nested loop's intersect.
        parent = Posting(1, 1, (), "a", T0, T0 + 10)
        adjacent = Posting(1, 2, (1,), "a/b", T0 + 10, T0 + 20)
        overlapping = Posting(1, 3, (1,), "a/b", T0 + 9, T0 + 20)
        root = PatternNode("a")
        root.add(PatternNode("b", relationship="child"))
        pattern = Pattern(root)
        lists = [[parent], [adjacent, overlapping]]
        old = nested_loop_join(pattern, lists)
        new = list(structural_join(pattern, lists))
        assert match_keys(new) == match_keys(old)
        assert len(new) == 1
        assert new[0].interval.start == T0 + 9
        assert new[0].interval.end == T0 + 10  # minimal one-second overlap

    def test_interval_prune_counted(self):
        parent = Posting(1, 1, (), "a", T0, T0 + 10)
        late = [
            Posting(1, 10 + i, (1,), "a/b", T0 + 100 + i, T0 + 200)
            for i in range(5)
        ]
        early = Posting(1, 2, (1,), "a/b", T0, T0 + 5)
        root = PatternNode("a")
        root.add(PatternNode("b", relationship="child"))
        pattern = Pattern(root)
        stats = JoinStats()
        matches = list(
            structural_join(pattern, [[parent], [early] + late], stats=stats)
        )
        assert len(matches) == 1
        # The five late-born children were bisected away without a probe.
        assert stats.intervals_pruned == 5
        assert stats.candidates_probed < stats.candidates_scanned


class TestStreaming:
    def test_early_exit_stops_probing(self, generated):
        _store, fti = generated
        pattern = Pattern.from_path(f"doc//{busiest_tag(fti)}")
        lists = history_lists(fti, pattern)

        full = JoinStats()
        all_matches = list(structural_join(pattern, lists, stats=full))
        assert len(all_matches) > 1

        partial = JoinStats()
        first = list(
            itertools.islice(structural_join(pattern, lists, stats=partial), 1)
        )
        assert len(first) == 1
        assert partial.matches_emitted == 1
        assert partial.candidates_probed < full.candidates_probed

    def test_wrong_arity_raises_before_iteration(self):
        pattern = Pattern.from_path("a/b")
        with pytest.raises(ValueError):
            structural_join(pattern, [[]])
        with pytest.raises(ValueError):
            nested_loop_join(pattern, [[]])
