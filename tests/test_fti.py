"""Tests for the temporal full-text index (alternative 1)."""

import math
from bisect import insort_right

import pytest

from repro.clock import UNTIL_CHANGED
from repro.errors import TimeError
from repro.index import TemporalFullTextIndex, TemporalKeywordScorer, tokenize
from repro.index.postings import occurrences
from repro.model.identifiers import XIDAllocator
from repro.model.versioned import stamp_new_nodes
from repro.storage import TemporalDocumentStore
from repro.storage.persistence import replay_history
from repro.storage.store import CommitEvent
from repro.workload import load_figure1
from repro.xmlcore import parse
from repro.xmlcore.node import Element, Text

from tests.conftest import JAN_01, JAN_26, JAN_31
from tests.index_history import drive, script_features


@pytest.fixture
def indexed_store():
    store = TemporalDocumentStore()
    fti = store.subscribe(TemporalFullTextIndex())
    load_figure1(store)
    return store, fti


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("Napoli, the Best!") == ["napoli", "the", "best"]

    def test_numbers_are_terms(self):
        assert tokenize("price: 15") == ["price", "15"]

    def test_hyphen_breaks_underscore_kept(self):
        assert tokenize("well-known my_tag") == ["well", "known", "my_tag"]

    def test_empty(self):
        assert tokenize("  ,;  ") == []


class TestOccurrences:
    def test_element_names_indexed(self):
        tree = parse("<guide><restaurant><name>Napoli</name></restaurant></guide>")
        stamp_new_nodes(tree, XIDAllocator(), 1)
        occ = occurrences(tree, doc_id=1)
        words = {word for word, _xid, _ord in occ}
        assert {"guide", "restaurant", "name", "napoli"} <= words

    def test_text_attributed_to_containing_element(self):
        tree = parse("<a><b>word</b></a>")
        stamp_new_nodes(tree, XIDAllocator(), 1)
        occ = occurrences(tree, doc_id=1)
        b_xid = tree.children[0].xid
        assert ("word", b_xid, 0) in occ

    def test_attribute_values_indexed(self):
        tree = parse('<a city="Trondheim"/>')
        stamp_new_nodes(tree, XIDAllocator(), 1)
        occ = occurrences(tree, doc_id=1)
        assert ("trondheim", tree.xid, 0) in occ

    def test_repeated_words_get_ordinals(self):
        tree = parse("<a>again again</a>")
        stamp_new_nodes(tree, XIDAllocator(), 1)
        occ = occurrences(tree, doc_id=1)
        assert ("again", tree.xid, 0) in occ
        assert ("again", tree.xid, 1) in occ

    def test_ancestors_and_paths(self):
        tree = parse("<g><r><n>X</n></r></g>")
        stamp_new_nodes(tree, XIDAllocator(), 1)
        occ = occurrences(tree, doc_id=1)
        n_xid = tree.children[0].children[0].xid
        ancestors, path = occ[("x", n_xid, 0)]
        assert ancestors == (tree.xid, tree.children[0].xid)
        assert path == "g/r/n"


class TestLookups:
    def test_lookup_current_only(self, indexed_store):
        _store, fti = indexed_store
        assert len(fti.lookup("napoli")) == 1
        assert fti.lookup("akropolis") == []  # closed on Jan 31

    def test_lookup_t_snapshots(self, indexed_store):
        _store, fti = indexed_store
        assert len(fti.lookup_t("akropolis", JAN_26)) == 1
        assert fti.lookup_t("akropolis", JAN_31) == []
        assert fti.lookup_t("napoli", JAN_01) != []
        assert fti.lookup_t("napoli", JAN_01 - 5) == []

    def test_lookup_h_whole_history(self, indexed_store):
        _store, fti = indexed_store
        # Price 15 existed (closed), price 18 exists (open): history sees both.
        assert len(fti.lookup_h("15")) == 1
        assert len(fti.lookup_h("18")) == 1
        assert fti.lookup("15") == []
        assert len(fti.lookup("18")) == 1

    def test_posting_intervals_match_versions(self, indexed_store):
        _store, fti = indexed_store
        fifteen = fti.lookup_h("15")[0]
        assert fifteen.start == JAN_01
        assert fifteen.end == JAN_31
        eighteen = fti.lookup_h("18")[0]
        assert eighteen.start == JAN_31
        assert eighteen.end == UNTIL_CHANGED

    def test_unchanged_content_has_single_interval_posting(
        self, indexed_store
    ):
        _store, fti = indexed_store
        # "napoli" survived all three versions: one posting, not three.
        assert len(fti.lookup_h("napoli")) == 1

    def test_unknown_word(self, indexed_store):
        _store, fti = indexed_store
        assert fti.lookup("zebra") == []
        assert fti.lookup_t("zebra", JAN_26) == []
        assert fti.lookup_h("zebra") == []


class TestMaintenance:
    def test_document_delete_closes_postings(self, indexed_store):
        store, fti = indexed_store
        store.delete("guide.com")
        assert fti.lookup("napoli") == []
        assert len(fti.lookup_h("napoli")) == 1

    def test_move_reopens_posting_with_new_ancestors(self):
        store = TemporalDocumentStore()
        fti = store.subscribe(TemporalFullTextIndex())
        store.put("d.xml", "<g><box1><item>gold</item></box1><box2/></g>")
        store.update("d.xml", "<g><box1/><box2><item>gold</item></box2></g>")
        postings = fti.lookup_h("gold")
        assert len(postings) == 2  # closed under box1, open under box2
        open_postings = [p for p in postings if p.is_open]
        assert len(open_postings) == 1

    def test_stats_track_postings(self, indexed_store):
        _store, fti = indexed_store
        stats = fti.stats
        assert stats.postings == fti.posting_count()
        assert stats.postings_opened >= stats.postings_closed
        assert fti.estimated_bytes() > 0

    def test_words_listing(self, indexed_store):
        _store, fti = indexed_store
        assert "restaurant" in fti.words()


class TestKeywordScores:
    """Ranking reads each posting's document, start and end from the
    lookups' columns; with one term matched by both documents, idf is 1
    and a score is ``log1p(tf)``."""

    @pytest.fixture
    def scored(self):
        """``(scorer, d1, d2)``: d1 holds "gold" from JAN_01 on, d2 holds
        it twice from JAN_01 and once from JAN_26."""
        store = TemporalDocumentStore()
        fti = store.subscribe(TemporalFullTextIndex())
        store.put("d1.xml", "<a>gold</a>", ts=JAN_01)
        store.put("d2.xml", "<a>gold gold</a>", ts=JAN_01)
        store.update("d2.xml", "<a>gold tin</a>", ts=JAN_26)
        return (TemporalKeywordScorer(fti), store.doc_id("d1.xml"),
                store.doc_id("d2.xml"))

    @staticmethod
    def _scores(results):
        return {s.doc_id: s.score for s in results}

    def test_instant_tf_counts_postings(self, scored):
        scorer, d1, d2 = scored
        assert self._scores(scorer.search_t("gold", JAN_01)) == {
            d1: math.log1p(1), d2: math.log1p(2)}
        assert self._scores(scorer.search_t("gold", JAN_26)) == {
            d1: math.log1p(1), d2: math.log1p(1)}

    def test_window_tf_is_the_clipped_share_of_the_window(self, scored):
        scorer, d1, d2 = scored
        start, end = JAN_01 + (JAN_26 - JAN_01) // 2, JAN_31
        assert self._scores(scorer.search_window("gold", start, end)) == {
            d1: math.log1p(1.0),
            d2: math.log1p(1.0 + (JAN_26 - start) / (end - start)),
        }


class RefPosting:
    """The reference's posting: one mutable object per occurrence."""

    __slots__ = ("doc_id", "xid", "ancestors", "path", "start", "end", "word")

    def __init__(self, doc_id, xid, ancestors, path, start, word):
        self.doc_id, self.xid, self.word = doc_id, xid, word
        self.ancestors, self.path = ancestors, path
        self.start, self.end = start, UNTIL_CHANGED

    def fields(self):
        return (self.doc_id, self.xid, self.ancestors, self.path,
                self.start, self.end)


def _start(posting):
    return posting.start


class ReferenceFTI:
    """The per-occurrence layout, kept as the reference: open postings
    keyed by ``(word, xid, ordinal)``, matched against a fresh occurrence
    map on every commit, new postings filed in the map's document order
    after every posting with an equal or earlier start.  Lookups filter
    the lists; ``scanned`` is what the index must report scanning."""

    def __init__(self):
        self.lists = {}       # word -> [RefPosting], sorted by start
        self.open_lists = {}  # word -> [open RefPosting], sorted by start
        self.open = {}        # doc_id -> {(word, xid, ordinal): RefPosting}
        self.contexts = set()  # every path, ancestors tuple and word seen

    def document_committed(self, event):
        ts = event.timestamp
        if event.kind == "delete":
            for key, posting in self.open.pop(event.doc_id, {}).items():
                self._close(key[0], posting, ts)
            return
        found = self._occurrences(event.root)
        open_map = self.open.setdefault(event.doc_id, {})
        for key in list(open_map):
            entry = found.get(key)
            if entry is None or entry[0] != open_map[key].ancestors:
                self._close(key[0], open_map.pop(key), ts)
        for (word, xid, ordinal), (ancestors, path) in found.items():
            if (word, xid, ordinal) in open_map:
                continue
            posting = RefPosting(event.doc_id, xid, ancestors, path, ts, word)
            insort_right(self.lists.setdefault(word, []), posting, key=_start)
            insort_right(self.open_lists.setdefault(word, []), posting,
                         key=_start)
            open_map[word, xid, ordinal] = posting
            self.contexts.add(word)

    def _close(self, word, posting, ts):
        posting.end = ts
        self.open_lists[word].remove(posting)

    def _occurrences(self, root):
        out, counters = {}, {}

        def note(word, element, ancestors, path):
            ordinal = counters.get((word, element.xid), 0)
            counters[word, element.xid] = ordinal + 1
            out[word, element.xid, ordinal] = (ancestors, path)

        def walk(element, ancestors, parent_path):
            path = f"{parent_path}/{element.tag}" if parent_path else element.tag
            self.contexts.add(path)
            if ancestors:
                self.contexts.add(ancestors)
            for word in tokenize(element.tag):
                note(word, element, ancestors, path)
            for value in element.attrib.values():
                for word in tokenize(value):
                    note(word, element, ancestors, path)
            for child in element.children:
                if isinstance(child, Element):
                    walk(child, ancestors + (element.xid,), path)
                elif isinstance(child, Text):
                    for word in tokenize(child.value):
                        note(word, element, ancestors, path)

        walk(root, (), "")
        return out

    # -- what the index must answer -------------------------------------------

    @staticmethod
    def _in(docs, posting):
        return docs is None or posting.doc_id in docs

    def lookup(self, word, docs):
        candidates = self.open_lists.get(word, [])
        return [p for p in candidates if self._in(docs, p)], len(candidates)

    def lookup_t(self, word, ts, docs):
        scanned = [p for p in self.lists.get(word, []) if p.start <= ts]
        return ([p for p in scanned if p.end > ts and self._in(docs, p)],
                len(scanned))

    def lookup_h(self, word, docs):
        candidates = self.lists.get(word, [])
        return [p for p in candidates if self._in(docs, p)], len(candidates)

    def lookup_w(self, word, start, end, docs):
        if start >= end:
            return [], None
        scanned = [p for p in self.lists.get(word, []) if p.start < end]
        return ([p for p in scanned if p.end > start and self._in(docs, p)],
                len(scanned))

    def footprint(self):
        return {
            "postings": sum(map(len, self.lists.values())),
            "open_postings": sum(map(len, self.open_lists.values())),
            "open_elements": sum(
                len({xid for _word, xid, _ordinal in open_map})
                for open_map in self.open.values()
            ),
            "interned": len(self.contexts),
        }

    def estimated_bytes(self):
        return sum(
            24 + 8 * len(p.ancestors) + len(p.path)
            for postings in self.lists.values() for p in postings
        )


def _probe_times(reference):
    """A few instants around the stored interval bounds."""
    bounds = sorted({
        t for postings in reference.lists.values() for p in postings
        for t in (p.start, p.end) if t < UNTIL_CHANGED
    })
    picks = {bounds[0], bounds[len(bounds) // 2], bounds[-1]}
    return sorted(picks | {t - 1 for t in picks} | {bounds[-1] + 1})


def assert_same_answers(fti, reference):
    """Every lookup — with and without a document restriction — returns
    the reference's postings in the reference's order and reports the
    same scan, and so do the history lookups asked for columns; the planner
    probes, ``footprint()`` and ``estimated_bytes()`` agree too."""
    assert set(fti.words()) == set(reference.lists)
    assert fti.distinct_terms() == len(reference.lists)
    assert fti.footprint() == reference.footprint()
    assert fti.estimated_bytes() == reference.estimated_bytes()
    assert fti.posting_count() == reference.footprint()["postings"]
    times = _probe_times(reference)
    odd = {doc_id for doc_id in reference.open if doc_id % 2}
    windows = list(zip(times, times[2:])) + [(times[0], times[0])]
    for word in sorted(reference.lists) + ["zebra"]:
        calls = [("lookup", ())]
        calls += [("lookup_t", (ts,)) for ts in times]
        calls += [("lookup_h", ())]
        calls += [("lookup_w", window) for window in windows]
        for name, args in calls:
            for docs in (None, odd):
                expected, scanned = getattr(reference, name)(word, *args,
                                                             docs)
                before = (fti.stats.lookups, fti.stats.postings_scanned,
                          fti.stats.postings_returned)
                got = getattr(fti, name)(word, *args, docs=docs)
                assert [tuple(p) for p in got] == [
                    p.fields() for p in expected
                ], (word, name, args, docs)
                after = (fti.stats.lookups, fti.stats.postings_scanned,
                         fti.stats.postings_returned)
                if scanned is None:  # an empty window scans nothing
                    assert after == before
                else:
                    assert after == (before[0] + 1, before[1] + scanned,
                                     before[2] + len(expected))
                if name == "lookup":
                    continue
                got = getattr(fti, name)(word, *args, docs=docs,
                                         as_columns=True)
                assert list(zip(*got)) == [
                    (p.doc_id, p.start, p.end) for p in expected
                ], (word, name, args, docs)
                assert (fti.stats.lookups, fti.stats.postings_scanned,
                        fti.stats.postings_returned) == tuple(
                            2 * a - b for a, b in zip(after, before))
        history = reference.lists.get(word, [])
        assert fti.term_stats(word) == (
            len(history), len(reference.open_lists.get(word, ())))
        for ts in times:
            assert fti.postings_at_or_before(word, ts) == sum(
                p.start <= ts for p in history)
            assert fti.postings_starting_before(word, ts) == sum(
                p.start < ts for p in history)


class TestLayoutAgainstReference:
    """The column layout returns what the per-occurrence layout returned:
    live, after recovery from a checkpoint plus journal tail, after
    recovery from the journal alone, and after a replay of everything."""

    @pytest.mark.parametrize("seed, checkpoints, storage", [
        (1, True, "xml"), (2, True, "cas"), (3, False, "xml"),
    ])
    def test_seeded_history(self, tmp_path, seed, checkpoints, storage):
        reference = ReferenceFTI()
        checks = []

        def check(db):
            assert_same_answers(db.fti, reference)
            checks.append(db.fti.posting_count())

        db = drive(seed, tmp_path / "db", [reference], check,
                   checkpoints=checkpoints, storage=storage)
        assert len(checks) > 40 and checks[-1] > 200
        assert {"cross-parent move", "ReplaceRootOp", "UpdateTextOp",
                "UpdateAttrOp", "InsertOp", "DeleteOp"} <= script_features(
                    db.store)
        replayed = TemporalFullTextIndex()
        replay_history(db.store, [replayed])
        assert_same_answers(replayed, reference)

    def test_repeated_words_keep_their_ordinals(self):
        store = TemporalDocumentStore()
        fti = store.subscribe(TemporalFullTextIndex())
        reference = store.subscribe(ReferenceFTI())
        store.put("d.xml", "<a>gold gold tin<b/>gold</a>")
        for text in ("<a>tin gold<b/>gold gold</a>", "<a>gold<b/>tin</a>",
                     "<a>gold gold gold<b>gold</b></a>"):
            store.update("d.xml", text)
            assert_same_answers(fti, reference)
        # "gold" at <a> kept its first posting through all four versions.
        a_gold = [p for p in fti.lookup_h("gold") if p.xid == 1]
        assert a_gold[0].start == store.delta_index("d.xml").entries[0].timestamp
        assert a_gold[0].is_open

    def test_close_keeps_open_list_order(self):
        """Closing removes the posting's own row, not an equal-start
        neighbour's."""
        store = TemporalDocumentStore()
        fti = store.subscribe(TemporalFullTextIndex())
        reference = store.subscribe(ReferenceFTI())
        store.put("d.xml", "<a>" + "".join(f"<b>w{i} w</b>" for i in range(6)) + "</a>")
        store.put("e.xml", "<a><b>w</b></a>")
        store.update("d.xml", "<a>" + "".join(
            f"<b>w{i} w</b>" for i in (0, 2, 3, 5)) + "</a>")
        store.update("e.xml", "<a><b>w w</b></a>")
        assert_same_answers(fti, reference)
        assert len(fti.lookup("w")) == 6

    @pytest.mark.parametrize("order", [(1, 2), (2, 1)])
    def test_equal_timestamp_commits(self, order):
        """Two documents committed at one instant: the lists keep the
        commit order live, and replay — ordered by (timestamp, doc_id) —
        rebuilds what a reference fed the replayed events holds."""
        store = TemporalDocumentStore()
        fti = store.subscribe(TemporalFullTextIndex())
        reference = store.subscribe(ReferenceFTI())
        texts = {1: "<a k='red'>gold<b>tin gold</b></a>",
                 2: "<a>gold<b k='red gold'>iron</b></a>"}
        for doc_id in (1, 2):
            store.put(f"d{doc_id}.xml", texts[doc_id], ts=JAN_01)
        for doc_id in order:
            store.update(f"d{doc_id}.xml",
                         texts[doc_id].replace("gold", "gold gold", 1),
                         ts=JAN_26)
        store.update("d2.xml", texts[1], ts=JAN_31)
        assert_same_answers(fti, reference)
        replayed, replayed_reference = TemporalFullTextIndex(), ReferenceFTI()
        replay_history(store, [replayed, replayed_reference])
        assert_same_answers(replayed, replayed_reference)
        assert replayed.footprint() == fti.footprint()

    @pytest.mark.parametrize("events, what", [
        ([("create", 1, 300, "<a>gold</a>"), ("create", 2, 100, "<a>gold</a>")],
         "start"),
        ([("create", 1, 100, "<a>gold</a>"), ("create", 2, 200, "<a>gold</a>"),
          ("delete", 2, 300, None), ("delete", 1, 250, None)],
         "end"),
        # No word is filed out of its own order: only the events are.
        ([("create", 1, 100, "<a>gold</a>"), ("create", 2, 300, "<a>tin</a>"),
          ("update", 1, 200, "<a>tin</a>")],
         "event"),
    ])
    def test_out_of_order_filing_raises(self, events, what):
        """An event earlier than the last one is refused before anything
        changes: every feeder hands the index its events in commit order."""
        fti = TemporalFullTextIndex()
        allocators = {1: XIDAllocator(), 2: XIDAllocator()}

        def commit(kind, doc_id, ts, text):
            root = None
            if text is not None:
                root = parse(text)
                stamp_new_nodes(root, allocators[doc_id], ts)
            fti.document_committed(
                CommitEvent(kind, doc_id, f"d{doc_id}", 1, ts, root=root))

        *ordered, late = events
        for event in ordered:
            commit(*event)

        def state():
            words = ("gold", "tin")
            return ([(fti.lookup(w), fti.lookup_t(w, 250), fti.lookup_h(w))
                     for w in words],
                    {doc: triples.tolist() for doc, triples in fti._open.items()})

        before = state()
        with pytest.raises(TimeError, match=f"{late[0]} at {late[2]} is earlier"):
            commit(*late)
        assert state() == before
