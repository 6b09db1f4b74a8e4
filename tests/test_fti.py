"""Tests for the temporal full-text index (alternative 1)."""

import pytest

from repro.clock import UNTIL_CHANGED
from repro.index import Posting, TemporalFullTextIndex, tokenize
from repro.index.postings import occurrences
from repro.model.identifiers import XIDAllocator
from repro.model.versioned import stamp_new_nodes
from repro.storage import TemporalDocumentStore
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


class ReferenceFTI:
    """The per-occurrence layout, kept as the reference: open postings
    keyed by ``(word, xid, ordinal)``, matched against a fresh occurrence
    map on every commit, new postings appended in the map's document
    order.  (Commit times in the driven histories strictly increase, so
    appending keeps every list sorted by start.)"""

    def __init__(self):
        self.lists = {}       # word -> [Posting]
        self.open_lists = {}  # word -> [open Posting]
        self.open = {}        # doc_id -> {(word, xid, ordinal): Posting}

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
            posting = Posting(event.doc_id, xid, ancestors, path, ts, word=word)
            self.lists.setdefault(word, []).append(posting)
            self.open_lists.setdefault(word, []).append(posting)
            open_map[word, xid, ordinal] = posting

    def _close(self, word, posting, ts):
        posting.end = ts
        self.open_lists[word].remove(posting)

    @staticmethod
    def _occurrences(root):
        out, counters = {}, {}

        def note(word, element, ancestors, path):
            ordinal = counters.get((word, element.xid), 0)
            counters[word, element.xid] = ordinal + 1
            out[word, element.xid, ordinal] = (ancestors, path)

        def walk(element, ancestors, parent_path):
            path = f"{parent_path}/{element.tag}" if parent_path else element.tag
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


def _fields(posting):
    return (
        posting.doc_id, posting.xid, posting.ancestors, posting.path,
        posting.start, posting.end, posting.word,
    )


def assert_same_postings(fti, reference):
    """Every posting list field by field and in order, every open list,
    and each element's open postings against the reference's keys."""
    assert set(fti.words()) == set(reference.lists)
    for word, postings in reference.lists.items():
        assert [_fields(p) for p in fti.lookup_h(word)] == [
            _fields(p) for p in postings
        ], word
        assert [_fields(p) for p in fti.lookup(word)] == [
            _fields(p) for p in reference.open_lists.get(word, ())
        ], word
    stored = {}
    for doc_id, elements in fti._open.items():
        for xid, kept in elements.items():
            assert kept, (doc_id, xid)
            seen = {}
            for posting in kept:
                ordinal = seen.get(posting.word, 0)
                seen[posting.word] = ordinal + 1
                stored[doc_id, posting.word, xid, ordinal] = _fields(posting)
    assert stored == {
        (doc_id, *key): _fields(posting)
        for doc_id, open_map in reference.open.items()
        for key, posting in open_map.items()
    }


class TestLayoutAgainstReference:
    """The layout sharing one object per context value and one open list
    per element returns what the per-occurrence layout returned: live,
    after recovery from a checkpoint plus journal tail, after a replay of
    everything, and after recovery from the journal alone."""

    @pytest.mark.parametrize("seed, checkpoints, storage", [
        (1, True, "xml"), (2, True, "cas"), (3, False, "xml"),
    ])
    def test_seeded_history(self, tmp_path, seed, checkpoints, storage):
        reference = ReferenceFTI()
        checks = []

        def check(db):
            assert_same_postings(db.fti, reference)
            checks.append(db.fti.posting_count())

        db = drive(seed, tmp_path / "db", [reference], check,
                   checkpoints=checkpoints, storage=storage)
        assert len(checks) > 40 and checks[-1] > 200
        assert {"cross-parent move", "ReplaceRootOp", "UpdateTextOp",
                "UpdateAttrOp", "InsertOp", "DeleteOp"} <= script_features(
                    db.store)

    def test_repeated_words_keep_their_ordinals(self):
        store = TemporalDocumentStore()
        fti = store.subscribe(TemporalFullTextIndex())
        reference = store.subscribe(ReferenceFTI())
        store.put("d.xml", "<a>gold gold tin<b/>gold</a>")
        for text in ("<a>tin gold<b/>gold gold</a>", "<a>gold<b/>tin</a>",
                     "<a>gold gold gold<b>gold</b></a>"):
            store.update("d.xml", text)
            assert_same_postings(fti, reference)
        # "gold" at <a> kept its first posting through all four versions.
        a_gold = [p for p in fti.lookup_h("gold") if p.xid == 1]
        assert a_gold[0].start == store.delta_index("d.xml").entries[0].timestamp
        assert a_gold[0].is_open

    def test_close_keeps_open_list_order(self):
        """Closing bisects to the posting's run of equal starts and
        removes that posting, not an equal-start neighbour."""
        store = TemporalDocumentStore()
        fti = store.subscribe(TemporalFullTextIndex())
        reference = store.subscribe(ReferenceFTI())
        store.put("d.xml", "<a>" + "".join(f"<b>w{i} w</b>" for i in range(6)) + "</a>")
        store.put("e.xml", "<a><b>w</b></a>")
        store.update("d.xml", "<a>" + "".join(
            f"<b>w{i} w</b>" for i in (0, 2, 3, 5)) + "</a>")
        store.update("e.xml", "<a><b>w w</b></a>")
        assert_same_postings(fti, reference)
        assert len(fti.lookup("w")) == 6
