"""Tests for the lazy per-tree XID index and the read paths that use it."""

import pytest

from repro.clock import BEFORE_TIME, UNTIL_CHANGED
from repro.model.identifiers import TEID, XIDAllocator
from repro.model.versioned import stamp_new_nodes
from repro.operators import DocHistory, ElementHistory
from repro.storage import TemporalDocumentStore
from repro.xmlcore import Element, parse, xid_index_stats


@pytest.fixture(autouse=True)
def _reset_stats():
    xid_index_stats.reset()
    yield
    xid_index_stats.reset()


def _stamped(xml):
    tree = parse(xml)
    stamp_new_nodes(tree, XIDAllocator(), 1)
    return tree


class TestXidIndex:
    def test_map_matches_full_scan(self):
        tree = _stamped("<g><r><n>X</n></r><r><n>Y</n></r></g>")
        index = tree.xid_index()
        # The element itself is left out (it would be a cycle with its map).
        expected = {node.xid: node for node in tree.iter() if node is not tree}
        assert index == expected
        assert tree.find_by_xid(tree.xid) is tree

    def test_built_once_for_repeated_lookups(self):
        tree = _stamped("<g><r><n>X</n></r></g>")
        xid_index_stats.reset()
        first = tree.find_by_xid(2)
        second = tree.find_by_xid(3)
        assert first is not None and second is not None
        assert xid_index_stats.builds == 1
        assert xid_index_stats.lookups == 2

    def test_insert_invalidates(self):
        tree = _stamped("<g><r/></g>")
        tree.xid_index()
        extra = _stamped("<n>Z</n>")
        extra.xid = 99
        tree.append(extra)
        assert xid_index_stats.invalidations == 1
        assert tree.find_by_xid(99) is extra  # rebuilt map sees the insert

    def test_remove_invalidates(self):
        tree = _stamped("<g><r/></g>")
        victim = tree.find("r")
        gone_xid = victim.xid
        tree.xid_index()
        tree.remove(victim)
        assert tree.find_by_xid(gone_xid) is None

    def test_text_replacement_invalidates(self):
        tree = _stamped("<g><n>old</n></g>")
        node = tree.find("n")
        old_text_xid = node.children[0].xid
        node.xid_index()
        node.text = "new"
        assert node.find_by_xid(old_text_xid) is None

    def test_value_only_mutation_keeps_map(self):
        tree = _stamped("<g><n>old</n></g>")
        index = tree.xid_index()
        tree.find("n").set("attr", "v")
        tree.find("n").children[0].value = "new"
        assert tree.xid_index() is index  # still the same cached map

    def test_mutation_without_index_is_cheap_and_safe(self):
        tree = _stamped("<g><r/></g>")
        tree.find("r").append(Element("n"))
        assert xid_index_stats.invalidations == 0

    def test_copy_does_not_share_index(self):
        tree = _stamped("<g><r/></g>")
        tree.xid_index()
        dup = tree.copy()
        dup.remove(dup.find("r"))
        assert tree.find_by_xid(tree.find("r").xid) is not None

    def test_stamping_drops_stale_maps(self):
        tree = parse("<g><r/></g>")
        tree.xid_index()  # everything under key None
        stamp_new_nodes(tree, XIDAllocator(), 1)
        assert tree.find_by_xid(tree.find("r").xid) is tree.find("r")


class TestStoreReadPaths:
    @pytest.fixture
    def store(self):
        store = TemporalDocumentStore()
        store.put("d.xml", "<g><r><n>X</n></r></g>")
        store.update("d.xml", "<g><r><n>X</n></r><r><n>Y</n></r></g>")
        return store

    def test_current_teid_reuses_index_across_probes(self, store):
        root = store.record("d.xml").current_root
        xids = [node.xid for node in root.iter() if node.is_element]
        xid_index_stats.reset()
        for xid in xids:
            assert store.current_teid("d.xml", xid) is not None
        assert xid_index_stats.builds == 1  # one build, then O(1) probes
        assert xid_index_stats.lookups == len(xids)
        assert store.current_teid("d.xml", 10_000) is None

    def test_subtree_resolves_without_full_scan(self, store):
        root = store.record("d.xml").current_root
        target = root.find("r").find("n")
        ts = store.delta_index("d.xml").current_ts()
        teid = TEID(store.doc_id("d.xml"), target.xid, ts)
        node = store.subtree(teid)
        assert node is not None and node.tag == "n"
        assert xid_index_stats.builds >= 1

    def test_element_history_copies_only_the_subtree(self, store):
        root = store.record("d.xml").current_root
        second = root.child_elements()[1]
        results = ElementHistory(
            store, store.eid("d.xml", second.xid), BEFORE_TIME + 1,
            UNTIL_CHANGED - 1,
        ).run()
        assert len(results) == 1
        _teid, subtree = results[0]
        assert subtree.find("n").text == "Y"
        # A copy of the subtree, not an alias into the stored tree.
        assert all(node is not subtree for node in root.iter())

    def test_doc_history_teids_skips_tree_copies(self, store, monkeypatch):
        copies = {"count": 0}
        original_copy = Element.copy

        def counting_copy(self):
            copies["count"] += 1
            return original_copy(self)

        monkeypatch.setattr(Element, "copy", counting_copy)
        history = DocHistory(store, "d.xml", BEFORE_TIME + 1, UNTIL_CHANGED - 1)
        history.teids()
        teids_copies = copies["count"]
        copies["count"] = 0
        history.run()
        run_copies = copies["count"]
        # teids() still pays the read_current copy inside reconstruction,
        # but none of the per-version result copies that run() makes.
        assert teids_copies < run_copies

    def test_doc_history_results_unchanged(self, store):
        results = DocHistory(
            store, "d.xml", BEFORE_TIME + 1, UNTIL_CHANGED - 1
        ).run()
        assert [len(tree.child_elements()) for _t, tree in results] == [2, 1]
