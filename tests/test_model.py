"""Tests for identifiers and stamping."""

import pytest

from repro.errors import IdentityError
from repro.model.identifiers import EID, TEID, XIDAllocator
from repro.model.versioned import stamp_new_nodes, touch_upwards
from repro.xmlcore import element
from repro.xmlcore.node import parent_map
from tests.references import (
    collect_xids,
    max_timestamp,
    verify_timestamp_invariant,
)


class TestXIDAllocator:
    def test_monotonic_from_one(self):
        alloc = XIDAllocator()
        assert [alloc.allocate() for _ in range(3)] == [1, 2, 3]

    def test_never_reuses_after_note(self):
        alloc = XIDAllocator()
        alloc.note_used(10)
        assert alloc.allocate() == 11

    def test_note_ignores_smaller(self):
        alloc = XIDAllocator(5)
        alloc.note_used(2)
        assert alloc.allocate() == 5

    def test_rejects_zero_start(self):
        with pytest.raises(IdentityError):
            XIDAllocator(0)

    def test_resume_state(self):
        alloc = XIDAllocator()
        alloc.allocate()
        resumed = XIDAllocator(alloc.next_xid)
        assert resumed.allocate() == 2


class TestEIDTEID:
    def test_teid_decomposes(self):
        teid = TEID(3, 7, 1000)
        assert teid.eid == EID(3, 7)
        assert teid.timestamp == 1000

    def test_eid_at(self):
        assert EID(3, 7).at(99) == TEID(3, 7, 99)

    def test_ordering_and_hashing(self):
        assert EID(1, 2) < EID(1, 3) < EID(2, 1)
        assert len({TEID(1, 1, 5), TEID(1, 1, 5), TEID(1, 1, 6)}) == 2

    def test_str_forms(self):
        assert str(EID(3, 7)) == "3.7"
        assert "3.7@" in str(TEID(3, 7, 0))


class TestStamping:
    def test_stamps_fresh_nodes(self):
        tree = element("a", element("b", "t"))
        alloc = XIDAllocator()
        fresh = stamp_new_nodes(tree, alloc, 100)
        assert fresh == 3
        assert all(n.xid is not None for n in tree.iter())
        assert all(n.tstamp == 100 for n in tree.iter())

    def test_preserves_existing_xids(self):
        tree = element("a", element("b"))
        tree.xid = 50
        alloc = XIDAllocator()
        stamp_new_nodes(tree, alloc, 100)
        assert tree.xid == 50
        assert tree.children[0].xid == 51  # allocator moved past 50

    def test_collect_xids(self):
        tree = element("a", element("b"))
        stamp_new_nodes(tree, XIDAllocator(), 1)
        index = collect_xids(tree)
        assert set(index) == {1, 2}
        assert index[1] is tree

    def test_collect_rejects_unstamped(self):
        with pytest.raises(IdentityError):
            collect_xids(element("a"))

    def test_collect_rejects_duplicates(self):
        tree = element("a", element("b"))
        tree.xid = 1
        tree.children[0].xid = 1
        tree.tstamp = tree.children[0].tstamp = 0
        with pytest.raises(IdentityError):
            collect_xids(tree)


class TestTimestampInvariant:
    def test_touch_upwards(self):
        tree = element("a", element("b", element("c")))
        stamp_new_nodes(tree, XIDAllocator(), 10)
        c = tree.children[0].children[0]
        touch_upwards(c, 20, parent_map(tree))
        assert c.tstamp == 20
        assert tree.children[0].tstamp == 20
        assert tree.tstamp == 20

    def test_verify_detects_violation(self):
        tree = element("a", element("b"))
        stamp_new_nodes(tree, XIDAllocator(), 10)
        tree.children[0].tstamp = 99  # child newer than parent
        assert verify_timestamp_invariant(tree) == [tree.xid]

    def test_verify_passes_after_touch(self):
        tree = element("a", element("b", element("c")))
        stamp_new_nodes(tree, XIDAllocator(), 10)
        touch_upwards(tree.children[0].children[0], 42, parent_map(tree))
        assert verify_timestamp_invariant(tree) == []

    def test_max_timestamp(self):
        tree = element("a", element("b"))
        stamp_new_nodes(tree, XIDAllocator(), 10)
        tree.children[0].tstamp = 33
        assert max_timestamp(tree) == 33
        assert max_timestamp(element("x")) is None
