"""Edit-script generation records what changed, not what shifted.

The differ's reconciliation keeps every child that is already in relative
order where it stands (a longest increasing subsequence), so a script's
size is the size of the change: one ``DeleteOp`` for a mid-list delete, one
``InsertOp`` for an insert, and exactly ``stayers - LIS`` moves under a
parent.  Stamps are no part of that choice — the last class pins them to
what the positional reconciliation (one ``MoveOp`` per shifted sibling)
produced on the suite's fixture histories before it was replaced.
"""

from __future__ import annotations

import copy
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.diff import apply_script, diff
from repro.diff.editscript import (
    DeleteOp,
    InsertOp,
    MoveOp,
    ReplaceRootOp,
    StampOp,
)
from repro.model.identifiers import XIDAllocator
from repro.model.versioned import stamp_new_nodes
from repro.storage import TemporalDocumentStore
from repro.workload import TDocGenerator, build_collection, load_figure1
from repro.workload.restaurant import RestaurantGuideGenerator
from repro.xmlcore.node import Element, Text, parent_map
from tests.references import verify_timestamp_invariant


# -- an abstract document the edits are drawn against --------------------------
#
# ``["r", key, price, attrs]`` a record (five nodes with a unique name, so
# the matcher recognises it wherever it goes), ``["t", value]`` a text node
# between records (mixed content), ``["box", items]`` a container that can
# be deleted while one of its records moves out.


def _record(key, price=10, attrs=None):
    return ["r", key, price, dict(attrs or {})]


def _render(items, parent):
    for item in items:
        if item[0] == "t":
            parent.append(Text(item[1]))
        elif item[0] == "box":
            _render(item[1], parent.append(Element("box")))
        else:
            _kind, key, price, attrs = item
            record = parent.append(Element("r", attrs))
            record.append(Element("n")).append(Text(f"name{key}"))
            record.append(Element("p")).append(Text(str(price)))
    return parent


def _tree(sections, root_tag="guide"):
    root = Element(root_tag)
    for number, items in enumerate(sections):
        _render(items, root.append(Element("sec", {"id": str(number)})))
    return root


def _containers(sections):
    """Every item list of the document: the sections, then their boxes."""
    out = list(sections)
    for items in sections:
        out.extend(item[1] for item in items if item[0] == "box")
    return out


@st.composite
def _documents(draw):
    keys = iter(range(1000))
    sections = []
    for _ in range(draw(st.integers(1, 3))):
        items = []
        for _ in range(draw(st.integers(0, 8))):
            kind = draw(st.sampled_from("rrrrtb"))
            if kind == "r":
                items.append(_record(next(keys), draw(st.integers(1, 40))))
            elif kind == "t":
                items.append(["t", draw(st.sampled_from(("and", "or", "; ")))])
            else:
                items.append(["box", [
                    _record(next(keys)) for _ in range(draw(st.integers(1, 3)))
                ]])
        sections.append(items)
    return sections, keys


def _edit(draw, sections, keys):
    """One drawn edit of ``sections`` in place."""
    containers = _containers(sections)
    items = draw(st.sampled_from(containers))
    kind = draw(st.sampled_from(
        ("insert", "delete", "shuffle", "move", "doom", "attr", "text")
    ))
    if kind == "insert":
        items.insert(draw(st.integers(0, len(items))), _record(next(keys)))
    elif kind == "delete" and items:
        del items[draw(st.integers(0, len(items) - 1))]
    elif kind == "shuffle":
        items[:] = draw(st.permutations(items))
    elif kind == "move" and items:
        moved = items.pop(draw(st.integers(0, len(items) - 1)))
        target = draw(st.sampled_from(
            [c for c in containers if moved[0] != "box" or c in sections]
        ))
        target.insert(draw(st.integers(0, len(target))), moved)
    elif kind == "doom":
        boxes = [
            (section, item) for section in sections for item in section
            if item[0] == "box" and item[1]
        ]
        if boxes:
            section, box = draw(st.sampled_from(boxes))
            survivor = box[1].pop(draw(st.integers(0, len(box[1]) - 1)))
            section.remove(box)
            target = draw(st.sampled_from(sections))
            target.insert(draw(st.integers(0, len(target))), survivor)
    elif kind == "attr":
        records = [item for item in items if item[0] == "r"]
        if records:
            attrs = draw(st.sampled_from(records))[3]
            name = draw(st.sampled_from(("k", "m")))
            if name in attrs and draw(st.booleans()):
                del attrs[name]
            else:
                attrs[name] = draw(st.sampled_from(("1", "2")))
    else:
        for item in items:
            if item[0] == "t":
                item[1] = draw(st.sampled_from(("but", "nor")))
            elif item[0] == "r" and draw(st.booleans()):
                item[2] += 1


# -- what a script may contain, worked out from the two stamped trees -----------


def _stamps(tree):
    return [(node.xid, node.tstamp) for node in tree.iter()]


def _parent_xids(tree):
    parents = parent_map(tree)
    return {
        node.xid: parents[id(node)].xid if id(node) in parents else None
        for node in tree.iter()
    }


def _longest_increasing(values):
    """Length of a longest strictly increasing subsequence (the O(n^2)
    textbook form, on purpose not the differ's)."""
    best = []
    for i, value in enumerate(values):
        best.append(1 + max(
            (best[j] for j in range(i) if values[j] < value), default=0
        ))
    return max(best, default=0)


def _expected_counts(old, new):
    """``(moves within each parent, moves across, inserts, deletes)`` that
    the change from ``old`` to ``new`` (both stamped) amounts to."""
    old_parent = _parent_xids(old)
    new_parent = _parent_xids(new)
    old_position = {
        child.xid: pos
        for node in old.iter() if isinstance(node, Element)
        for pos, child in enumerate(node.children)
    }
    within = {}
    for node in new.iter():
        if not isinstance(node, Element) or node.xid not in old_parent:
            continue
        stayers = [
            old_position[child.xid] for child in node.children
            if old_parent.get(child.xid) == node.xid
        ]
        within[node.xid] = len(stayers) - _longest_increasing(stayers)
    across = sum(
        1 for xid, parent in new_parent.items()
        if xid in old_parent and old_parent[xid] != parent
    )
    inserts = sum(
        1 for xid, parent in new_parent.items()
        if xid not in old_parent and parent in old_parent
    )
    deletes = sum(
        1 for xid, parent in old_parent.items()
        if xid not in new_parent and parent in new_parent
    )
    return within, across, inserts, deletes


def _diffed(old_sections, new_sections, new_root_tag="guide"):
    alloc = XIDAllocator()
    old = _tree(old_sections)
    stamp_new_nodes(old, alloc, 100)
    new = _tree(new_sections, new_root_tag)
    script = diff(old, new, alloc, commit_ts=200)
    forward = apply_script(old.copy(), script)
    assert forward.equals_deep(new)
    assert _stamps(forward) == _stamps(new)
    backward = apply_script(new.copy(), script.invert())
    assert backward.equals_deep(old)
    assert _stamps(backward) == _stamps(old)
    return old, new, script


def _kinds(script, kind):
    return [op for op in script if isinstance(op, kind)]


class TestGeneratedEdits:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_round_trip_and_minimal_structure(self, data):
        sections, keys = data.draw(_documents())
        edited = copy.deepcopy(sections)
        for _ in range(data.draw(st.integers(1, 5))):
            _edit(data.draw, edited, keys)

        old, new, script = _diffed(sections, edited)
        assert verify_timestamp_invariant(new) == []

        within, across, inserts, deletes = _expected_counts(old, new)
        moves = _kinds(script, MoveOp)
        for xid, expected in within.items():
            assert expected == sum(
                1 for op in moves if op.from_parent == op.to_parent == xid
            )
        assert across == sum(
            1 for op in moves if op.from_parent != op.to_parent
        )
        assert inserts == len(_kinds(script, InsertOp))
        assert deletes == len(_kinds(script, DeleteOp))

    @given(_documents(), st.sampled_from(("guide", "index")))
    @settings(max_examples=20, deadline=None)
    def test_root_replacement(self, document, new_tag):
        sections, _keys = document
        alloc = XIDAllocator()
        old = _tree(sections, "catalogue")
        stamp_new_nodes(old, alloc, 100)
        new = _tree(sections, new_tag)
        script = diff(old, new, alloc, commit_ts=200)
        assert [type(op) for op in script] == [ReplaceRootOp]
        forward = apply_script(old.copy(), script)
        assert forward.equals_deep(new)
        assert _stamps(forward) == _stamps(new)
        backward = apply_script(forward, script.invert())
        assert backward.equals_deep(old)
        assert _stamps(backward) == _stamps(old)


class TestPinnedScripts:
    """The smallest script for the plainest edits of one sibling list."""

    N = 12

    def _list(self):
        return [_record(key) for key in range(self.N)]

    @pytest.mark.parametrize("k", [0, 5, N - 1])
    def test_delete_kth_is_one_delete(self, k):
        after = self._list()
        del after[k]
        _old, _new, script = _diffed([self._list()], [after])
        (delete,) = _kinds(script, DeleteOp)
        assert delete.pos == k
        assert {type(op) for op in script} == {DeleteOp, StampOp}

    @pytest.mark.parametrize("k", [0, 5, N])
    def test_insert_is_one_insert(self, k):
        after = self._list()
        after.insert(k, _record(99))
        _old, _new, script = _diffed([self._list()], [after])
        (insert,) = _kinds(script, InsertOp)
        assert insert.pos == k
        assert {type(op) for op in script} == {InsertOp, StampOp}

    def test_adjacent_swap_is_one_move(self):
        after = self._list()
        after[4], after[5] = after[5], after[4]
        _old, _new, script = _diffed([self._list()], [after])
        assert len(_kinds(script, MoveOp)) == 1
        assert {type(op) for op in script} == {MoveOp, StampOp}

    def test_distant_swap_is_two_moves(self):
        after = self._list()
        after[2], after[9] = after[9], after[2]
        _old, _new, script = _diffed([self._list()], [after])
        assert len(_kinds(script, MoveOp)) == 2

    def test_reversal_is_n_minus_one_moves(self):
        _old, _new, script = _diffed(
            [self._list()], [list(reversed(self._list()))]
        )
        assert len(_kinds(script, MoveOp)) == self.N - 1
        assert {type(op) for op in script} == {MoveOp, StampOp}

    def test_delete_and_insert_do_not_shift_the_rest(self):
        after = self._list()
        del after[3]
        # A box, not a record: the matcher would pair a fresh record with
        # the deleted one (same tag) and report an update plus a move.
        after.insert(8, ["box", [_record(99)]])
        _old, _new, script = _diffed([self._list()], [after])
        assert sorted(type(op).__name__ for op in script
                      if not isinstance(op, StampOp)) == [
            "DeleteOp", "InsertOp",
        ]

    def test_survivor_leaves_a_doomed_subtree_before_its_delete(self):
        before = [[["box", [_record(1), _record(2)]]], []]
        after = [[], [_record(1)]]
        old, new, script = _diffed(before, after)
        (move,) = _kinds(script, MoveOp)
        (delete,) = _kinds(script, DeleteOp)
        survivor = new.children[1].children[0]
        assert move.xid == survivor.xid
        assert move.from_parent == old.children[0].children[0].xid
        assert script.ops.index(move) < script.ops.index(delete)
        box = delete.payload.tree()
        assert box.tag == "box"
        assert [child.xid for child in box.children] == [
            old.children[0].children[0].children[1].xid
        ]


def _history_digest(store):
    """SHA-256 over ``(xid, tstamp)`` of every node of every stored version,
    read back through the (backward) delta chain."""
    digest = hashlib.sha256()
    for name in sorted(store.documents()):
        for number in range(1, len(store.delta_index(name)) + 1):
            tree = store.version(name, number)
            digest.update(repr(_stamps(tree)).encode())
    return digest.hexdigest()


class TestStampsMatchThePositionalReconcile:
    """Recorded at the parent commit, whose ``_place_existing`` emitted a
    ``MoveOp`` (and touched the parent) for every sibling whose index
    shifted: a parent's list changes under exactly the same commits."""

    def test_figure1(self):
        store = TemporalDocumentStore()
        load_figure1(store)
        assert _history_digest(store) == (
            "490c48709e4f883fd87630dc181fd47d5c39deca734acf3d8dcfa4196398d30f"
        )

    def test_synthetic_collection(self):
        store = TemporalDocumentStore()
        build_collection(
            store, n_docs=4, versions_per_doc=5,
            generator=TDocGenerator(seed=7),
        )
        assert _history_digest(store) == (
            "a43421dfd600921e6f728bc32999caa76068abd9109fb297cda49f6b4f25c7de"
        )

    def test_restaurant_guide_with_openings_and_closings(self):
        store = TemporalDocumentStore()
        RestaurantGuideGenerator(
            n_restaurants=20, seed=3, p_open=0.2, p_close=0.2
        ).load_into(store, count=15)
        assert _history_digest(store) == (
            "81a315a0d80e564a72edb50dca18e724f7420e93a418c014e332e497c4af11d8"
        )
