"""Tests for edit-script application: validation of expected state."""

import pytest

from repro.diff import apply_script
from repro.diff.editscript import (
    DeleteOp,
    EditScript,
    InsertOp,
    MoveOp,
    ReplaceRootOp,
    StampOp,
    UpdateAttrOp,
    UpdateTextOp,
)
from repro.errors import DeltaApplicationError
from repro.model.identifiers import XIDAllocator
from repro.model.versioned import stamp_new_nodes
from repro.xmlcore import element, parse, serialize


def _base():
    tree = parse("<g><r><n>A</n></r></g>")
    stamp_new_nodes(tree, XIDAllocator(), 100)
    return tree  # xids: g=1, r=2, n=3, text=4


def _payload(ts=200, xid=50):
    node = element("x", "fresh")
    node.xid = xid
    node.tstamp = ts
    node.children[0].xid = xid + 1
    node.children[0].tstamp = ts
    return node


class TestApplyHappyPath:
    def test_insert_at_position(self):
        tree = _base()
        apply_script(tree, EditScript([InsertOp(1, 0, _payload())]))
        assert tree.children[0].tag == "x"
        assert tree.children[0].xid == 50

    def test_insert_at_end(self):
        tree = _base()
        apply_script(tree, EditScript([InsertOp(1, 1, _payload())]))
        assert tree.children[1].tag == "x"

    def test_delete_checks_payload_xid(self):
        tree = _base()
        victim = tree.children[0].copy()
        apply_script(tree, EditScript([DeleteOp(1, 0, victim)]))
        assert not tree.children

    def test_move(self):
        tree = parse("<g><a/><b/></g>")
        stamp_new_nodes(tree, XIDAllocator(), 1)
        apply_script(tree, EditScript([MoveOp(3, 1, 1, 1, 0)]))
        assert [c.tag for c in tree.children] == ["b", "a"]

    def test_update_text_and_attr(self):
        tree = _base()
        script = EditScript(
            [
                UpdateTextOp(4, "A", "B"),
                UpdateAttrOp(2, "open", None, "yes"),
            ]
        )
        apply_script(tree, script)
        assert tree.find("r").find("n").text == "B"
        assert tree.find("r").get("open") == "yes"

    def test_stamp(self):
        tree = _base()
        apply_script(tree, EditScript([StampOp(2, 100, 500)]))
        assert tree.find("r").tstamp == 500

    def test_replace_root_returns_new_root(self):
        tree = _base()
        replacement = _payload()
        out = apply_script(
            tree, EditScript([ReplaceRootOp(tree.copy(), replacement)])
        )
        assert out.tag == "x"
        assert out is not replacement  # a private copy is installed

    def test_payload_not_aliased(self):
        tree = _base()
        payload = _payload()
        apply_script(tree, EditScript([InsertOp(1, 0, payload)]))
        tree.children[0].children[0].value = "mutated"
        assert payload.children[0].value == "fresh"


class TestApplyValidation:
    def test_unknown_xid(self):
        with pytest.raises(DeltaApplicationError):
            apply_script(_base(), EditScript([UpdateTextOp(99, "A", "B")]))

    def test_insert_position_out_of_range(self):
        with pytest.raises(DeltaApplicationError):
            apply_script(_base(), EditScript([InsertOp(1, 5, _payload())]))

    def test_insert_duplicate_xid(self):
        bad = _payload(xid=2)  # collides with existing r
        with pytest.raises(DeltaApplicationError):
            apply_script(_base(), EditScript([InsertOp(1, 1, bad)]))

    def test_delete_wrong_position(self):
        tree = _base()
        victim = tree.children[0].copy()
        with pytest.raises(DeltaApplicationError):
            apply_script(tree, EditScript([DeleteOp(1, 3, victim)]))

    def test_delete_wrong_element(self):
        tree = _base()
        wrong = _payload(xid=77)
        with pytest.raises(DeltaApplicationError):
            apply_script(tree, EditScript([DeleteOp(1, 0, wrong)]))

    def test_text_update_base_mismatch(self):
        with pytest.raises(DeltaApplicationError):
            apply_script(
                _base(), EditScript([UpdateTextOp(4, "WRONG", "B")])
            )

    def test_attr_update_base_mismatch(self):
        with pytest.raises(DeltaApplicationError):
            apply_script(
                _base(),
                EditScript([UpdateAttrOp(2, "k", "expected", "new")]),
            )

    def test_move_source_mismatch(self):
        tree = parse("<g><a/><b/></g>")
        stamp_new_nodes(tree, XIDAllocator(), 1)
        with pytest.raises(DeltaApplicationError):
            apply_script(tree, EditScript([MoveOp(3, 1, 0, 1, 0)]))

    def test_move_under_its_own_subtree(self):
        tree = parse("<g><a><b/></a></g>")  # XIDs g=1, a=2, b=3
        stamp_new_nodes(tree, XIDAllocator(), 1)
        with pytest.raises(DeltaApplicationError):
            apply_script(tree, EditScript([MoveOp(2, 1, 0, 3, 0)]))

    @pytest.mark.parametrize("op", [
        MoveOp(2, 1, 0, 3, 0),  # under its own child
        MoveOp(2, 1, 0, 2, 0),  # under itself
        MoveOp(2, 1, 0, 1, 1),  # past the end of its source once it left
        MoveOp(3, 2, 0, 1, 2),  # past the end of another parent
    ])
    def test_a_refused_move_leaves_the_tree_as_it_was(self, op):
        tree = parse("<g><a><b/></a></g>")  # XIDs g=1, a=2, b=3
        stamp_new_nodes(tree, XIDAllocator(), 1)
        index = {node.xid: node for node in tree.iter()}
        with pytest.raises(DeltaApplicationError):
            apply_script(tree, EditScript([op]), index)
        assert serialize(tree) == "<g><a><b/></a></g>"
        assert index == {node.xid: node for node in tree.iter()}

    def test_update_on_wrong_node_kind(self):
        with pytest.raises(DeltaApplicationError):
            apply_script(_base(), EditScript([UpdateTextOp(2, "A", "B")]))

    def test_replace_root_base_mismatch(self):
        other = _payload(xid=99)
        with pytest.raises(DeltaApplicationError):
            apply_script(
                _base(), EditScript([ReplaceRootOp(other, _payload())])
            )
