"""Tests for matching and diffing: identity persistence and roundtrips."""

import pytest

from repro.diff import apply_script, diff, match_trees
from repro.diff.editscript import (
    DeleteOp,
    InsertOp,
    MoveOp,
    ReplaceRootOp,
    UpdateAttrOp,
    UpdateTextOp,
)
from repro.errors import DiffError
from repro.model.identifiers import XIDAllocator
from repro.model.versioned import stamp_new_nodes
from repro.xmlcore import Path, parse
from tests.references import verify_timestamp_invariant


def _stamped(text, alloc=None, ts=100):
    tree = parse(text)
    stamp_new_nodes(tree, alloc or XIDAllocator(), ts)
    return tree


def _roundtrip(old_text, new_text, ts=200):
    """Diff two documents and verify both application directions."""
    alloc = XIDAllocator()
    old = _stamped(old_text, alloc)
    new = parse(new_text)
    script = diff(old, new, alloc, commit_ts=ts)
    forward = apply_script(old.copy(), script)
    assert forward.equals_deep(new)
    assert _stamps(forward) == _stamps(new)
    backward = apply_script(new.copy(), script.invert())
    assert backward.equals_deep(old)
    assert _stamps(backward) == _stamps(old)
    return old, new, script


def _stamps(tree):
    return [(n.xid, n.tstamp) for n in tree.iter()]


class TestMatching:
    def test_identical_trees_fully_matched(self):
        old = _stamped("<g><r><n>A</n></r></g>")
        new = parse("<g><r><n>A</n></r></g>")
        matching = match_trees(old, new)
        assert len(matching) == old.subtree_size()

    def test_value_change_keeps_element_match(self):
        old = _stamped("<g><r><n>A</n><p>15</p></r></g>")
        new = parse("<g><r><n>A</n><p>18</p></r></g>")
        matching = match_trees(old, new)
        old_price = Path("r/p").first(old)
        new_price = Path("r/p").first(new)
        assert matching.new_for(old_price) is new_price

    def test_different_root_tags_no_match(self):
        old = _stamped("<a/>")
        assert len(match_trees(old, parse("<b/>"))) == 0

    def test_inserted_wrap_degrades_to_fresh_subtree(self):
        # Wrapping existing content in a new element: connectedness pass
        # makes the wrapped copy entirely fresh.
        old = _stamped("<g><n>A</n></g>")
        new = parse("<g><wrap><n>A</n></wrap></g>")
        matching = match_trees(old, new)
        wrap = new.children[0]
        inner = wrap.children[0]
        assert not matching.has_new(wrap)
        assert not matching.has_new(inner)


class TestDiffScenarios:
    def test_no_change_empty_script(self):
        old, new, script = _roundtrip("<g><r>x</r></g>", "<g><r>x</r></g>")
        assert script.is_empty

    def test_text_update(self):
        _old, _new, script = _roundtrip(
            "<g><p>15</p></g>", "<g><p>18</p></g>"
        )
        kinds = [type(op) for op in script]
        assert UpdateTextOp in kinds
        assert InsertOp not in kinds and DeleteOp not in kinds

    def test_insert(self):
        _old, new, script = _roundtrip(
            "<g><r><n>A</n></r></g>",
            "<g><r><n>A</n></r><r><n>B</n></r></g>",
        )
        inserts = [op for op in script if isinstance(op, InsertOp)]
        assert len(inserts) == 1
        assert inserts[0].payload.tree().find("n").text == "B"

    def test_delete(self):
        _old, _new, script = _roundtrip(
            "<g><r><n>A</n></r><r><n>B</n></r></g>",
            "<g><r><n>A</n></r></g>",
        )
        deletes = [op for op in script if isinstance(op, DeleteOp)]
        assert len(deletes) == 1
        assert deletes[0].payload.tree().find("n").text == "B"

    def test_reorder_uses_moves(self):
        _old, _new, script = _roundtrip(
            "<g><a>1</a><b>2</b></g>", "<g><b>2</b><a>1</a></g>"
        )
        assert any(isinstance(op, MoveOp) for op in script)
        assert not any(
            isinstance(op, (InsertOp, DeleteOp)) for op in script
        )

    def test_move_across_parents(self):
        old = _stamped("<g><box1><item>x</item></box1><box2/></g>")
        item_xid = Path("box1/item").first(old).xid
        new = parse("<g><box1/><box2><item>x</item></box2></g>")
        script = diff(old, new, XIDAllocator(100), commit_ts=200)
        moved = Path("box2/item").first(new)
        assert moved.xid == item_xid  # identity survived the move
        assert apply_script(old.copy(), script).equals_deep(new)

    def test_attribute_changes(self):
        _old, _new, script = _roundtrip(
            '<g><r k="1" gone="x">t</r></g>',
            '<g><r k="2" fresh="y">t</r></g>',
        )
        attr_ops = {op.name: op for op in script if isinstance(op, UpdateAttrOp)}
        assert attr_ops["k"].old == "1" and attr_ops["k"].new == "2"
        assert attr_ops["gone"].new is None
        assert attr_ops["fresh"].old is None

    def test_root_tag_change_replaces_root(self):
        old = _stamped("<a><x/></a>")
        new = parse("<b><x/></b>")
        script = diff(old, new, XIDAllocator(100), commit_ts=200)
        assert len(script) == 1
        assert isinstance(script.ops[0], ReplaceRootOp)
        result = apply_script(old.copy(), script)
        assert result.equals_deep(new)
        back = apply_script(result, script.invert())
        assert back.equals_deep(old)

    def test_combined_changes(self):
        _roundtrip(
            "<g><r><n>Napoli</n><p>15</p></r>"
            "<r><n>Roma</n><p>20</p></r></g>",
            "<g><r><n>Roma</n><p>22</p></r>"
            "<r><n>Napoli</n><p>15</p></r>"
            "<r><n>Akropolis</n><p>13</p></r></g>",
        )

    def test_mixed_content_changes(self):
        _roundtrip(
            "<p>one<b>two</b>three</p>", "<p>one<b>TWO</b>four</p>"
        )


class TestIdentityPersistence:
    def test_unchanged_elements_keep_xids(self):
        alloc = XIDAllocator()
        old = _stamped("<g><r><n>A</n></r><r><n>B</n></r></g>", alloc)
        new = parse("<g><r><n>A</n></r><r><n>B</n></r><r><n>C</n></r></g>")
        diff(old, new, alloc, commit_ts=200)
        for index in range(2):
            assert (
                new.child_elements()[index].xid
                == old.child_elements()[index].xid
            )

    def test_fresh_elements_get_new_xids(self):
        alloc = XIDAllocator()
        old = _stamped("<g><r>A</r></g>", alloc)
        highest = max(n.xid for n in old.iter())
        new = parse("<g><r>A</r><s>B</s></g>")
        diff(old, new, alloc, commit_ts=200)
        fresh = new.child_elements()[1]
        assert fresh.xid > highest

    def test_deleted_xid_never_reused(self):
        alloc = XIDAllocator()
        old = _stamped("<g><r>A</r><r>B</r></g>", alloc)
        gone_xid = old.child_elements()[1].xid
        middle = parse("<g><r>A</r></g>")
        diff(old, middle, alloc, commit_ts=200)
        final = parse("<g><r>A</r><r>B</r></g>")
        diff(middle, final, alloc, commit_ts=300)
        reintroduced = final.child_elements()[1]
        assert reintroduced.xid != gone_xid


class TestTimestampMaintenance:
    def test_changed_paths_touched(self):
        alloc = XIDAllocator()
        old = _stamped("<g><r><n>A</n><p>15</p></r><r><n>B</n></r></g>", alloc)
        new = parse("<g><r><n>A</n><p>18</p></r><r><n>B</n></r></g>")
        diff(old, new, alloc, commit_ts=200)
        changed_price = Path("r/p").first(new)
        assert changed_price.tstamp == 200
        assert new.child_elements()[0].tstamp == 200  # the price's parent
        assert new.tstamp == 200
        untouched = new.child_elements()[1]
        assert untouched.tstamp == 100

    def test_invariant_holds_after_diff(self):
        alloc = XIDAllocator()
        old = _stamped("<g><a>1</a><b>2</b></g>", alloc)
        new = parse("<g><b>2</b><a>9</a><c>3</c></g>")
        diff(old, new, alloc, commit_ts=200)
        assert verify_timestamp_invariant(new) == []

    def test_no_commit_ts_leaves_stamps_alone(self):
        alloc = XIDAllocator()
        old = _stamped("<g><p>15</p></g>", alloc)
        new = parse("<g><p>18</p></g>")
        script = diff(old, new, alloc)
        assert not any(op.__class__.__name__ == "StampOp" for op in script)


class TestDiffErrors:
    def test_rejects_non_elements(self):
        with pytest.raises(DiffError):
            diff("not a tree", parse("<a/>"))

    def test_rejects_unstamped_old_tree(self):
        with pytest.raises(DiffError):
            diff(parse("<a><b/></a>"), parse("<a/>"))
