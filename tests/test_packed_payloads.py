"""Stored edit scripts hold their payload subtrees packed, and nothing
outside them can tell.

Every insert, delete and root-replacement payload a stored delta holds is
the binary node encoding the journal and the CAS write
(:class:`~repro.xmlcore.codec.PackedNode`).  The references below read the
same scripts with their payloads unpacked into trees, the way the engine
did when it held them as trees: stored bytes, ``size_bytes``, ``touched``,
``to_xml``, the trees reached by applying each script in both directions,
and the lifetime index's answers must all agree.  Histories come from
``tests/index_history.py`` (puts, updates, deletes, re-puts, attributes,
mixed content, cross-parent moves, root replacement, checkpoints and
reopens, through the journal and both checkpoint formats) and from
``tdocgen`` (through the XML archive).
"""

import pytest

from repro.diff.apply import apply_script
from repro.diff.editscript import (
    DeleteOp,
    EditScript,
    InsertOp,
    ReplaceRootOp,
    _named_xids,
    _op_to_xml,
    encode_payload,
    payload_nodes,
)
from repro.storage import TemporalDocumentStore
from repro.storage.binfmt import decode_tree, encode_tree
from repro.storage.legacy import decode_script
from repro.storage.persistence import dump_store, load_store
from repro.workload import TDocGenerator, build_collection
from repro.xmlcore.codec import PackedNode
from repro.xmlcore.node import Element
from repro.xmlcore.serializer import serialize

from tests.index_history import drive, script_features
from tests.references import encode_script
from tests.test_delta_indexes import ReferenceLifetime, assert_same_lifespans

PAYLOAD_FIELDS = {
    InsertOp: ("payload",),
    DeleteOp: ("payload",),
    ReplaceRootOp: ("old_payload", "new_payload"),
}


def unpacked(op):
    """``[tree]``: the operation's payloads decoded, in field order."""
    return [getattr(op, name).tree() for name in PAYLOAD_FIELDS.get(type(op), ())]


def _nodes(tree):
    return list(payload_nodes(tree))


# -- the script read through its unpacked payloads ------------------------------


def reference_size(script):
    """``size_bytes`` charged on trees: serialized content plus 8 bytes
    per node for each payload."""
    total = 16
    for op in script:
        trees = unpacked(op)
        if trees:
            total += 12 + sum(
                len(serialize(tree)) + 8 * len(_nodes(tree)) for tree in trees
            )
        else:
            total += EditScript([op]).size_bytes() - 16
    return total


def reference_touched(script):
    touched = {}
    for position, op in enumerate(script.ops):
        trees = unpacked(op)
        if trees:
            named = [op.parent_xid] if isinstance(op, (InsertOp, DeleteOp)) else []
            named += [node.xid for tree in trees for node in _nodes(tree)]
        else:
            named = list(_named_xids(op))
        for xid in named:
            positions = touched.setdefault(xid, [])
            if not positions or positions[-1] != position:
                positions.append(position)
    return {xid: tuple(positions) for xid, positions in touched.items()}


def reference_xml(script):
    root = Element("delta")
    if script.from_ts is not None:
        root.set("from", script.from_ts)
    if script.to_ts is not None:
        root.set("to", script.to_ts)
    for op in script:
        trees = unpacked(op)
        if isinstance(op, (InsertOp, DeleteOp)):
            kind = "insert" if isinstance(op, InsertOp) else "delete"
            el = Element(kind, {"parent": op.parent_xid, "pos": op.pos})
            el.append(encode_payload(trees[0]))
        elif isinstance(op, ReplaceRootOp):
            el = Element("replaceroot")
            for tag, tree in zip(("old", "new"), trees):
                side = Element(tag)
                side.append(encode_payload(tree))
                el.append(side)
        else:
            el = _op_to_xml(op)
        root.append(el)
    return root


def assert_invisible(script):
    """One stored script against its unpacked reading."""
    for op in script:
        for name, tree in zip(PAYLOAD_FIELDS.get(type(op), ()), unpacked(op)):
            packed = getattr(op, name)
            assert type(packed) is PackedNode
            assert packed == PackedNode.pack(tree)
            assert packed.xid == tree.xid
            assert packed.xids() == [node.xid for node in _nodes(tree)]
    # The script rebuilt from trees (the XML closure form decodes payloads
    # to trees) stores the same bytes, and those bytes read back equal.
    data = encode_script(script)
    rebuilt = EditScript.from_xml(reference_xml(script))
    assert encode_script(rebuilt) == data
    assert decode_script(data).ops == script.ops
    assert serialize(script.to_xml()) == serialize(reference_xml(script))
    assert script.size_bytes() == reference_size(script) == rebuilt.size_bytes()
    assert script.touched == reference_touched(script)
    assert script.invert().touched == reference_touched(script.invert())


class CommittedTrees:
    """Observer keeping, per ``(doc_id, timestamp)``, the bytes of the tree
    each live commit left current (stamps and XIDs included)."""

    def __init__(self):
        self.trees = {}

    def document_committed(self, event):
        if event.root is not None:
            self.trees[event.doc_id, event.timestamp] = encode_tree(event.root)


def assert_applies(store, committed):
    """Every stored script takes the committed tree at its ``from_ts`` to
    the one at its ``to_ts``, and its inverse takes it back; each
    application decodes payloads afresh."""
    applied = 0
    for record in store.repository.records():
        for script in record.deltas.values():
            before = committed.trees.get((record.doc_id, script.from_ts))
            after = committed.trees.get((record.doc_id, script.to_ts))
            if before is None or after is None:
                continue  # committed before the observer was subscribed
            forward = apply_script(decode_tree(before), script)
            assert encode_tree(forward) == after
            again = apply_script(decode_tree(before), script)
            assert not {id(n) for n in forward.iter()} & {
                id(n) for n in again.iter()
            }
            backward = apply_script(decode_tree(after), script.invert())
            assert encode_tree(backward) == before
            applied += 1
    return applied


def stored_scripts(store):
    return [
        script
        for record in store.repository.records()
        for script in record.deltas.values()
    ]


@pytest.mark.parametrize("seed, checkpoints, storage", [
    (1, True, "xml"), (2, True, "cas"), (3, False, "xml"),
])
def test_index_histories(tmp_path, seed, checkpoints, storage):
    committed, lifetime = CommittedTrees(), ReferenceLifetime()

    def check(db):
        assert_same_lifespans(db.lifetime, lifetime)

    db = drive(seed, tmp_path / "db", [committed, lifetime], check,
               checkpoints=checkpoints, storage=storage)
    assert {
        "InsertOp", "DeleteOp", "ReplaceRootOp", "cross-parent move",
    } <= script_features(db.store)
    scripts = stored_scripts(db.store)
    assert len(scripts) > 20
    for script in scripts:
        assert_invisible(script)
    assert assert_applies(db.store, committed) > 20


def test_tdocgen_history_through_the_archive(tmp_path):
    store = TemporalDocumentStore(snapshot_interval=4)
    committed = store.subscribe(CommittedTrees())
    build_collection(
        store, n_docs=4, versions_per_doc=10,
        generator=TDocGenerator(
            seed=7, fanout=(2, 5), depth=3, p_insert=0.15, p_delete=0.1
        ),
    )
    path = tmp_path / "archive.xml"
    dump_store(store, path)
    loaded = load_store(path)
    assert [encode_script(s) for s in stored_scripts(loaded)] == [
        encode_script(s) for s in stored_scripts(store)
    ]
    for target in (store, loaded):
        for script in stored_scripts(target):
            assert_invisible(script)
        assert assert_applies(target, committed) == 4 * 9
        trees = [
            tree for script in stored_scripts(target) for op in script
            for tree in unpacked(op)
        ]
        assert trees and target.repository.held_deltas() == {
            "ops": sum(len(s.ops) for s in stored_scripts(target)),
            "payloads": len(trees),
            "payload_bytes": sum(len(PackedNode.pack(t)) for t in trees),
        }
