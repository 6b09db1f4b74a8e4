"""Redo records keep only what the base version cannot supply.

A commit script's stamps are the Section 4 rule's closure over its other
operations, a text or attribute update's old value is on the tree it
applies to, a node that exists there has its place there, and a fresh
node takes the commit time and the next XID the allocator hands out.  So
the redo form (``binfmt.write_redo``) stores none of those: an update
carries its new value only (kinds ``0x09``/``0x0A``), the stamps are one
trailing ``0x0B`` marker that :func:`~repro.diff.apply.apply_script`
expands, a delete or move names its node by XID alone (``0x0D``/``0x0E``;
``apply_script`` finds where it stands), and an insert leaves its root's
stamps implied (``0x0C``: the commit time, and an XID coded against the
end of the subtree inserted before).  These tests hold that:

* every differ script of two generators' histories — the index differential
  histories (moves, root replacements, attributes, mixed content) and
  ``tdocgen`` collections — goes through ``write_redo`` → ``read_redo`` →
  ``apply_script`` to its completed form byte for byte and operation by
  operation (a delete's and a move's source parent and position, every
  payload's XIDs and timestamps), with the stamps it derives equal to the
  script's own; ``read_redo`` alone gives back every inserted payload
  byte for byte;
* a script whose stamps break the rule keeps them, explicit, through the
  commit journal and a checkpoint.

Hostile bytes of the new kinds are in ``test_journal_v2.BAD_REDO`` (the
journal) and ``test_cas_format3.HOSTILE`` (a checkpoint).
"""

from __future__ import annotations

import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TemporalXMLDatabase
from repro.diff.apply import apply_script, parent_index
from repro.diff.editscript import (
    DeleteOp,
    EditScript,
    ImpliedStamps,
    InsertOp,
    MoveOp,
    RedoDelete,
    RedoMove,
    RedoStamp,
    ReplaceRootOp,
    StampOp,
)
from repro.storage import TemporalDocumentStore, binfmt
from repro.storage import store as store_module
from repro.workload import TDocGenerator
from repro.xmlcore.serializer import serialize
from tests.index_history import evolve, new_document
from tests.references import encode_script


class _Commits:
    """Store observer keeping every update's base version (a copy) and
    script."""

    def __init__(self):
        self.updates = []

    def document_committed(self, event):
        if event.kind == "update":
            self.updates.append((event.old_root.copy(), event.script))


def _round_trip(base, script, index=None, parents=None):
    """Check ``script`` against its redo bytes completed on ``base`` (with
    ``base``'s ``index`` and ``parents`` kept up to date when given);
    returns the tree it leaves."""
    data = binfmt.encode_redo(script)
    fresh = []
    real = binfmt._FreshXids.read

    def read(self, r):
        fresh.append(real(self, r))
        return fresh[-1]

    with mock.patch.object(binfmt._FreshXids, "read", read):
        redo = binfmt.decode_redo(data)
    # A commit's inserts left their roots' stamps implied.
    assert len(fresh) == (sum(
        isinstance(op, InsertOp) and op.payload.tstamp == script.to_ts
        for op in script.ops
    ) if script.stamps_implied else 0)
    implied = isinstance(redo.ops[-1], ImpliedStamps) if redo.ops else False
    assert implied == script.stamps_implied
    if implied:
        assert not any(isinstance(op, RedoStamp) for op in redo.ops)
    # Existing nodes are named by XID alone; payloads come back whole.
    assert not any(isinstance(op, (DeleteOp, MoveOp)) for op in redo.ops)
    assert all(op.parent_xid is None
               for op in redo.ops if isinstance(op, RedoDelete))
    assert sum(isinstance(op, (RedoDelete, RedoMove)) for op in redo.ops) \
        == sum(isinstance(op, (DeleteOp, MoveOp)) for op in script.ops)
    assert [op for op in redo.ops if isinstance(op, InsertOp)] == [
        op for op in script.ops if isinstance(op, InsertOp)
    ]
    root = apply_script(base, redo, index, parents)
    assert redo.ops == script.ops
    assert encode_script(redo) == encode_script(script)
    assert [op for op in redo.ops if isinstance(op, StampOp)] == [
        op for op in script.ops if isinstance(op, StampOp)
    ]
    assert redo.stamps_implied == script.stamps_implied
    # A script completed from the marker writes the marker again.
    assert binfmt.encode_redo(redo) == data
    return root


def _commit_scripts(commits):
    """Check every committed script on its own base version, then all of
    them rolling one tree whose index and parent index are kept up to
    date, as a checkpoint load does; returns the scripts."""
    for base, script in commits.updates:
        _round_trip(base.copy(), script)
    root = commits.updates[0][0]
    index = {node.xid: node for node in root.iter()}
    parents = parent_index(root)
    for _base, script in commits.updates:
        root = _round_trip(root, script, index, parents)
        assert parents == parent_index(root)
    return [script for _base, script in commits.updates]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_index_history_scripts_complete_from_their_redo_bytes(seed):
    rng = random.Random(seed)
    store = TemporalDocumentStore()
    commits = _Commits()
    store.subscribe(commits)
    master = new_document(rng)
    store.put("d.xml", serialize(master))
    for _ in range(12):
        master = evolve(rng, master)
        store.update("d.xml", serialize(master))
    scripts = _commit_scripts(commits)
    # Root replacements carry no stamps and keep no marker.
    assert all(
        script.stamps_implied != any(
            isinstance(op, ReplaceRootOp) for op in script.ops
        )
        for script in scripts
    )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       p_insert=st.sampled_from([0.05, 0.15, 0.3]),
       p_delete=st.sampled_from([0.05, 0.1, 0.2]))
def test_tdocgen_scripts_complete_from_their_redo_bytes(seed, p_insert,
                                                        p_delete):
    generator = TDocGenerator(seed=seed, depth=3, fanout=(2, 5),
                              p_insert=p_insert, p_delete=p_delete)
    store = TemporalDocumentStore()
    commits = _Commits()
    store.subscribe(commits)
    store.put("t.xml", generator.document("t.xml"))
    for _ in range(8):
        store.update("t.xml", generator.evolve("t.xml"))
    assert any(script.stamps_implied and any(
        isinstance(op, StampOp) for op in script.ops
    ) for script in _commit_scripts(commits))


# -- scripts whose stamps are not the rule's ------------------------------------


def _rule_breaking_diff(real):
    """``diff`` whose scripts drop the root's stamp and stamp one node no
    operation touched; the committed tree follows the script."""

    def diff(old_root, new_root, allocator, commit_ts=None):
        script = real(old_root, new_root, allocator, commit_ts=commit_ts)
        ops = [op for op in script.ops
               if not (isinstance(op, StampOp) and op.xid == new_root.xid)]
        dropped = next(op for op in script.ops if op not in ops)
        new_root.tstamp = dropped.old_ts
        stamped = {op.xid for op in script.ops if isinstance(op, StampOp)}
        untouched = next(
            node for node in new_root.iter()
            if node.xid not in stamped and node.tstamp != commit_ts
        )
        ops.append(StampOp(untouched.xid, untouched.tstamp, commit_ts))
        untouched.tstamp = commit_ts
        return EditScript(ops, script.from_ts, script.to_ts)

    return diff


def _stored(store):
    return {
        (record.name, number): encode_script(script)
        for record in store.repository.records()
        for number, script in record.deltas.items()
    }


def test_a_rule_breaking_script_keeps_its_stamps(tmp_path, monkeypatch):
    directory = tmp_path / "db"
    db = TemporalXMLDatabase.open(directory, durability="fsync")
    db.put("a.xml", "<doc><x>one</x><y><z>two</z></y><w>three</w></doc>")
    with monkeypatch.context() as patch:
        patch.setattr(store_module, "diff",
                      _rule_breaking_diff(store_module.diff))
        db.update("a.xml", "<doc><x>uno</x><y><z>two</z></y><w>three</w></doc>")
    db.update("a.xml", "<doc><x>uno</x><y><z>dos</z></y><w>three</w></doc>")
    forged = db.store.record("a.xml").deltas[1]
    assert not forged.stamps_implied
    assert db.store.record("a.xml").deltas[2].stamps_implied
    want = _stored(db.store)
    versions = [binfmt.encode_tree(db.store.version("a.xml", n))
                for n in (1, 2, 3)]
    db.close()

    # From the journal alone, then from a checkpoint alone.
    again = TemporalXMLDatabase.open(directory, durability="fsync")
    assert again.recovery.records_replayed == 3
    assert _stored(again.store) == want
    assert not again.store.record("a.xml").deltas[1].stamps_implied
    again.checkpoint()
    again.close()
    last = TemporalXMLDatabase.open(directory, durability="none")
    assert last.recovery.records_replayed == 0
    assert _stored(last.store) == want
    assert [binfmt.encode_tree(last.store.version("a.xml", n))
            for n in (1, 2, 3)] == versions
