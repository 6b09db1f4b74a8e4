"""DIFF between versions of one element follows the stored identities.

An element's versions share XIDs: a node alive in both is one node, a node
alive in one only was deleted or inserted between them.  So the script of
``DIFF(a, b)`` for two versions of one EID, applied to ``a``, gives ``b``
with its XIDs; it deletes exactly the XIDs alive at ``a`` and not at
``b`` and inserts the converse; ``DIFF(a, a)`` is empty; for adjacent
versions it is the stored delta without its stamps.  No content is
matched on the way.  The histories come from the generator of
``tests/index_history.py``: subtrees inserted, deleted and moved between
parents, attributes, mixed content and root tags replaced.
"""

from __future__ import annotations

import random
from itertools import product

import pytest

from repro import TemporalXMLDatabase
from repro.diff import apply_script, differ
from repro.diff.editscript import DeleteOp, InsertOp, MoveOp, StampOp
from repro.model.identifiers import TEID
from repro.operators.diffop import Diff
from repro.storage import TemporalDocumentStore
from repro.xmlcore.node import Element
from repro.xmlcore.serializer import serialize
from tests.index_history import START, evolve, new_document

SEEDS = range(40)
STEPS = 7  # updates per history: eight versions, 64 ordered pairs


def _history(seed):
    """One document's seeded history in a bare store."""
    rng = random.Random(seed)
    store = TemporalDocumentStore()
    master = new_document(rng)
    store.put("d.xml", serialize(master), ts=START)
    for step in range(1, STEPS + 1):
        master = evolve(rng, master)
        store.update("d.xml", serialize(master), ts=START + 3600 * step)
    return store


def _versions(store):
    """``(timestamp, tree)`` of every version of ``d.xml``."""
    record = store.record("d.xml")
    return [(entry.timestamp, store.version("d.xml", entry.number))
            for entry in record.dindex.entries]


def _shape(node):
    """The subtree with its XIDs, stamps left out."""
    if isinstance(node, Element):
        return (node.xid, node.tag, tuple(node.attrib.items()),
                tuple(map(_shape, node.children)))
    return node.xid, node.value


def _xids(node):
    return {inner.xid for inner in node.iter()}


def _payload_xids(script, kind):
    return {xid for op in script if isinstance(op, kind)
            for xid in op.payload.xids()}


def _old_under_new(old, new):
    """Whether some node of ``new`` that ``old`` lacks holds one it has."""
    alive = _xids(old)
    return any(
        node.xid not in alive and not alive.isdisjoint(_xids(node))
        for node in new.iter_elements()
    )


def _check_laws(store, xid, at_a, at_b):
    """The identity laws for element ``xid`` between two versions given
    as ``(timestamp, subtree)``; returns the script."""
    (ts_a, a), (ts_b, b) = at_a, at_b
    doc_id = store.doc_id("d.xml")
    script = Diff(store).script(TEID(doc_id, xid, ts_a), TEID(doc_id, xid, ts_b))
    assert _shape(apply_script(a.copy(), script)) == _shape(b)
    assert _payload_xids(script, DeleteOp) == _xids(a) - _xids(b)
    assert _payload_xids(script, InsertOp) == _xids(b) - _xids(a)
    if ts_a == ts_b:
        assert not script.ops
    return script


def _element_pairs(versions, rng):
    """``(xid, at_a, at_b)``: every ordered pair of versions for the root,
    and for one inner element alive in both, where there is one."""
    for (ts_a, a), (ts_b, b) in product(versions, repeat=2):
        if a.xid == b.xid:  # not across a root replacement
            yield a.xid, (ts_a, a), (ts_b, b)
        inner = sorted(
            node.xid for node in a.iter_elements()
            if node is not a and b.find_by_xid(node.xid) is not None
        )
        if inner:
            xid = rng.choice(inner)
            yield xid, (ts_a, a.find_by_xid(xid)), (ts_b, b.find_by_xid(xid))


def test_versions_of_one_element_obey_the_identity_laws():
    checked = old_under_new = 0
    for seed in SEEDS:
        store = _history(seed)
        rng = random.Random(seed)
        for xid, at_a, at_b in _element_pairs(_versions(store), rng):
            _check_laws(store, xid, at_a, at_b)
            checked += 1
            old_under_new += _old_under_new(at_a[1], at_b[1])
    assert checked > 2000
    assert old_under_new > 0  # the generator exercises the bare insert


def test_adjacent_versions_diff_to_the_stored_delta_without_stamps():
    compared = 0
    for seed in SEEDS:
        store = _history(seed)
        record = store.record("d.xml")
        versions = _versions(store)
        for number, (at_a, at_b) in enumerate(zip(versions, versions[1:]), 1):
            if at_a[1].xid != at_b[1].xid:
                continue  # a root replacement: two elements
            script = _check_laws(store, at_a[1].xid, at_a, at_b)
            stored = store.repository.read_delta(record, number)
            assert script.ops == [
                op for op in stored if not isinstance(op, StampOp)
            ]
            compared += 1
    assert compared > 150


def test_one_element_is_diffed_without_the_content_matcher(monkeypatch):
    store = _history(3)
    versions = _versions(store)
    calls = []
    real = differ.match_trees

    def counting(old, new):
        calls.append(1)
        return real(old, new)

    monkeypatch.setattr(differ, "match_trees", counting)
    root = versions[0][1].xid
    for at_a, at_b in product(versions, repeat=2):
        if at_a[1].xid == at_b[1].xid == root:
            _check_laws(store, root, at_a, at_b)
    assert calls == []
    # Raw trees and different elements still go through the matcher.
    Diff(store).script(versions[0][1], versions[-1][1])
    assert calls == [1]


_SECOND_R = "<g><r><n>b</n><p>2</p></r></g>"
_BOTH_R = "<g><r><n>a</n><p>1</p></r><r><n>b</n><p>2</p></r></g>"


def _reinsert_history():
    db = TemporalXMLDatabase()
    db.put("d", _BOTH_R, ts=db.ts("01/01/2001"))
    db.update("d", _SECOND_R, ts=db.ts("01/02/2001"))
    db.update("d", _BOTH_R, ts=db.ts("01/03/2001"))
    return db


def _inserted_and_deleted(script):
    return ([(op.payload.tree().tag, op.payload.xid) for op in script
             if isinstance(op, InsertOp)],
            [(op.payload.tree().tag, op.payload.xid) for op in script
             if isinstance(op, DeleteOp)])


def test_a_reinserted_element_is_a_new_element():
    """The first ``r`` deleted and put back with the same text is ``r#12``,
    not ``r#2``: the content matcher used to pair the two and answer
    ``<delta/>``."""
    db = _reinsert_history()
    doc_id = db.store.doc_id("d")
    script = Diff(db.store).script(TEID(doc_id, 1, db.ts("01/01/2001")),
                                   TEID(doc_id, 1, db.ts("01/03/2001")))
    assert _inserted_and_deleted(script) == ([("r", 12)], [("r", 2)])

    result = db.query('SELECT DIFF(R, CURRENT(R)) FROM doc("d")[01/01/2001] R')
    delta = result.rows[0]["DIFF(R, CURRENT(R))"]
    assert [(op.tag, op.find("e").get("x")) for op in delta.child_elements()] \
        == [("insert", "12"), ("delete", "2")]


def test_old_nodes_under_a_new_node_are_moved_in():
    """``w`` is inserted after version 1 and ``n`` moved under it: from
    version 1, ``w`` is new and holds an old node.  It goes in bare, and
    ``n`` is moved into it."""
    store = TemporalDocumentStore()
    store.put("d.xml", "<g><n>x</n><m>y</m></g>", ts=START)
    store.update("d.xml", "<g><n>x</n><m>y</m><w>z</w></g>", ts=START + 1)
    store.update("d.xml", "<g><m>y</m><w>z<n>x</n></w></g>", ts=START + 2)
    (ts_1, v1), _, (ts_3, v3) = _versions(store)
    assert _old_under_new(v1, v3)
    script = _check_laws(store, v1.xid, (ts_1, v1), (ts_3, v3))
    n, w = v1.find("n"), v3.find("w")
    inserted = [op for op in script if isinstance(op, InsertOp)]
    assert [op.payload.xid for op in inserted] == [w.xid, w.children[0].xid]
    assert inserted[0].payload.tree().children == []
    assert [(op.xid, op.to_parent) for op in script if isinstance(op, MoveOp)] \
        == [(n.xid, w.xid)]


@pytest.mark.parametrize("query", [
    'SELECT DIFF(PREVIOUS(R), R) FROM doc("d.xml")[EVERY] R',
    'SELECT DIFF(R, NEXT(R)) FROM doc("d.xml")[EVERY]//item R',
])
def test_txql_diffs_versions_of_one_element_by_xid(query, monkeypatch):
    db = TemporalXMLDatabase()
    rng = random.Random(2)
    master = new_document(rng)
    db.put("d.xml", serialize(master), ts=START)
    for step in range(1, 5):
        master = evolve(rng, master)
        db.update("d.xml", serialize(master), ts=START + 3600 * step)
    monkeypatch.setattr(differ, "match_trees", None)  # any call fails
    deltas = [next(iter(row.values())) for row in db.query(query).rows]
    assert any(delta is not None and delta.children for delta in deltas)


def test_txql_diff_reads_no_binding_again():
    """A binding goes into DIFF with the subtree it already holds: on
    Figure 1, ``DIFF(PREVIOUS(R), R)`` costs what binding ``R`` and
    ``PREVIOUS(R)`` costs (4 cursor starts, 18 operations applied and 5
    delta reads while DIFF read both versions again)."""
    from repro.workload.restaurant import load_figure1

    db = TemporalXMLDatabase()
    load_figure1(db)
    result = db.query('SELECT DIFF(PREVIOUS(R), R) '
                      'FROM doc("guide.com")[EVERY]/restaurant R')
    reads = db.store.repository.counter_snapshot()
    assert (reads["subtree_reads"], reads["ops_applied"],
            reads["delta_reads"]) == (2, 10, 2)
    deltas = [row["DIFF(PREVIOUS(R), R)"] for row in result.rows]
    assert [serialize(d) if d is not None else None for d in deltas] == [
        None, "<delta/>", None,
        '<delta><update xid="6"><old>15</old><new>18</new></update></delta>',
    ]
