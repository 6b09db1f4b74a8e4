"""Reference code the tests use and the engine does not.

* :class:`TemporalJoin` — the hand-composable sequenced join
  (overlapping validity intervals) that ``test_temporal_algebra.py``
  checks TXQL's ``OVERLAPS`` against;
* :func:`collect_xids`, :func:`verify_timestamp_invariant` and
  :func:`max_timestamp` — checks of the stamped-tree invariants the
  differ and the store maintain (``repro.model.versioned``);
* :func:`absolute_bytes` and :func:`absolute_script` — the node encoding
  with every XID and timestamp written absolute (kinds ``0x01``/``0x02``
  only), as the codec wrote every node before stamps that follow the tree
  were left implied; fingerprints recorded then are taken through it;
* :func:`write_script` and :func:`encode_script` — an edit script in its
  completed form, as older releases wrote it to the CAS and the v2
  journal (``binfmt.read_script`` reads it); stored deltas are
  fingerprinted through it;
* :func:`write_placed_op` and :func:`encode_placed_redo` — redo scripts
  in the layouts written before existing nodes were named by XID alone
  and inserted roots left their stamps implied (kinds ``0x01``–``0x03``),
  which ``binfmt.read_redo`` still reads;
* :data:`MISPLACED_MARKERS` — redo bytes whose implied-stamps marker
  ``binfmt.read_redo`` must refuse, and :func:`fresh_inserts`, redo bytes
  of inserts whose root XIDs are coded as given.
"""

from __future__ import annotations

import dataclasses

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
from repro.errors import IdentityError
from repro.storage import binfmt
from repro.operators.relational import INTERVAL_KEY
from repro.xmlcore.codec import PackedNode, Reader, Writer, write_implied_root
from repro.xmlcore.node import Element, Text


class TemporalJoin:
    """Join requiring overlapping validity intervals.

    The output row's interval is the intersection — the span during which
    both inputs were simultaneously valid.  An extra ``predicate`` can
    refine the match.  It is not on the query path: TXQL evaluates
    ``OVERLAPS`` as a predicate over rows the engine already joined.
    """

    def __init__(self, left, right, predicate=None):
        self.left = left
        self.right = right
        self.predicate = predicate

    def __iter__(self):
        right_rows = list(self.right)
        for left_row in self.left:
            left_interval = left_row.get(INTERVAL_KEY)
            for right_row in right_rows:
                right_interval = right_row.get(INTERVAL_KEY)
                if left_interval is not None and right_interval is not None:
                    overlap = left_interval.intersect(right_interval)
                    if overlap is None:
                        continue
                else:
                    overlap = left_interval or right_interval
                merged = dict(left_row)
                merged.update(right_row)
                if overlap is not None:
                    merged[INTERVAL_KEY] = overlap
                if self.predicate is None or self.predicate(merged):
                    yield merged


def collect_xids(root):
    """Map XID → node over the whole subtree.

    Raises :class:`~repro.errors.IdentityError` on duplicate or missing
    XIDs — both indicate a stamping bug, never a user error.
    """
    index = {}
    for node in _iter_nodes(root):
        if node.xid is None:
            raise IdentityError("tree contains an unstamped node")
        if node.xid in index:
            raise IdentityError(f"duplicate XID {node.xid} in tree")
        index[node.xid] = node
    return index


def verify_timestamp_invariant(root):
    """Check that every element's timestamp >= all of its children's.

    Returns the list of offending XIDs (empty when the invariant holds).
    """
    offenders = []
    for node in _iter_nodes(root):
        if not isinstance(node, Element):
            continue
        for child in node.children:
            if (
                child.tstamp is not None
                and node.tstamp is not None
                and child.tstamp > node.tstamp
            ):
                offenders.append(node.xid)
                break
    return offenders


def max_timestamp(root):
    """Largest ``tstamp`` in the subtree (None when nothing is stamped)."""
    best = None
    for node in _iter_nodes(root):
        if node.tstamp is not None and (best is None or node.tstamp > best):
            best = node.tstamp
    return best


def _iter_nodes(root):
    if isinstance(root, Element):
        return root.iter()
    return iter([root])


def absolute_bytes(node):
    """``node``'s encoding with absolute stamps on every node: a kind byte
    (``0x01`` element, ``0x02`` text), the XID and the timestamp (``0`` when
    absent, ``n + 1`` otherwise), then the value, or the tag, attributes and
    children."""
    w = Writer()
    _write_absolute(w, node)
    return w.getvalue()


def _write_absolute(w, node):
    text = isinstance(node, Text)
    w.byte(0x02 if text else 0x01)
    w.opt_u(node.xid)
    w.opt_u(node.tstamp)
    if text:
        w.s(node.value)
        return
    w.s(node.tag)
    w.u(len(node.attrib))
    for name, value in node.attrib.items():
        w.s(name)
        w.s(value)
    w.u(len(node.children))
    for child in node.children:
        _write_absolute(w, child)


def absolute_script(script):
    """A copy of ``script`` whose payloads are re-packed through
    :func:`absolute_bytes`."""
    ops = []
    for op in script.ops:
        if isinstance(op, (InsertOp, DeleteOp)):
            op = dataclasses.replace(op, payload=_absolute(op.payload))
        elif isinstance(op, ReplaceRootOp):
            op = ReplaceRootOp(_absolute(op.old_payload),
                               _absolute(op.new_payload))
        ops.append(op)
    return EditScript(ops, from_ts=script.from_ts, to_ts=script.to_ts)


def _absolute(payload):
    return PackedNode(absolute_bytes(payload.tree()))


def encode_script(script):
    """One edit script in its completed form as standalone bytes."""
    w = Writer()
    write_script(w, script)
    return w.getvalue()


def write_script(w, script):
    """Encode ``script`` in its completed form: ``binfmt.write_redo``'s
    layout for explicit stamps with the deleted subtree, the replaced
    root's payload, each update's old value (kinds ``0x04``/``0x05``) and
    each stamp's old timestamp in place (a stamp run groups its XIDs by
    ``(old_ts, new_ts)``)."""
    w.opt_u(script.from_ts)
    w.opt_u(script.to_ts)
    ops = script.ops
    w.u(len(ops))
    at = 0
    while at < len(ops):
        end = binfmt._stamp_run_end(ops, at)
        if end - at > 1:
            groups = {}
            for op in ops[at:end]:
                groups.setdefault((op.old_ts, op.new_ts), []).append(op.xid)
            w.byte(binfmt._OP_STAMPS)
            w.u(len(groups))
            for (old_ts, new_ts), xids in groups.items():
                w.u(old_ts)
                w.u(new_ts)
                w.u(len(xids))
                last = -1
                for xid in xids:
                    w.u(xid - last)
                    last = xid
            at = end
            continue
        op = ops[at]
        at += 1
        if isinstance(op, DeleteOp):
            w.byte(binfmt._OP_DELETE)
            w.u(op.parent_xid)
            w.u(op.pos)
            w.raw(op.payload)
        elif isinstance(op, StampOp):
            w.byte(binfmt._OP_STAMP)
            w.u(op.xid)
            w.u(op.old_ts)
            w.u(op.new_ts)
        elif isinstance(op, (InsertOp, MoveOp)):  # one layout in both forms
            write_placed_op(w, op)
        elif isinstance(op, ReplaceRootOp):
            w.byte(binfmt._OP_REPLACEROOT)
            w.raw(op.old_payload)
            w.raw(op.new_payload)
        elif isinstance(op, UpdateTextOp):
            w.byte(binfmt._OP_UPDTEXT)
            w.u(op.xid)
            w.s(op.old)
            w.s(op.new)
        elif isinstance(op, UpdateAttrOp):
            w.byte(binfmt._OP_UPDATTR)
            w.u(op.xid)
            w.s(op.name)
            w.opt_s(op.old)
            w.opt_s(op.new)
        else:
            raise TypeError(f"cannot encode {type(op).__name__}")


def write_placed_op(w, op):
    """One operation of a redo script in the layouts written before
    deletes and moves named existing nodes by XID alone and inserts left
    their root's stamps implied: an insert with its whole subtree
    (``0x01``), a delete with its victim's parent and position (``0x02``),
    a move with where it leaves (``0x03``); any other operation as
    ``binfmt`` writes it.  ``binfmt.read_redo`` still reads them."""
    if isinstance(op, InsertOp):
        w.byte(binfmt._OP_INSERT)
        w.u(op.parent_xid)
        w.u(op.pos)
        w.raw(op.payload)
    elif isinstance(op, DeleteOp):
        w.byte(binfmt._OP_DELETE)
        w.u(op.parent_xid)
        w.u(op.pos)
        w.u(op.payload.xid)
    elif isinstance(op, MoveOp):
        w.byte(binfmt._OP_MOVE)
        w.u(op.xid)
        w.u(op.from_parent)
        w.u(op.from_pos)
        w.u(op.to_parent)
        w.u(op.to_pos)
    else:
        binfmt._write_op(w, op)


def encode_placed_redo(script):
    """``binfmt.encode_redo(script)`` with every insert, delete and move
    in its earlier layout (:func:`write_placed_op`)."""
    w = Writer()
    w.opt_u(script.from_ts)
    w.opt_u(script.to_ts)
    ops = script.ops
    implied = binfmt._implied_from(script)
    if implied is not None:
        ops = ops[:implied]
    w.u(len(ops) + (implied is not None))
    at = 0
    while at < len(ops):
        end = binfmt._stamp_run_end(ops, at)
        if end - at > 1:
            binfmt._write_stamp_run(w, ops[at:end])
            at = end
        else:
            write_placed_op(w, ops[at])
            at += 1
    if implied is not None:
        w.byte(binfmt._OP_IMPLIED_STAMPS)
    return w.getvalue()


def fresh_inserts(from_ts, to_ts, codes):
    """Redo bytes of a script of inserts with implied root stamps, each an
    empty ``<n>`` at position 0 under XID 1, one per entry of ``codes``:
    the first is the root XID written whole, each later one the signed
    distance written from the end of the subtree before (its XID plus
    one).  Nothing checks that the XIDs make sense."""
    leaf = PackedNode.pack(Element("n"))
    w = Writer()
    w.opt_u(from_ts)
    w.opt_u(to_ts)
    w.u(len(codes))
    for at, code in enumerate(codes):
        w.byte(binfmt._OP_FRESH_INSERT)
        w.u(1)
        w.u(0)
        if at:
            w.z(code)
        else:
            w.u(code)
        write_implied_root(w, leaf)
    return w.getvalue()


def _remarked(redo, front=0, back=1, to_ts=True):
    """``redo`` — the bytes of a script ending in the implied-stamps
    marker — with ``front`` markers before its records and ``back`` after
    them (the operation count following), and its ``to_ts`` kept or
    dropped."""
    r = Reader(redo)
    from_ts, commit_ts, ops = r.opt_u(), r.opt_u(), r.u()
    records = r.rest()
    marker = bytes([binfmt._OP_IMPLIED_STAMPS])
    assert records.endswith(marker)
    w = Writer()
    w.opt_u(from_ts)
    w.opt_u(commit_ts if to_ts else None)
    w.u(ops - 1 + front + back)
    w.raw(marker * front + records[:-1] + marker * back)
    return w.getvalue()


#: name -> redo bytes (of a script ending in the implied-stamps marker) ->
#: the same script with the marker where ``binfmt.read_redo`` refuses it.
MISPLACED_MARKERS = {
    "implied stamps twice": lambda redo: _remarked(redo, back=2),
    "implied stamps not last": lambda redo: _remarked(redo, front=1, back=0),
    "implied stamps without a to_ts": lambda redo: _remarked(
        redo, to_ts=False),
}
