"""Replay of edit scripts onto trees.

``apply_script(root, script)`` returns the transformed tree (the input tree
is mutated; pass a copy when the original must survive, which is what the
repository does during reconstruction).  Every operation validates the state
it expects, so a delta applied against the wrong base version raises
:class:`~repro.errors.DeltaApplicationError` instead of silently corrupting
the document.  A script in the commit journal's redo form is completed as
it is applied: each redo operation becomes the full one, its backward half
— and a delete's or move's source parent and position — taken from the
tree it edits, and a trailing
:class:`~repro.diff.editscript.ImpliedStamps` becomes the stamps the
Section 4 rule gives the operations before it.

``apply_scoped(root, index, script, xid)`` does the same for one element's
*detached subtree*: only the operations that land inside it are applied
(and validated), the rest of the script is skipped, and a move that carries
a node across the subtree's boundary raises
:class:`SubtreeBoundaryCrossed` — the subtree alone cannot say what came in.
"""

from __future__ import annotations

from heapq import heappop, heappush

from ..errors import DeltaApplicationError, TemporalXMLError
from ..xmlcore.node import Element, Text
from .editscript import (
    DeleteOp,
    ImpliedStamps,
    InsertOp,
    MoveOp,
    RedoDelete,
    RedoMove,
    RedoReplaceRoot,
    RedoStamp,
    RedoUpdateAttr,
    RedoUpdateText,
    ReplaceRootOp,
    StampOp,
    UpdateAttrOp,
    UpdateTextOp,
    payload_nodes,
)


class SubtreeBoundaryCrossed(TemporalXMLError):
    """A ``MoveOp`` has one parent inside the scoped subtree and one outside.

    Raised by :func:`apply_scoped` part-way through a script: the subtree
    and index it was given are then in an intermediate state and must be
    discarded (the caller rebuilds the element from a whole document)."""


def apply_script(root, script, index=None, parents=None):
    """Apply ``script`` to ``root`` in order; returns the resulting root.

    ``index`` may supply a prebuilt ``{xid: node}`` map for ``root`` (it is
    kept up to date through inserts/deletes); when omitted one is built.
    ``parents`` may supply ``root``'s :func:`parent_index`, kept up to
    date the same way: a caller that rolls one tree through many scripts
    keeps one, so placing a redo delete or move and deriving implied
    stamps never walk the tree (one is built when needed otherwise).
    The returned root differs from the input only for ``ReplaceRootOp``.

    A redo operation (:class:`~repro.diff.editscript.RedoDelete`,
    ``RedoMove``, ``RedoStamp``, ``RedoReplaceRoot``, ``RedoUpdateText``,
    ``RedoUpdateAttr``) is replaced in ``script.ops`` by the completed
    operation: the delete packs the victim it detaches and, like the
    move, records the parent and position the node leaves as they stand
    when it applies; the stamp records the timestamp it overwrites, the
    root replacement packs the root it replaces, an update the value it
    overwrites.  A trailing
    ``ImpliedStamps`` is replaced by the stamps it stands for (see
    :attr:`~repro.diff.editscript.EditScript.stamps_implied`), and the
    script then says so.  Applied to the version it was computed against,
    the redo form of a script comes out as the script itself.
    """
    if index is None:
        index = {node.xid: node for node in root.iter()}
    ops = script.ops
    for at, op in enumerate(ops):
        complete = _COMPLETE.get(type(op))
        if complete is not None:
            if parents is None:
                parents = parent_index(root)
            root, ops[at] = complete(root, op, index, parents)
        elif type(op) is ImpliedStamps:
            # read_redo admits the marker only last, under a to_ts.
            if parents is None:
                parents = parent_index(root)
            ops[at:] = _implied_stamps(ops[:at], script.to_ts, index, parents)
            script.stamps_implied = True
            break
        else:
            root = _apply_op(root, op, index, parents)
    return root


def parent_index(root, parents=None):
    """``{xid: parent element}`` for every node below ``root`` (the root
    itself has no entry), entered into ``parents`` when given."""
    parents = {} if parents is None else parents
    stack = [root] if isinstance(root, Element) else []
    while stack:
        node = stack.pop()
        for child in node.children:
            parents[child.xid] = node
            if isinstance(child, Element):
                stack.append(child)
    return parents


def apply_scoped(root, index, script, xid, invert=False):
    """Apply to one element's detached subtree the part of ``script`` that
    lands inside it; returns ``(root, applied)``.

    ``root`` is the subtree of element ``xid`` as it stands before the
    script — ``None`` while the element does not exist — and ``index`` its
    ``{xid: node}`` map (empty for ``None``).  Both are updated in place;
    ``root`` is replaced when the element appears (decoded afresh from the
    insert or root-replacement payload that introduces it) or goes
    away (``None`` again).  ``invert=True`` applies the script's inverse,
    taking the subtree one version back.  ``applied`` counts the
    operations that changed the subtree; every other operation names only
    nodes outside it and is never looked at.

    An operation lands inside when the node it edits — the target of a
    stamp/text/attribute update, the parent of an insert or delete, both
    parents of a move — is in ``index``.  A move between two outside
    parents is skipped even when it moves the element itself or an
    ancestor: the subtree's content travels with it.  A move with exactly
    one parent inside raises :class:`SubtreeBoundaryCrossed`.  Candidates
    come from the script's touch summary
    (:attr:`~repro.diff.editscript.EditScript.touched`): the operations
    naming a node of the subtree, plus — as inserts bring new nodes in —
    the later ones naming those.

    ``xid=None`` scopes the whole document (``root`` is the document
    root): nothing is outside, so the script is applied strictly, as by
    :func:`apply_script`.
    """
    if xid is None:
        whole = script.invert() if invert else script
        return apply_script(root, whole, index), len(whole)
    touched = script.touched
    # Heap keys run in application order: positions, negated when inverting.
    sign = -1 if invert else 1
    queued = {
        sign * position
        for name in (index if root is not None else (xid,))
        for position in touched.get(name, ())
    }
    heap = sorted(queued)
    applied = 0
    while heap:
        key = heappop(heap)
        op = script.ops[sign * key]
        if isinstance(op, StampOp):
            # By far the most frequent operation (every ancestor of a
            # change is re-stamped), and unvalidated: apply it in place
            # rather than through an inverted copy and _apply_op.
            node = index.get(op.xid)
            if node is not None:
                node.tstamp = op.old_ts if invert else op.new_ts
                applied += 1
            continue
        if invert:
            op = op.invert()
        arrived = ()  # the XIDs of the nodes this operation brought in
        if isinstance(op, (InsertOp, DeleteOp)):
            if op.parent_xid in index:
                _apply_op(root, op, index)
                if isinstance(op, InsertOp):
                    arrived = op.payload.xids()
            else:
                # Outside — unless the payload carries the element itself
                # in (insert while absent) or away (delete while present).
                if (root is None) != isinstance(op, InsertOp):
                    continue
                if xid not in op.payload.xids():
                    continue
                root = _rebind(index, op.payload if root is None else None, xid)
                arrived = list(index)
        elif isinstance(op, MoveOp):
            inside = op.from_parent in index
            if inside != (op.to_parent in index):
                raise SubtreeBoundaryCrossed(
                    f"XID {op.xid} moves across the boundary of subtree {xid}"
                )
            if not inside:
                continue
            _apply_op(root, op, index)
        elif isinstance(op, ReplaceRootOp):
            present = xid in op.new_payload.xids()
            if root is None and not present:
                continue
            root = _rebind(index, op.new_payload if present else None, xid)
            arrived = list(index)
        elif op.xid in index:
            _apply_op(root, op, index)
        else:
            continue
        applied += 1
        for node_xid in arrived:
            for position in touched.get(node_xid, ()):
                later = sign * position
                if later > key and later not in queued:
                    queued.add(later)
                    heappush(heap, later)
    return root, applied


def _rebind(index, payload, xid):
    """Point ``index`` at node ``xid`` of a fresh decode of ``payload`` and
    return that node; ``payload=None`` empties the index and returns
    ``None``."""
    index.clear()
    if payload is None:
        return None
    root = next(n for n in payload_nodes(payload) if n.xid == xid)
    index.update((node.xid, node) for node in payload_nodes(root))
    return root


def _lookup(index, xid, kind=None):
    node = index.get(xid)
    if node is None:
        raise DeltaApplicationError(f"edit script references unknown XID {xid}")
    if kind is not None and not isinstance(node, kind):
        raise DeltaApplicationError(
            f"XID {xid} is a {type(node).__name__}, expected {kind.__name__}"
        )
    return node


def _child_at(parent, pos):
    if not 0 <= pos < len(parent.children):
        raise DeltaApplicationError(
            f"position {pos} out of range under XID {parent.xid} "
            f"({len(parent.children)} children)"
        )
    return parent.children[pos]


def _holds(subtree, element):
    """Whether ``element`` is ``subtree`` or lies inside it.  Nodes hold no
    parent pointer, so this walks the subtree, and only its elements."""
    stack = [subtree]
    while stack:
        here = stack.pop()
        if here is element:
            return True
        for child in here.children:
            if isinstance(child, Element):
                stack.append(child)
    return False


def _apply_op(root, op, index, parents=None):
    if isinstance(op, InsertOp):
        parent = _lookup(index, op.parent_xid, Element)
        if not 0 <= op.pos <= len(parent.children):
            raise DeltaApplicationError(
                f"insert position {op.pos} out of range under XID {parent.xid}"
            )
        node = op.payload.tree()
        parent.insert(op.pos, node)
        for inner in payload_nodes(node):
            if inner.xid in index:
                raise DeltaApplicationError(
                    f"insert would duplicate XID {inner.xid}"
                )
            index[inner.xid] = inner
        if parents is not None:
            parents[node.xid] = parent
            parent_index(node, parents)
        return root

    if isinstance(op, DeleteOp):
        _detach(index, parents, op.parent_xid, op.pos, op.payload.xid)
        return root

    if isinstance(op, MoveOp):
        node = _lookup(index, op.xid)
        source = _lookup(index, op.from_parent, Element)
        if not (
            0 <= op.from_pos < len(source.children)
            and source.children[op.from_pos] is node
        ):
            raise DeltaApplicationError(
                f"move source mismatch for XID {op.xid}"
            )
        target = _lookup(index, op.to_parent, Element)
        # ``to_pos`` counts the target's children once the node has left.
        if not 0 <= op.to_pos <= len(target.children) - (target is source):
            raise DeltaApplicationError(
                f"move position {op.to_pos} out of range under XID {target.xid}"
            )
        # The source holds the node, so only a move to another parent can
        # put it under itself.
        if target is not source and isinstance(node, Element) and _holds(
            node, target
        ):
            raise DeltaApplicationError(
                f"move would put XID {op.xid} under itself"
            )
        source.pop(op.from_pos)
        target.insert(op.to_pos, node)
        if parents is not None:
            parents[op.xid] = target
        return root

    if isinstance(op, UpdateTextOp):
        node = _lookup(index, op.xid, Text)
        if node.value != op.old:
            raise DeltaApplicationError(
                f"text update base mismatch on XID {op.xid}: "
                f"expected {op.old!r}, found {node.value!r}"
            )
        node.value = op.new
        return root

    if isinstance(op, UpdateAttrOp):
        node = _lookup(index, op.xid, Element)
        current = node.attrib.get(op.name)
        if current != op.old:
            raise DeltaApplicationError(
                f"attribute update base mismatch on XID {op.xid} "
                f"({op.name}): expected {op.old!r}, found {current!r}"
            )
        if op.new is None:
            node.attrib.pop(op.name, None)
        else:
            node.attrib[op.name] = op.new
        return root

    if isinstance(op, StampOp):
        _restamp(index, op.xid, op.new_ts)
        return root

    if isinstance(op, ReplaceRootOp):
        return _replace_root(
            root, op.old_payload.xid, op.new_payload, index, parents
        )

    raise DeltaApplicationError(f"unknown operation {type(op).__name__}")


def _detach(index, parents, parent_xid, pos, xid):
    """Remove the child at ``pos`` under ``parent_xid``, which must be node
    ``xid``; returns it."""
    parent = _lookup(index, parent_xid, Element)
    victim = _child_at(parent, pos)
    if victim.xid != xid:
        raise DeltaApplicationError(
            f"delete expected XID {xid} at position {pos}, "
            f"found XID {victim.xid}"
        )
    parent.pop(pos)
    for inner in payload_nodes(victim):
        index.pop(inner.xid, None)
        if parents is not None:
            parents.pop(inner.xid, None)
    return victim


def _restamp(index, xid, new_ts):
    """Set node ``xid``'s timestamp; returns the one it had."""
    node = _lookup(index, xid)
    old_ts = node.tstamp
    node.tstamp = new_ts
    return old_ts


def _replace_root(root, old_xid, new_payload, index, parents):
    if root.xid != old_xid:
        raise DeltaApplicationError("root replacement base mismatch")
    new_root = new_payload.tree()
    index.clear()
    for inner in payload_nodes(new_root):
        index[inner.xid] = inner
    if parents is not None:
        parents.clear()
        parent_index(new_root, parents)
    return new_root


# -- completing the redo form ----------------------------------------------------


def _place(index, parents, xid):
    """``(parent, position)`` of node ``xid`` as the tree stands."""
    node = _lookup(index, xid)
    parent = parents.get(xid)
    if parent is None:
        raise DeltaApplicationError(
            f"XID {xid} is the root, which no delete or move can take "
            "from its place"
        )
    return parent, parent.children.index(node)


def _complete_delete(root, op, index, parents):
    if op.parent_xid is None:
        parent, pos = _place(index, parents, op.xid)
        parent_xid = parent.xid
    else:  # bytes that still name the victim's place
        parent_xid, pos = op.parent_xid, op.pos
    victim = _detach(index, parents, parent_xid, pos, op.xid)
    return root, DeleteOp(parent_xid, pos, victim)


def _complete_move(root, op, index, parents):
    source, pos = _place(index, parents, op.xid)
    move = MoveOp(op.xid, source.xid, pos, op.to_parent, op.to_pos)
    return _apply_op(root, move, index, parents), move


def _complete_stamp(root, op, index, parents):
    old_ts = _restamp(index, op.xid, op.new_ts)
    return root, StampOp(op.xid, old_ts, op.new_ts)


def _complete_replace_root(root, op, index, parents):
    new_root = _replace_root(root, op.old_xid, op.new_payload, index, parents)
    return new_root, ReplaceRootOp(root, op.new_payload)


def _complete_update_text(root, op, index, parents):
    node = _lookup(index, op.xid, Text)
    old, node.value = node.value, op.new
    return root, UpdateTextOp(op.xid, old, op.new)


def _complete_update_attr(root, op, index, parents):
    node = _lookup(index, op.xid, Element)
    old = node.attrib.get(op.name)
    if op.new is None:
        node.attrib.pop(op.name, None)
    else:
        node.attrib[op.name] = op.new
    return root, UpdateAttrOp(op.xid, op.name, old, op.new)


#: Redo operation type -> ``(root, op, index, parents) -> (root, completed
#: op)``.
_COMPLETE = {
    RedoDelete: _complete_delete,
    RedoMove: _complete_move,
    RedoStamp: _complete_stamp,
    RedoReplaceRoot: _complete_replace_root,
    RedoUpdateText: _complete_update_text,
    RedoUpdateAttr: _complete_update_attr,
}


def _implied_stamps(ops, ts, index, parents):
    """The ``StampOp``s the Section 4 rule gives the applied operations
    ``ops`` of a commit at ``ts``, made on the tree as they are derived:
    every node on the path from the root to a node an operation edits
    whose timestamp is not ``ts`` yet, in XID order.  A move's source
    parent that a later delete took away marks no path."""
    edited = set()
    for op in ops:
        kind = type(op)
        if kind is InsertOp or kind is DeleteOp:
            edited.add(op.parent_xid)
        elif kind is MoveOp:
            edited.add(op.from_parent)
            edited.add(op.to_parent)
        elif kind is UpdateTextOp or kind is UpdateAttrOp:
            edited.add(op.xid)
    on_path = set()
    for xid in edited:
        while xid not in on_path and xid in index:
            on_path.add(xid)
            parent = parents.get(xid)
            if parent is None:
                break
            xid = parent.xid
    stamps = []
    for xid in sorted(on_path):
        node = index[xid]
        if node.tstamp != ts:
            stamps.append(StampOp(xid, node.tstamp, ts))
            node.tstamp = ts
    return stamps
