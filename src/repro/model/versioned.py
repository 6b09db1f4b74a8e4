"""Stamping utilities: XID assignment and element timestamps.

Section 4 of the paper assumes:

* every element has a timestamp,
* the timestamp of an element is the time of update of the element *or one
  of its children*, applied recursively up to the root.

These helpers maintain that invariant on the in-memory trees.  They are used
by the store when committing versions and by the differ when stamping
freshly inserted subtrees; the checks of it live with the tests
(``tests/references.py``).
"""

from __future__ import annotations

from ..xmlcore.node import Element


def stamp_new_nodes(root, allocator, timestamp):
    """Assign XIDs and timestamps to every node lacking one.

    Nodes that already carry an XID (e.g. matched by the differ) keep it;
    the allocator is kept ahead of any pre-assigned XID so uniqueness is
    preserved.  Returns the number of freshly stamped nodes.
    """
    fresh = 0
    for node in _iter_nodes(root):
        if node.xid is None:
            node.xid = allocator.allocate()
            node.tstamp = timestamp
            fresh += 1
        else:
            allocator.note_used(node.xid)
            if node.tstamp is None:
                node.tstamp = timestamp
    if fresh and isinstance(root, Element):
        # XIDs changed under any cached xid->node map; the structural
        # mutation hooks cannot see slot assignments, so drop explicitly.
        root.drop_xid_indexes()
    return fresh


def touch_upwards(node, timestamp, parents):
    """Set ``tstamp`` on ``node`` and every ancestor (the recursive rule);
    ``parents`` is the tree's :func:`~repro.xmlcore.node.parent_map`."""
    while node is not None:
        node.tstamp = timestamp
        node = parents.get(id(node))


def _iter_nodes(root):
    if isinstance(root, Element):
        return root.iter()
    return iter([root])
