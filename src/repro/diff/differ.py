"""Edit-script generation from a matching (the ``Diff`` algorithm).

``diff(old_root, new_root, ...)`` produces an :class:`EditScript` that,
applied to ``old_root``, yields a tree equal to ``new_root``.  As a side
effect the *new* tree is fully stamped: matched nodes inherit their old XIDs
(identity persistence, Section 3.2), fresh nodes receive new XIDs from the
allocator, and element timestamps are updated per the Section 4 rule (a
change stamps the changed node and all its ancestors with the commit time).

Script generation works by **reconciliation against a working copy** of the
old tree: the new tree is walked top-down and, for every matched parent, the
working copy's child list is rearranged (moves), extended (inserts), and
afterwards trimmed (deletes) until it matches.  Because every operation is
performed on the working copy as it is emitted, the recorded positions are
exactly the positions valid at application time — which also makes the
reversed script exact (completed deltas).
"""

from __future__ import annotations

from ..errors import DiffError
from ..model.identifiers import XIDAllocator
from ..model.versioned import touch_upwards
from ..xmlcore.node import Element, Text
from .editscript import (
    DeleteOp,
    EditScript,
    InsertOp,
    MoveOp,
    ReplaceRootOp,
    StampOp,
    UpdateAttrOp,
    UpdateTextOp,
)
from .matching import match_trees


def diff(old_root, new_root, allocator=None, commit_ts=None):
    """Compute the completed delta transforming ``old_root`` into ``new_root``.

    ``allocator``
        XID source for freshly inserted nodes.  When omitted a throwaway
        allocator seeded past the old tree's largest XID is used (standalone
        ``Diff``-operator use); the store always passes the document's own.

    ``commit_ts``
        Transaction time of the new version.  When given, the new tree's
        element timestamps are maintained and ``StampOp``s are emitted; when
        ``None`` (standalone diff) timestamps are left untouched.

    The old tree is never mutated.  The new tree is stamped in place.
    """
    if not isinstance(old_root, Element) or not isinstance(new_root, Element):
        raise DiffError("diff operates on element roots")
    if allocator is None:
        allocator = _throwaway_allocator(old_root)

    if old_root.tag != new_root.tag:
        return _replace_root_script(old_root, new_root, allocator, commit_ts)

    matching = match_trees(old_root, new_root)
    _carry_identity(matching)
    _stamp_fresh(new_root, matching, allocator, commit_ts)

    builder = _Builder(old_root, matching, commit_ts)
    builder.reconcile(new_root)
    builder.trim_deletes(new_root)
    builder.value_updates(matching, new_root)
    builder.stamp_ops(matching)
    return EditScript(builder.ops)


def _throwaway_allocator(old_root):
    highest = 0
    for node in old_root.iter():
        if node.xid is not None and node.xid > highest:
            highest = node.xid
    return XIDAllocator(highest + 1)


def _replace_root_script(old_root, new_root, allocator, commit_ts):
    for node in new_root.iter():
        node.xid = allocator.allocate()
        if commit_ts is not None:
            node.tstamp = commit_ts
    return EditScript([ReplaceRootOp(old_root.copy(), new_root.copy())])


def _carry_identity(matching):
    for old, new in matching.pairs():
        new.xid = old.xid
        new.tstamp = old.tstamp


def _stamp_fresh(new_root, matching, allocator, commit_ts):
    for node in new_root.iter():
        if not matching.has_new(node):
            node.xid = allocator.allocate()
            node.tstamp = commit_ts
        elif node.xid is not None:
            allocator.note_used(node.xid)


class _Builder:
    """Accumulates operations while mutating the working copy in lockstep."""

    def __init__(self, old_root, matching, commit_ts):
        self.matching = matching
        self.commit_ts = commit_ts
        self.ops = []
        self.work_root = old_root.copy()
        self.work_by_xid = {}
        for node in self.work_root.iter():
            if node.xid is None:
                raise DiffError("old tree is not fully stamped")
            self.work_by_xid[node.xid] = node

    # -- phase A: moves and inserts (top-down) --------------------------------

    def reconcile(self, new_root):
        stack = [new_root]
        while stack:
            new_parent = stack.pop()
            if not isinstance(new_parent, Element):
                continue
            if not self.matching.has_new(new_parent):
                continue  # inside an inserted payload; already complete
            work_parent = self.work_by_xid[new_parent.xid]
            for index, desired in enumerate(new_parent.children):
                if self.matching.has_new(desired):
                    self._place_existing(work_parent, index, desired)
                else:
                    self._insert_fresh(work_parent, index, desired)
            stack.extend(reversed(new_parent.children))

    def _place_existing(self, work_parent, index, desired):
        node = self.work_by_xid[desired.xid]
        current_parent = node.parent
        current_pos = node.index_in_parent()
        if current_parent is work_parent and current_pos == index:
            return
        self.ops.append(
            MoveOp(
                node.xid,
                current_parent.xid,
                current_pos,
                work_parent.xid,
                index,
            )
        )
        node.detach()
        work_parent.insert(index, node)
        if self.commit_ts is not None:
            self._touch_new(desired.parent)
            # The source parent's content changed too.
            source_new = self._new_for_xid(current_parent.xid)
            if source_new is not None:
                self._touch_new(source_new)

    def _insert_fresh(self, work_parent, index, desired):
        payload = desired.copy()
        self.ops.append(InsertOp(work_parent.xid, index, payload))
        inserted = payload.copy()
        work_parent.insert(index, inserted)
        for node in _iter_subtree(inserted):
            self.work_by_xid[node.xid] = node
        if self.commit_ts is not None:
            self._touch_new(desired.parent)

    # -- phase B: deletes (after all placements) -------------------------------

    def trim_deletes(self, new_root):
        for new_parent in new_root.iter():
            if not isinstance(new_parent, Element):
                continue
            if not self.matching.has_new(new_parent):
                continue
            work_parent = self.work_by_xid[new_parent.xid]
            keep = len(new_parent.children)
            while len(work_parent.children) > keep:
                victim = work_parent.children[keep]
                self.ops.append(
                    DeleteOp(work_parent.xid, keep, victim.copy())
                )
                work_parent.remove(victim)
                for node in _iter_subtree(victim):
                    self.work_by_xid.pop(node.xid, None)
                if self.commit_ts is not None:
                    self._touch_new(new_parent)

    # -- phase C: value updates -------------------------------------------------

    def value_updates(self, matching, new_root):
        # Iterate the new tree in document order so scripts are deterministic.
        for new in _iter_subtree(new_root):
            old = matching.old_for(new)
            if old is None:
                continue
            if isinstance(new, Text):
                if old.value != new.value:
                    self.ops.append(UpdateTextOp(new.xid, old.value, new.value))
                    if self.commit_ts is not None:
                        self._touch_new(new)
                continue
            for name, before, after in _attribute_changes(old.attrib,
                                                          new.attrib):
                self.ops.append(UpdateAttrOp(new.xid, name, before, after))
                if self.commit_ts is not None:
                    self._touch_new(new)

    # -- phase D: surviving-node timestamp changes -------------------------------

    def stamp_ops(self, matching):
        if self.commit_ts is None:
            return
        for old, new in sorted(matching.pairs(), key=lambda p: p[1].xid):
            if old.tstamp != new.tstamp:
                self.ops.append(StampOp(new.xid, old.tstamp, new.tstamp))

    # -- helpers ------------------------------------------------------------------

    def _touch_new(self, new_node):
        touch_upwards(new_node, self.commit_ts)

    def _new_for_xid(self, xid):
        node = self.work_by_xid.get(xid)
        if node is None:
            return None
        # Find the new-tree partner via the matching (work copy mirrors old
        # xids, and matched new nodes carry the same xid after identity carry).
        return self._new_index().get(xid)

    def _new_index(self):
        if not hasattr(self, "_new_by_xid"):
            self._new_by_xid = {
                new.xid: new for _, new in self.matching.pairs()
            }
        return self._new_by_xid


def _attribute_changes(old, new):
    """``(name, before, after)`` updates turning attribute dict ``old``
    into ``new`` — values *and order*.

    Applying an update can only set a present attribute in place, drop
    one, or append one, so the updates keep the longest common prefix of
    the two name sequences (changing values in place), drop the rest of
    the old names last-first and append the rest of the new names in
    order.  The mechanically inverted script (reversed, each update
    flipped) then rebuilds ``old`` the same way, order included.
    """
    old_names = list(old)
    new_names = list(new)
    keep = 0
    while (
        keep < min(len(old_names), len(new_names))
        and old_names[keep] == new_names[keep]
    ):
        keep += 1
    for name in old_names[:keep]:
        if old[name] != new[name]:
            yield name, old[name], new[name]
    for name in reversed(old_names[keep:]):
        yield name, old[name], None
    for name in new_names[keep:]:
        yield name, None, new[name]


def _iter_subtree(node):
    if isinstance(node, Element):
        return node.iter()
    return iter([node])
