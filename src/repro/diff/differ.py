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
reversed script exact (completed deltas).  The script says what changed,
not what shifted: the children of a parent that are already in relative
order (a longest increasing subsequence) stay put, so a sibling whose index
moved only because a neighbour came or went costs no operation.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property

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
    return EditScript([ReplaceRootOp(old_root, new_root)])


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
        self.work_parent = {}  # xid -> its parent in the working copy
        for node in self.work_root.iter():
            if node.xid is None:
                raise DiffError("old tree is not fully stamped")
            self.work_by_xid[node.xid] = node
            if isinstance(node, Element):
                for child in node.children:
                    self.work_parent[child.xid] = node

    # -- phase A: moves and inserts (top-down) --------------------------------

    def reconcile(self, new_root):
        """Give every matched parent its new children, in order.

        Top-down, so a parent is in place before anything moves under it.
        Children on their way out — unmatched, or wanted under a parent not
        reached yet — are left standing where they are: the first go in
        :meth:`trim_deletes`, the second when their new parent's turn comes.
        """
        has_new = self.matching.has_new
        stack = [new_root]
        while stack:
            new_parent = stack.pop()
            if not isinstance(new_parent, Element) or not has_new(new_parent):
                continue  # text, or inside an inserted payload: complete
            self._arrange(self.work_by_xid[new_parent.xid], new_parent)
            stack.extend(reversed(new_parent.children))

    def _arrange(self, work_parent, new_parent):
        """Order ``work_parent``'s child list like ``new_parent``'s.

        The wanted children already here keep their places along a longest
        run that is in the wanted order; every other wanted child — out of
        order, under another parent, or fresh — goes right after the last
        one placed.  A child whose index merely shifts costs no operation.
        """
        has_new = self.matching.has_new
        siblings = work_parent.children
        if [n.xid for n in siblings] == [n.xid for n in new_parent.children]:
            return  # most lists, in most commits
        stays = _in_order(siblings, new_parent.children, has_new)
        cursor = 0  # one past the last wanted child placed
        for wanted in new_parent.children:
            if not has_new(wanted):
                self._insert_fresh(work_parent, cursor, wanted, new_parent)
            elif wanted.xid in stays:
                while siblings[cursor].xid != wanted.xid:
                    cursor += 1
            else:
                cursor = self._move(work_parent, cursor, wanted, new_parent)
            cursor += 1

    def _move(self, work_parent, cursor, wanted, new_parent):
        """Move ``wanted``'s node to ``cursor`` under ``work_parent`` (the
        partner of ``new_parent``); returns where it landed (one less when
        it came from the left)."""
        node = self.work_by_xid[wanted.xid]
        source = self.work_parent[node.xid]
        from_pos = source.children.index(node)
        if source is work_parent and from_pos < cursor:
            cursor -= 1
        self.ops.append(
            MoveOp(node.xid, source.xid, from_pos, work_parent.xid, cursor)
        )
        source.pop(from_pos)
        work_parent.insert(cursor, node)
        self.work_parent[node.xid] = work_parent
        if self.commit_ts is not None:
            self._touch_new(new_parent)
            if source is not work_parent:
                # The source parent's content changed too.
                source_new = self._new_by_xid.get(source.xid)
                if source_new is not None:
                    self._touch_new(source_new)
        return cursor

    def _insert_fresh(self, work_parent, index, wanted, new_parent):
        # The operation packs ``wanted`` as it stands now, and nothing under
        # a fresh node is moved or deleted later: the working copy can hold
        # ``wanted`` itself.
        self.ops.append(InsertOp(work_parent.xid, index, wanted))
        work_parent.insert(index, wanted)
        if self.commit_ts is not None:
            self._touch_new(new_parent)

    # -- phase B: deletes (after all placements) -------------------------------

    def trim_deletes(self, new_root):
        """Delete what :meth:`reconcile` left standing: under every matched
        parent, the children the new tree does not have, right to left so
        each position is the victim's own."""
        has_new = self.matching.has_new
        for new_parent in new_root.iter():
            if not isinstance(new_parent, Element) or not has_new(new_parent):
                continue
            work_parent = self.work_by_xid[new_parent.xid]
            siblings = work_parent.children
            wanted = new_parent.children
            keep = len(wanted) - 1
            for pos in range(len(siblings) - 1, -1, -1):
                if pos == keep:
                    break  # the rest pairs off one to one
                victim = siblings[pos]
                if keep >= 0 and victim.xid == wanted[keep].xid:
                    keep -= 1
                    continue
                # The payload is the victim as it stands.
                work_parent.pop(pos)
                self.ops.append(DeleteOp(work_parent.xid, pos, victim))
                if self.commit_ts is not None:
                    self._touch_new(new_parent)

    # -- phase C: value updates -------------------------------------------------

    def value_updates(self, matching, new_root):
        # Iterate the new tree in document order so scripts are deterministic.
        for new in new_root.iter():
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
        touch_upwards(new_node, self.commit_ts, self.matching.new_parents)

    @cached_property
    def _new_by_xid(self):
        """New-tree partner of every matched node, by the XID they share
        (the working copy mirrors the old tree's XIDs)."""
        return {new.xid: new for _, new in self.matching.pairs()}


def _in_order(siblings, wanted, has_new):
    """XIDs of the matched nodes of ``wanted`` that can stay where they
    stand in ``siblings``: one longest subsequence of those present whose
    current positions increase (patience sorting, O(n log n))."""
    position = {node.xid: pos for pos, node in enumerate(siblings)}
    present = [
        node.xid for node in wanted
        if has_new(node) and node.xid in position
    ]
    tails = []  # tails[k]: smallest last position of a run of length k + 1
    tail_xid = []  # ... and the XID standing there
    before = {}  # xid -> the XID preceding it in the run it extends
    for xid in present:
        pos = position[xid]
        k = bisect_left(tails, pos)
        if k == len(tails):
            tails.append(pos)
            tail_xid.append(xid)
        else:
            tails[k] = pos
            tail_xid[k] = xid
        before[xid] = tail_xid[k - 1] if k else None
    stays = set()
    xid = tail_xid[-1] if tail_xid else None
    while xid is not None:
        stays.add(xid)
        xid = before[xid]
    return stays


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
