"""The one walker over a stored chain: cursors over documents and elements.

The paper's read side is one algorithm — pick a stored version, apply
completed deltas towards the target (Section 7.3.3), and for histories keep
applying (7.3.4) — and its remark on ``ElementHistory`` (7.3.5) is that
"even if it was possible to optimize this so that only the desired subtrees
are reconstructed, the whole deltas would have to be read anyway".  This
module is that algorithm with that optimization: the deltas are read whole
— once per reader, one ``delta_reads`` each — but only the operations that
land under the bound element are applied, to a copy of that element's
subtree alone.  Every read of a stored version goes through it:
``Repository.reconstruct`` / ``reconstruct_range``, the Section 7.3.3–7.3.5
operators, ``Diff`` and TXQL's bindings.

:class:`ChainReader` is one reader's view of one document's stored chain:
it reads every delta and every stored anchor at most once and hands out one
:class:`SubtreeCursor` per element.  A cursor starts at the stored anchor
the repository's cost model picks for its first target
(:meth:`~repro.storage.repository.Repository.stored_anchor`), finds the
element's subtree in it — or starts absent and lets the insert payload
that introduces the element bring it in — and then steps version to
version: a delta whose touch summary
(:attr:`~repro.diff.editscript.EditScript.touched`) misses the subtree
leaves it as it is, so consecutive versions share one frozen object; any
other delta goes through :func:`~repro.diff.apply.apply_scoped`.  A move
across the subtree's boundary cannot be answered from the subtree, so that
one step falls back to a whole-document
:meth:`~repro.storage.repository.Repository.reconstruct`.

``xid=None`` scopes a cursor to the whole document: same stepping, nothing
ever outside.
"""

from __future__ import annotations

from ..diff.apply import SubtreeBoundaryCrossed, apply_scoped
from ..diff.editscript import payload_nodes


class ChainReader:
    """What one reader has read of one document; the source of its cursors.

    The reads are a :class:`_Reads` the cursors step through, and nothing
    there points back at the reader or a cursor: a reader and its cursors
    form no reference cycle, so the subtrees a cursor holds are freed by
    reference count along with it."""

    def __init__(self, repository, record):
        self._reads = _Reads(repository, record)
        self._cursors = {}  # xid (None: whole document) -> SubtreeCursor

    def cursor(self, xid):
        """This reader's cursor over element ``xid`` (``None``: the whole
        document)."""
        cursor = self._cursors.get(xid)
        if cursor is None:
            cursor = self._cursors[xid] = SubtreeCursor(self._reads, xid)
        return cursor


class _Reads:
    """The deltas and stored anchors one reader has read, each once."""

    def __init__(self, repository, record):
        self.repository = repository
        self.record = record
        self._deltas = {}   # version number -> EditScript, read once
        self._anchors = {}  # target version -> (Anchor, estimated cost)
        self._stored = {}   # anchor version -> stored tree, read once

    def delta(self, number):
        """The completed delta stored at ``number``; accounted on the
        first call only."""
        script = self._deltas.get(number)
        if script is None:
            script = self._deltas[number] = self.repository.read_delta(
                self.record, number
            )
        return script

    def chain(self, start, end):
        """The deltas that take version ``start`` to version ``end``, in
        the order a walk applies them (newest first when ``end`` is below
        ``start``, to be inverted).  They are *read* oldest first — the
        order they were appended, one sequential pass over an append-only
        delta file."""
        if start <= end:
            return [self.delta(number) for number in range(start, end)]
        return [self.delta(number) for number in range(end, start)][::-1]

    def holds_chain(self, start, end):
        """Has this reader already read every delta between two versions?"""
        return all(
            number in self._deltas
            for number in range(min(start, end), max(start, end))
        )

    def anchor_for(self, number):
        """``(anchor, estimated cost)`` of starting over for version
        ``number`` from the cheapest stored version; nothing is read."""
        choice = self._anchors.get(number)
        if choice is None:
            choice = self._anchors[number] = self.repository.stored_anchor(
                self.record, number
            )
        return choice

    def stored(self, anchor):
        """The repository's own tree for a stored anchor; accounted on the
        first call only.  Read-only."""
        tree = self._stored.get(anchor.number)
        if tree is None:
            tree = self._stored[anchor.number] = self.repository.read_stored(
                self.record, anchor
            )
        return tree


class SubtreeCursor:
    """One element of one document, positioned at one version at a time.

    :meth:`seek` returns the element's subtree at a version number, or
    ``None`` where the element does not exist.  What it returns is
    *frozen* — never to be mutated by the caller, shared by every version
    whose content is the same, and at a stored version the repository's
    own nodes.  The cursor copies the subtree only when a delta is about
    to change one it has handed out (or the repository's).  :meth:`take`
    gives the subtree away instead, and :meth:`sweep` rolls one working
    subtree through a run of versions.
    """

    def __init__(self, reader, xid):
        self.reader = reader
        self.xid = xid
        self.at = None     # version number the cursor stands at
        self.node = None   # the element's subtree there (None: absent)
        self._index = None    # xid -> node over ``node``, built to step
        self._frozen = False  # ``node`` is shared: copy before writing
        self._seen = {}    # version number -> subtree handed out for it

    def seek(self, number):
        """The element's subtree at version ``number`` (``None``: absent)."""
        if number in self._seen:
            return self._seen[number]
        self._move(number)
        self._frozen = True
        self._seen[number] = self.node
        return self.node

    def take(self, number):
        """Like :meth:`seek`, but the subtree is the caller's to keep and
        change: copied only while the cursor still stands on shared nodes,
        and forgotten by the cursor either way."""
        self._move(number)
        node = self._own()
        self.at = self.node = self._index = None
        return node

    def sweep(self, first, last):
        """Roll through versions ``first..last`` (downwards when ``last``
        is below ``first``), yielding ``(number, subtree, xids)``.

        One stored anchor for ``first``, then one delta per further
        version, and never a second anchor; one version is held at a time.
        ``subtree`` is the cursor's own *live* working copy, changed in
        place between yields, and ``xids`` its maintained ``xid -> node``
        map — callers copy what they keep."""
        step = 1 if last >= first else -1
        for number in range(first, last + step, step):
            opening = number == first
            self._move(number, restart=opening, scans=int(opening))
            self._own()
            if self._index is None:
                self._index = _xid_map(self.node)
            yield number, self.node, self._index

    def _move(self, number, restart=True, scans=0):
        """Stand at version ``number``, stepping one delta per version:
        the only loop that applies stored deltas.

        The cursor walks on from where it stands or starts over from a
        stored version — the repository's cost model decides (deltas this
        reader already holds are free, so they never reach it).  Past its
        first version a sweep always walks on (``restart=False``)."""
        reader = self.reader
        repository = reader.repository
        anchor = None
        if restart and (
            self.at is None or not reader.holds_chain(self.at, number)
        ):
            cheapest, cost = reader.anchor_for(number)
            if self.at is None or cost < repository.chain_cost_estimate(
                reader.record, self.at, number
            ):
                anchor = cheapest
                self.at = anchor.number
                self.node = self._find(reader.stored(anchor))
                self._index, self._frozen = None, True
        steps = number - self.at
        direction = 1 if steps > 0 else -1
        applied = skipped = fallbacks = 0
        for script in reader.chain(self.at, number):
            if self.xid is None:
                touched = bool(script.ops)  # no summary built for documents
            elif self.node is None:
                touched = self.xid in script.touched
            else:
                if self._index is None:
                    self._index = _xid_map(self.node)
                touched = not script.touched.keys().isdisjoint(self._index)
            done = 0
            if touched:
                done, fell_back = self._apply(script, direction)
                fallbacks += fell_back
            self.at += direction
            applied += done
            skipped += len(script.ops) - done
        repository.count_subtree_work(
            anchor, steps, applied, skipped, fallbacks, scans
        )

    def _own(self):
        """Make the subtree the cursor stands on its own, not the
        repository's and not one it has handed out; returns it."""
        if self._frozen and self.node is not None:
            self.node, self._index = self.node.copy(), None
        self._frozen = False
        return self.node

    def _apply(self, script, direction):
        """Take the subtree through ``script`` to the next version up
        (``direction`` 1) or down (-1); returns ``(operations applied,
        whether it fell back)``."""
        if self._frozen:
            self._own()
        if self._index is None:
            self._index = _xid_map(self.node)
        try:
            self.node, applied = apply_scoped(
                self.node, self._index, script, self.xid,
                invert=direction < 0,
            )
        except SubtreeBoundaryCrossed:
            # The reconstructed tree is private, and nothing in the subtree
            # points up into it: keep the subtree, the rest is freed.
            reader = self.reader
            self.node = self._find(
                reader.repository.reconstruct(
                    reader.record, self.at + direction
                )
            )
            self._index = None
            return len(script.ops), True
        return applied, False

    def _find(self, tree):
        return tree if self.xid is None else tree.find_by_xid(self.xid)


def _xid_map(node):
    if node is None:
        return {}
    return {inner.xid: inner for inner in payload_nodes(node)}
