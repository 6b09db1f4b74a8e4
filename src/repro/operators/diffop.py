"""The Diff operator (Section 7.3.9).

"In order to generate the difference between elements, an XML difference
algorithm with the subtrees rooted at the elements as input can be used."

Accepts TEIDs (reconstructed through the store) or raw element trees; the
two inputs "can be versions of the same element, but can also represent
different documents or subtrees".  The result is the edit script *as an XML
tree*, so queries returning diffs stay closed over XML.
"""

from __future__ import annotations

from ..diff.differ import diff
from ..model.identifiers import TEID, XIDAllocator
from ..model.versioned import stamp_new_nodes
from ..storage.cursor import ChainReader
from ..xmlcore.node import Element
from .reconstruct import Reconstruct


class Diff:
    """Difference between two element versions, as an edit-script tree."""

    def __init__(self, store=None):
        self.store = store

    def run(self, first, second):
        """Edit script turning ``first`` into ``second`` (XML ``<delta>``)."""
        return self.script(first, second).to_xml()

    def script(self, first, second):
        """Same, but as the structured :class:`EditScript`."""
        # doc_id -> ChainReader: two TEIDs of one document read its chain
        # once, and two versions of one element are two seeks of one
        # cursor — it walks on from the first when the connecting chain is
        # cheaper than a second stored anchor.
        readers = {}
        old = self._resolve(first, readers)
        new = self._resolve(second, readers).copy()
        if any(node.xid is None for node in old.iter()):
            # Standalone use on raw trees: stamp a private copy so the
            # differ has identities to work with.
            old = old.copy()
            stamp_new_nodes(old, XIDAllocator(), 0)
        allocator = XIDAllocator(_max_xid(old, new) + 1)
        return diff(old, new, allocator)

    def _resolve(self, source, readers):
        """The tree to diff: an element as it is, a TEID as a *shared,
        read-only* subtree (the differ never mutates its old side and
        :meth:`script` copies the new one)."""
        if isinstance(source, Element):
            return source
        if not isinstance(source, TEID):
            raise TypeError(
                f"Diff operates on elements or TEIDs, got "
                f"{type(source).__name__}"
            )
        if self.store is None:
            raise ValueError("resolving TEIDs requires a store")
        record = self.store.record(source.doc_id)
        entry = record.dindex.version_at(source.timestamp)
        node = None
        if entry is not None:
            reader = readers.get(source.doc_id)
            if reader is None:
                reader = readers[source.doc_id] = ChainReader(
                    self.store.repository, record
                )
            node = reader.cursor(source.xid).seek(entry.number)
        if node is None:
            # No such version or element: Reconstruct raises the one error.
            return Reconstruct(self.store, source).run()
        return node


def _max_xid(*trees):
    highest = 0
    for tree in trees:
        for node in tree.iter():
            if node.xid is not None and node.xid > highest:
                highest = node.xid
    return highest
