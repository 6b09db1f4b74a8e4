"""The Diff operator (Section 7.3.9).

"In order to generate the difference between elements, an XML difference
algorithm with the subtrees rooted at the elements as input can be used."

Accepts TEIDs (reconstructed through the store), TEIDs paired with the
subtree a caller already read for them, or raw element trees; the two
inputs "can be versions of the same element, but can also represent
different documents or subtrees".  Identity decides the algorithm: two
TEIDs of one EID share their stored XIDs, so the script is built from
those (:func:`~repro.diff.differ.diff_by_xid`) — an element deleted and
put back is a new element, never re-matched by content.  Raw trees and
different elements have no identity in common, and the content matcher
pairs them (:func:`~repro.diff.differ.diff`).  The result is the edit
script *as an XML tree*, so queries returning diffs stay closed over XML.
"""

from __future__ import annotations

from ..diff.differ import diff, diff_by_xid
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
        """Same, but as the structured :class:`EditScript`.  An operand
        given as a ``(TEID, subtree)`` pair is not read again: the subtree
        is that element version, shared and read-only."""
        # doc_id -> ChainReader: two TEIDs of one document read its chain
        # once, and two versions of one element are two seeks of one
        # cursor — it walks on from the first when the connecting chain is
        # cheaper than a second stored anchor.
        readers = {}
        first, old = self._resolve(first, readers)
        second, new = self._resolve(second, readers)
        if (first is not None and second is not None
                and first.eid == second.eid):
            # Two versions of one element: the stored XIDs are the identity.
            return diff_by_xid(old, new)
        if any(node.xid is None for node in old.iter()):
            # Standalone use on raw trees: stamp a private copy so the
            # differ has identities to work with.
            old = old.copy()
            stamp_new_nodes(old, XIDAllocator(), 0)
        return diff(old, new.copy())

    def _resolve(self, source, readers):
        """``(TEID or None, tree to diff)``: an element as it is, a TEID as
        a *shared, read-only* subtree (neither differ mutates its old side,
        :func:`diff_by_xid` neither its new one, and :meth:`script` copies
        the new one it gives :func:`diff`), a ``(TEID, subtree)`` pair as
        it is."""
        if isinstance(source, Element):
            return None, source
        if isinstance(source, tuple):
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
            return source, Reconstruct(self.store, source).run()
        return source, node

