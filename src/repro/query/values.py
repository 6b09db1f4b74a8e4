"""Runtime values flowing through query evaluation.

A FROM clause binds each variable to a sequence of :class:`BoundElement`
instances — element versions identified by TEID, carrying their validity
interval, and materializing their subtree lazily (pattern-scan plans only
reconstruct documents for rows that actually reach the SELECT/WHERE
expressions that need content).

Path navigation inside expressions produces :class:`NodeValue` wrappers so
identity (``==``) keeps working on sub-elements: a node value knows its
document and its XID.

Timestamps surface as :class:`TimestampValue` — an ``int`` subtype that
formats itself as a calendar date, so result sets print readably while
comparisons and arithmetic stay plain integer operations.
"""

from __future__ import annotations

from ..clock import format_timestamp
from ..equality.value import coerce_scalar
from ..errors import NoSuchVersionError
from ..model.identifiers import EID
from ..storage.cursor import ChainReader
from ..xmlcore.node import Element
from ..xmlcore.path import Path


class SnapshotCache:
    """Per-query materialization: one
    :class:`~repro.storage.cursor.ChainReader` per document the query
    touches.

    Many bindings of one query live in the same document, and
    EVERY-queries touch *adjacent* versions of the same elements.  Each
    bound element gets a subtree cursor that steps from version to version
    and applies only the edit operations that land under it; the whole
    document is a cursor of its own for navigational scans and pinned
    ``CURRENT``, which bind nodes of the tree they walk.  Cursors of one
    document share its reader, so every delta and stored anchor is read
    once per query.  Historical versions are immutable, so nothing here is
    ever invalidated, and everything handed out is a shared read-only view.
    """

    def __init__(self, store):
        self.store = store
        self._readers = {}  # doc_id -> ChainReader

    def document_at(self, doc_id, ts):
        """The document tree valid at ``ts`` (``None`` when absent)."""
        return self._seek(doc_id, None, ts)

    def subtree(self, teid):
        """Subtree of the TEID's element, or ``None`` when absent."""
        return self._seek(teid.doc_id, teid.xid, teid.timestamp)

    def _seek(self, doc_id, xid, ts):
        entry = self.store.delta_index(doc_id).version_at(ts)
        if entry is None:
            return None
        reader = self._readers.get(doc_id)
        if reader is None:
            reader = self._readers[doc_id] = ChainReader(
                self.store.repository, self.store.record(doc_id)
            )
        return reader.cursor(xid).seek(entry.number)


class TimestampValue(int):
    """An instant in transaction time; ``int`` with calendar rendering."""

    def __str__(self):
        return format_timestamp(int(self))

    def __repr__(self):
        return f"TimestampValue({format_timestamp(int(self))})"


class NodeValue:
    """A sub-element (or text node) of a bound tree, with its document."""

    __slots__ = ("doc_id", "node")

    def __init__(self, doc_id, node):
        self.doc_id = doc_id
        self.node = node

    @property
    def eid(self):
        if self.node.xid is None:
            return None
        return EID(self.doc_id, self.node.xid)

    def scalar(self):
        return coerce_scalar(self.node)

    def __repr__(self):
        return f"NodeValue({self.doc_id}, {self.node!r})"


class BoundElement:
    """One element version bound to a query variable.

    ``cache`` (a :class:`SnapshotCache`) is shared across the bindings of
    one query so sibling rows reuse materialized versions; a binding made
    without one reads through its own.  The returned trees are shared,
    read-only views; result rendering copies them.
    """

    __slots__ = ("store", "teid", "interval", "_tree", "cache")

    def __init__(self, store, teid, interval=None, tree=None, cache=None):
        self.store = store
        self.teid = teid
        self.interval = interval
        self._tree = tree
        self.cache = cache or SnapshotCache(store)

    @property
    def doc_id(self):
        return self.teid.doc_id

    @property
    def eid(self):
        return self.teid.eid

    @property
    def tree(self):
        """The element's subtree; reconstructed on first access."""
        if self._tree is None:
            tree = self.try_tree()
            if tree is None:
                raise NoSuchVersionError(
                    f"{self.teid} does not resolve to a stored element"
                )
        return self._tree

    def try_tree(self):
        """Like :attr:`tree` but ``None`` on stale TEIDs."""
        if self._tree is None:
            self._tree = self.cache.subtree(self.teid)
        return self._tree

    def select(self, path):
        """Navigate a path from this element; returns node values."""
        compiled = path if isinstance(path, Path) else Path(path)
        if compiled.is_empty:
            return [NodeValue(self.doc_id, self.tree)]
        return [
            NodeValue(self.doc_id, node)
            for node in compiled.select(self.tree)
        ]

    def scalar(self):
        return coerce_scalar(self.tree)

    def __repr__(self):
        return f"BoundElement({self.teid})"


def as_node(value):
    """Unwrap query values down to a raw tree node (or scalar)."""
    if isinstance(value, BoundElement):
        return value.tree
    if isinstance(value, NodeValue):
        return value.node
    return value


def expand(value):
    """Node-set expansion for existential comparison semantics."""
    if isinstance(value, list):
        return value
    return [value]


def truth(value):
    """Predicate truth of an evaluated expression."""
    if value is None:
        return False
    if isinstance(value, bool):
        return value
    if isinstance(value, list):
        return bool(value)
    if isinstance(value, (BoundElement, NodeValue, Element)):
        return True
    return bool(value)
