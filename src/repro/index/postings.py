"""Posting structures and word-occurrence extraction.

The paper's FTI "indexes all words in the documents, including element
names.  The postings (one for each word occurrence) include document
identifier as well as information that can be used to determine hierarchical
relationships between elements from the same document."

Our postings carry:

* ``doc_id`` and the ``xid`` of the element the occurrence belongs to
  (an element-name occurrence belongs to the element itself; a text or
  attribute word belongs to the containing element),
* ``ancestors`` — the XIDs of the element's proper ancestors, root first,
  which lets the structural join test isParentOf/isAncestorOf in O(1),
* ``path`` — the tag path from the root, used for path-literal filtering,
* the validity interval ``[start, end)`` in transaction time
  (``end == UNTIL_CHANGED`` while the occurrence is still present in the
  current version).
"""

from __future__ import annotations

from ..clock import UNTIL_CHANGED
from ..xmlcore.node import Element, Text

_WORD_BREAKS = str.maketrans(
    {c: " " for c in "!\"#$%&'()*+,./:;<=>?@[\\]^`{|}~\t\r\n-"}
)


def tokenize(text):
    """Split text into lowercase index terms.

    Hyphens and punctuation break words; underscores are kept (they are
    common in element names).  Numbers are terms too (prices are queried).
    """
    return [w for w in text.lower().translate(_WORD_BREAKS).split() if w]


class Posting:
    """One word occurrence with its validity interval (mutable ``end``)."""

    __slots__ = ("doc_id", "xid", "ancestors", "path", "start", "end")

    def __init__(self, doc_id, xid, ancestors, path, start, end=UNTIL_CHANGED):
        self.doc_id = doc_id
        self.xid = xid
        self.ancestors = ancestors
        self.path = path
        self.start = start
        self.end = end

    @property
    def is_open(self):
        return self.end >= UNTIL_CHANGED

    def valid_at(self, ts):
        return self.start <= ts < self.end

    def parent_xid(self):
        """XID of the owning element's parent (None at the root)."""
        return self.ancestors[-1] if self.ancestors else None

    def estimated_bytes(self):
        """Rough stored size, used for the E6 index-size comparison."""
        return 24 + 8 * len(self.ancestors) + len(self.path)

    def __repr__(self):
        return (
            f"Posting(doc={self.doc_id}, xid={self.xid}, "
            f"[{self.start}, {self.end}))"
        )


def occurrences(root, doc_id):
    """Extract all word occurrences of a stamped tree.

    Returns ``{(word, xid, ordinal): (ancestors, path)}`` where ``ordinal``
    numbers repeated occurrences of the same word at the same element in
    document order — the key shape the FTI reconciles against between
    versions.
    """
    out = {}
    counters = {}

    def note(word, element, ancestors, path):
        slot = (word, element.xid)
        ordinal = counters.get(slot, 0)
        counters[slot] = ordinal + 1
        out[(word, element.xid, ordinal)] = (ancestors, path)

    def walk(element, ancestors, parent_path):
        path = (
            f"{parent_path}/{element.tag}" if parent_path else element.tag
        )
        for word in tokenize(element.tag):
            note(word, element, ancestors, path)
        for value in element.attrib.values():
            for word in tokenize(value):
                note(word, element, ancestors, path)
        child_ancestors = ancestors + (element.xid,)
        for child in element.children:
            if isinstance(child, Element):
                walk(child, child_ancestors, path)
            elif isinstance(child, Text):
                for word in tokenize(child.value):
                    note(word, element, ancestors, path)
        # Text is attributed to the direct containing element only; the
        # structural join recovers ancestor containment from `ancestors`.

    walk(root, (), "")
    return out
