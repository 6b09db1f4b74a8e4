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
  current version),
* the ``word`` itself, so an open posting knows which list to leave when
  it closes.

Everything but the interval is context shared by many postings: the
index that files them hands every posting of the same word, path or
ancestor chain the same object (see :func:`element_runs`).
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
    return text.lower().translate(_WORD_BREAKS).split()


class Posting:
    """One word occurrence with its validity interval (mutable ``end``)."""

    __slots__ = ("doc_id", "xid", "ancestors", "path", "start", "end", "word")

    def __init__(
        self, doc_id, xid, ancestors, path, start, end=UNTIL_CHANGED,
        word=None,
    ):
        self.doc_id = doc_id
        self.xid = xid
        self.ancestors = ancestors
        self.path = path
        self.start = start
        self.end = end
        self.word = word

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


def element_runs(root, interned=None):
    """The word occurrences of a stamped tree, as runs in document order.

    Returns a list of ``(element, ancestors, path, words)``.  An element's
    tag and attribute words form its first run and each of its text
    children one more (text is attributed to the direct containing
    element only; the structural join recovers ancestor containment from
    ``ancestors``).  The runs of a child element's subtree sit between
    the runs of the text around it, so the runs read in order list every
    occurrence in the order a pre-order walk meets it.  Runs without
    words are left out.

    ``interned`` (a dict, updated in place) maps each ancestors tuple and
    path the walk builds to one object per distinct value, so every run
    — of this tree and of any other walked with the same dict — that has
    an equal ancestors tuple or path holds the identical object.  Word
    lists may be shared between runs; callers must not mutate them.
    """
    runs = []
    _walk(root, (), "", {} if interned is None else interned, {}, runs)
    return runs


def _walk(element, ancestors, parent_path, table, tag_words, runs):
    """Append the runs of ``element``'s subtree to ``runs``.  A module
    function, not a closure that calls itself: that closure would be a
    reference cycle holding ``runs``, so every element of every tree walked
    would wait for the cycle collector."""
    tag = element.tag
    path = f"{parent_path}/{tag}" if parent_path else tag
    path = table.setdefault(path, path)
    words = tag_words.get(tag)
    if words is None:
        words = tag_words[tag] = tokenize(tag)
    if element.attrib:
        words = words + [
            word for value in element.attrib.values()
            for word in tokenize(value)
        ]
    if words:
        runs.append((element, ancestors, path, words))
    child_ancestors = None
    for child in element.children:
        if isinstance(child, Element):
            if child_ancestors is None:
                child_ancestors = ancestors + (element.xid,)
                child_ancestors = table.setdefault(
                    child_ancestors, child_ancestors
                )
            _walk(child, child_ancestors, path, table, tag_words, runs)
        elif isinstance(child, Text):
            words = tokenize(child.value)
            if words:
                runs.append((element, ancestors, path, words))


def occurrences(root, doc_id):
    """Extract all word occurrences of a stamped tree.

    Returns ``{(word, xid, ordinal): (ancestors, path)}`` in document
    order, where ``ordinal`` numbers repeated occurrences of the same word
    at the same element — the position of the word among that element's
    occurrences of it.
    """
    out = {}
    counters = {}
    for element, ancestors, path, words in element_runs(root):
        xid = element.xid
        for word in words:
            ordinal = counters.get((word, xid), 0)
            counters[(word, xid)] = ordinal + 1
            out[(word, xid, ordinal)] = (ancestors, path)
    return out
