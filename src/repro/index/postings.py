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

The index stores postings as columns, not as objects (see
:mod:`repro.index.fti`); a :class:`Posting` is the immutable row a lookup
hands out.  Ancestors tuples and paths are context shared by many
postings: the index numbers each distinct value once in an
:class:`InternTable`, and every posting it returns for the same value
holds the same object.
"""

from __future__ import annotations

from collections import namedtuple

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


class Posting(
    namedtuple(
        "Posting", "doc_id xid ancestors path start end",
        defaults=(UNTIL_CHANGED,),
    )
):
    """One word occurrence with its validity interval: an immutable row."""

    __slots__ = ()

    #: Build from one iterable of the six fields, in C (no length check).
    _make = classmethod(tuple.__new__)

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
        return estimated_bytes(self.ancestors, self.path)

    def __repr__(self):
        return (
            f"Posting(doc={self.doc_id}, xid={self.xid}, "
            f"[{self.start}, {self.end}))"
        )


def estimated_bytes(ancestors, path):
    """The paper's logical size of one posting with this context."""
    return 24 + 8 * len(ancestors) + len(path)


class InternTable:
    """Distinct values numbered in the order first met: ``ids`` maps a
    value to its number, ``values`` a number back to the one object every
    holder of that value shares.  Number 0 is the empty ancestors tuple
    of a root element, which no walk has to intern."""

    __slots__ = ("ids", "values")

    def __init__(self):
        self.ids = {(): 0}
        self.values = [()]

    def __len__(self):
        """Interned values, the seeded empty tuple not counted."""
        return len(self.values) - 1

    def intern(self, value):
        ident = self.ids.get(value)
        if ident is None:
            ident = self.ids[value] = len(self.values)
            self.values.append(value)
        return ident


def element_runs(root, table):
    """The word occurrences of a stamped tree, as runs in document order.

    Returns a list of ``(element, ancestors_id, path_id, words)``.  An
    element's tag and attribute words form its first run and each of its
    text children one more (text is attributed to the direct containing
    element only; the structural join recovers ancestor containment from
    the ancestors).  The runs of a child element's subtree sit between
    the runs of the text around it, so the runs read in order list every
    occurrence in the order a pre-order walk meets it.  Runs without
    words are left out.

    ``ancestors_id`` and ``path_id`` number the element's ancestors tuple
    and tag path in ``table`` (an :class:`InternTable`, updated in place:
    every path and ancestors tuple the walk meets is interned), so runs of
    any trees walked with the same table that have an equal context hold
    the same number.  Word lists may be shared between runs; callers must
    not mutate them.
    """
    runs = []
    _walk(root, (), 0, "", table.intern, {}, runs)
    return runs


def _walk(element, ancestors, ancestors_id, parent_path, intern, tag_words,
          runs):
    """Append the runs of ``element``'s subtree to ``runs``, numbering
    paths and ancestors tuples with ``intern``.  A module function, not a
    closure that calls itself: that closure would be a reference cycle
    holding ``runs``, so every element of every tree walked would wait for
    the cycle collector."""
    tag = element.tag
    path = f"{parent_path}/{tag}" if parent_path else tag
    path_id = intern(path)
    words = tag_words.get(tag)
    if words is None:
        words = tag_words[tag] = tokenize(tag)
    if element.attrib:
        words = words + [
            word for value in element.attrib.values()
            for word in tokenize(value)
        ]
    if words:
        runs.append((element, ancestors_id, path_id, words))
    child_ancestors = None
    for child in element.children:
        if isinstance(child, Element):
            if child_ancestors is None:
                child_ancestors = ancestors + (element.xid,)
                child_id = intern(child_ancestors)
            _walk(child, child_ancestors, child_id, path, intern, tag_words,
                  runs)
        elif isinstance(child, Text):
            words = tokenize(child.value)
            if words:
                runs.append((element, ancestors_id, path_id, words))


def occurrences(root, doc_id):
    """Extract all word occurrences of a stamped tree.

    Returns ``{(word, xid, ordinal): (ancestors, path)}`` in document
    order, where ``ordinal`` numbers repeated occurrences of the same word
    at the same element — the position of the word among that element's
    occurrences of it.
    """
    out = {}
    counters = {}
    table = InternTable()
    values = table.values
    for element, ancestors_id, path_id, words in element_runs(root, table):
        xid = element.xid
        context = (values[ancestors_id], values[path_id])
        for word in words:
            ordinal = counters.get((word, xid), 0)
            counters[(word, xid)] = ordinal + 1
            out[(word, xid, ordinal)] = context
    return out
