"""Ordered XML tree model.

Two node kinds exist: :class:`Element` (tag, attributes, ordered children)
and :class:`Text` (character data).  Both carry two slots that belong to the
temporal layers above this one:

``xid``
    The persistent element identifier (Xyleme-style XID) assigned by the
    versioned store.  ``None`` on trees that have never been stored.

``tstamp``
    The element timestamp: the time this element or one of its descendants
    was last updated (Section 4 of the paper).  Maintained by
    :mod:`repro.model.versioned`.

Keeping these slots here (instead of wrapping trees in a parallel structure)
keeps the differ, the store, and the indexes working on one representation.

A node holds no pointer to its parent, so a tree is an acyclic value: a
version the store drops is freed by reference counting as soon as its last
reference goes, never left for the cycle collector.  A walk that needs to go
upwards builds :func:`parent_map` once for the tree it walks.
"""

from __future__ import annotations

from ..errors import TemporalXMLError


class XidIndexStats:
    """Process-wide instrumentation for the lazy XID index (tests and the
    performance docs read these to verify that repeated TEID resolutions on
    a retained tree do not rebuild or re-scan)."""

    __slots__ = ("builds", "lookups", "invalidations")

    def __init__(self):
        self.reset()

    def reset(self):
        self.builds = 0
        self.lookups = 0
        self.invalidations = 0

    def as_dict(self):
        return {
            "builds": self.builds,
            "lookups": self.lookups,
            "invalidations": self.invalidations,
        }


#: Shared counters for every tree's XID index.
xid_index_stats = XidIndexStats()


class _Node:
    """Shared behaviour of element and text nodes."""

    __slots__ = ("xid", "tstamp")

    @property
    def is_element(self):
        return isinstance(self, Element)

    @property
    def is_text(self):
        return isinstance(self, Text)


class Text(_Node):
    """A character-data node.

    ``value`` is the (unescaped) text.  Empty text nodes are legal in the
    model but the parser never produces them.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        self.xid = None
        self.tstamp = None
        self.value = value if value.__class__ is str else str(value)

    def copy(self):
        """Deep copy carrying ``xid``/``tstamp`` along."""
        dup = Text.__new__(Text)
        dup.value = self.value
        dup.xid = self.xid
        dup.tstamp = self.tstamp
        return dup

    def equals_deep(self, other):
        return isinstance(other, Text) and self.value == other.value

    def text_content(self):
        return self.value

    def __repr__(self):
        label = self.value if len(self.value) <= 24 else self.value[:21] + "..."
        return f"Text({label!r})"


class Element(_Node):
    """An element node: tag, attribute dict, ordered children.

    Materialized (stamped) trees additionally carry a lazily built
    ``xid -> node`` map (:meth:`xid_index`), so repeated TEID/XID
    resolutions against a retained tree cost O(1) instead of a full
    pre-order scan.  A structural mutation of an element (insert, remove,
    text replacement) drops that element's own map; nothing below can reach
    a map cached higher up, so the maps are for frozen trees — every stored
    tree is one — and whatever mutates a tree keeps a map of its own.
    Value-only mutations (attributes, text values edited in place) leave
    every map intact.
    """

    __slots__ = ("tag", "attrib", "children", "_xidmap")

    def __init__(self, tag, attrib=None):
        if not tag or not isinstance(tag, str):
            raise TemporalXMLError(f"invalid element tag: {tag!r}")
        self.xid = None
        self.tstamp = None
        self.tag = tag
        self.attrib = dict(attrib) if attrib else {}
        for name, value in self.attrib.items():
            if value.__class__ is not str:  # as ``set`` and the parser give
                self.attrib[name] = str(value)
        self.children = []
        self._xidmap = None

    # -- construction ------------------------------------------------------

    def append(self, node):
        """Append ``node`` (Element, Text, or str) as the last child."""
        kind = node.__class__
        if kind is Text or (kind is Element and node is not self):
            self.children.append(node)
            self._drop_xid_index()
            return node
        return self.insert(len(self.children), node)

    def insert(self, index, node):
        """Insert ``node`` at ``index``.

        Nothing is taken out of another child list: a caller that moves a
        node removes it from its old place first."""
        if isinstance(node, str):
            node = Text(node)
        if not isinstance(node, _Node):
            raise TemporalXMLError(f"cannot insert {type(node).__name__} node")
        if node is self:
            raise TemporalXMLError("cannot insert a node under itself")
        self.children.insert(index, node)
        self._drop_xid_index()
        return node

    def remove(self, node):
        """Remove a direct child (identity comparison)."""
        for i, child in enumerate(self.children):
            if child is node:
                return self.pop(i)
        raise TemporalXMLError("node is not a child of this element")

    def pop(self, index):
        """Remove and return the child at ``index``."""
        node = self.children.pop(index)
        self._drop_xid_index()
        return node

    def copy(self):
        """Deep copy of the subtree, carrying ``xid``/``tstamp`` along."""
        dup = Element.__new__(Element)
        dup.xid = self.xid
        dup.tstamp = self.tstamp
        dup.tag = self.tag
        dup.attrib = self.attrib.copy()
        dup.children = [child.copy() for child in self.children]
        dup._xidmap = None
        return dup

    # -- navigation --------------------------------------------------------

    def child_elements(self):
        """List of the element children (text nodes skipped)."""
        return [c for c in self.children if isinstance(c, Element)]

    def iter(self):
        """Pre-order traversal over all nodes of the subtree (self first)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, Element):
                stack.extend(reversed(node.children))

    def iter_elements(self):
        """Pre-order traversal over element nodes only."""
        for node in self.iter():
            if isinstance(node, Element):
                yield node

    def find(self, tag):
        """First child element with the given tag, or ``None``."""
        for child in self.child_elements():
            if child.tag == tag:
                return child
        return None

    def findall(self, tag):
        """All child elements with the given tag."""
        return [c for c in self.child_elements() if c.tag == tag]

    def subtree_size(self):
        """Number of nodes in the subtree, including self."""
        return sum(1 for _ in self.iter())

    # -- XID index ---------------------------------------------------------

    def xid_index(self):
        """The ``xid -> node`` map of the nodes *below* this element, built
        lazily and cached.

        The element itself is left out: a map holding its own element
        would make the two a reference cycle.  The returned dict is owned
        by the tree: treat it as read-only.  It describes the subtree as it
        was when built, which for a frozen tree is for good; a structural
        mutation of this element itself (insert/remove/text replacement)
        drops it and the next call rebuilds.  Unstamped nodes appear under
        key ``None``.
        """
        if self._xidmap is None:
            nodes = self.iter()
            next(nodes)
            self._xidmap = {node.xid: node for node in nodes}
            xid_index_stats.builds += 1
        return self._xidmap

    def find_by_xid(self, xid):
        """The node carrying ``xid`` in this subtree, or ``None`` (O(1)
        after the first call on an unmutated tree)."""
        xid_index_stats.lookups += 1
        index = self.xid_index()
        return self if xid == self.xid and xid not in index else index.get(xid)

    def _drop_xid_index(self):
        if self._xidmap is not None:
            self._xidmap = None
            xid_index_stats.invalidations += 1

    def drop_xid_indexes(self):
        """Forget the cached map of every element in this subtree.

        Needed when XIDs themselves are rewritten (stamping), which the
        structural-mutation hooks cannot observe.
        """
        for node in self.iter_elements():
            node._drop_xid_index()

    # -- content -----------------------------------------------------------

    def text_content(self):
        """Concatenation of all descendant text, document order."""
        parts = []
        for node in self.iter():
            if isinstance(node, Text):
                parts.append(node.value)
        return "".join(parts)

    @property
    def text(self):
        """Direct text content: concatenation of immediate Text children."""
        children = self.children
        if len(children) == 1 and children[0].__class__ is Text:
            return children[0].value
        return "".join(c.value for c in children if isinstance(c, Text))

    @text.setter
    def text(self, value):
        kept = [c for c in self.children if not isinstance(c, Text)]
        self._drop_xid_index()
        if value is not None and value != "":
            kept.insert(0, Text(value))
        self.children = kept

    def get(self, name, default=None):
        """Attribute access with default."""
        return self.attrib.get(name, default)

    def set(self, name, value):
        self.attrib[name] = str(value)

    # -- comparison --------------------------------------------------------

    def equals_shallow(self, other):
        """Paper §7.4 shallow equality: same tag, attributes, and direct text."""
        return (
            isinstance(other, Element)
            and self.tag == other.tag
            and self.attrib == other.attrib
            and self.text == other.text
        )

    def equals_deep(self, other):
        """Paper §7.4 deep equality: subtrees match completely (order included)."""
        if not isinstance(other, Element):
            return False
        if self.tag != other.tag or self.attrib != other.attrib:
            return False
        if len(self.children) != len(other.children):
            return False
        return all(
            a.equals_deep(b) for a, b in zip(self.children, other.children)
        )

    def __repr__(self):
        return f"Element({self.tag!r}, children={len(self.children)})"


def parent_map(root):
    """``{id(node): parent}`` for every node below ``root`` (the root itself
    has no entry).

    Nodes keep no parent pointer; a walk that goes upwards builds this once
    for the tree it walks.  The keys are ``id``\\ s, so the map holds only
    while the tree is alive and its child lists are unchanged.
    """
    parents = {}
    stack = [root] if isinstance(root, Element) else []
    while stack:
        node = stack.pop()
        for child in node.children:
            parents[id(child)] = node
            if isinstance(child, Element):
                stack.append(child)
    return parents


def element(tag, *children, **attrib):
    """Terse tree builder used heavily in tests and examples.

    >>> tree = element("restaurant", element("name", "Napoli"),
    ...                element("price", "15"))
    >>> tree.find("price").text
    '15'
    """
    node = Element(tag, attrib or None)
    for child in children:
        node.append(child)
    return node
