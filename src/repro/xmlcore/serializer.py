"""Serialization of the tree model back to XML text."""

from __future__ import annotations

from ..errors import TemporalXMLError
from .node import Element, Text

# A conforming parser reads a literal CR in text as LF and a literal TAB, LF
# or CR in an attribute value as a space; written as character references
# they come back as themselves, so ``parse(serialize(t))`` is the identity.
_TEXT_ESCAPES = str.maketrans(
    {"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;"}
)
_ATTR_ESCAPES = str.maketrans({
    "&": "&amp;", "<": "&lt;", '"': "&quot;",
    "\t": "&#9;", "\n": "&#10;", "\r": "&#13;",
})


def escape_text(value):
    """Escape character data for element content."""
    # Most values hold no special character: four substring tests are
    # cheaper than the translate that would copy them unchanged.
    if "&" in value or "<" in value or ">" in value or "\r" in value:
        return value.translate(_TEXT_ESCAPES)
    return value


def escape_attribute(value):
    """Escape character data for a double-quoted attribute value."""
    if ("&" in value or "<" in value or '"' in value
            or "\t" in value or "\n" in value or "\r" in value):
        return value.translate(_ATTR_ESCAPES)
    return value


def serialize(node, indent=None, xids=False):
    """Serialize ``node`` (Element or Text) to a string.

    ``indent``
        ``None`` produces compact output; an integer pretty-prints with that
        many spaces per nesting level.  Pretty-printing only inserts
        whitespace around element-only content, never inside mixed content,
        so ``parse(serialize(t, indent=2))`` round-trips.

    ``xids``
        When true, elements that carry an XID are serialized with a
        synthetic ``_xid`` attribute (handy for debugging dumps and for the
        edit-script payloads, which must preserve identity).
    """
    if isinstance(node, Text):
        return escape_text(node.value)
    if not isinstance(node, Element):
        raise TemporalXMLError(f"cannot serialize {type(node).__name__}")
    parts = []
    _write(node, parts.append, indent, 0, xids)
    return "".join(parts)


def _write(node, out, indent, level, xids):
    """Write the element ``node`` and its subtree through ``out`` in one
    pass; below the first mixed content, ``indent`` is ``None``."""
    tag = node.tag
    attrib = node.attrib
    if xids and node.xid is not None:
        attrib = {**attrib, "_xid": str(node.xid)}
    if indent is not None and level:
        out("\n" + " " * (indent * level))
    head = "<" + tag
    if attrib:
        head += "".join([f' {name}="{escape_attribute(value)}"'
                         for name, value in attrib.items()])
    children = node.children
    if not children:
        out(head + "/>")
        return
    out(head + ">")
    if indent is not None and any(isinstance(c, Text) for c in children):
        indent = None
    for child in children:
        if isinstance(child, Text):
            out(escape_text(child.value))
        elif isinstance(child, Element):
            _write(child, out, indent, level + 1, xids)
        else:
            raise TemporalXMLError(f"cannot serialize {type(child).__name__}")
    if indent is not None:
        out("\n" + " " * (indent * level))
    out("</" + tag + ">")
