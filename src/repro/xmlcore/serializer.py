"""Serialization of the tree model back to XML text."""

from __future__ import annotations

from ..errors import TemporalXMLError
from .node import Element, Text

# A conforming parser reads a literal CR in text as LF and a literal TAB, LF
# or CR in an attribute value as a space; written as character references
# they come back as themselves, so ``parse(serialize(t))`` is the identity.
_TEXT_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;"}
_ATTR_ESCAPES = {
    "&": "&amp;", "<": "&lt;", '"': "&quot;",
    "\t": "&#9;", "\n": "&#10;", "\r": "&#13;",
}


def escape_text(value):
    """Escape character data for element content."""
    for raw, escaped in _TEXT_ESCAPES.items():
        value = value.replace(raw, escaped)
    return value


def escape_attribute(value):
    """Escape character data for a double-quoted attribute value."""
    for raw, escaped in _ATTR_ESCAPES.items():
        value = value.replace(raw, escaped)
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
    parts = []
    _write(node, parts, indent, 0, xids)
    return "".join(parts)


def _write(node, parts, indent, level, xids):
    if isinstance(node, Text):
        parts.append(escape_text(node.value))
        return
    if not isinstance(node, Element):
        raise TemporalXMLError(f"cannot serialize {type(node).__name__}")

    pad = "" if indent is None else "\n" + " " * (indent * level) if level else ""
    if pad:
        parts.append(pad)
    parts.append(f"<{node.tag}")
    attrib = dict(node.attrib)
    if xids and node.xid is not None:
        attrib["_xid"] = str(node.xid)
    for name in attrib:
        parts.append(f' {name}="{escape_attribute(str(attrib[name]))}"')
    if not node.children:
        parts.append("/>")
        return
    parts.append(">")

    mixed = any(isinstance(c, Text) for c in node.children)
    for child in node.children:
        _write(child, parts, None if mixed else indent, level + 1, xids)
    if indent is not None and not mixed:
        parts.append("\n" + " " * (indent * level))
    parts.append(f"</{node.tag}>")
