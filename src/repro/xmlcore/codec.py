"""Binary encoding of stamped trees, and subtrees held in that encoding.

One node is a kind byte, its XID and element timestamp, then for a text
node its value, for an element its tag, its attributes in order and its
children.  Integers are unsigned varints (``0 = absent / n + 1`` for the
optional XID and timestamp); strings are UTF-8 prefixed by their varint
length.  :mod:`~repro.storage.binfmt` writes trees, edit scripts and
documents in this form for the commit journal and the CAS, and the stored
deltas keep their payload subtrees in it (:class:`PackedNode`), so a
payload is encoded once, at the commit that makes it.

Decoding errors raise :class:`~repro.errors.CorruptArchiveError` — a
truncated or bit-flipped object can never escape as an ``IndexError``,
a ``UnicodeDecodeError`` (invalid UTF-8 in a string) or a
``RecursionError`` (a tree nested deeper than the interpreter allows).
"""

from __future__ import annotations

import sys

from ..errors import CorruptArchiveError
from .node import Element, Text
from .serializer import escape_attribute, escape_text

#: Node kind bytes.
_ELEMENT, _TEXT = 0x01, 0x02


class Writer:
    """Append-only binary writer (varints, strings, blobs)."""

    __slots__ = ("_buf",)

    def __init__(self):
        self._buf = bytearray()

    def u(self, value):
        """Unsigned varint (LEB128)."""
        if value < 0:
            raise CorruptArchiveError(f"cannot encode negative int {value}")
        buf = self._buf
        while value > 0x7F:
            buf.append((value & 0x7F) | 0x80)
            value >>= 7
        buf.append(value)

    def opt_u(self, value):
        """Optional unsigned int: 0 when absent, value+1 otherwise."""
        self.u(0 if value is None else value + 1)

    def byte(self, value):
        self._buf.append(value)

    def s(self, text):
        data = text.encode("utf-8")
        self.u(len(data))
        self._buf += data

    def opt_s(self, text):
        if text is None:
            self.byte(0)
        else:
            self.byte(1)
            self.s(text)

    def blob(self, data):
        self.u(len(data))
        self._buf += data

    def raw(self, data):
        """Bytes already encoded (a :class:`PackedNode`), as they are."""
        self._buf += data

    def getvalue(self):
        return bytes(self._buf)


class Reader:
    """Sequential reader over one encoded byte string."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data):
        self._data = data
        self._pos = 0

    @property
    def exhausted(self):
        return self._pos >= len(self._data)

    @property
    def offset(self):
        """How many bytes have been read so far."""
        return self._pos

    def _need(self, count):
        if self._pos + count > len(self._data):
            raise CorruptArchiveError(
                f"truncated binary record: wanted {count} byte(s) at "
                f"offset {self._pos}, have {len(self._data) - self._pos}"
            )

    def u(self):
        value, self._pos = _varint(self._data, self._pos)
        return value

    def opt_u(self):
        value = self.u()
        return None if value == 0 else value - 1

    def byte(self):
        self._need(1)
        value = self._data[self._pos]
        self._pos += 1
        return value

    def s(self):
        start = self._pos
        try:
            return self.blob().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptArchiveError(
                f"invalid UTF-8 in the string at offset {start} "
                f"({exc.reason})"
            ) from None

    def opt_s(self):
        return self.s() if self.byte() else None

    def blob(self):
        length = self.u()
        self._need(length)
        data = self._data[self._pos : self._pos + length]
        self._pos += length
        return data

    def packed_node(self):
        """The node encoded next, as a :class:`PackedNode` of its bytes
        (checked to be whole, not decoded)."""
        start = self._pos
        self._pos = _walk(self._data, start, None)
        return PackedNode(self._data[start : self._pos])

    def rest(self):
        """Everything not read yet."""
        data = self._data[self._pos :]
        self._pos = len(self._data)
        return data


def _varint(data, pos):
    """``(value, offset past it)`` of the unsigned varint at ``pos``."""
    start = pos
    shift = 0
    value = 0
    try:
        while True:
            byte = data[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value, pos
            shift += 7
            if shift > 63:
                raise CorruptArchiveError(
                    f"malformed varint at offset {start}"
                )
    except IndexError:
        raise CorruptArchiveError(
            "truncated binary record: unterminated varint at "
            f"offset {start}"
        ) from None


# -- trees ---------------------------------------------------------------------


def write_node(w, node):
    """Encode one stamped node (Element or Text) recursively."""
    if isinstance(node, Text):
        w.byte(_TEXT)
        w.opt_u(node.xid)
        w.opt_u(node.tstamp)
        w.s(node.value)
        return
    w.byte(_ELEMENT)
    w.opt_u(node.xid)
    w.opt_u(node.tstamp)
    w.s(node.tag)
    w.u(len(node.attrib))
    for name, value in node.attrib.items():
        w.s(name)
        w.s(value)
    w.u(len(node.children))
    for child in node.children:
        write_node(w, child)


def read_node(r):
    """Decode one node written by :func:`write_node`."""
    node, r._pos = _decode(r._data, r._pos)
    return node


def _decode(data, pos):
    """``(tree, offset past it)`` of the node encoded at ``pos``.

    One loop over the bytes, not a call per node: this is how the current
    trees load and how every stored payload is applied.  Tags are interned
    and equal timestamps within the tree are one int object — a history
    holds many nodes and few distinct values of either."""
    stamps = {}
    intern = sys.intern
    limit = sys.getrecursionlimit()
    parents = []  # elements still owed children, innermost last
    owed = []  # how many children each of them is still owed
    start = pos
    try:
        while True:
            kind = data[pos]
            value = data[pos + 1]
            pos += 2
            if value & 0x80:  # most XIDs take two bytes
                high = data[pos]
                if high & 0x80:
                    value, pos = _varint(data, pos - 1)
                else:
                    value = (value & 0x7F) | high << 7
                    pos += 1
            xid = value - 1 if value else None
            value, pos = _varint(data, pos)
            tstamp = value - 1 if value else None
            start = pos
            length = data[pos]
            pos += 1
            if length & 0x80:
                length, pos = _varint(data, pos - 1)
            end = pos + length
            if end > len(data):
                raise IndexError(end)
            text = data[pos:end].decode("utf-8")
            pos = end
            if kind == _TEXT:
                node = Text(text)
                children = 0
            elif kind == _ELEMENT:
                node = Element(intern(text))
                count = data[pos]
                pos += 1
                if count:
                    if count & 0x80:
                        count, pos = _varint(data, pos - 1)
                    attrib = node.attrib
                    for _ in range(count):
                        start = pos
                        name, pos = _string(data, pos)
                        start = pos
                        attrib[name], pos = _string(data, pos)
                children = data[pos]
                pos += 1
                if children & 0x80:
                    children, pos = _varint(data, pos - 1)
            else:
                raise CorruptArchiveError(
                    f"unknown node kind byte 0x{kind:02x}"
                )
            node.xid = xid
            node.tstamp = stamps.setdefault(tstamp, tstamp)
            if parents:
                parents[-1].children.append(node)
                owed[-1] -= 1
            else:
                root = node
            if children:
                if len(parents) >= limit:
                    raise CorruptArchiveError(
                        "binary tree nests deeper than the recursion limit"
                    )
                parents.append(node)
                owed.append(children)
                continue
            while owed and not owed[-1]:
                parents.pop()
                owed.pop()
            if not parents:
                return root, pos
    except IndexError:
        raise CorruptArchiveError(
            "truncated binary record: a node runs past the end of its bytes"
        ) from None
    except UnicodeDecodeError as exc:
        raise CorruptArchiveError(
            f"invalid UTF-8 in the string at offset {start} ({exc.reason})"
        ) from None


def _string(data, pos):
    """``(str, offset past it)`` of the length-prefixed string at ``pos``;
    raises ``IndexError`` when it runs past the end."""
    length = data[pos]
    pos += 1
    if length & 0x80:
        length, pos = _varint(data, pos - 1)
    end = pos + length
    if end > len(data):
        raise IndexError(end)
    return data[pos:end].decode("utf-8"), end


# -- packed subtrees -------------------------------------------------------------


class PackedNode(bytes):
    """A stamped subtree held as its :func:`write_node` bytes.

    What an edit script's insert, delete and root-replacement operations
    carry: the bytes the journal and the CAS write, kept as they are.
    :meth:`tree` decodes a fresh tree; :attr:`xid`, :meth:`xids` and
    :meth:`measure` read the bytes without building one.
    """

    __slots__ = ()

    @classmethod
    def pack(cls, node):
        w = Writer()
        write_node(w, node)
        return cls(w._buf)

    @property
    def xid(self):
        """The subtree root's XID (``None`` when it has none)."""
        value, _ = _varint(self, 1)
        return None if value == 0 else value - 1

    def tree(self):
        """A fresh, detached copy of the subtree."""
        return read_node(Reader(self))

    def xids(self):
        """Every node's XID, in document order."""
        xids = []
        _walk(self, 0, xids)
        return xids

    def measure(self):
        """``(len(serialize(tree)), nodes)`` of the subtree."""
        return _measure(self)

    def __repr__(self):
        return f"PackedNode(xid={self.xid}, {len(self)} bytes)"


def _walk(data, pos, xids):
    """Offset just past the node encoded at ``pos``; appends every node's
    XID (absent ones as ``None``), in document order, to ``xids`` unless
    that is ``None``.  Checks the structure, not the strings' UTF-8."""
    end = len(data)
    pending = 1  # nodes still to read: every element adds its children
    try:
        while pending:
            pending -= 1
            kind = data[pos]
            if kind != _ELEMENT and kind != _TEXT:
                raise CorruptArchiveError(
                    f"unknown node kind byte 0x{kind:02x} at offset {pos}"
                )
            xid = data[pos + 1]
            pos += 2
            if xid & 0x80:  # most XIDs take two bytes
                high = data[pos]
                if high & 0x80:
                    xid, pos = _varint(data, pos - 1)
                else:
                    xid = (xid & 0x7F) | high << 7
                    pos += 1
            if xids is not None:
                xids.append(xid - 1 if xid else None)
            while data[pos] & 0x80:  # the timestamp, skipped
                pos += 1
            length = data[pos + 1]  # of the value or tag
            pos += 2
            if length & 0x80:
                length, pos = _varint(data, pos - 1)
            pos += length
            if kind == _ELEMENT:
                attributes = data[pos]
                pos += 1
                if attributes:
                    if attributes & 0x80:
                        attributes, pos = _varint(data, pos - 1)
                    for _ in range(2 * attributes):
                        length, pos = _varint(data, pos)
                        pos += length
                children = data[pos]
                pos += 1
                if children & 0x80:
                    children, pos = _varint(data, pos - 1)
                pending += children
            if pos > end:
                break
    except IndexError:
        pos = end + 1
    if pos > end:
        raise CorruptArchiveError(
            "truncated binary record: a packed node runs past its end"
        )
    return pos


def _measure(data):
    """``(serialized length, node count)`` of one packed node."""
    length = nodes = 0
    pos = 0
    pending = 1
    try:
        while pending:
            pending -= 1
            nodes += 1
            kind = data[pos]
            pos += 1
            while data[pos] & 0x80:  # the XID, skipped
                pos += 1
            pos += 1
            while data[pos] & 0x80:  # the timestamp, skipped
                pos += 1
            text, pos = _string(data, pos + 1)
            if kind == _TEXT:
                length += len(escape_text(text))
                continue
            if kind != _ELEMENT:
                raise CorruptArchiveError(
                    f"unknown node kind byte 0x{kind:02x}"
                )
            count, pos = _varint(data, pos)
            for _ in range(count):
                name, pos = _string(data, pos)
                value, pos = _string(data, pos)
                length += len(name) + len(escape_attribute(value)) + 4
            children, pos = _varint(data, pos)
            # <tag attrs/>  or  <tag attrs>...</tag>
            length += 2 * len(text) + 5 if children else len(text) + 3
            pending += children
    except IndexError:
        raise CorruptArchiveError(
            "truncated binary record: a packed node runs past its end"
        ) from None
    except UnicodeDecodeError as exc:
        raise CorruptArchiveError(
            f"invalid UTF-8 in a packed node ({exc.reason})"
        ) from None
    return length, nodes
