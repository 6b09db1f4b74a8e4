"""Edit-script representation: operations, inversion, XML round-trip.

A script is an ordered list of operations.  Applying the operations in order
transforms version *i* into version *i+1*; applying the *inverses in reverse
order* transforms *i+1* back into *i*.  Every operation therefore records
exactly the state it needs to be undone — that is what makes these
**completed** deltas in the paper's sense.  The commit journal writes only
their redo half (:class:`RedoDelete`, :class:`RedoStamp`,
:class:`RedoReplaceRoot` stand for what it drops); applying that to the
version it was computed against completes it.

Positions (``pos`` fields) index into the parent's full child list (elements
and text nodes interleaved) *at the moment the operation is applied*.

Payload subtrees are held packed (:class:`~repro.xmlcore.codec.PackedNode`):
the binary node encoding the journal and the CAS write.  An operation given
a tree packs it when it is made, so every operation — computed by the
differ, read back from storage or built by hand — holds its payloads one
way, and the tree handed in is never aliased.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..errors import DeltaApplicationError
from ..xmlcore.codec import PackedNode
from ..xmlcore.node import Element, Text
from ..xmlcore.serializer import serialize


def _packed(op, *fields):
    """Pack the named payload fields of a just-made frozen ``op``."""
    for field in fields:
        value = getattr(op, field)
        if not isinstance(value, PackedNode):
            object.__setattr__(op, field, PackedNode.pack(value))


@dataclass(frozen=True, slots=True)
class InsertOp:
    """Insert ``payload`` (a stamped subtree) at ``(parent_xid, pos)``."""

    parent_xid: int
    pos: int
    payload: PackedNode  # given as a fully stamped Element or Text

    def __post_init__(self):
        _packed(self, "payload")

    def invert(self):
        return DeleteOp(self.parent_xid, self.pos, self.payload)


@dataclass(frozen=True, slots=True)
class DeleteOp:
    """Delete the child at ``(parent_xid, pos)``.

    ``payload`` is the deleted subtree exactly as it stood (stamps included),
    which is what makes the delta applicable backwards.
    """

    parent_xid: int
    pos: int
    payload: PackedNode

    def __post_init__(self):
        _packed(self, "payload")

    def invert(self):
        return InsertOp(self.parent_xid, self.pos, self.payload)


@dataclass(frozen=True, slots=True)
class MoveOp:
    """Move the node ``xid`` from ``(from_parent, from_pos)`` to
    ``(to_parent, to_pos)``."""

    xid: int
    from_parent: int
    from_pos: int
    to_parent: int
    to_pos: int

    def invert(self):
        return MoveOp(
            self.xid,
            self.to_parent,
            self.to_pos,
            self.from_parent,
            self.from_pos,
        )


@dataclass(frozen=True, slots=True)
class UpdateTextOp:
    """Replace the value of text node ``xid``: ``old`` → ``new``."""

    xid: int
    old: str
    new: str

    def invert(self):
        return UpdateTextOp(self.xid, self.new, self.old)


@dataclass(frozen=True, slots=True)
class UpdateAttrOp:
    """Change attribute ``name`` on element ``xid``.

    ``old is None`` means the attribute is being added; ``new is None`` means
    it is being removed.
    """

    xid: int
    name: str
    old: object
    new: object

    def invert(self):
        return UpdateAttrOp(self.xid, self.name, self.new, self.old)


@dataclass(frozen=True, slots=True)
class StampOp:
    """Record an element-timestamp change on a surviving node.

    Inserted/deleted subtrees carry their stamps in payloads; StampOps cover
    the nodes that survive from one version to the next but whose timestamp
    advanced because a descendant changed (the Section 4 recursive rule).
    """

    xid: int
    old_ts: int
    new_ts: int

    def invert(self):
        return StampOp(self.xid, self.new_ts, self.old_ts)


@dataclass(frozen=True, slots=True)
class ReplaceRootOp:
    """Wholesale root replacement (used when even the root tag changed)."""

    old_payload: PackedNode
    new_payload: PackedNode

    def __post_init__(self):
        _packed(self, "old_payload", "new_payload")

    def invert(self):
        return ReplaceRootOp(self.new_payload, self.old_payload)


# -- redo forms ------------------------------------------------------------------
#
# What the commit journal keeps of the three operations whose backward half
# is a copy of the tree they apply to.  Replay onto that tree completes each
# one as it applies it (:func:`~repro.diff.apply.apply_script`), so no
# stored or fired script ever holds a redo form.


@dataclass(frozen=True, slots=True)
class RedoDelete:
    """A :class:`DeleteOp` without its payload: the victim's XID only."""

    parent_xid: int
    pos: int
    xid: int


@dataclass(frozen=True, slots=True)
class RedoStamp:
    """A :class:`StampOp` without the timestamp it overwrites."""

    xid: int
    new_ts: int


@dataclass(frozen=True, slots=True)
class RedoReplaceRoot:
    """A :class:`ReplaceRootOp` whose old root is named by its XID only."""

    old_xid: int
    new_payload: PackedNode


_OPS_BY_TAG = {}  # filled at module bottom; tag name -> decoder


class EditScript:
    """An ordered operation list plus version metadata.

    ``from_ts``/``to_ts`` are the commit timestamps of the two versions the
    script connects (``None`` on scripts produced by the standalone ``Diff``
    operator, where versions are not involved).
    """

    def __init__(self, ops=(), from_ts=None, to_ts=None):
        self.ops = list(ops)
        self.from_ts = from_ts
        self.to_ts = to_ts

    @property
    def is_empty(self):
        return not self.ops

    def __len__(self):
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    def invert(self):
        """The backward script: reversed order, each operation inverted."""
        return EditScript(
            [op.invert() for op in reversed(self.ops)],
            from_ts=self.to_ts,
            to_ts=self.from_ts,
        )

    @cached_property
    def touched(self):
        """The script's touch summary: ``{xid: positions}`` over every XID
        whose subtree content some operation changes, with the positions in
        :attr:`ops` of the operations that name it.

        An operation names the node it edits — the target of a stamp, text
        or attribute update, the parent an insert or delete happens under,
        both parents of a move — and every XID its payloads introduce or
        remove.  A subtree none of whose XIDs is a key (and, for an element
        that does not exist yet, whose own XID is not) is the same before
        and after the script, in either direction; :meth:`invert` touches
        the same XIDs.  A moved node's own XID is left out on purpose: its
        content travels with it, only the two parents' child lists change.
        Computed from :attr:`ops` on first use and cached, never stored or
        serialized; ``ops`` must not be edited afterwards.
        """
        touched = {}
        for position, op in enumerate(self.ops):
            for xid in _named_xids(op):
                positions = touched.setdefault(xid, [])
                if not positions or positions[-1] != position:
                    positions.append(position)
        return {xid: tuple(positions) for xid, positions in touched.items()}

    def size_bytes(self):
        """Approximate stored size of the *completed delta*.

        Real systems (Xyleme's deltas, RCS-style scripts) store deltas in a
        compact binary form — here :func:`repro.storage.binfmt.write_script`,
        which is what the commit journal and the CAS backend put on disk —
        so the space model charges a small fixed header per operation plus
        the actual content bytes (payload text, old/new values); the
        verbose XML closure form from :meth:`to_xml` is a query *result*
        representation, not the storage format — use
        :meth:`xml_size_bytes` for that.
        """
        total = 16  # delta envelope: version numbers + timestamps
        for op in self.ops:
            if isinstance(op, (InsertOp, DeleteOp)):
                total += 12 + _payload_bytes(op.payload)
            elif isinstance(op, MoveOp):
                total += 24
            elif isinstance(op, UpdateTextOp):
                total += 12 + len(op.old) + len(op.new)
            elif isinstance(op, UpdateAttrOp):
                total += 12 + len(op.name)
                total += len(op.old or "") + len(op.new or "")
            elif isinstance(op, StampOp):
                total += 12
            elif isinstance(op, ReplaceRootOp):
                total += 12 + _payload_bytes(op.old_payload)
                total += _payload_bytes(op.new_payload)
        return total

    def xml_size_bytes(self):
        """Length of the XML serialization (the query-closure form)."""
        return len(serialize(self.to_xml()))

    # -- XML round trip ----------------------------------------------------

    def to_xml(self):
        """Encode the script as a ``<delta>`` element — the query-closure
        form a ``Diff`` returns and the XML archive embeds.  The commit
        journal does not write it; :meth:`from_xml` reads it back from
        archives and from format v1 journal files.

        Payload subtrees are encoded structurally: ``<e x="XID" t="TS"
        tag="...">`` for elements (attributes as ``<a n="..">value</a>``
        children, so payload attributes can never clash with the envelope's
        own), ``<t x="XID" t="TS">value</t>`` for text nodes.
        """
        root = Element("delta")
        if self.from_ts is not None:
            root.set("from", self.from_ts)
        if self.to_ts is not None:
            root.set("to", self.to_ts)
        for op in self.ops:
            root.append(_op_to_xml(op))
        return root

    @classmethod
    def from_xml(cls, tree):
        """Decode a ``<delta>`` element produced by :meth:`to_xml`."""
        if not isinstance(tree, Element) or tree.tag != "delta":
            raise DeltaApplicationError("not a <delta> element")
        from_ts = tree.get("from")
        to_ts = tree.get("to")
        ops = []
        for child in tree.child_elements():
            decoder = _OPS_BY_TAG.get(child.tag)
            if decoder is None:
                raise DeltaApplicationError(
                    f"unknown edit operation <{child.tag}>"
                )
            ops.append(decoder(child))
        return cls(
            ops,
            from_ts=int(from_ts) if from_ts is not None else None,
            to_ts=int(to_ts) if to_ts is not None else None,
        )

    def payloads(self):
        """The packed payload subtrees of the operations, in order."""
        for op in self.ops:
            if isinstance(op, (InsertOp, DeleteOp)):
                yield op.payload
            elif isinstance(op, ReplaceRootOp):
                yield op.old_payload
                yield op.new_payload

    def summary(self):
        """Operation counts by kind, for reporting."""
        counts = {}
        for op in self.ops:
            name = type(op).__name__
            counts[name] = counts.get(name, 0) + 1
        return counts

    def __repr__(self):
        return f"EditScript({len(self.ops)} ops)"


def _named_xids(op):
    """The XIDs an operation names (see :attr:`EditScript.touched`)."""
    if isinstance(op, (InsertOp, DeleteOp)):
        yield op.parent_xid
        payloads = (op.payload,)
    elif isinstance(op, ReplaceRootOp):
        payloads = (op.old_payload, op.new_payload)
    elif isinstance(op, MoveOp):
        yield op.from_parent
        yield op.to_parent
        return
    else:
        yield op.xid
        return
    for payload in payloads:
        yield from payload.xids()


def payload_nodes(node):
    """Every node of a subtree, pre-order (a :class:`Text` is its own only
    node; a packed payload is decoded first)."""
    if isinstance(node, PackedNode):
        node = node.tree()
    return node.iter() if isinstance(node, Element) else iter((node,))


def _payload_bytes(payload):
    """Compact stored size of a payload subtree: serialized content plus
    8 bytes of identifier/timestamp per node."""
    length, nodes = payload.measure()
    return length + 8 * nodes


# -- payload encoding --------------------------------------------------------


def encode_payload(node):
    """Structural encoding of a stamped subtree (see :meth:`EditScript.to_xml`)."""
    if isinstance(node, Text):
        out = Element("t")
        _stamp_attrs(out, node)
        if node.value:
            out.append(Text(node.value))
        return out
    out = Element("e", {"tag": node.tag})
    _stamp_attrs(out, node)
    for name in node.attrib:
        attr = Element("a", {"n": name})
        if node.attrib[name]:
            attr.append(Text(node.attrib[name]))
        out.append(attr)
    for child in node.children:
        out.append(encode_payload(child))
    return out


def decode_payload(encoded):
    """Inverse of :func:`encode_payload`."""
    if encoded.tag == "t":
        node = Text(encoded.text_content())
        _unstamp_attrs(node, encoded)
        return node
    if encoded.tag != "e":
        raise DeltaApplicationError(f"bad payload element <{encoded.tag}>")
    node = Element(encoded.get("tag"))
    _unstamp_attrs(node, encoded)
    for child in encoded.child_elements():
        if child.tag == "a":
            node.attrib[child.get("n")] = child.text_content()
        else:
            node.append(decode_payload(child))
    return node


def _stamp_attrs(out, node):
    if node.xid is not None:
        out.set("x", node.xid)
    if node.tstamp is not None:
        out.set("ts", node.tstamp)


def _unstamp_attrs(node, encoded):
    xid = encoded.get("x")
    tstamp = encoded.get("ts")
    node.xid = int(xid) if xid is not None else None
    node.tstamp = int(tstamp) if tstamp is not None else None


# -- per-op XML encoding ------------------------------------------------------


def _op_to_xml(op):
    if isinstance(op, InsertOp):
        el = Element("insert", {"parent": op.parent_xid, "pos": op.pos})
        el.append(encode_payload(op.payload.tree()))
        return el
    if isinstance(op, DeleteOp):
        el = Element("delete", {"parent": op.parent_xid, "pos": op.pos})
        el.append(encode_payload(op.payload.tree()))
        return el
    if isinstance(op, MoveOp):
        return Element(
            "move",
            {
                "xid": op.xid,
                "fromparent": op.from_parent,
                "frompos": op.from_pos,
                "toparent": op.to_parent,
                "topos": op.to_pos,
            },
        )
    if isinstance(op, UpdateTextOp):
        el = Element("update", {"xid": op.xid})
        old = Element("old")
        old.text = op.old
        new = Element("new")
        new.text = op.new
        el.append(old)
        el.append(new)
        return el
    if isinstance(op, UpdateAttrOp):
        el = Element("attr", {"xid": op.xid, "name": op.name})
        if op.old is not None:
            old = Element("old")
            old.text = op.old
            el.append(old)
        if op.new is not None:
            new = Element("new")
            new.text = op.new
            el.append(new)
        return el
    if isinstance(op, StampOp):
        return Element(
            "stamp", {"xid": op.xid, "old": op.old_ts, "new": op.new_ts}
        )
    if isinstance(op, ReplaceRootOp):
        el = Element("replaceroot")
        old = Element("old")
        old.append(encode_payload(op.old_payload.tree()))
        new = Element("new")
        new.append(encode_payload(op.new_payload.tree()))
        el.append(old)
        el.append(new)
        return el
    raise DeltaApplicationError(f"cannot encode {type(op).__name__}")


def _decode_insert(el):
    return InsertOp(
        int(el.get("parent")),
        int(el.get("pos")),
        decode_payload(el.child_elements()[0]),
    )


def _decode_delete(el):
    return DeleteOp(
        int(el.get("parent")),
        int(el.get("pos")),
        decode_payload(el.child_elements()[0]),
    )


def _decode_move(el):
    return MoveOp(
        int(el.get("xid")),
        int(el.get("fromparent")),
        int(el.get("frompos")),
        int(el.get("toparent")),
        int(el.get("topos")),
    )


def _decode_update(el):
    old = el.find("old")
    new = el.find("new")
    return UpdateTextOp(int(el.get("xid")), old.text, new.text)


def _decode_attr(el):
    old = el.find("old")
    new = el.find("new")
    return UpdateAttrOp(
        int(el.get("xid")),
        el.get("name"),
        old.text if old is not None else None,
        new.text if new is not None else None,
    )


def _decode_stamp(el):
    return StampOp(int(el.get("xid")), int(el.get("old")), int(el.get("new")))


def _decode_replaceroot(el):
    old = el.find("old").child_elements()[0]
    new = el.find("new").child_elements()[0]
    return ReplaceRootOp(decode_payload(old), decode_payload(new))


_OPS_BY_TAG.update(
    {
        "insert": _decode_insert,
        "delete": _decode_delete,
        "move": _decode_move,
        "update": _decode_update,
        "attr": _decode_attr,
        "stamp": _decode_stamp,
        "replaceroot": _decode_replaceroot,
    }
)
