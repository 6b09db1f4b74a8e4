"""Length-prefixed binary encoding of trees, edit scripts, and documents.

The XML archive pays twice on every cold open: once to tokenize a large
pretty-printed text file and once to decode the structural payload
encoding back into stamped trees.  This module is the storage-side
replacement — a compact varint-based binary form the CAS backend appends
in segments and decodes directly into
:class:`~repro.xmlcore.node.Element` trees without ever building
intermediate XML.

Everything is written through :class:`Writer` / read through
:class:`Reader`:

* unsigned varints for all integers (version numbers, XIDs, timestamps),
  with a ``0 = absent / n+1`` convention for optional values;
* UTF-8 strings and byte blobs prefixed by their varint length;
* one kind byte per polymorphic record (node kind, edit-op kind).

An edit script is written in its redo half (:func:`write_redo`): the
commit journal and the CAS keep it, and replay or a checkpoint load
completes it from the version it applies to.

The node encoding, :class:`Writer` and :class:`Reader` live in
:mod:`~repro.xmlcore.codec`, because stored edit scripts hold their payload
subtrees in that encoding (:class:`~repro.xmlcore.codec.PackedNode`): a
script is written with its payloads' bytes as they are and read back
without decoding them.

Decoding errors raise :class:`~repro.errors.CorruptArchiveError` — a
truncated or bit-flipped object can never escape as an ``IndexError``,
a ``UnicodeDecodeError`` (invalid UTF-8 in a string) or a
``RecursionError`` (a tree nested deeper than the interpreter allows).

The encoding is exact: trees round-trip with XIDs, element timestamps,
attribute order, and interleaved text preserved, so a store written
through this format reproduces the byte-identical XML archive of the
store it came from (asserted by the storage benchmark).
"""

from __future__ import annotations

import zlib
from operator import attrgetter

from ..diff.editscript import (
    DeleteOp,
    EditScript,
    ImpliedStamps,
    InsertOp,
    MoveOp,
    RedoDelete,
    RedoMove,
    RedoReplaceRoot,
    RedoStamp,
    RedoUpdateAttr,
    RedoUpdateText,
    ReplaceRootOp,
    StampOp,
    UpdateAttrOp,
    UpdateTextOp,
)
from ..errors import CorruptArchiveError
from ..xmlcore.codec import (
    Reader,
    Writer,
    read_node,
    write_implied_root,
    write_node,
)

#: Edit-operation kind bytes.
_OP_INSERT, _OP_DELETE, _OP_MOVE = 0x01, 0x02, 0x03
_OP_UPDTEXT, _OP_UPDATTR, _OP_STAMP, _OP_REPLACEROOT = 0x04, 0x05, 0x06, 0x07
_OP_STAMPS = 0x08
_OP_REDO_UPDTEXT, _OP_REDO_UPDATTR, _OP_IMPLIED_STAMPS = 0x09, 0x0A, 0x0B
_OP_FRESH_INSERT, _OP_REDO_DELETE, _OP_REDO_MOVE = 0x0C, 0x0D, 0x0E


# -- trees ---------------------------------------------------------------------


def encode_tree(root):
    """One stamped tree as standalone bytes."""
    w = Writer()
    write_node(w, root)
    return w.getvalue()


def decode_tree(data):
    return read_node(Reader(data))


# -- edit scripts --------------------------------------------------------------


def write_redo(w, script):
    """Encode the redo form of a completed :class:`EditScript`: what the
    commit journal and the CAS keep, and all that applying it forward
    reads.

    Operations are written one record each, and every record drops what
    the version the script applies to holds: a node that exists there is
    named by its XID alone.  A delete (``_OP_REDO_DELETE``) carries its
    victim's XID, neither the subtree nor its parent and position; a move
    (``_OP_REDO_MOVE``) the node's XID and where it goes, not where it
    leaves; a root replacement the old root's XID instead of its payload;
    a stamp no old timestamp; and a text or attribute update
    (``_OP_REDO_UPDTEXT``, ``_OP_REDO_UPDATTR``) only its new value.

    In a commit script (:attr:`~repro.diff.editscript.EditScript.stamps_implied`
    and a ``to_ts``) a fresh node costs no stamp bytes either: an insert
    whose root is stamped ``to_ts`` (``_OP_FRESH_INSERT``) writes its
    parent, its position and its subtree with the root's stamps implied
    (:func:`~repro.xmlcore.codec.write_implied_root`).  The root's XID is
    coded against a count the script keeps: the first such insert writes
    it whole, each later one as the zigzag varint of its distance from
    the end of the previous one's subtree (its last XID in document order
    plus one), which is 0 when the allocator handed the subtrees out in
    the order they are inserted.  Any other insert is written with its
    subtree as it is (``_OP_INSERT``).

    A script whose stamps the Section 4 rule implies
    (:attr:`~repro.diff.editscript.EditScript.stamps_implied`, each of
    them to ``to_ts``) ends in one ``_OP_IMPLIED_STAMPS`` byte instead of
    its stamps; it counts as one operation.  Otherwise consecutive
    ``StampOp``s ascending in XID share one ``_OP_STAMPS`` record: per
    distinct new timestamp the timestamp once, then its XIDs as the
    distance of each from the one before (the first from -1, so no
    distance is 0).  :func:`read_redo` reads it back as ``Redo*``
    operations, which :func:`~repro.diff.apply.apply_script` completes
    from the tree the script applies to.
    """
    w.opt_u(script.from_ts)
    w.opt_u(script.to_ts)
    ops = script.ops
    implied = _implied_from(script)
    if implied is not None:
        ops = ops[:implied]
    w.u(len(ops) + (implied is not None))
    fresh = _FreshXids(script.to_ts) if (
        script.stamps_implied and script.to_ts is not None
    ) else None
    at = 0
    while at < len(ops):
        end = _stamp_run_end(ops, at)
        if end - at > 1:
            _write_stamp_run(w, ops[at:end])
            at = end
        else:
            _write_op(w, ops[at], fresh)
            at += 1
    if implied is not None:
        w.byte(_OP_IMPLIED_STAMPS)


def _implied_from(script):
    """Where the stamps the Section 4 rule implies begin in ``script.ops``,
    or ``None`` when the script's stamps are to be written: it does not
    say they are implied, or one of them is not to ``to_ts``."""
    if not script.stamps_implied or script.to_ts is None:
        return None
    ops = script.ops
    start = len(ops)
    while start and isinstance(ops[start - 1], StampOp):
        start -= 1
        if ops[start].new_ts != script.to_ts:
            return None
    return start


def _stamp_run_end(ops, start):
    """End of the run of ``StampOp``s strictly ascending in XID that
    begins at ``ops[start]`` (``start`` itself when that is no stamp)."""
    end = start
    last = -1
    while (
        end < len(ops)
        and isinstance(ops[end], StampOp)
        and ops[end].xid > last
    ):
        last = ops[end].xid
        end += 1
    return end


def _write_stamp_run(w, stamps):
    groups = {}
    for op in stamps:
        groups.setdefault(op.new_ts, []).append(op.xid)
    w.byte(_OP_STAMPS)
    w.u(len(groups))
    for new_ts, xids in groups.items():
        w.u(new_ts)
        w.u(len(xids))
        last = -1
        for xid in xids:
            w.u(xid - last)
            last = xid


class _FreshXids:
    """The count a commit script's fresh inserts code their root XIDs
    against: ``end`` is where the previous one's subtree ended (``None``
    before the first), and ``ts`` is the commit time every fresh root
    carries.  ``limit``, when given, is the next XID the document's
    allocator had after the commit, which no fresh node reaches."""

    __slots__ = ("ts", "end", "limit")

    def __init__(self, ts, limit=None):
        self.ts = ts
        self.end = None
        self.limit = limit

    def write(self, w, payload):
        xid = payload.xid
        if self.end is None:
            w.u(xid)
        else:
            w.z(xid - self.end)
        write_implied_root(w, payload)
        self.end = payload.last_xid() + 1

    def read(self, r):
        xid = r.u() if self.end is None else self.end + r.z()
        if xid < 0:
            raise CorruptArchiveError(
                f"inserted XID {xid} below zero at offset {r.offset}"
            )
        payload, xids = r.implied_root_node(xid, self.ts)
        if None in xids:
            raise CorruptArchiveError("an inserted node has no XID")
        if self.limit is not None and max(xids) >= self.limit:
            raise CorruptArchiveError(
                f"inserted XID {max(xids)} reaches the document's next XID "
                f"{self.limit}"
            )
        self.end = xids[-1] + 1
        return payload


def _write_op(w, op, fresh=None):
    if isinstance(op, InsertOp):
        payload = op.payload
        if (
            fresh is not None
            and payload.xid is not None
            and payload.tstamp == fresh.ts
        ):
            w.byte(_OP_FRESH_INSERT)
            w.u(op.parent_xid)
            w.u(op.pos)
            fresh.write(w, payload)
        else:
            w.byte(_OP_INSERT)
            w.u(op.parent_xid)
            w.u(op.pos)
            w.raw(payload)
    elif isinstance(op, DeleteOp):
        w.byte(_OP_REDO_DELETE)
        w.u(op.payload.xid)
    elif isinstance(op, MoveOp):
        w.byte(_OP_REDO_MOVE)
        w.u(op.xid)
        w.u(op.to_parent)
        w.u(op.to_pos)
    elif isinstance(op, UpdateTextOp):
        w.byte(_OP_REDO_UPDTEXT)
        w.u(op.xid)
        w.s(op.new)
    elif isinstance(op, UpdateAttrOp):
        w.byte(_OP_REDO_UPDATTR)
        w.u(op.xid)
        w.s(op.name)
        w.opt_s(op.new)
    elif isinstance(op, StampOp):  # one outside any ascending run
        w.byte(_OP_STAMP)
        w.u(op.xid)
        w.u(op.new_ts)
    elif isinstance(op, ReplaceRootOp):
        w.byte(_OP_REPLACEROOT)
        w.u(op.old_payload.xid)
        w.raw(op.new_payload)
    else:
        raise CorruptArchiveError(
            f"cannot encode edit op {type(op).__name__}"
        )


def read_redo(r, limit=None):
    """Decode :func:`write_redo`'s bytes into an :class:`EditScript` whose
    deletes, moves, updates, stamps and root replacement are ``Redo*``
    operations, ending in :class:`ImpliedStamps` when the stamps are
    implied; an insert's subtree comes back as the very
    :class:`~repro.xmlcore.codec.PackedNode` the script held, its root's
    stamps restored from the count and ``to_ts``.  ``limit``, the
    document's next XID after the commit when the caller knows it, is
    what no XID such an insert restores may reach.

    Bytes written before the XID-only deletes and moves, the redo updates
    and the marker existed hold deletes that name their victim's parent
    and position (read into a ``RedoDelete`` that checks them), complete
    moves, ``_OP_UPDTEXT``/``_OP_UPDATTR`` records and explicit stamps,
    and read as they are."""
    from_ts = r.opt_u()
    to_ts = r.opt_u()
    count = r.u()
    ops = []
    fresh = _FreshXids(to_ts, limit)
    while len(ops) < count:
        kind = r.byte()
        if kind == _OP_INSERT:
            ops.append(InsertOp(r.u(), r.u(), r.packed_node()))
        elif kind == _OP_DELETE:
            parent_xid, pos = r.u(), r.u()
            ops.append(RedoDelete(r.u(), parent_xid, pos))
        elif kind == _OP_MOVE:
            ops.append(MoveOp(r.u(), r.u(), r.u(), r.u(), r.u()))
        elif kind == _OP_UPDTEXT:
            ops.append(UpdateTextOp(r.u(), r.s(), r.s()))
        elif kind == _OP_UPDATTR:
            ops.append(UpdateAttrOp(r.u(), r.s(), r.opt_s(), r.opt_s()))
        elif kind == _OP_STAMPS:
            ops.extend(_read_stamp_run(r, count - len(ops)))
        elif kind == _OP_STAMP:  # written before _OP_STAMPS for every stamp
            ops.append(RedoStamp(r.u(), r.u()))
        elif kind == _OP_REPLACEROOT:
            ops.append(RedoReplaceRoot(r.u(), r.packed_node()))
        elif kind == _OP_REDO_UPDTEXT:
            ops.append(RedoUpdateText(r.u(), r.s()))
        elif kind == _OP_REDO_UPDATTR:
            ops.append(RedoUpdateAttr(r.u(), r.s(), r.opt_s()))
        elif kind == _OP_REDO_DELETE:
            ops.append(RedoDelete(r.u()))
        elif kind == _OP_REDO_MOVE:
            ops.append(RedoMove(r.u(), r.u(), r.u()))
        elif kind == _OP_FRESH_INSERT:
            if to_ts is None:
                raise CorruptArchiveError(
                    "an insert with implied root stamps in a script "
                    "without a commit time"
                )
            parent_xid, pos = r.u(), r.u()
            ops.append(InsertOp(parent_xid, pos, fresh.read(r)))
        elif kind == _OP_IMPLIED_STAMPS:
            if len(ops) != count - 1:
                raise CorruptArchiveError(
                    "implied stamps are not the script's last operation"
                )
            if to_ts is None:
                raise CorruptArchiveError(
                    "implied stamps in a script without a commit time"
                )
            ops.append(ImpliedStamps())
        else:
            raise CorruptArchiveError(
                f"unknown edit-op kind byte 0x{kind:02x}"
            )
    return EditScript(ops, from_ts=from_ts, to_ts=to_ts)


def _read_stamp_run(r, room, stamp=RedoStamp, timestamps=1):
    """Expand one ``_OP_STAMPS`` record to its stamps, ascending in XID as
    they were written: ``stamp(xid, *timestamps read per group)``;
    ``room`` is how many operations the script's declared count still
    admits."""
    stamps = []
    groups = r.u()
    if groups == 0:
        raise CorruptArchiveError("stamp run without a group")
    for _ in range(groups):
        key = [r.u() for _ in range(timestamps)]
        size = r.u()
        if not 0 < size <= room - len(stamps):
            raise CorruptArchiveError(
                f"stamp run of {len(stamps)} + {size} operation(s) where "
                f"the script declares {room} more"
            )
        xid = -1
        for _ in range(size):
            gap = r.u()
            if gap == 0:
                raise CorruptArchiveError("stamp run repeats an XID")
            xid += gap
            stamps.append(stamp(xid, *key))
    stamps.sort(key=attrgetter("xid"))
    for earlier, later in zip(stamps, stamps[1:]):
        if earlier.xid == later.xid:
            raise CorruptArchiveError(
                f"stamp run names XID {later.xid} in two groups"
            )
    return stamps


def encode_redo(script):
    """The redo form of one completed edit script as standalone bytes."""
    w = Writer()
    write_redo(w, script)
    return w.getvalue()


def decode_redo(data, limit=None):
    return read_redo(Reader(data), limit)


# -- per-document byte streams -------------------------------------------------
#
# A checkpointed document's deltas are one stream of *segments* laid end to
# end, each ``count, (number, redo script)*``: a checkpoint appends one
# segment holding the deltas the stream lacks, the way a commit appends one
# delta, and never rewrites what an earlier checkpoint stored (the CAS
# lays each segment into a pack; one range names it).  An empty stream
# holds nothing.


def encode_redo_segment(record, numbers):
    """One segment of ``record``'s deltas ``numbers`` in redo form."""
    w = Writer()
    w.u(len(numbers))
    for number in numbers:
        w.u(number)
        write_redo(w, record.deltas[number])
    return w.getvalue()


def decode_redo_stream(data, limit=None):
    """``{number: EditScript}`` (redo form) from a redo stream of a
    document whose next XID is ``limit`` (see :func:`read_redo`)."""
    return _read_segments(data, lambda r: read_redo(r, limit))


def _read_segments(data, read_item):
    r = Reader(data)
    items = {}
    while not r.exhausted:
        for _ in range(r.u()):
            number = r.u()
            if number in items:
                raise CorruptArchiveError(
                    f"stream holds version {number} twice"
                )
            items[number] = read_item(r)
    return items


# -- compression ---------------------------------------------------------------
#
# One rule for everything the storage layer deflates (CAS objects, journal
# frames), so "is this stored compressed" has one answer.

#: Payloads shorter than this are stored as they are.
DEFLATE_THRESHOLD = 128

#: No deflate stream expands further: 258 bytes per 2-bit code (RFC 1951).
_MAX_DEFLATE_RATIO = 1032


def deflate(data, threshold=DEFLATE_THRESHOLD):
    """zlib-compress ``data`` (level 6) when it is at least ``threshold``
    bytes long *and* the result is smaller; returns the deflated bytes, or
    ``None`` when ``data`` should be stored as it is."""
    if len(data) >= threshold:
        deflated = zlib.compress(data, 6)
        if len(deflated) < len(data):
            return deflated
    return None


def inflate(data, raw_length):
    """Inflate a :func:`deflate` stream that must yield exactly
    ``raw_length`` bytes.

    The output is capped at the declared length, so a hostile stream
    cannot make the reader allocate more than its header admitted to."""
    # 0 would mean "unlimited" to zlib; beyond deflate's best ratio is a lie
    # told to make the reader allocate (or overflow a C ssize_t).
    if not 0 < raw_length <= len(data) * _MAX_DEFLATE_RATIO:
        raise CorruptArchiveError(
            f"deflated record of {len(data)} byte(s) declares an impossible "
            f"raw length of {raw_length}"
        )
    stream = zlib.decompressobj()
    try:
        raw = stream.decompress(data, raw_length)
        if not stream.eof and len(raw) == raw_length:
            # Full, with input left: one probe byte past the cap tells
            # "only the end-of-stream marker was unread" from "goes on".
            raw += stream.decompress(stream.unconsumed_tail, 1)
    except zlib.error as exc:
        raise CorruptArchiveError(
            f"deflated record failed to inflate ({exc})"
        ) from None
    if len(raw) != raw_length or not stream.eof or stream.unused_data:
        raise CorruptArchiveError(
            f"deflated record does not inflate to exactly its declared "
            f"{raw_length} byte(s)"
        )
    return raw
