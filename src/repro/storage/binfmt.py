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

An edit script has two forms: the completed delta (:func:`write_script`),
which the CAS stores, and its redo half (:func:`write_redo`), which the
commit journal writes and replay completes from the version it applies to.

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
    InsertOp,
    MoveOp,
    RedoDelete,
    RedoReplaceRoot,
    RedoStamp,
    ReplaceRootOp,
    StampOp,
    UpdateAttrOp,
    UpdateTextOp,
)
from ..errors import CorruptArchiveError
from ..xmlcore.codec import Reader, Writer, read_node, write_node

#: Edit-operation kind bytes.
_OP_INSERT, _OP_DELETE, _OP_MOVE = 0x01, 0x02, 0x03
_OP_UPDTEXT, _OP_UPDATTR, _OP_STAMP, _OP_REPLACEROOT = 0x04, 0x05, 0x06, 0x07
_OP_STAMPS = 0x08


# -- trees ---------------------------------------------------------------------


def encode_tree(root):
    """One stamped tree as standalone bytes."""
    w = Writer()
    write_node(w, root)
    return w.getvalue()


def decode_tree(data):
    return read_node(Reader(data))


# -- edit scripts --------------------------------------------------------------


def write_script(w, script):
    """Encode an :class:`EditScript` (ops + version timestamps).

    Operations are written one record each, except that consecutive
    ``StampOp``s ascending in XID — what a commit emits for the ancestors
    of its changes — share one ``_OP_STAMPS`` record: per distinct
    ``(old_ts, new_ts)`` the pair once, then its XIDs as the distance of
    each from the one before (the first from -1, so no distance is 0).
    """
    _write_ops(w, script, redo=False)


def write_redo(w, script):
    """Encode the redo form of a completed :class:`EditScript`: what the
    commit journal keeps, and all that applying it forward reads.

    The layout is :func:`write_script`'s except for three records: a
    delete carries its victim's XID instead of the subtree, a root
    replacement the old root's XID instead of its payload, and a stamp —
    alone or in a run, grouped by ``new_ts`` — no old timestamp.
    :func:`read_redo` reads it back as ``Redo*`` operations, which
    :func:`~repro.diff.apply.apply_script` completes from the tree the
    script applies to.
    """
    _write_ops(w, script, redo=True)


def _write_ops(w, script, redo):
    w.opt_u(script.from_ts)
    w.opt_u(script.to_ts)
    ops = script.ops
    w.u(len(ops))
    at = 0
    while at < len(ops):
        end = _stamp_run_end(ops, at)
        if end - at > 1:
            _write_stamp_run(w, ops[at:end], redo)
            at = end
        else:
            _write_op(w, ops[at], redo)
            at += 1


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


def _write_stamp_run(w, stamps, redo):
    groups = {}
    for op in stamps:
        key = (op.new_ts,) if redo else (op.old_ts, op.new_ts)
        groups.setdefault(key, []).append(op.xid)
    w.byte(_OP_STAMPS)
    w.u(len(groups))
    for key, xids in groups.items():
        for ts in key:
            w.u(ts)
        w.u(len(xids))
        last = -1
        for xid in xids:
            w.u(xid - last)
            last = xid


def _write_op(w, op, redo=False):
    if isinstance(op, InsertOp):
        w.byte(_OP_INSERT)
        w.u(op.parent_xid)
        w.u(op.pos)
        w.raw(op.payload)
    elif isinstance(op, DeleteOp):
        w.byte(_OP_DELETE)
        w.u(op.parent_xid)
        w.u(op.pos)
        if redo:
            w.u(op.payload.xid)
        else:
            w.raw(op.payload)
    elif isinstance(op, MoveOp):
        w.byte(_OP_MOVE)
        w.u(op.xid)
        w.u(op.from_parent)
        w.u(op.from_pos)
        w.u(op.to_parent)
        w.u(op.to_pos)
    elif isinstance(op, UpdateTextOp):
        w.byte(_OP_UPDTEXT)
        w.u(op.xid)
        w.s(op.old)
        w.s(op.new)
    elif isinstance(op, UpdateAttrOp):
        w.byte(_OP_UPDATTR)
        w.u(op.xid)
        w.s(op.name)
        w.opt_s(op.old)
        w.opt_s(op.new)
    elif isinstance(op, StampOp):  # one outside any ascending run
        w.byte(_OP_STAMP)
        w.u(op.xid)
        if not redo:
            w.u(op.old_ts)
        w.u(op.new_ts)
    elif isinstance(op, ReplaceRootOp):
        w.byte(_OP_REPLACEROOT)
        if redo:
            w.u(op.old_payload.xid)
        else:
            w.raw(op.old_payload)
        w.raw(op.new_payload)
    else:
        raise CorruptArchiveError(
            f"cannot encode edit op {type(op).__name__}"
        )


def read_script(r):
    return _read_ops(r, redo=False)


def read_redo(r):
    """Decode :func:`write_redo`'s bytes into an :class:`EditScript` whose
    deletes, stamps and root replacement are ``Redo*`` operations."""
    return _read_ops(r, redo=True)


def _read_ops(r, redo):
    from_ts = r.opt_u()
    to_ts = r.opt_u()
    count = r.u()
    ops = []
    while len(ops) < count:
        kind = r.byte()
        if kind == _OP_INSERT:
            ops.append(InsertOp(r.u(), r.u(), r.packed_node()))
        elif kind == _OP_DELETE:
            ops.append(
                RedoDelete(r.u(), r.u(), r.u()) if redo
                else DeleteOp(r.u(), r.u(), r.packed_node())
            )
        elif kind == _OP_MOVE:
            ops.append(MoveOp(r.u(), r.u(), r.u(), r.u(), r.u()))
        elif kind == _OP_UPDTEXT:
            ops.append(UpdateTextOp(r.u(), r.s(), r.s()))
        elif kind == _OP_UPDATTR:
            ops.append(UpdateAttrOp(r.u(), r.s(), r.opt_s(), r.opt_s()))
        elif kind == _OP_STAMPS:
            ops.extend(_read_stamp_run(r, count - len(ops), redo))
        elif kind == _OP_STAMP:  # written before _OP_STAMPS for every stamp
            ops.append(
                RedoStamp(r.u(), r.u()) if redo
                else StampOp(r.u(), r.u(), r.u())
            )
        elif kind == _OP_REPLACEROOT:
            ops.append(
                RedoReplaceRoot(r.u(), r.packed_node()) if redo
                else ReplaceRootOp(r.packed_node(), r.packed_node())
            )
        else:
            raise CorruptArchiveError(
                f"unknown edit-op kind byte 0x{kind:02x}"
            )
    return EditScript(ops, from_ts=from_ts, to_ts=to_ts)


def _read_stamp_run(r, room, redo):
    """Expand one ``_OP_STAMPS`` record to its stamps (``RedoStamp``s in
    the redo form, ``StampOp``s otherwise), ascending in XID as they were
    written; ``room`` is how many operations the script's declared count
    still admits."""
    stamp = RedoStamp if redo else StampOp
    stamps = []
    groups = r.u()
    if groups == 0:
        raise CorruptArchiveError("stamp run without a group")
    for _ in range(groups):
        key = (r.u(),) if redo else (r.u(), r.u())
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


def encode_script(script):
    """One edit script as standalone bytes."""
    w = Writer()
    write_script(w, script)
    return w.getvalue()


def decode_script(data):
    return read_script(Reader(data))


def encode_redo(script):
    """The redo form of one completed edit script as standalone bytes."""
    w = Writer()
    write_redo(w, script)
    return w.getvalue()


def decode_redo(data):
    return read_redo(Reader(data))


# -- per-document byte streams -------------------------------------------------
#
# A checkpointed document becomes three streams — the current tree, the
# delta chain, the snapshot materializations — so the CAS layer can store
# each and attribute stored bytes per kind.  The current tree is one
# encoded tree.  The delta and snapshot streams are *segments* laid end to
# end, each ``count, (number, item)*``: a checkpoint appends one segment
# holding what the stream lacks, the way a commit appends one delta, and
# never rewrites what an earlier checkpoint stored.  A stream written
# whole is the one-segment case; an empty stream holds nothing.


def encode_delta_segment(record, numbers, tail=None):
    """One segment of ``record``'s deltas ``numbers`` (see
    :func:`_segment` for ``tail``)."""
    return _segment(record.deltas, numbers, write_script, tail)


def encode_snapshot_segment(record, numbers, tail=None):
    """One segment of ``record``'s snapshot trees ``numbers``."""
    return _segment(record.snapshots, numbers, write_node, tail)


def _segment(items, numbers, write_item, tail):
    """``count, (number, item)*`` over ``numbers``.  ``tail``, when given,
    is a whole segment already stored; its entries are folded in front
    of the new ones as they are, without decoding them."""
    count = len(numbers)
    w = Writer()
    if tail:
        r = Reader(tail)
        count += r.u()
        w.u(count)
        w.raw(tail[r.offset:])
    else:
        w.u(count)
    for number in numbers:
        w.u(number)
        write_item(w, items[number])
    return w.getvalue()


def decode_delta_stream(data, starts=None):
    """``{number: EditScript}`` from a delta stream; ``starts``, when a
    list, receives the offset each segment starts at."""
    return _read_segments(data, read_script, starts)


def decode_snapshot_stream(data, starts=None):
    """``{number: tree}`` from a snapshot stream (see
    :func:`decode_delta_stream`)."""
    return _read_segments(data, read_node, starts)


def _read_segments(data, read_item, starts):
    r = Reader(data)
    items = {}
    while not r.exhausted:
        if starts is not None:
            starts.append(r.offset)
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
