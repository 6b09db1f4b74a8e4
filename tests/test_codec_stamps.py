"""The node encoding's three ways of writing a node's XID and timestamp.

A subtree's root is written with absolute stamps (kinds ``0x01``/``0x02``,
the only kinds older releases wrote).  Below it a node whose XID follows
the node before it in document order and whose timestamp is its parent's
writes neither (``0x05``/``0x06``); any other stamped node writes both as
zigzag varints relative to those bases (``0x03``/``0x04``).  The
references are :func:`tests.references.absolute_bytes` — the encoding with
every stamp absolute — and the serializer.
"""

from __future__ import annotations

import hashlib
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import TemporalXMLDatabase
from repro.diff.editscript import DeleteOp, EditScript, InsertOp
from repro.errors import CorruptArchiveError
from repro.storage.legacy import read_script, upgrade
from repro.storage.persistence import archive_bytes, build_archive
from repro.xmlcore import serialize
from repro.xmlcore.codec import PackedNode, Reader, Writer, read_node
from repro.xmlcore.node import Element, Text

from tests.references import absolute_bytes, write_script

DATA = Path(__file__).parent / "data"

#: What a node's XID is, given the last one drawn: the next one, a gap or
#: a step back, or none.
_XID_STEPS = st.one_of(st.just(1), st.just(1), st.integers(-40, 40), st.none())
_PARENT = object()
#: What a node's timestamp is: its parent's, any (newer than the parent's
#: included), or none.
_TSTAMPS = st.one_of(
    st.just(_PARENT), st.just(_PARENT), st.none(), st.integers(0, 2**40)
)


@st.composite
def stamped_trees(draw, depth=0, last=None, parent_ts=None):
    if last is None:
        last = [draw(st.integers(0, 10**6))]
    step = draw(_XID_STEPS)
    xid = None
    if step is not None:
        xid = last[0] = max(0, last[0] + step)
    tstamp = draw(_TSTAMPS)
    if tstamp is _PARENT:
        tstamp = parent_ts
    if depth < 3 and draw(st.booleans()):
        node = Element(draw(st.sampled_from(["a", "bb", "é"])))
        for name in draw(st.lists(st.sampled_from("xyz"), unique=True,
                                  max_size=2)):
            node.attrib[name] = draw(st.text(max_size=3))
        for _ in range(draw(st.integers(0, 4))):
            node.children.append(
                draw(stamped_trees(depth + 1, last, tstamp))
            )
    elif draw(st.booleans()):
        node = Text(draw(st.text(max_size=4)))
    else:
        node = Element("leaf")
    node.xid, node.tstamp = xid, tstamp
    return node


def _nodes(node):
    return list(node.iter()) if isinstance(node, Element) else [node]


def _all_readers(data):
    """Run every reader over ``data``, each of which must raise."""
    for read in (
        lambda: read_node(Reader(data)),
        lambda: Reader(data).packed_node(),
        lambda: PackedNode(data).xids(),
        lambda: PackedNode(data).measure(),
    ):
        with pytest.raises(CorruptArchiveError):
            read()


def _decoder_only(data):
    """Only the decoder builds timestamps, so only it checks them; the
    scans over XIDs and sizes read past them."""
    with pytest.raises(CorruptArchiveError):
        read_node(Reader(data))
    assert Reader(data).packed_node() == data
    PackedNode(data).xids()
    PackedNode(data).measure()


def _sample():
    """A tree that writes all six kinds."""
    root = Element("r")
    root.xid, root.tstamp = 10, 100
    implied = Element("b")  # XID 11, the parent's timestamp
    implied.xid, implied.tstamp = 11, 100
    older = Text("x")  # XID 12, older than its parent
    older.xid, older.tstamp = 12, 90
    implied.children.append(older)
    gap = Element("c", {"k": "v"})  # a gap, newer than its parent
    gap.xid, gap.tstamp = 20, 150
    unstamped = Text("y")  # no XID
    unstamped.xid, unstamped.tstamp = None, 100
    after = Element("d")  # no XID before it: absolute
    after.xid, after.tstamp = 30, None
    under = Text("z")  # no parent timestamp: absolute
    under.xid, under.tstamp = 31, 7
    after.children.append(under)
    root.children.extend([implied, gap, unstamped, after])
    return root


class TestKinds:
    def test_each_kind_where_its_bases_allow(self):
        w = Writer()
        w.byte(0x01), w.u(11), w.u(101), w.s("r"), w.u(0), w.u(4)
        w.byte(0x05), w.s("b"), w.u(0), w.u(1)
        w.byte(0x04), w.u(0), w.u(20), w.s("x")  # XID +0, timestamp -10
        w.byte(0x03), w.u(14), w.u(99), w.s("c"), w.u(1)  # +7, +50
        w.s("k"), w.s("v"), w.u(0)
        w.byte(0x02), w.u(0), w.u(101), w.s("y")
        w.byte(0x01), w.u(31), w.u(0), w.s("d"), w.u(0), w.u(1)
        w.byte(0x02), w.u(32), w.u(8), w.s("z")
        packed = PackedNode.pack(_sample())
        assert packed == w.getvalue()
        assert absolute_bytes(packed.tree()) == absolute_bytes(_sample())
        assert packed.xid == 10
        assert packed.xids() == [10, 11, 12, 20, None, 30, 31]

    def test_stamps_that_follow_the_tree_cost_nothing(self):
        root = Element("a")
        for i in range(3):
            child = Element("b")
            child.children.append(Text(str(i)))
            root.children.append(child)
        for xid, node in enumerate(root.iter(), start=1000):
            node.xid, node.tstamp = xid, 10**9
        packed = PackedNode.pack(root)
        # The root's stamps (2 + 5 bytes), then none below it.
        assert len(absolute_bytes(root)) - len(packed) == 6 * 7
        below = Writer()
        for i in range(3):
            below.byte(0x05), below.s("b"), below.u(0), below.u(1)
            below.byte(0x06), below.s(str(i))
        assert packed[0] == 0x01
        assert packed[12:] == below.getvalue()

    @pytest.mark.parametrize("value, encoded", [
        (0, 0), (-1, 1), (1, 2), (-2, 3), (63, 126), (-64, 127),
        (2**40, 2**41), (-(2**40), 2**41 - 1),
    ])
    def test_zigzag(self, value, encoded):
        w, reference = Writer(), Writer()
        w.z(value)
        reference.u(encoded)
        assert w.getvalue() == reference.getvalue()


class TestRoundTrip:
    @given(stamped_trees())
    @settings(max_examples=300, deadline=None)
    def test_every_reader_agrees_with_the_references(self, tree):
        packed = PackedNode.pack(tree)
        old = PackedNode(absolute_bytes(tree))
        expected = absolute_bytes(tree)
        for data in (packed, old):
            assert absolute_bytes(data.tree()) == expected
            assert data.xid == tree.xid
            assert data.xids() == [node.xid for node in _nodes(tree)]
            assert data.measure() == (len(serialize(tree)), len(_nodes(tree)))
            assert Reader(data + b"\x07").packed_node() == data

    @given(stamped_trees())
    @settings(max_examples=40, deadline=None)
    def test_a_truncation_anywhere_is_corrupt(self, tree):
        packed = PackedNode.pack(tree)
        for cut in range(len(packed)):
            _all_readers(packed[:cut])

    def test_a_truncation_of_every_kind_is_corrupt(self):
        packed = PackedNode.pack(_sample())
        for cut in range(len(packed)):
            _all_readers(packed[:cut])

    def test_old_and_new_bytes_side_by_side(self):
        """One stream, one script: payloads written absolute by an older
        release beside payloads written now."""
        tree = _sample()
        new, old = PackedNode.pack(tree), PackedNode(absolute_bytes(tree))
        r = Reader(old + new + old)
        assert [r.packed_node() for _ in range(3)] == [old, new, old]
        r = Reader(new + old)
        assert absolute_bytes(read_node(r)) == absolute_bytes(read_node(r))
        assert r.exhausted

        script = EditScript([InsertOp(10, 0, old), DeleteOp(10, 1, new),
                             InsertOp(10, 2, new)], from_ts=1, to_ts=2)
        w = Writer()
        write_script(w, script)
        back = read_script(Reader(w.getvalue()))
        assert [op.payload for op in back.ops] == [old, new, new]
        assert len({absolute_bytes(op.payload.tree()) for op in back.ops}) == 1


class TestCorrupt:
    @pytest.mark.parametrize("kind", [0x03, 0x04, 0x05, 0x06])
    def test_a_relative_kind_at_the_root(self, kind):
        packed = PackedNode.pack(_sample())
        _all_readers(bytes([kind]) + packed[1:])
        # The same kind with its stamp bytes dropped, as a writer would.
        _all_readers(bytes([kind]) + packed[4:])

    @pytest.mark.parametrize("missing, check", [
        ("xid", _all_readers), ("tstamp", _decoder_only),
    ])
    @pytest.mark.parametrize("kind", [0x03, 0x05])
    def test_a_relative_kind_without_a_base(self, missing, check, kind):
        w = Writer()
        w.byte(0x01)
        w.opt_u(None if missing == "xid" else 5)
        w.opt_u(None if missing == "tstamp" else 9)
        w.s("a"), w.u(0), w.u(1)
        w.byte(kind)
        if kind == 0x03:
            w.z(0), w.z(0)
        w.s("b"), w.u(0), w.u(0)
        check(w.getvalue())

    @pytest.mark.parametrize("xid_step, ts_step, check", [
        (-7, 0, _all_readers), (0, 10, _decoder_only),
    ])
    def test_relative_stamps_below_zero(self, xid_step, ts_step, check):
        w = Writer()
        w.byte(0x01), w.opt_u(5), w.opt_u(9), w.s("a"), w.u(0), w.u(1)
        w.byte(0x04), w.z(xid_step), w.z(ts_step), w.s("t")
        check(w.getvalue())

    @pytest.mark.parametrize("kind", [0x00, 0x07, 0xFF])
    def test_an_unknown_kind_below_the_root(self, kind):
        packed = bytearray(PackedNode.pack(_sample()))
        packed[7] = kind  # the first child's kind byte
        _all_readers(bytes(packed))

    def test_the_writer_refuses_negative_stamps(self):
        root = Element("a")
        root.xid, root.tstamp = 5, 9
        child = Text("t")
        child.xid, child.tstamp = 7, -1
        root.children.append(child)
        with pytest.raises(CorruptArchiveError):
            PackedNode.pack(root)

    @pytest.mark.parametrize("value", [-1, -2])
    def test_an_optional_int_below_zero_is_refused(self, value):
        # -1 used to write 0, the "absent" marker, and -2 to name -1.
        with pytest.raises(CorruptArchiveError, match=f"int {value}$"):
            Writer().opt_u(value)

    def test_an_absent_optional_int_is_zero(self):
        w = Writer()
        w.opt_u(None)
        assert w.getvalue() == b"\x00"
        assert Reader(w.getvalue()).opt_u() is None

    def test_a_root_xid_of_minus_one_is_refused(self):
        root = Element("a")
        root.xid, root.tstamp = -1, 9
        with pytest.raises(CorruptArchiveError, match="-1"):
            PackedNode.pack(root)


#: sha256 of the XML archive each fixture directory opens to.
_FIXTURES = {
    "cas_v1": ("a26aca48e6a9654c8fa72dfa2969ec01"
               "cd4d0c3f9c8fbc460f7ee8a0d44e31c0", ["long.xml", "short.xml"]),
    "journal_v1": ("8e97944e32dd431908a68e1725059d99"
                   "5ca589884649aa1aefe59f0cac39f105", ["guide.com"]),
    "journal_v2": ("9612a765d035fb204dbfae717932b2d6"
                   "f4835ef655088234a30c16ddc50cdbf9", ["a.xml", "c.xml"]),
    "xml_dir_v1": ("6c156a21a3a6f31307d2bbac824f2740"
                   "a27077ff73947c54373c22506db872ac", ["a.xml", "c.xml"]),
}


@pytest.mark.parametrize("name", sorted(_FIXTURES))
def test_an_older_directory_opens_to_the_same_answers(name, tmp_path):
    """Each fixture, upgraded, opens to the archive it opened to when every
    node was written absolute, and so does it after a checkpoint in
    today's form."""
    digest, documents = _FIXTURES[name]
    copy = tmp_path / name
    shutil.copytree(DATA / name, copy)

    def opened():
        db = TemporalXMLDatabase.open(copy, durability="none")
        archive = archive_bytes(build_archive(db.store))
        return hashlib.sha256(archive).hexdigest(), db.documents()

    upgrade(copy)
    assert opened() == (digest, documents)
    db = TemporalXMLDatabase.open(copy, durability="journal")
    db.checkpoint()
    db.close()
    assert opened() == (digest, documents)
