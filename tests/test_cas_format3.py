"""CAS root formats 3 and 4: first versions plus redo deltas, rolled on load.

A checkpoint stores each document's first version once and its deltas
in redo form; a load rolls the first version forward, completing every
delta and copying the tree at each listed snapshot number.  Format 4
lays what one checkpoint adds into shared packs and names each stream
as ranges in them; format 3 stored each as objects of its own, read as
packs of one range.  These tests hold that layout against a crash at
every filesystem operation of a checkpoint (of one pack and of several)
and of its GC, against hostile objects, ranges and packs (each one a
typed error naming the object, the store left untouched and recovery
falling back to ``checkpoint.cas.prev``), against GC of packs, and
against every directory fixture an older release wrote: each opens to
its recorded archive digest, and its next checkpoint is format 4
throughout.

``tests/data/cas_v2`` is a format-2 directory: two checkpoints (so a
``.prev`` generation), snapshots, a deleted document and a journal tail
past the newest checkpoint.  Regenerate from an export of commit
``dd2604b``, with ``PYTHONPATH=src``::

    from repro import TemporalXMLDatabase
    from repro.workload.tdocgen import TDocGenerator
    gen = TDocGenerator(seed=41, depth=2, fanout=(2, 4))
    db = TemporalXMLDatabase.open("cas_v2", durability="fsync",
                                  snapshot_interval=4)
    for name in ("a.xml", "b.xml", "c.xml"):
        db.put(name, gen.document(name))
    for _ in range(3):
        for name in ("a.xml", "b.xml"):
            for _ in range(3):
                db.update(name, gen.evolve(name))
        db.checkpoint()
    db.delete("c.xml")
    db.update("a.xml", gen.evolve("a.xml"))
    db.close()

``tests/data/cas_v3`` is a format-3 directory written before deletes and
moves named existing nodes by XID alone and inserted roots left their
stamps implied: two checkpoints and a journal tail whose redo records
hold inserts, deletes, moves and text updates in the layouts
``0x01``–``0x03``, ``0x09`` and the ``0x0B`` marker.  Regenerate from an
export of commit ``6a723f7``, with ``PYTHONPATH=src`` and :data:`SHOP`::

    from repro import TemporalXMLDatabase
    from repro.workload.tdocgen import TDocGenerator
    gen = TDocGenerator(seed=43, depth=2, fanout=(2, 4))
    db = TemporalXMLDatabase.open("cas_v3", durability="fsync",
                                  snapshot_interval=4)
    db.put("shop.xml", SHOP[0])
    for name in ("a.xml", "b.xml"):
        db.put(name, gen.document(name))
    shop = iter(SHOP[1:6])
    for _ in range(2):
        for name in ("a.xml", "b.xml"):
            for _ in range(3):
                db.update(name, gen.evolve(name))
        db.update("shop.xml", next(shop))
        db.update("shop.xml", next(shop))
        db.checkpoint()
    db.update("shop.xml", next(shop))
    db.update("a.xml", gen.evolve("a.xml"))
    db.close()
"""

import hashlib
import re
import shutil
from pathlib import Path

import pytest

import repro.storage.binfmt as binfmt
import repro.storage.cas as cas
from repro import TemporalXMLDatabase
from repro.diff.editscript import (
    DeleteOp,
    EditScript,
    ImpliedStamps,
    InsertOp,
    MoveOp,
    RedoDelete,
    RedoMove,
    RedoUpdateText,
    StampOp,
    UpdateAttrOp,
    UpdateTextOp,
)
from repro.errors import CorruptArchiveError
from repro.storage.cas import (
    CAS_POINTER_FILE,
    FORMAT_VERSION,
    CASObjectStore,
    kind_breakdown,
    read_checkpoint,
    read_pointer,
)
from repro.storage.journal import scan_journal
from repro.storage.persistence import archive_bytes, build_archive
from repro.storage.store import TemporalDocumentStore
from repro.workload.tdocgen import TDocGenerator
from repro.xmlcore.node import Element
from tests.faults import CrashError, FaultyFS, tree_digest
from tests.references import MISPLACED_MARKERS, fresh_inserts

DATA = Path(__file__).parent / "data"

#: fixture -> sha256 of ``archive_bytes(build_archive(store))`` after
#: ``open(copy, durability="none")``, as the release that wrote it read it.
FIXTURES = {
    "cas_v1": "a26aca48e6a9654c8fa72dfa2969ec01"
              "cd4d0c3f9c8fbc460f7ee8a0d44e31c0",
    "cas_v2": "279dc6bff4f5fd5554eb3abc74a88ad4"
              "8e50d159885dab62f658c7d2ddf43c1e",
    "xml_dir_v1": "6c156a21a3a6f31307d2bbac824f2740"
                  "a27077ff73947c54373c22506db872ac",
    "journal_v1": "8e97944e32dd431908a68e1725059d99"
                  "5ca589884649aa1aefe59f0cac39f105",
    "journal_v2": "9612a765d035fb204dbfae717932b2d6"
                  "f4835ef655088234a30c16ddc50cdbf9",
    "cas_v3": "6b3dbb9408faf2982a4b5676657b7c26"
              "0db16b5a4125c280427d2b22409cda3e",
}

#: The versions of ``shop.xml``: ``cas_v3`` holds the first six, and each
#: step moves, deletes, inserts and updates text.
SHOP = [
    "<shop><i>apple</i><j>pear</j><k>fig</k><l><m>kiwi</m></l></shop>",
    "<shop><k>fig</k><i>apples</i><j>pear</j><l><m>kiwi</m><n>lime</n></l>"
    "</shop>",
    "<shop><k>fig</k><j>pear</j><l><m>kiwis</m><n>lime</n></l><i>apples</i>"
    "</shop>",
    "<shop><l><n>lime</n><m>kiwis</m></l><k>figs</k><j>pear</j><o>plum</o>"
    "</shop>",
    "<shop><j>pear</j><l><n>lime</n></l><k>figs</k><o>plums</o><i>apple</i>"
    "</shop>",
    "<shop><o>plums</o><j>pears</j><l><n>lime</n><k>figs</k></l><p>date</p>"
    "</shop>",
    "<shop><p>date</p><j>pear</j><l><k>figs</k><n>limes</n></l><q>quince</q>"
    "<r>rye</r></shop>",
    "<shop><l><n>limes</n></l><j>pear</j><p>dates</p><s><t>tea</t></s>"
    "<q>quince</q></shop>",
]


def digest(store):
    return hashlib.sha256(archive_bytes(build_archive(store))).hexdigest()


def root_format(directory):
    objstore = CASObjectStore(directory)
    pointer = str(Path(directory) / CAS_POINTER_FILE)
    return objstore.get(read_pointer(pointer))[0]


def stamped(tag, xid):
    node = Element(tag)
    node.xid, node.tstamp = xid, 1
    return node


# -- older directories ----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_a_fixture_opens_and_its_next_checkpoint_is_format_3(name, tmp_path):
    """Every fixture opens to its digest, and its next checkpoint is in
    the format written now (format 3 onwards: first versions and redo
    deltas; format 4 names them as ranges in packs)."""
    directory = tmp_path / name
    shutil.copytree(DATA / name, directory)
    db = TemporalXMLDatabase.open(directory, durability="journal")
    assert digest(db.store) == FIXTURES[name]
    db.checkpoint()
    assert root_format(directory) == FORMAT_VERSION
    # Every manifest was rewritten: no stream of an older format is
    # reached (a format-3 object is reached as a pack of one range).
    assert sorted(kind_breakdown(db.checkpointer.objstore)) == [
        "checkpoint", "deltas", "first", "pack",
    ]
    published = db.checkpointer.objstore.published
    assert sorted(published) == sorted(
        record.doc_id for record in db.store.repository.records()
    )
    db.close()
    again = TemporalXMLDatabase.open(directory, durability="none")
    assert again.recovery.checkpoint_source == "checkpoint"
    assert digest(again.store) == FIXTURES[name]


def _layouts(monkeypatch, data):
    """``{version number: layouts}`` of a redo stream's scripts: which of
    ``"placed"`` (an insert with its whole subtree, a delete naming its
    victim's place, a move naming its source) and ``"by xid"`` (an insert
    with implied root stamps, an XID-only delete or move) each holds."""
    fresh = set()
    real = binfmt._FreshXids.read

    def read(self, r):
        payload = real(self, r)
        fresh.add(id(payload))
        return payload

    with monkeypatch.context() as patch:
        patch.setattr(binfmt._FreshXids, "read", read)
        scripts = binfmt.decode_redo_stream(data)
    layouts = {}
    for number, script in scripts.items():
        found = layouts.setdefault(number, set())
        for op in script.ops:
            if isinstance(op, InsertOp):
                found.add("by xid" if id(op.payload) in fresh else "placed")
            elif isinstance(op, MoveOp) or (
                isinstance(op, RedoDelete) and op.parent_xid is not None
            ):
                found.add("placed")
            elif isinstance(op, (RedoDelete, RedoMove)):
                found.add("by xid")
    return layouts


def _delta_ranges(objstore, doc_id):
    """``[(pack hash, bytes)]`` of each range of a document's deltas."""
    return [
        (pack, objstore.get(pack)[offset:offset + length])
        for pack, offset, length in objstore.published[doc_id].manifests[1]
    ]


def test_placed_layouts_roll_beside_the_xid_only_ones(tmp_path,
                                                      monkeypatch):
    """``cas_v3``'s redo records name the place of what they delete and
    move and stamp their inserted roots: they open to the recorded
    digest, the next checkpoint keeps their format-3 objects as packs of
    one range and appends XID-only records behind them in a pack of its
    own, and that mixed stream rolls on its own."""
    directory = tmp_path / "cas_v3"
    shutil.copytree(DATA / "cas_v3", directory)
    kinds = set()
    for name in ("journal.bin.prev", "journal.bin"):
        for record in scan_journal(str(directory / name)).records:
            for member in record.members or [record]:
                if member.kind == "update":
                    kinds.update(type(op) for op in member.script().ops)
    assert {InsertOp, RedoDelete, MoveOp, RedoUpdateText,
            ImpliedStamps} <= kinds
    db = TemporalXMLDatabase.open(directory, durability="fsync")
    assert digest(db.store) == FIXTURES["cas_v3"]
    objstore = db.checkpointer.objstore
    shop = db.store.record("shop.xml")
    old = {}
    kept = _delta_ranges(objstore, shop.doc_id)
    for _pack, data in kept:
        old.update(_layouts(monkeypatch, data))
    assert old and all(found == {"placed"} for found in old.values())

    for version in SHOP[6:]:
        db.update("shop.xml", version)
    db.checkpoint()
    ranges = _delta_ranges(objstore, shop.doc_id)
    assert ranges[:-1] == kept  # the format-3 objects, as they were
    mixed = {}
    for _pack, data in ranges:
        mixed.update(_layouts(monkeypatch, data))
    assert sorted(mixed) == list(range(1, shop.dindex.current_number))
    assert all(mixed[number] == {"placed"} for number in old)
    assert all(mixed[number] == {"by xid"}
               for number in mixed if number not in old)
    want = digest(db.store)
    db.close()
    again = TemporalXMLDatabase.open(directory, durability="none")
    assert again.recovery.records_replayed == 0
    assert digest(again.store) == want


def test_a_format_3_checkpoint_is_rewritten_as_manifests_only(tmp_path):
    """Checkpointing what a format-3 checkpoint holds writes format-4
    manifests and a root and no pack: every format-3 object stays, each
    a pack of one range, and the new generation reads back the same."""
    directory = tmp_path / "cas_v3"
    shutil.copytree(DATA / "cas_v3", directory)
    objstore = CASObjectStore(directory)
    store = read_checkpoint(objstore)

    def packs():
        return {
            pack for stored in objstore.published.values()
            for ranges in stored.manifests for pack, _offset, _length in ranges
        }

    old = packs()
    assert old <= {object_hash for object_hash, _, _ in objstore.iter_objects()}
    cas.write_checkpoint(store, objstore, rotate=True)
    assert set(objstore.stats.by_kind) == {"checkpoint"}
    assert root_format(directory) == FORMAT_VERSION
    assert packs() == old
    again = read_checkpoint(CASObjectStore(directory))
    assert digest(again) == digest(store)


def test_a_format_2_load_publishes_nothing(tmp_path):
    directory = tmp_path / "db"
    shutil.copytree(DATA / "cas_v2", directory)
    objstore = CASObjectStore(directory)
    store = read_checkpoint(objstore)
    assert objstore.published == {}
    assert [r.name for r in store.repository.records()] == [
        "a.xml", "b.xml", "c.xml",
    ]


def test_a_crash_in_the_upgrading_checkpoint_reopens_the_same(tmp_path):
    """The first checkpoint after a format-2 load: a crash at any of its
    operations (objects, pointer rotation, journal roll, the GC that
    walks both formats) reopens the fixture's store."""
    probe = FaultyFS()
    directory = tmp_path / "probe"
    shutil.copytree(DATA / "cas_v2", directory)
    db = TemporalXMLDatabase.open(directory, durability="none", fs=probe)
    before = probe.ops
    db.checkpoint()
    total = probe.ops
    assert total - before > 10
    for k in range(before + 1, total + 1):
        directory = tmp_path / f"crash-{k}"
        shutil.copytree(DATA / "cas_v2", directory)
        fs = FaultyFS()
        db = TemporalXMLDatabase.open(directory, durability="none", fs=fs)
        fs.crash_at = k
        with pytest.raises(CrashError):
            db.checkpoint()
        again = TemporalXMLDatabase.open(directory, durability="none")
        assert digest(again.store) == FIXTURES["cas_v2"], k


# -- a crash inside a checkpoint ----------------------------------------------------


def test_a_crash_at_every_operation_of_a_checkpoint_and_its_gc(tmp_path):
    """The third checkpoint lays new segments and a first version into a
    pack; its GC sweeps what only the first one reached.  A
    crash at any of those operations reopens the whole history (every
    commit is in a journal), and the next checkpoint reopens it too."""

    def prepare(directory, fs):
        gen = TDocGenerator(seed=17, depth=2, fanout=(2, 3))
        db = TemporalXMLDatabase.open(
            directory, durability="fsync", fs=fs, snapshot_interval=3
        )
        for name in ("a.xml", "b.xml"):
            db.put(name, gen.document(name))
        for _ in range(2):
            db.checkpoint()
            for _ in range(2):
                for name in ("a.xml", "b.xml"):
                    db.update(name, gen.evolve(name))
        db.put("c.xml", gen.document("c.xml"))
        db.delete("b.xml")
        return db

    probe = FaultyFS()
    db = prepare(tmp_path / "probe", probe)
    before = probe.ops
    db.checkpoint()
    total = probe.ops
    want = digest(db.store)
    assert db.checkpointer.last_gc.objects_deleted > 0
    for k in range(before + 1, total + 1):
        directory = tmp_path / f"crash-{k}"
        fs = FaultyFS()
        db = prepare(directory, fs)
        fs.crash_at = k
        with pytest.raises(CrashError):
            db.checkpoint()
        again = TemporalXMLDatabase.open(directory, durability="journal")
        assert digest(again.store) == want, k
        again.checkpoint()
        again.close()
        again = TemporalXMLDatabase.open(directory, durability="none")
        assert again.recovery.checkpoint_source == "checkpoint", k
        assert digest(again.store) == want, k


def test_a_crash_at_every_operation_of_a_checkpoint_of_several_packs(
    tmp_path, monkeypatch
):
    """With packs of 128 raw bytes the second checkpoint lays its new
    first versions and segments into several packs, one document's
    streams spread over two of them; a crash at any operation of it
    reopens the whole history, and so does the checkpoint after."""
    monkeypatch.setattr(cas, "PACK_BYTES", 128)

    def prepare(directory, fs):
        gen = TDocGenerator(seed=29, depth=2, fanout=(2, 3))
        db = TemporalXMLDatabase.open(directory, durability="fsync", fs=fs)
        db.put("a.xml", gen.document("a.xml"))
        db.checkpoint()
        for name in ("b.xml", "c.xml", "d.xml"):
            db.put(name, gen.document(name))
        for _ in range(3):
            for name in ("a.xml", "b.xml", "c.xml", "d.xml"):
                db.update(name, gen.evolve(name))
        return db

    probe = FaultyFS()
    db = prepare(tmp_path / "probe", probe)
    packs = []
    real_put = CASObjectStore.put

    def put(objstore, data, kind="object"):
        if kind == "pack":
            packs.append(data)
        return real_put(objstore, data, kind=kind)

    with monkeypatch.context() as patch:
        patch.setattr(CASObjectStore, "put", put)
        before = probe.ops
        db.checkpoint()
        total = probe.ops
    assert len(packs) >= 3
    written = {cas.hash_bytes(pack) for pack in packs}
    assert any(
        len(written & {pack for ranges in stored.manifests
                       for pack, _offset, _length in ranges}) > 1
        for stored in db.checkpointer.objstore.published.values()
    )
    want = digest(db.store)
    for k in range(before + 1, total + 1):
        directory = tmp_path / f"crash-{k}"
        fs = FaultyFS()
        db = prepare(directory, fs)
        fs.crash_at = k
        with pytest.raises(CrashError):
            db.checkpoint()
        again = TemporalXMLDatabase.open(directory, durability="journal")
        assert digest(again.store) == want, k
        again.checkpoint()
        again.close()
        again = TemporalXMLDatabase.open(directory, durability="none")
        assert again.recovery.checkpoint_source == "checkpoint", k
        assert digest(again.store) == want, k


def test_gc_keeps_a_pack_while_a_retained_generation_names_it(tmp_path):
    """A fresh object store lays every document into packs of its own;
    the packs the older store wrote stay while ``.prev`` names a range in
    them and go with the next rotation."""
    gen = TDocGenerator(seed=31, depth=2, fanout=(2, 3))
    db = TemporalXMLDatabase(snapshot_interval=3)
    for name in ("a.xml", "b.xml"):
        db.put(name, gen.document(name))
    older = CASObjectStore(tmp_path)

    def packs(objstore):
        return {
            pack
            for stored in objstore.published.values()
            for ranges in stored.manifests
            for pack, _offset, _length in ranges
        }

    def on_disk():
        return {object_hash for object_hash, _, _ in older.iter_objects()}

    cas.write_checkpoint(db.store, older)
    for _ in range(2):
        db.update("a.xml", gen.evolve("a.xml"))
    cas.write_checkpoint(db.store, older, rotate=True)
    old_packs = packs(older)
    assert len(old_packs) == 2
    cas.collect_garbage(older)
    assert old_packs <= on_disk()

    newer = CASObjectStore(tmp_path)  # publishes nothing: writes it all
    db.update("b.xml", gen.evolve("b.xml"))
    cas.write_checkpoint(db.store, newer, rotate=True)
    assert not packs(newer) & old_packs
    cas.collect_garbage(newer)
    assert old_packs <= on_disk()  # .prev still names ranges in them

    db.update("a.xml", gen.evolve("a.xml"))
    cas.write_checkpoint(db.store, newer, rotate=True)
    report = cas.collect_garbage(newer)
    assert not old_packs & on_disk()
    assert report.objects_deleted >= len(old_packs)
    assert packs(newer) <= on_disk()
    loaded = read_checkpoint(
        CASObjectStore(tmp_path), store=TemporalDocumentStore()
    )
    assert digest(loaded) == digest(db.store)


# -- hostile objects -------------------------------------------------------------------


def _hostile_directory(directory, monkeypatch, forge):
    """A good checkpoint, then commits and a checkpoint written while
    ``forge`` (given ``monkeypatch``) falsifies what it encodes.  Returns
    the live store's digest."""
    gen = TDocGenerator(seed=23, depth=2, fanout=(2, 3))
    db = TemporalXMLDatabase.open(
        directory, durability="fsync", snapshot_interval=2
    )
    db.put("a.xml", gen.document("a.xml"))
    db.update("a.xml", gen.evolve("a.xml"))
    db.checkpoint()
    db.update("a.xml", gen.evolve("a.xml"))
    db.update("a.xml", gen.evolve("a.xml"))
    db.put("n.xml", gen.document("n.xml"))
    db.update("n.xml", gen.evolve("n.xml"))
    with monkeypatch.context() as patch:
        forge(patch)
        db.checkpoint()
    want = digest(db.store)
    db.close()
    return want


def _truncated_first_version(patch):
    real = cas.encode_tree
    patch.setattr(cas, "encode_tree", lambda root: real(root)[:-2])


def _prepended(make, stamps_implied=True):
    """A forge that puts ``make(script)`` (an operation or a list of them)
    in front of every script it writes; the stamps stay implied unless
    ``stamps_implied`` is false, which writes them explicitly."""
    def forge(patch):
        real = binfmt.write_redo

        def write_redo(w, script):
            ops = make(script)
            ops = ops if isinstance(ops, list) else [ops]
            real(w, EditScript(
                ops + script.ops, script.from_ts, script.to_ts,
                stamps_implied=stamps_implied and script.stamps_implied,
            ))

        patch.setattr(binfmt, "write_redo", write_redo)

    return forge


def _absent_xid(op):
    # Explicit stamps: the prepended operation is the only lie.
    return _prepended(lambda script: op, stamps_implied=False)


def _fresh(xid, script):
    """An inserted leaf whose root stamps ``script`` implies."""
    node = stamped("n", xid)
    node.tstamp = script.to_ts
    return node


def _written_as(make):
    """A forge that writes the bytes ``make(script)`` for every script."""
    def forge(patch):
        patch.setattr(
            binfmt, "write_redo", lambda w, script: w.raw(make(script))
        )

    return forge


def _misplaced_marker(case):
    def forge(patch):
        real = binfmt.write_redo

        def write_redo(w, script):
            body = binfmt.Writer()
            real(body, script)
            w.raw(MISPLACED_MARKERS[case](body.getvalue()))

        patch.setattr(binfmt, "write_redo", write_redo)

    return forge


def _snapshot_past_the_chain(patch):
    real = cas._encode_document_meta

    def encode(record, manifests, snapshots):
        return real(record, manifests,
                    snapshots + [record.dindex.current_number + 1])

    patch.setattr(cas, "_encode_document_meta", encode)


def _forged_ranges(change):
    """A forge that names each changed document's ranges as
    ``change(first ranges, delta ranges)`` returns them."""
    def forge(patch):
        real = cas._encode_document_meta

        def encode(record, manifests, snapshots):
            return real(record, change(*manifests), snapshots)

        patch.setattr(cas, "_encode_document_meta", encode)

    return forge


def _last_range_as(make):
    """:func:`_forged_ranges` replacing the last delta range
    ``(pack, offset, length)`` by the ranges ``make`` returns."""
    return _forged_ranges(
        lambda first, deltas: (first, deltas[:-1] + make(*deltas[-1]))
    )


def _damaged_pack(damage):
    """A forge that rewrites every pack file the checkpoint stores as
    ``damage(file bytes)``."""
    def forge(patch):
        real = CASObjectStore.put

        def put(objstore, data, kind="object"):
            object_hash = real(objstore, data, kind=kind)
            if kind == "pack":
                path = Path(objstore.object_path(object_hash))
                path.write_bytes(damage(path.read_bytes()))
            return object_hash

        patch.setattr(CASObjectStore, "put", put)

    return forge


def _flipped(blob):
    return blob[:-9] + bytes([blob[-9] ^ 0x10]) + blob[-8:]


HOSTILE = {
    "truncated first version": (_truncated_first_version, "first"),
    "range past the end of its pack": (
        _last_range_as(lambda pack, offset, length: (
            (pack, offset, length + 10**6),
        )),
        "pack",
    ),
    "range overlapping the one before": (
        _last_range_as(lambda pack, offset, length: 2 * (
            (pack, offset, length),
        )),
        "pack",
    ),
    "ranges out of order in a pack": (
        _last_range_as(lambda pack, offset, length: (
            (pack, offset + length // 2, length - length // 2),
            (pack, offset, length // 2),
        )),
        "pack",
    ),
    "range in a missing pack": (
        _last_range_as(lambda pack, offset, length: (
            (cas.hash_bytes(b"no such pack"), offset, length),
        )),
        "pack",
    ),
    "truncated pack": (_damaged_pack(lambda blob: blob[:-7]), "pack"),
    "bit-flipped pack": (_damaged_pack(_flipped), "pack"),
    "redo delete of an absent XID": (
        _absent_xid(DeleteOp(99998, 0, stamped("gone", 99999))), "deltas",
    ),
    "redo stamp of an absent XID": (
        _absent_xid(StampOp(99999, 0, 1)), "deltas",
    ),
    # XID 1 is every document's root element; XID 3 is a text node of
    # a.xml in every version the forged checkpoint rolls.
    "redo text update of an element": (
        _prepended(lambda script: UpdateTextOp(1, "", "x")), "deltas",
    ),
    "redo text update of an absent XID": (
        _prepended(lambda script: UpdateTextOp(99999, "", "x")), "deltas",
    ),
    "redo attribute update of a text node": (
        _prepended(lambda script: UpdateAttrOp(3, "k", None, "v")),
        "deltas",
    ),
    **{case: (_misplaced_marker(case), "deltas")
       for case in MISPLACED_MARKERS},
    # The first forged script applies to a.xml's version 2: XIDs 1 <doc>,
    # 3 a text node, 6 <item> and 7 the <note> inside it.
    "redo delete of the root": (
        _prepended(lambda script: DeleteOp(0, 0, stamped("doc", 1))),
        "deltas",
    ),
    "redo delete of a node the script deleted": (
        _prepended(lambda script: 2 * [DeleteOp(2, 0, stamped("t", 3))]),
        "deltas",
    ),
    "redo move of an absent XID": (
        _prepended(lambda script: MoveOp(99999, 1, 0, 1, 0)), "deltas",
    ),
    "redo move of the root": (
        _prepended(lambda script: MoveOp(1, 0, 0, 6, 0)), "deltas",
    ),
    "redo move under its own descendant": (
        _prepended(lambda script: MoveOp(6, 1, 2, 7, 0)), "deltas",
    ),
    "fresh insert of a live XID": (
        _prepended(lambda script: InsertOp(1, 0, _fresh(6, script))),
        "deltas",
    ),
    "fresh insert below XID 0": (
        _written_as(lambda script: fresh_inserts(
            script.from_ts, script.to_ts, [0, -5])),
        "deltas",
    ),
    "fresh insert reaching the next XID": (
        _prepended(lambda script: InsertOp(1, 0, _fresh(99999, script))),
        "deltas",
    ),
    "fresh insert without a commit time": (
        _written_as(lambda script: fresh_inserts(script.from_ts, None, [7])),
        "deltas",
    ),
    "snapshot number past the chain": (_snapshot_past_the_chain, "manifest"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_a_hostile_object_is_a_typed_error_and_prev_serves(
    case, tmp_path, monkeypatch
):
    forge, kind = HOSTILE[case]
    directory = tmp_path / "db"
    want = _hostile_directory(directory, monkeypatch, forge)
    objstore = CASObjectStore(directory)
    before = tree_digest(directory)
    target = TemporalDocumentStore()
    clock = target.clock.now()
    with pytest.raises(CorruptArchiveError) as err:
        read_checkpoint(objstore, store=target)
    assert target.repository.records() == [] and target.clock.now() == clock
    assert objstore.published == {}
    assert tree_digest(directory) == before
    # The message names an object the newest generation reaches.
    named = re.search(r"[0-9a-f]{64}", str(err.value)).group()
    if kind != "manifest":
        assert named in cas.reachable_hashes(
            objstore, read_pointer(objstore.pointer)
        ), str(err.value)
    else:
        assert "document manifest" in str(err.value)
    db = TemporalXMLDatabase.open(directory, durability="none")
    assert db.recovery.checkpoint_source == "previous"
    assert db.recovery.checkpoint_errors
    assert digest(db.store) == want
