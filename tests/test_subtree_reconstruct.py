"""The one chain walker against a naive model, and element cursors
against whole-document ones.

Every read of a stored version goes through
:class:`~repro.storage.cursor.SubtreeCursor`.  The model for whole
documents is the committed texts themselves (``TestAgainstCommittedTexts``:
every store read and every Section 7.3.3–7.3.5 operator plus ``Diff``
serialises byte-identically to what was committed).  For a bound element
only its subtree is copied and only the edit operations that land under it
are applied; there the oracle is the whole-document cursor —
``Repository.reconstruct`` of the version, then ``find_by_xid`` — and the
comparison is byte-for-byte on an encoding that carries XIDs and element
timestamps.
"""

from __future__ import annotations

import gc
import random
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro import TemporalXMLDatabase
from repro.clock import parse_date
from repro.diff.apply import SubtreeBoundaryCrossed, apply_scoped, apply_script
from repro.diff.editscript import (
    DeleteOp,
    InsertOp,
    MoveOp,
    ReplaceRootOp,
    encode_payload,
    payload_nodes,
)
from repro.errors import NoSuchVersionError
from repro.model.identifiers import EID, TEID
from repro.operators import Diff, DocHistory, ElementHistory, Reconstruct
from repro.query.values import SnapshotCache
from repro.serving import SessionManager
from repro.storage import TemporalDocumentStore
from repro.xmlcore import serialize
from repro.xmlcore.node import Element, Text

JAN_01 = parse_date("01/01/2001")
DAY = 86400
NAMES = ("napoli", "roma", "bergen", "oslo", "pisa")
WORDS = ("alpha", "beta", "gamma", "delta")


# -- generated histories --------------------------------------------------------


def _item(rng, name=None):
    item = Element("item")
    if rng.random() < 0.3:
        item.attrib["k"] = rng.choice(WORDS)
    label = Element("name")
    label.append(Text(name or rng.choice(NAMES)))
    item.append(label)
    price = Element("price")
    price.append(Text(str(rng.randrange(5, 40))))
    item.append(price)
    if rng.random() < 0.4:
        # Mixed content: text, an element, text again.
        note = Element("note")
        note.append(Text(rng.choice(WORDS) + " "))
        note.append(Element("em")).append(Text(rng.choice(WORDS)))
        note.append(Text(" " + rng.choice(WORDS)))
        item.append(note)
    return item


def _first_version(rng):
    root = Element("guide")
    for _ in range(rng.randrange(2, 4)):
        section = Element("section")
        for _ in range(rng.randrange(1, 4)):
            section.append(_item(rng))
        root.append(section)
    return root


def _edit(rng, previous, removed_names):
    """The next version: an unstamped, edited copy of ``previous``."""
    tree = previous.copy()
    for node in tree.iter():
        node.xid = node.tstamp = None
    for _ in range(rng.randrange(1, 4)):
        sections = tree.findall("section")
        section = rng.choice(sections) if sections else None
        items = section.findall("item") if section is not None else []
        action = rng.random()
        if section is None or action < 0.04:
            # Even the root tag changes: the differ emits a ReplaceRootOp.
            tree.tag = "catalogue" if tree.tag == "guide" else "guide"
            if section is None:
                tree.append(Element("section"))
        elif action < 0.20:
            # Insert; sometimes re-insert a name deleted earlier.
            reuse = removed_names and rng.random() < 0.5
            name = removed_names.pop() if reuse else None
            section.insert(rng.randrange(len(section.children) + 1),
                           _item(rng, name))
        elif action < 0.34 and items:
            victim = rng.choice(items)
            removed_names.append(victim.find("name").text)
            section.remove(victim)
        elif action < 0.54 and items:
            rng.choice(items).find("price").children[0].value = str(
                rng.randrange(5, 40)
            )
        elif action < 0.66 and items:
            item = rng.choice(items)
            if "k" in item.attrib and rng.random() < 0.4:
                del item.attrib["k"]
            else:
                item.attrib["k"] = rng.choice(WORDS)
        elif action < 0.78 and len(section.children) > 1:
            # Sibling reorder: a move within one parent.
            child = section.children[-1]
            section.remove(child)
            section.insert(0, child)
        elif action < 0.94 and items and len(sections) > 1:
            # Carry an item into another section: out of one bound
            # subtree, into another, within the root's.
            target = rng.choice([s for s in sections if s is not section])
            item = rng.choice(items)
            section.remove(item)
            target.insert(rng.randrange(len(target.children) + 1), item)
        else:
            parent = section if rng.random() < 0.3 else tree
            parent.append(Element("section"))
    return tree


def _history(seed, versions, snapshot_interval):
    """A store holding one generated document of ``versions`` versions."""
    rng = random.Random(seed)
    store = TemporalDocumentStore(snapshot_interval=snapshot_interval)
    tree = _first_version(rng)
    store.put("doc", tree, ts=JAN_01)
    removed = []
    for number in range(1, versions):
        tree = _edit(rng, tree, removed)
        store.update("doc", tree.copy(), ts=JAN_01 + number * DAY)
    return store


def _stamped(node):
    """Byte-comparable form of a subtree, XIDs and timestamps included."""
    return None if node is None else serialize(encode_payload(node))


def _oracle(store):
    """``{version number: {xid: stamped bytes}}`` by whole-document
    reconstruction, and the commit timestamp of every version."""
    record = store.record("doc")
    expected, stamps = {}, {}
    for entry in record.dindex.entries:
        tree = store.repository.reconstruct(record, entry.number)
        expected[entry.number] = {
            node.xid: _stamped(node) for node in tree.iter()
        }
        stamps[entry.number] = entry.timestamp
    return expected, stamps


def _check_order(store, expected, stamps, order, xids):
    """One query's worth of cursors: every xid at every version of
    ``order``, all sharing one :class:`SnapshotCache`."""
    doc_id = store.doc_id("doc")
    cache = SnapshotCache(store)
    for number in order:
        for xid in xids:
            got = cache.subtree(TEID(doc_id, xid, stamps[number]))
            assert _stamped(got) == expected[number].get(xid), (
                f"xid {xid} at version {number} (order {order})"
            )


class TestDifferential:
    @given(st.integers(0, 10_000), st.sampled_from([None, 3]))
    @settings(max_examples=30, deadline=None)
    def test_every_element_every_version_every_order(self, seed, interval):
        store = _history(seed, versions=9, snapshot_interval=interval)
        expected, stamps = _oracle(store)
        numbers = sorted(expected)
        # Elements, text nodes and every root the document ever had.
        xids = sorted({xid for nodes in expected.values() for xid in nodes})
        shuffled = numbers * 2
        random.Random(seed).shuffle(shuffled)
        for order in (numbers, numbers[::-1], shuffled):
            _check_order(store, expected, stamps, order, xids)
        # One element at a time, so no cursor rides on another's reads.
        rng = random.Random(seed + 1)
        for xid in rng.sample(xids, min(6, len(xids))):
            order = numbers[:]
            rng.shuffle(order)
            _check_order(store, expected, stamps, order, [xid])

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_whole_document_cursor(self, seed):
        store = _history(seed, versions=7, snapshot_interval=3)
        record = store.record("doc")
        order = [e.number for e in record.dindex.entries] * 2
        random.Random(seed).shuffle(order)
        cache = SnapshotCache(store)
        for number in order:
            ts = record.dindex.entry(number).timestamp
            got = cache.document_at(record.doc_id, ts)
            want = store.repository.reconstruct(record, number)
            assert _stamped(got) == _stamped(want)

    def test_generated_histories_cover_the_hard_cases(self):
        """The generator above is only worth its differential if its
        deltas hold boundary-crossing moves, sibling reorders and root
        replacements; count them over the derandomized seeds' range."""
        crossing = reorders = replaced = reinserted = 0
        for seed in range(40):
            store = _history(seed, versions=9, snapshot_interval=None)
            names_deleted = set()
            for script in store.record("doc").deltas.values():
                for op in script:
                    if isinstance(op, MoveOp):
                        if op.from_parent == op.to_parent:
                            reorders += 1
                        else:
                            crossing += 1
                    elif isinstance(op, ReplaceRootOp):
                        replaced += 1
                    elif isinstance(op, (InsertOp, DeleteOp)):
                        payload = op.payload.tree()  # stored packed
                        name = (
                            payload.find("name")
                            if isinstance(payload, Element) else None
                        )
                        if name is None:
                            continue
                        if isinstance(op, DeleteOp):
                            names_deleted.add(name.text)
                        elif name.text in names_deleted:
                            reinserted += 1
        assert crossing >= 10 and reorders >= 10
        assert replaced >= 2 and reinserted >= 5


# -- against the committed texts ---------------------------------------------------


def _two_lives(seed, snapshot_interval):
    """One name put, edited, deleted and put again: a store and, per life,
    ``(doc_id, [committed text of every version])``."""
    rng = random.Random(seed)
    store = TemporalDocumentStore(snapshot_interval=snapshot_interval)
    lives, day = [], 0
    for versions in (8, 4):
        tree = _first_version(rng)
        texts, removed = [serialize(tree)], []
        store.put("doc", tree, ts=JAN_01 + day * DAY)
        for _ in range(1, versions):
            day += 1
            tree = _edit(rng, tree, removed)
            texts.append(serialize(tree))
            store.update("doc", tree.copy(), ts=JAN_01 + day * DAY)
        lives.append((store.doc_id("doc"), texts))
        store.delete("doc", ts=JAN_01 + (day + 1) * DAY)
        day += 2
    return store, lives


class _Reads:
    """What one call read of the stored chain."""

    def __init__(self, store):
        self.repo = store.repository

    def __enter__(self):
        self.before = self.repo.counter_snapshot()
        return self

    def __exit__(self, *exc):
        after = self.repo.counter_snapshot()
        delta = {k: after[k] - self.before[k] for k in after}
        self.anchors = delta["snapshot_reads"] + delta["current_reads"]
        self.deltas = delta["delta_reads"]
        self.fallbacks = delta["subtree_fallbacks"]


def _scribble(node):
    """Mutate a result an operator handed out; no later read may notice."""
    if isinstance(node, Element):
        node.tag = "scribbled"
        node.attrib["scribbled"] = "yes"
        for child in list(node.children):
            node.remove(child)
    else:
        node.value = "scribbled"


class TestAgainstCommittedTexts:
    @given(st.integers(0, 10_000), st.sampled_from([None, 4]))
    @settings(max_examples=25, deadline=None)
    def test_store_reads_serialise_to_the_committed_texts(self, seed, interval):
        store, lives = _two_lives(seed, interval)
        for doc_id, texts in lives:
            entries = store.delta_index(doc_id).entries
            last = len(texts)
            for entry, text in zip(entries, texts):
                tree = store.version(doc_id, entry.number)
                assert serialize(tree) == text
                root = TEID(doc_id, tree.xid, entry.timestamp)
                _scribble(tree)
                for read in (
                    lambda: store.snapshot(doc_id, entry.timestamp),
                    lambda: store.subtree(root),
                    lambda: Reconstruct(store, root).run(),
                ):
                    got = read()
                    assert serialize(got) == text
                    _scribble(got)
            for newest_first in (False, True):
                with _Reads(store) as reads:
                    got = []
                    for number, tree, xids in store.version_range(
                        doc_id, 1, last, newest_first=newest_first
                    ):
                        got.append((number, serialize(tree)))
                        assert xids[tree.xid] is tree
                        assert set(xids) == {n.xid for n in tree.iter()}
                want = list(enumerate(texts, start=1))
                assert got == (want[::-1] if newest_first else want)
                assert (reads.anchors, reads.deltas) == (1, last - 1)
            with pytest.raises(NoSuchVersionError) as raised:
                store.version(doc_id, last + 1)
            assert str(raised.value) == (
                f"doc has no version {last + 1} (current is {last})"
            )
            with pytest.raises(NoSuchVersionError):
                store.version(doc_id, 0)
            with pytest.raises(NoSuchVersionError) as raised:
                store.version_range(doc_id, 2, last + 1)
            assert str(raised.value) == (
                f"doc has no versions 2..{last + 1} (current is {last})"
            )
            assert store.snapshot(doc_id, entries[0].timestamp - 1) is None

    @given(st.integers(0, 10_000), st.sampled_from([None, 4]))
    @settings(max_examples=25, deadline=None)
    def test_history_operators_restrict_the_committed_history(
        self, seed, interval
    ):
        store, lives = _two_lives(seed, interval)
        for doc_id, texts in lives:
            entries = store.delta_index(doc_id).entries
            last = len(texts)
            start, end = entries[0].timestamp, entries[-1].timestamp + 1
            for newest_first in (True, False):
                history = DocHistory(store, doc_id, start, end,
                                     newest_first=newest_first)
                with _Reads(store) as reads:
                    results = history.run()
                assert (reads.anchors, reads.deltas) == (1, last - 1)
                order = entries[::-1] if newest_first else entries
                assert [t.timestamp for t, _ in results] == [
                    e.timestamp for e in order
                ]
                assert [serialize(tree) for _, tree in results] == [
                    texts[e.number - 1] for e in order
                ]
                with _Reads(store) as reads:
                    assert history.teids() == [t for t, _ in results]
                assert (reads.anchors, reads.deltas) == (1, last - 1)
                for _, tree in results:
                    _scribble(tree)
            # ElementHistory is DocHistory restricted to one subtree: the
            # document versions were just checked against the texts, so
            # the element's node in each of them is the expectation.
            versions = [store.version(doc_id, e.number) for e in entries]
            xids = sorted({n.xid for tree in versions for n in tree.iter()})
            rng = random.Random(seed)
            for xid in rng.sample(xids, min(8, len(xids))):
                want = [
                    (TEID(doc_id, xid, entry.timestamp), serialize(node))
                    for entry, node in zip(
                        entries, (tree.find_by_xid(xid) for tree in versions)
                    )
                    if node is not None
                ][::-1]
                history = ElementHistory(store, EID(doc_id, xid), start, end)
                with _Reads(store) as reads:
                    results = history.run()
                if not reads.fallbacks:
                    assert (reads.anchors, reads.deltas) == (1, last - 1)
                assert [(t, serialize(node)) for t, node in results] == want
                for _, node in results:
                    _scribble(node)
                assert history.teids() == [t for t, _ in want]

    @given(st.integers(0, 10_000), st.sampled_from([None, 4]))
    @settings(max_examples=25, deadline=None)
    def test_diff_of_two_teids_takes_one_text_to_the_other(self, seed, interval):
        store, lives = _two_lives(seed, interval)
        rng = random.Random(seed)
        for doc_id, texts in lives:
            entries = store.delta_index(doc_id).entries
            roots = [
                TEID(doc_id, store.version(doc_id, e.number).xid, e.timestamp)
                for e in entries
            ]
            pairs = [rng.sample(range(len(texts)), 2) for _ in range(4)]
            for a, b in pairs + [[b, a] for a, b in pairs] + [[2, 2]]:
                with _Reads(store) as reads:
                    script = Diff(store).script(roots[a], roots[b])
                assert reads.anchors <= 2 and reads.deltas <= len(texts) - 1
                if a == b:
                    assert len(script) == 0
                tree = apply_script(store.version(doc_id, a + 1), script)
                assert serialize(tree) == texts[b]
            # Diff kept what it read to itself.
            for entry, text in zip(entries, texts):
                assert serialize(store.version(doc_id, entry.number)) == text


# -- the touch summary -----------------------------------------------------------


class TestTouchSummary:
    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_invert_touches_the_same_xids(self, seed):
        store = _history(seed, versions=6, snapshot_interval=None)
        for script in store.record("doc").deltas.values():
            inverse = script.invert()
            assert set(inverse.touched) == set(script.touched)
            last = len(script) - 1
            for xid, positions in script.touched.items():
                mirrored = tuple(sorted(last - p for p in positions))
                assert inverse.touched[xid] == mirrored

    def test_names_targets_parents_and_payloads_not_the_moved_node(self):
        store = TemporalDocumentStore()
        store.put("d", "<doc><a><item><name>one two</name></item><x>k</x></a>"
                       "<b><y>q</y></b></doc>")
        store.update("d", "<doc><a><x>changed</x></a><b><y>q</y>"
                          "<item><name>one two</name></item><new>n</new></b></doc>")
        record = store.record("d")
        script = record.deltas[1]
        v1 = store.version("d", 1)
        a, b = v1.find("a"), v1.find("b")
        item = a.find("item")
        assert item.xid in [op.xid for op in script if isinstance(op, MoveOp)]
        touched = script.touched
        assert a.xid in touched and b.xid in touched  # both parents
        assert item.xid not in touched  # its content travels with it
        assert item.find("name").xid not in touched
        assert a.find("x").children[0].xid in touched  # text update target
        inserted = next(op for op in script if isinstance(op, InsertOp))
        for node in payload_nodes(inserted.payload):
            assert node.xid in touched  # introduced by a payload
        assert touched[v1.xid]  # stamped: the root's content changed

    def test_never_serialized(self):
        store = _history(3, versions=4, snapshot_interval=None)
        script = store.record("doc").deltas[1]
        before = serialize(script.to_xml())
        script.touched
        assert serialize(script.to_xml()) == before


# -- scoped apply ----------------------------------------------------------------


def _two_sections():
    """``<doc><a>item x</a><b>y</b></doc>`` and the delta that carries the
    item from ``a`` into ``b``."""
    store = TemporalDocumentStore()
    store.put("d", "<doc><a><item><name>one two</name><price>15</price></item>"
                   "<x>k</x></a><b><y>q</y></b></doc>", ts=JAN_01)
    store.update("d", "<doc><a><x>k</x></a><b><y>q</y><item><name>one two"
                      "</name><price>15</price></item></b></doc>",
                 ts=JAN_01 + DAY)
    return store


class TestScopedApply:
    def test_signals_a_move_into_and_out_of_the_subtree(self):
        store = _two_sections()
        script = store.record("d").deltas[1]
        v1 = store.version("d", 1)
        for section in (v1.find("a"), v1.find("b")):
            detached = section.copy()
            index = {n.xid: n for n in detached.iter()}
            with pytest.raises(SubtreeBoundaryCrossed):
                apply_scoped(detached, index, script, section.xid)

    def test_a_moved_element_keeps_its_subtree(self):
        store = _two_sections()
        script = store.record("d").deltas[1]
        item = store.version("d", 1).find("a").find("item").copy()
        before = _stamped(item)
        index = {n.xid: n for n in item.iter()}
        root, applied = apply_scoped(item, index, script, item.xid)
        assert root is item and applied == 0
        assert _stamped(root) == before

    def test_only_landing_operations_are_applied(self):
        store = TemporalDocumentStore()
        store.put("d", "<doc><r><n>first one</n><p>1</p></r>"
                       "<r><n>second one</n><p>2</p></r></doc>", ts=JAN_01)
        store.update("d", "<doc><r><n>first one</n><p>1</p></r>"
                          "<r><n>second one</n><p>3</p><q>new</q></r></doc>",
                     ts=JAN_01 + DAY)
        record = store.record("d")
        script = record.deltas[1]
        first, second = store.version("d", 1).findall("r")
        untouched = first.copy()
        root, applied = apply_scoped(
            untouched, {n.xid: n for n in untouched.iter()}, script, first.xid
        )
        assert applied == 0 and _stamped(root) == _stamped(first)
        changed = second.copy()
        index = {n.xid: n for n in changed.iter()}
        root, applied = apply_scoped(changed, index, script, second.xid)
        want = store.version("d", 2).find_by_xid(second.xid)
        assert want is not None and _stamped(root) == _stamped(want)
        assert 0 < applied < len(script)
        assert set(index) == {n.xid for n in want.iter()}
        # ... and back again.
        root, _ = apply_scoped(root, index, script, second.xid, invert=True)
        assert _stamped(root) == _stamped(second)

    def test_payloads_bring_the_element_in_and_take_it_away(self):
        store = TemporalDocumentStore()
        store.put("d", "<doc><r><p>1</p></r></doc>", ts=JAN_01)
        store.update("d", "<doc><r><p>1</p></r><s><t>late</t></s></doc>",
                     ts=JAN_01 + DAY)
        script = store.record("d").deltas[1]
        late = store.version("d", 2).find("s").find("t")
        index = {}
        root, applied = apply_scoped(None, index, script, late.xid)
        assert _stamped(root) == _stamped(late) and applied == 1
        assert set(index) == {n.xid for n in late.iter()}
        root, applied = apply_scoped(root, index, script, late.xid, invert=True)
        assert root is None and index == {} and applied == 1


# -- cursors: counters, sharing, fallback -------------------------------------------


class TestCursor:
    def test_move_into_a_bound_subtree_falls_back(self):
        store = _two_sections()
        repo = store.repository
        doc_id = store.doc_id("d")
        b = store.version("d", 1).find("b")
        cache = SnapshotCache(store)
        got = [
            cache.subtree(TEID(doc_id, b.xid, ts))
            for ts in (JAN_01 + DAY, JAN_01)  # current first, then back
        ]
        assert repo.subtree_fallbacks == 1
        assert repo.counter_snapshot()["subtree_fallbacks"] == 1
        for number, node in zip((2, 1), got):
            want = store.version("d", number).find_by_xid(b.xid)
            assert _stamped(node) == _stamped(want)

    def test_one_subtree_per_content_change_not_one_document_per_version(self):
        """A query binding one element over 30 versions holds one subtree
        object per change under it, and no document copies at all."""
        db = TemporalXMLDatabase()
        guide = ["<guide>"] + [
            f"<restaurant><name>r{i}</name><price>{10 + i}</price></restaurant>"
            for i in range(12)
        ] + ["</guide>"]
        db.put("guide.com", "".join(guide), ts=JAN_01)
        changes = 0
        for number in range(1, 30):
            # r0's price changes every tenth version, r1's in all the others.
            who = 0 if number % 10 == 0 else 1
            changes += who == 0
            guide[1 + who] = (
                f"<restaurant><name>r{who}</name>"
                f"<price>{100 + number}</price></restaurant>"
            )
            db.update("guide.com", "".join(guide), ts=JAN_01 + number * DAY)

        def live_documents():
            # Document roots: elements no live element has as a child.
            gc.collect()
            elements = [o for o in gc.get_objects() if isinstance(o, Element)]
            children = {id(c) for e in elements for c in e.children}
            return sum(
                1 for o in elements
                if id(o) not in children and o.tag == "guide"
            )

        stored = live_documents()
        result = db.query(
            'SELECT TIME(R), R FROM doc("guide.com")[EVERY]/restaurant R '
            'WHERE R/name = "r0"'
        )
        # The rows keep the query's cache alive, and with it everything
        # the query materialized.
        held = live_documents() - stored
        assert len(result) == 30
        assert held == 0  # the parent held 30 here
        subtrees = {id(row["R"].tree) for row in result.rows}
        assert len(subtrees) == changes + 1
        stats = result.stats
        assert stats["store.delta_reads"] == 29  # each delta read once
        assert stats["store.subtree_reads"] == 1
        assert stats["store.subtree_fallbacks"] == 0
        assert stats["store.ops_skipped"] > stats["store.ops_applied"] > 0

    def test_untouched_versions_share_one_frozen_object(self):
        store = _history(5, versions=8, snapshot_interval=None)
        expected, stamps = _oracle(store)
        doc_id = store.doc_id("doc")
        cache = SnapshotCache(store)
        for xid in expected[1]:
            seen = {}
            for number in sorted(expected):
                node = cache.subtree(TEID(doc_id, xid, stamps[number]))
                if node is not None:
                    seen.setdefault(expected[number][xid], set()).add(id(node))
            # Equal content across a run of versions is one object; the
            # same content coming back later may be a second one.
            assert all(len(ids) <= 2 for ids in seen.values())


# -- a reader beside a writer --------------------------------------------------------


@pytest.mark.timeout(120)
def test_every_reader_never_sees_a_torn_subtree():
    """A reader thread runs an ``[EVERY]`` query through pinned sessions
    while the writer commits; every answer must be byte-identical to the
    same query on a quiesced store holding exactly the pinned prefix."""
    rng = random.Random(11)
    tree = _first_version(rng)
    versions = [tree]
    removed = []
    for _ in range(14):
        tree = _edit(rng, tree, removed)
        versions.append(tree)
    # The root tag must stay queryable throughout.
    versions = [v for v in versions if v.tag == "guide"]
    query = 'SELECT TIME(S), S FROM doc("doc")[EVERY]/section S'

    def commit(target, number):
        source = serialize(versions[number])
        ts = JAN_01 + number * DAY
        if number == 0:
            target.put("doc", source, ts=ts)
        else:
            target.update("doc", source, ts=ts)

    db = TemporalXMLDatabase(snapshot_interval=4)
    manager = SessionManager(db)
    commit(manager, 0)
    stop = threading.Event()
    observed, errors = set(), []

    def reader():
        try:
            while not stop.is_set():
                session = manager.session()
                text = session.query(query).to_xml_string()
                observed.add((session.pinned.seq, text))
        except Exception as exc:  # noqa: BLE001 — recorded for the assert
            errors.append(exc)

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        for number in range(1, len(versions)):
            answered = len(observed)
            commit(manager, number)  # lands while the reader is mid-query
            deadline = time.monotonic() + 5
            while len(observed) == answered and time.monotonic() < deadline:
                time.sleep(0.001)
    finally:
        stop.set()
        thread.join(timeout=60)
    assert not thread.is_alive() and not errors
    assert len({seq for seq, _ in observed}) > 1
    for seq, text in sorted(observed):
        quiesced = TemporalXMLDatabase(snapshot_interval=4)
        for number in range(seq):
            commit(quiesced, number)
        assert text == quiesced.query(query).to_xml_string(), (
            f"torn read at published seq {seq}"
        )
