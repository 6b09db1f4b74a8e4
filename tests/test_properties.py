"""Property-based tests over the core invariants.

These are the load-bearing guarantees of the whole system:

1. diff/apply round-trip: for random tree pairs, applying the completed
   delta forwards yields the new tree, backwards the old tree — stamps
   included;
2. storage consistency: any reconstructed version equals the tree that was
   committed, for random version histories and snapshot intervals;
3. index/storage agreement: ``FTI_lookup_T(word, t)`` matches exactly the
   elements found by navigating the reconstructed snapshot at ``t``;
4. lifetime agreement: CreTime/DelTime by delta traversal equals the
   auxiliary-index answer for every element that ever lived.
"""

from __future__ import annotations

import random

import pytest

from hypothesis import example, given, settings, strategies as st

from benchmarks.ablation.fti_alternatives import DeltaOperationIndex
from benchmarks.planedits import run_unrewritten

from repro.diff import apply_script, diff
from repro.index import LifetimeIndex, TemporalFullTextIndex, tokenize
from repro.model.identifiers import TEID, XIDAllocator
from repro.model.versioned import (
    stamp_new_nodes,
    verify_timestamp_invariant,
)
from repro.operators import CreTime, DelTime
from repro.storage import TemporalDocumentStore
from repro.xmlcore import serialize
from repro.xmlcore.node import Element, Text

_TAGS = ("a", "b", "item", "name")
_WORDS = ("alpha", "beta", "gamma", "delta", "omega", "15", "18")


def _random_tree(rng, depth=3, fanout=3):
    root = Element(rng.choice(_TAGS))
    if rng.random() < 0.4:
        root.attrib[rng.choice(("k", "m"))] = rng.choice(_WORDS)
    count = rng.randint(0, fanout) if depth > 0 else 0
    for _ in range(count):
        if rng.random() < 0.35:
            root.append(Text(" ".join(
                rng.choice(_WORDS) for _ in range(rng.randint(1, 3))
            )))
        else:
            root.append(_random_tree(rng, depth - 1, fanout))
    if not root.children and rng.random() < 0.7:
        root.append(Text(rng.choice(_WORDS)))
    return root


def _mutate(rng, tree):
    """A random plausible edit of a copy of ``tree`` (unstamped result)."""
    dup = tree.copy()
    for node in dup.iter():
        node.xid = None
        node.tstamp = None
    elements = [el for el in dup.iter_elements()]
    for _ in range(rng.randint(1, 4)):
        action = rng.random()
        target = rng.choice(elements)
        if action < 0.3:
            texts = [c for c in target.children if isinstance(c, Text)]
            if texts:
                rng.choice(texts).value = rng.choice(_WORDS)
            else:
                target.append(Text(rng.choice(_WORDS)))
        elif action < 0.5:
            target.append(_random_tree(rng, depth=1))
        elif action < 0.7:
            children = target.child_elements()
            if children:
                target.remove(rng.choice(children))
        elif action < 0.85:
            target.attrib[rng.choice(("k", "m"))] = rng.choice(_WORDS)
        else:
            children = target.children
            if len(children) >= 2:
                node = children[-1]
                target.remove(node)
                target.insert(0, node)
        elements = [el for el in dup.iter_elements()]
    return dup


def _stamps(tree):
    return [(n.xid, n.tstamp) for n in tree.iter()]


class TestDiffApplyRoundtrip:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_forward_and_backward(self, seed):
        rng = random.Random(seed)
        alloc = XIDAllocator()
        old = _random_tree(rng)
        stamp_new_nodes(old, alloc, 100)
        new = _mutate(rng, old)
        before = serialize(old)

        script = diff(old, new, alloc, commit_ts=200)
        assert serialize(old) == before  # the old tree is never mutated

        forward = apply_script(old.copy(), script)
        assert forward.equals_deep(new)
        assert _stamps(forward) == _stamps(new)

        backward = apply_script(new.copy(), script.invert())
        assert backward.equals_deep(old)
        assert _stamps(backward) == _stamps(old)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_timestamp_invariant_after_diff(self, seed):
        rng = random.Random(seed)
        alloc = XIDAllocator()
        old = _random_tree(rng)
        stamp_new_nodes(old, alloc, 100)
        new = _mutate(rng, old)
        diff(old, new, alloc, commit_ts=200)
        assert verify_timestamp_invariant(new) == []

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_script_xml_roundtrip(self, seed):
        from repro.diff.editscript import EditScript
        from repro.xmlcore import parse

        rng = random.Random(seed)
        alloc = XIDAllocator()
        old = _random_tree(rng)
        stamp_new_nodes(old, alloc, 100)
        new = _mutate(rng, old)
        script = diff(old, new, alloc, commit_ts=200)
        decoded = EditScript.from_xml(parse(serialize(script.to_xml())))
        replayed = apply_script(old.copy(), decoded)
        assert replayed.equals_deep(new)


def _build_history(seed, versions, snapshot_interval):
    """Commit a random version chain; returns (store, committed sources)."""
    rng = random.Random(seed)
    store = TemporalDocumentStore(snapshot_interval=snapshot_interval)
    tree = _random_tree(rng)
    committed = [serialize(tree)]
    store.put("doc.xml", tree)
    current = store.record("doc.xml").current_root
    for _ in range(versions - 1):
        new = _mutate(rng, current)
        committed.append(serialize(new))
        store.update("doc.xml", new)
        current = store.record("doc.xml").current_root
    return store, committed


class TestStorageConsistency:
    @given(
        st.integers(0, 3_000),
        st.integers(2, 8),
        st.sampled_from([None, 2, 3]),
    )
    @settings(max_examples=25, deadline=None)
    # Attribute order must survive a delta applied backwards: v4
    # <item m="15" k="delta"> -> v5 <item k="delta"> (and the second
    # history's v5 -> v6) re-add the dropped attribute on the way back.
    @example(38, 6, None)
    @example(162, 6, 2)
    def test_every_version_reconstructs(self, seed, versions, interval):
        store, committed = _build_history(seed, versions, interval)
        for number, source in enumerate(committed, start=1):
            assert serialize(store.version("doc.xml", number)) == source

    @given(st.integers(0, 3_000), st.integers(2, 6))
    @settings(max_examples=20, deadline=None)
    def test_snapshot_at_commit_instants(self, seed, versions):
        store, committed = _build_history(seed, versions, None)
        dindex = store.delta_index("doc.xml")
        for entry, source in zip(dindex.entries, committed):
            snapshot = store.snapshot("doc.xml", entry.timestamp)
            assert serialize(snapshot) == source
            # Just before the commit: the previous version (or nothing).
            earlier = store.snapshot("doc.xml", entry.timestamp - 1)
            if entry.number == 1:
                assert earlier is None
            else:
                assert serialize(earlier) == committed[entry.number - 2]


class TestIndexAgreesWithStorage:
    @given(st.integers(0, 2_000), st.integers(2, 6))
    @settings(max_examples=15, deadline=None)
    def test_fti_lookup_t_matches_navigation(self, seed, versions):
        rng = random.Random(seed)
        store = TemporalDocumentStore()
        fti = store.subscribe(TemporalFullTextIndex())
        tree = _random_tree(rng)
        store.put("doc.xml", tree)
        current = store.record("doc.xml").current_root
        for _ in range(versions - 1):
            new = _mutate(rng, current)
            store.update("doc.xml", new)
            current = store.record("doc.xml").current_root

        dindex = store.delta_index("doc.xml")
        for entry in dindex.entries:
            ts = entry.timestamp
            snapshot = store.snapshot("doc.xml", ts)
            for word in _WORDS + _TAGS:
                expected = _elements_containing(snapshot, word)
                postings = fti.lookup_t(word, ts)
                found = {p.xid for p in postings}
                assert found == expected, (word, ts)

    @given(st.integers(0, 2_000), st.integers(2, 6))
    @settings(max_examples=15, deadline=None)
    def test_lifetime_strategies_agree(self, seed, versions):
        rng = random.Random(seed)
        store = TemporalDocumentStore()
        lifetime = store.subscribe(LifetimeIndex())
        tree = _random_tree(rng)
        store.put("doc.xml", tree)
        current = store.record("doc.xml").current_root
        for _ in range(versions - 1):
            new = _mutate(rng, current)
            store.update("doc.xml", new)
            current = store.record("doc.xml").current_root

        doc_id = store.doc_id("doc.xml")
        dindex = store.delta_index("doc.xml")
        # For every element alive in every version, both strategies agree.
        for entry in dindex.entries:
            snapshot = store.version("doc.xml", entry.number)
            for node in snapshot.iter():
                teid = TEID(doc_id, node.xid, entry.timestamp)
                traverse = CreTime(store, teid, "traverse").value()
                indexed = CreTime(store, teid, "index", lifetime).value()
                assert traverse == indexed
                del_traverse = DelTime(store, teid, "traverse").value()
                del_indexed = DelTime(store, teid, "index", lifetime).value()
                assert del_traverse == del_indexed


def _elements_containing(snapshot, word):
    """Ground truth: XIDs of elements whose name/attrs/direct text contain
    ``word`` — mirrors the index's occurrence attribution."""
    if snapshot is None:
        return set()
    out = set()
    for element in snapshot.iter_elements():
        terms = list(tokenize(element.tag))
        for value in element.attrib.values():
            terms.extend(tokenize(value))
        for child in element.children:
            if isinstance(child, Text):
                terms.extend(tokenize(child.value))
        if word in terms:
            out.add(element.xid)
    return out


class TestDeltaIndexFoldAgreement:
    """Alternative 2's event fold must equal alternative 1's intervals."""

    @given(st.integers(0, 2_000), st.integers(2, 6))
    @settings(max_examples=15, deadline=None)
    def test_event_fold_matches_content_index(self, seed, versions):
        rng = random.Random(seed)
        store = TemporalDocumentStore()
        content = store.subscribe(TemporalFullTextIndex())
        operations = store.subscribe(DeltaOperationIndex())
        tree = _random_tree(rng)
        store.put("doc.xml", tree)
        current = store.record("doc.xml").current_root
        for _ in range(versions - 1):
            new = _mutate(rng, current)
            store.update("doc.xml", new)
            current = store.record("doc.xml").current_root

        dindex = store.delta_index("doc.xml")
        for entry in dindex.entries:
            ts = entry.timestamp
            for word in _WORDS:
                by_fold = set(operations.lookup_t(word, ts))
                by_intervals = {
                    (p.doc_id, p.xid) for p in content.lookup_t(word, ts)
                }
                assert by_fold == by_intervals, (word, ts)


class TestSimilarityProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_bounded_and_reflexive(self, seed):
        from repro.equality import similarity

        rng = random.Random(seed)
        tree = _random_tree(rng)
        other = _mutate(rng, tree)
        score = similarity(tree, other)
        assert 0.0 <= score <= 1.0 + 1e-9
        assert similarity(tree, tree.copy()) == pytest.approx(1.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_symmetric(self, seed):
        from repro.equality import similarity

        rng = random.Random(seed)
        left = _random_tree(rng)
        right = _mutate(rng, left)
        assert similarity(left, right) == pytest.approx(
            similarity(right, left)
        )


class TestRewriterEquivalenceProperty:
    """Rewriting never changes answers on random version histories."""

    @given(st.integers(0, 2_000), st.integers(3, 6))
    @settings(max_examples=10, deadline=None)
    def test_windowed_history_queries(self, seed, versions):
        from repro.index import TemporalFullTextIndex as FTI
        from repro.query import QueryEngine
        from repro.clock import format_timestamp

        rng = random.Random(seed)
        store = TemporalDocumentStore()
        fti = store.subscribe(FTI())
        tree = _random_tree(rng)
        store.put("doc.xml", tree)
        current = store.record("doc.xml").current_root
        for _ in range(versions - 1):
            new = _mutate(rng, current)
            store.update("doc.xml", new)
            current = store.record("doc.xml").current_root

        dindex = store.delta_index("doc.xml")
        cutoff = format_timestamp(
            dindex.entries[rng.randrange(len(dindex.entries))].timestamp
        )
        query = (
            'SELECT TIME(D) FROM doc("doc.xml")[EVERY] D '
            f"WHERE TIME(D) >= {cutoff}"
        )
        engine = QueryEngine(store, fti=fti)
        on = sorted(str(engine.execute(query)).splitlines())
        off = sorted(str(run_unrewritten(engine, query)).splitlines())
        assert on == off


class TestPersistenceProperty:
    """Archive round-trips preserve every version on random histories."""

    @given(st.integers(0, 2_000), st.integers(2, 6),
           st.sampled_from([None, 2]))
    @settings(max_examples=10, deadline=None)
    @example(38, 6, None)
    @example(162, 6, 2)
    def test_dump_load_roundtrip(self, seed, versions, interval):
        from repro.storage.persistence import dump_store, load_store

        store, committed = _build_history(seed, versions, interval)
        loaded = load_store(dump_store(store))
        for number, source in enumerate(committed, start=1):
            assert serialize(loaded.version("doc.xml", number)) == source


class TestParserRoundtripProperty:
    """label() output re-parses to the same query shape."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_label_fixpoint(self, seed):
        from repro.query.parser import parse_query

        rng = random.Random(seed)
        query = _random_query_text(rng)
        parsed = parse_query(query)
        assert parse_query(parsed.label()).label() == parsed.label()


def _random_query_text(rng):
    paths = ("r", "r/name", "//price", "a/b/c")
    qualifiers = ("", "[EVERY]", "[26/01/2001]", "[NOW - 3 DAYS]")
    froms = []
    variables = []
    for index in range(rng.randint(1, 2)):
        var = f"V{index}"
        variables.append(var)
        chosen = rng.choice(paths)
        prefix = "" if chosen.startswith("//") else "/"
        froms.append(
            f'doc("d{index}"){rng.choice(qualifiers)}'
            f"{prefix}{chosen} {var}"
        )
    var = rng.choice(variables)
    selects = rng.choice(
        (
            var,
            f"{var}/name",
            f"TIME({var})",
            f"CURRENT({var})/name",
            f"COUNT({var})",
        )
    )
    wheres = rng.choice(
        (
            "",
            f' WHERE {var}/price < 10',
            f' WHERE {var}/name = "x" AND TIME({var}) >= 01/01/2001',
            f" WHERE NOT {var} ~ {var} OR {var} == {var}",
            f" WHERE CREATE TIME({var}) > NOW - 2 WEEKS",
        )
    )
    return f"SELECT {selects} FROM {', '.join(froms)}{wheres}"
