"""Bidirectional cost-based reconstruction vs. its references.

Completed deltas are invertible, so *any* anchor — current version,
snapshot on either side of the target — must reconstruct the
byte-identical version.  These tests drive randomized tdocgen histories
(the same seeds as the join equivalence harness) through the engine with
different snapshot spacings, and compare serializations against a
store-every-version oracle and against the paper's backward-only walk
(``benchmarks/ablation/reconstruct.py``).  They also pin down
``reconstruct_range`` and two-version ``Diff`` equivalence and that a
reconstruction costs its distance from the anchor every time it is asked.
"""

import pytest

from benchmarks.ablation.reconstruct import reconstruct_backward
from repro.diff.apply import apply_script
from repro.model.identifiers import TEID
from repro.operators import Diff
from repro.storage import TemporalDocumentStore
from repro.storage.snapshots import AdaptiveSnapshotPolicy
from repro.workload import TDocGenerator
from repro.xmlcore.serializer import serialize

SEEDS = [3, 11, 42]
VERSIONS = 14


def _build(seed, **store_kwargs):
    """A store with a randomized history plus the expected serialization of
    every version (captured from the trees before they were committed)."""
    store = TemporalDocumentStore(**store_kwargs)
    generator = TDocGenerator(seed=seed)
    trees = generator.version_sequence("d.xml", VERSIONS)
    expected = []
    store.put("d.xml", trees[0])
    expected.append(serialize(store.current("d.xml")))
    for tree in trees[1:]:
        store.update("d.xml", tree)
        expected.append(serialize(store.current("d.xml")))
    return store, expected


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("snapshot_interval", [None, 5])
class TestPolicyEquivalence:
    def test_every_version_byte_identical(self, seed, snapshot_interval):
        store, expected = _build(seed, snapshot_interval=snapshot_interval)
        record = store.record("d.xml")
        # Mixed access order, twice over.
        order = list(range(1, VERSIONS + 1))
        order = order[::2] + order[1::2][::-1]
        for number in order * 2:
            tree = store.version("d.xml", number)
            assert serialize(tree) == expected[number - 1], (
                f"version {number} mismatch"
            )
            reference = reconstruct_backward(store.repository, record, number)
            assert serialize(reference) == expected[number - 1]
        if snapshot_interval:
            # A snapshot below some targets: both application directions ran.
            anchors = store.repository.anchor_stats
            assert anchors.forward_chains > 0
            assert anchors.backward_chains > 0


@pytest.mark.parametrize("seed", SEEDS)
class TestRangeAndPair:
    def test_reconstruct_range_matches_pointwise(self, seed):
        store, expected = _build(seed, snapshot_interval=4)
        record = store.record("d.xml")
        repository = store.repository
        lo, hi = 2, VERSIONS - 1
        forward = [
            (number, serialize(tree))
            for number, tree, _xids in repository.reconstruct_range(
                record, lo, hi
            )
        ]
        assert [n for n, _s in forward] == list(range(lo, hi + 1))
        for number, text in forward:
            assert text == expected[number - 1]
        backward = [
            (number, serialize(tree))
            for number, tree, _xids in repository.reconstruct_range(
                record, lo, hi, newest_first=True
            )
        ]
        assert [n for n, _s in backward] == list(range(hi, lo - 1, -1))
        for number, text in backward:
            assert text == expected[number - 1]

    def test_range_costs_one_anchor_and_one_delta_pass(self, seed):
        store, _expected = _build(seed)
        record = store.record("d.xml")
        repo = store.repository
        repo.delta_reads = repo.snapshot_reads = repo.current_reads = 0
        # Newest-first from the current version (the DocHistory shape):
        # the anchor is the current tree, chain length zero, then exactly
        # one inverted delta per older version.
        for _ in repo.reconstruct_range(record, 1, VERSIONS,
                                        newest_first=True):
            pass
        assert repo.snapshot_reads + repo.current_reads == 1
        assert repo.delta_reads == VERSIONS - 1

    def test_range_rejects_bad_bounds(self, seed):
        from repro.errors import NoSuchVersionError

        store, _expected = _build(seed)
        record = store.record("d.xml")
        with pytest.raises(NoSuchVersionError):
            store.repository.reconstruct_range(record, 0, 3)
        with pytest.raises(NoSuchVersionError):
            store.repository.reconstruct_range(record, 2, VERSIONS + 1)

    def test_reconstruct_pair_byte_identical(self, seed):
        """Two versions of one document through ``Diff``: two seeks of one
        cursor.  The script it returns takes the first version to the
        second byte for byte, and the pair never reads more deltas than
        two separate reconstructions."""
        store, expected = _build(seed, snapshot_interval=6)
        record = store.record("d.xml")
        repo = store.repository
        root = record.current_root.xid
        stamp = {e.number: e.timestamp for e in record.dindex.entries}
        for first, second in [(3, 9), (9, 3), (1, VERSIONS), (5, 5)]:
            repo.delta_reads = 0
            trees = {n: store.version("d.xml", n) for n in {first, second}}
            separate = repo.delta_reads
            repo.delta_reads = 0
            script = Diff(store).script(
                TEID(record.doc_id, root, stamp[first]),
                TEID(record.doc_id, root, stamp[second]),
            )
            assert repo.delta_reads <= separate
            assert (len(script) == 0) == (first == second)
            assert serialize(apply_script(trees[first], script)) == (
                expected[second - 1]
            )
            # What Diff read stays what the store serves.
            assert serialize(store.version("d.xml", first)) == (
                expected[first - 1]
            )


class TestCacheInteraction:
    def test_repeated_reconstruction_costs_its_distance_every_time(self):
        """The paper's E3 accounting: the k-th version costs VERSIONS - k
        delta reads from the current version, and asking again is no
        cheaper — the repository keeps no memory of what it rebuilt."""
        store, _expected = _build(7)
        repo = store.repository
        for number in (1, 4, 9, VERSIONS):
            for _ask in range(2):
                repo.delta_reads = 0
                store.version("d.xml", number)
                assert repo.delta_reads == VERSIONS - number

    def test_adaptive_policy_versions_stay_byte_identical(self):
        store, expected = _build(
            42, snapshot_policy=AdaptiveSnapshotPolicy(max_delta_bytes=400)
        )
        assert store.record("d.xml").dindex.snapshot_numbers(), (
            "threshold should have fired at least once on this history"
        )
        for number in range(1, VERSIONS + 1):
            assert serialize(store.version("d.xml", number)) == (
                expected[number - 1]
            )
