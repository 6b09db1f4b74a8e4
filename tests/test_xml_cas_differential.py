"""Randomized differential test: a CAS directory against an in-memory store.

The same seeded batched ingestion goes into a durable directory — with
mid-run checkpoints and a full close/reopen cycle, so the directory
round-trips through its CAS checkpoints and journal — and into an
in-memory reference database that never touches disk.  Both must end
observably identical: byte-identical XML archives, equal FTI
``lookup_t`` results, equal reconstructions, and equal temporal
keyword-search rankings.
"""

import random

import pytest

from repro import TemporalXMLDatabase
from repro.clock import parse_date
from repro.index.relevance import TemporalKeywordScorer
from repro.storage.persistence import archive_bytes, build_archive
from repro.workload import BatchingWriter, TDocGenerator
from repro.xmlcore import serialize

START = parse_date("01/01/2001")


def _op_stream(seed, n_docs=6, rounds=9):
    """Seeded random ops (kind, name, tree, ts): round-robin evolution
    with random extra updates and occasional delete + re-create."""
    generator = TDocGenerator(seed=seed, p_update=0.3, p_insert=0.1,
                              p_delete=0.1)
    rng = random.Random(seed * 31 + 7)
    names = [f"d{i}.xml" for i in range(1, n_docs + 1)]
    alive = set()
    ops = []
    ts = START
    for _ in range(rounds):
        for name in names:
            if name not in alive:
                ops.append(("put", name, generator.document(name), ts))
                alive.add(name)
            elif rng.random() < 0.08:
                ops.append(("delete", name, None, ts))
                alive.discard(name)
            else:
                ops.append(("update", name, generator.evolve(name), ts))
            ts += 3600
    return ops, generator


def _ingest(db, ops, batch_size=7):
    with BatchingWriter(db.store, batch_size=batch_size) as writer:
        for kind, name, tree, ts in ops:
            if kind == "delete":
                writer.delete(name, ts=ts)
            else:
                getattr(writer, kind)(name, tree.copy(), ts=ts)


def _build_directory(directory, ops):
    """Batched ingestion with a mid-run checkpoint and a reopen cycle."""
    db = TemporalXMLDatabase.open(
        directory, durability="fsync", snapshot_interval=4
    )
    half = len(ops) // 2
    for chunk in (ops[:half], ops[half:]):
        _ingest(db, chunk)
        db.checkpoint()
        db.close()
        db = TemporalXMLDatabase.open(
            directory, durability="fsync", snapshot_interval=4
        )
    assert db.recovery.storage == "cas"
    return db


def _build_reference(ops):
    db = TemporalXMLDatabase(snapshot_interval=4)
    _ingest(db, ops)
    return db


@pytest.mark.parametrize("seed", [3, 11])
def test_backends_are_observably_identical(tmp_path, seed):
    ops, _generator = _op_stream(seed)
    reference = _build_reference(ops)
    durable = _build_directory(tmp_path / "db", ops)
    try:
        # Strongest check first: the logical store state is byte-identical.
        assert archive_bytes(
            build_archive(reference.store)
        ) == archive_bytes(build_archive(durable.store))

        # Reconstructions agree version by version.
        for record in reference.store.repository.records():
            for number in range(1, record.dindex.current_number + 1):
                assert serialize(
                    reference.store.version(record.doc_id, number)
                ) == serialize(durable.store.version(record.doc_id, number))

        # FTI lookup_t agrees at sampled instants for sampled words.
        instants = [START + i * 3600 * 5 for i in range(12)]
        words = ["w0001", "w0002", "w0005", "w0020", "section", "item"]
        for word in words:
            for ts in instants:
                reference_hits = sorted(
                    (p.doc_id, p.xid, p.start, p.end)
                    for p in reference.fti.lookup_t(word, ts)
                )
                durable_hits = sorted(
                    (p.doc_id, p.xid, p.start, p.end)
                    for p in durable.fti.lookup_t(word, ts)
                )
                assert reference_hits == durable_hits, (word, ts)

        # Ranked keyword search agrees, instant and windowed.
        reference_scorer = TemporalKeywordScorer(reference.fti)
        durable_scorer = TemporalKeywordScorer(durable.fti)
        end = reference.now()
        assert end == durable.now()
        for query in ("w0001", "w0002 item", "w0003 w0010 section"):
            assert reference_scorer.search_t(
                query, end
            ) == durable_scorer.search_t(query, end)
            assert reference_scorer.search_window(
                query, START, end
            ) == durable_scorer.search_window(query, START, end)
    finally:
        durable.close()
