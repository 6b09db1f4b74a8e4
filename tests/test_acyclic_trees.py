"""Version trees and databases are acyclic: what the engine drops dies by
refcount.

A node holds no parent pointer, so no tree is a reference cycle; a reader of
a stored chain forms none with its cursors, and the full-text index's walk
none with the runs it collects.  Nor is a database: its parts refer back to
their owners weakly (a journal to its store, an optimizer and an evaluator to
their engine, a replica's session manager to the replica).  With the cycle
collector off and ``gc.DEBUG_SAVEALL`` set, a collection keeps everything it
finds unreachable in ``gc.garbage`` instead of freeing it.  One seeded
history (``tests/index_history.py``'s documents and edits) goes through every
path that makes and drops trees — puts, updates, deletes, commit groups,
checkpoints, reopens, a replica's catch-up, TXQL queries in-process and
through a replica session — and drops what it made, the databases, the
replica and its session included: not one object of a ``repro`` module may
be among what the collection finds.

At the end of the same history every XID map cached on a stored tree equals
a fresh scan of that tree: the maps live on frozen trees only
(:class:`~repro.xmlcore.node.Element`), and nothing may change a stored tree
under one.
"""

from __future__ import annotations

import gc
import random
from collections import Counter

import pytest

from repro import TemporalXMLDatabase
from repro.serving import Replica
from repro.xmlcore.serializer import serialize

from tests.index_history import START, evolve, new_document

QUERIES = (
    'SELECT R FROM doc("*")//item R',
    'SELECT TIME(R), R FROM doc("*")[EVERY]//box R',
    'SELECT DIFF(PREVIOUS(R), R) FROM doc("*") R',
    'SELECT TIME(R), CREATE TIME(R), CURRENT(R) FROM doc("*")[EVERY]//name R',
)


def _history(directory, seed):
    """Run one seeded history; return the last database's and the
    replica's stores.  Everything else it made is dropped when it
    returns."""
    rng = random.Random(seed)
    masters = {}  # live document name -> its tree as last sent
    created = 0
    ts = START
    replica = session = None

    def open_db():
        return TemporalXMLDatabase.open(
            directory, durability="journal", snapshot_interval=3
        )

    def query(target):
        for text in QUERIES:
            assert target.query(text).to_xml_string()

    db = open_db()
    for step in range(48):
        ts += 3600
        roll = rng.random()
        if not masters or roll < 0.1:
            created += 1
            name = f"d{created}.xml"
            masters[name] = new_document(rng)
            db.put(name, serialize(masters[name]), ts=ts)
        elif roll < 0.25:
            with db.batch() as batch:
                for name in sorted(masters)[:2]:
                    masters[name] = evolve(rng, masters[name])
                    ts += 1
                    batch.update(name, serialize(masters[name]), ts=ts)
        elif roll < 0.3 and len(masters) > 1:
            name = rng.choice(sorted(masters))
            del masters[name]
            db.delete(name, ts=ts)
        elif roll < 0.35:
            db.checkpoint()
        elif roll < 0.4:
            db.close()
            db = open_db()
        else:
            name = rng.choice(sorted(masters))
            masters[name] = evolve(rng, masters[name])
            db.update(name, serialize(masters[name]), ts=ts)
        if step == 16:
            replica = Replica(directory)
            session = replica.session()
        elif replica is not None and step % 4 == 0:
            replica.catch_up()
        if step % 12 == 11:
            query(db)
    replica.catch_up()
    session.refresh()
    query(db)
    query(session)
    db.close()
    return db.store, replica.store


def left_to_collector(call):
    """``(result of call(), census of the repro objects it left to the
    cycle collector)``: ``call`` runs with the collector off, and a
    collection afterwards saves what it finds in ``gc.garbage``."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    before = len(gc.garbage)
    try:
        result = call()
        gc.collect()
        census = Counter(
            f"{type(o).__module__}.{type(o).__qualname__}"
            for o in gc.garbage[before:]
            if type(o).__module__.startswith("repro")
        )
    finally:
        gc.set_debug(0)
        del gc.garbage[before:]
        if enabled:
            gc.enable()
    return result, census


@pytest.fixture(scope="module")
def history(tmp_path_factory):
    """``(the stores, a census of the repro objects the history left to
    the collector)``."""
    directory = tmp_path_factory.mktemp("acyclic") / "db"
    return left_to_collector(lambda: _history(directory, 5))


def test_no_node_is_left_to_the_cycle_collector(history):
    """Nor any other object of a repro module."""
    _stores, census = history
    assert not census, census.most_common(8)


def test_a_closed_database_dies_by_refcount(tmp_path):
    def lifecycle():
        db = TemporalXMLDatabase.open(tmp_path / "db", durability="journal")
        db.put("g.xml", "<g><r><n>a</n><p>1</p></r></g>")
        db.update("g.xml", "<g><r><n>a</n><p>2</p></r><r><n>b</n></r></g>")
        for text in QUERIES:
            assert db.query(text).to_xml_string()
        db.checkpoint()
        db.close()

    _result, census = left_to_collector(lifecycle)
    assert not census, census.most_common(8)


def test_every_cached_xid_map_is_a_fresh_scan(history):
    checked = 0
    for store in history[0]:
        for record in store.repository.records():
            trees = list(record.snapshots.values())
            if record.current_root is not None:
                trees.append(record.current_root)
            for tree in trees:
                for element in tree.iter_elements():
                    cached = element._xidmap
                    if cached is None:
                        continue
                    checked += 1
                    fresh = {
                        node.xid: node for node in element.iter()
                        if node is not element
                    }
                    assert cached == fresh, (record.name, element.xid)
    assert checked > 0
