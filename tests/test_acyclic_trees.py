"""Version trees are acyclic values: what the engine drops dies by refcount.

A node holds no parent pointer, so no tree is a reference cycle; a reader of
a stored chain forms none with its cursors, and the full-text index's walk
none with the runs it collects.  With the cycle collector off and
``gc.DEBUG_SAVEALL`` set, a collection keeps everything it finds unreachable
in ``gc.garbage`` instead of freeing it.  One seeded history
(``tests/index_history.py``'s documents and edits) goes through every path
that makes and drops trees — puts, updates, deletes, commit groups,
checkpoints, reopens, a replica's catch-up, TXQL queries in-process and
through a replica session — and drops what it made: not one node may be
among what the collection finds.  The databases, the replica and its session
stay reachable through the check, because each is a cycle of its own (an
engine and its optimizer, a store and its journal, a replica and its session
manager) that is meant to live; what the collection finds is what the engine
let go.

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
from repro.xmlcore.node import Element, Text
from repro.xmlcore.serializer import serialize

from tests.index_history import START, evolve, new_document

QUERIES = (
    'SELECT R FROM doc("*")//item R',
    'SELECT TIME(R), R FROM doc("*")[EVERY]//box R',
    'SELECT DIFF(PREVIOUS(R), R) FROM doc("*") R',
    'SELECT TIME(R), CREATE TIME(R), CURRENT(R) FROM doc("*")[EVERY]//name R',
)


def _history(directory, seed, held):
    """Run one seeded history; append every database, replica and session
    it opens to ``held`` and return the last database's and the replica's
    stores.  Everything else it made is dropped when it returns."""
    rng = random.Random(seed)
    masters = {}  # live document name -> its tree as last sent
    created = 0
    ts = START
    replica = session = None

    def open_db():
        db = TemporalXMLDatabase.open(
            directory, durability="journal", snapshot_interval=3
        )
        held.append(db)
        return db

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
            held += [replica, session]
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


@pytest.fixture(scope="module")
def history(tmp_path_factory):
    """``(nodes the collection found, a census of it, the stores)``."""
    held = []
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    before = len(gc.garbage)
    try:
        stores = _history(tmp_path_factory.mktemp("acyclic") / "db", 5, held)
        gc.collect()
        found = gc.garbage[before:]
        nodes = sum(isinstance(o, (Element, Text)) for o in found)
        census = Counter(type(o).__name__ for o in found).most_common(8)
        del found
    finally:
        gc.set_debug(0)
        del gc.garbage[before:]
        if enabled:
            gc.enable()
    return nodes, census, stores


def test_no_node_is_left_to_the_cycle_collector(history):
    nodes, census, _stores = history
    assert nodes == 0, f"{nodes} nodes left to the collector among {census}"


def test_every_cached_xid_map_is_a_fresh_scan(history):
    checked = 0
    for store in history[2]:
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
