"""Seeded document histories for the index differential tests.

:func:`drive` runs one history against a durable database directory:
puts, updates, deletes, re-puts of deleted names, checkpoints and
reopens, on documents with attributes, mixed content, words repeated
inside one element, subtrees moved between parents and root tags
replaced.  Commit times strictly increase, so replay (ordered by
timestamp, then document id) meets the commits in their live order and
every per-word posting list must come out in the same order.

The caller's ``references`` (naive index models) are subscribed to the
live store and re-subscribed after every reopen, so they always hold the
state the live commits built; ``check(db)`` compares the database's
indexes with them after every commit and every reopen.
"""

from __future__ import annotations

import random

from repro import TemporalXMLDatabase
from repro.clock import parse_date
from repro.storage.legacy import upgrade
from repro.xmlcore.node import Element, Text, parent_map
from repro.xmlcore.serializer import serialize
from tests.legacy_dirs import make_legacy

START = parse_date("01/03/2001")

_TAGS = ("item", "box", "name", "note")
_ROOT_TAGS = ("doc", "root")
_WORDS = ("gold", "silver", "gold", "iron", "tin", "15", "18", "red")


def _words(rng, low=1, high=4):
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(low, high)))


def _element(rng, depth):
    node = Element(rng.choice(_TAGS))
    if rng.random() < 0.4:
        node.set(rng.choice(("k", "m")), _words(rng, 1, 2))
    if depth > 0:
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.4:
                node.append(Text(_words(rng)))  # mixed content
            else:
                node.append(_element(rng, depth - 1))
    if not node.children:
        node.append(Text(_words(rng)))
    return node


def new_document(rng):
    root = _element(rng, 3)
    root.tag = rng.choice(_ROOT_TAGS)
    return root


def evolve(rng, root):
    """A changed copy of ``root``: one to three edits."""
    root = root.copy()
    for _ in range(rng.randint(1, 3)):
        elements = list(root.iter_elements())
        target = rng.choice(elements)
        roll = rng.random()
        if roll < 0.25:
            texts = [c for c in target.children if isinstance(c, Text)]
            if texts:
                rng.choice(texts).value = _words(rng)
            else:
                target.append(Text(_words(rng)))
        elif roll < 0.4:
            name = rng.choice(("k", "m"))
            if name in target.attrib and rng.random() < 0.5:
                del target.attrib[name]
            else:
                target.set(name, _words(rng, 1, 2))
        elif roll < 0.55:
            target.insert(
                rng.randint(0, len(target.children)), _element(rng, 1)
            )
        elif roll < 0.7:
            children = target.child_elements()
            if children:
                target.remove(rng.choice(children))
        elif roll < 0.88:
            # Move a subtree under another parent outside it.
            moved = rng.choice(elements)
            inside = set(map(id, moved.iter()))
            parents = [e for e in elements if id(e) not in inside]
            if moved is not root and parents:
                parent_map(root)[id(moved)].remove(moved)
                rng.choice(parents).append(moved)
        elif roll < 0.94:
            root.tag = next(t for t in _ROOT_TAGS if t != root.tag)
        else:
            target.tag = rng.choice(_TAGS) if target is not root else root.tag
    return root


def drive(seed, directory, references, check, steps=60, checkpoints=True,
          storage="cas"):
    """Run the seeded history; returns the last database opened (closed,
    its store still readable).

    With ``checkpoints`` a reopen recovers a checkpoint through
    ``replay_history`` plus the journal tail, and the run ends with a
    checkpoint of everything and one more reopen; without, every reopen
    recovers the whole history from the journal tail.  With
    ``storage="xml"`` every reopen first rewrites the checkpoints as the
    XML archives an older release wrote (:func:`make_legacy`) and
    upgrades the directory back to CAS (:func:`upgrade`)."""
    rng = random.Random(seed)
    masters = {}  # name -> current master tree (live documents)
    deleted = []
    counter = 0
    ts = START

    def open_db():
        if storage == "xml":
            upgrade(make_legacy(directory))
        db = TemporalXMLDatabase.open(directory, durability="journal")
        for reference in references:
            db.store.subscribe(reference)
        return db

    db = open_db()
    try:
        for _ in range(steps):
            ts += 3600
            roll = rng.random()
            if not masters or roll < 0.12:
                counter += 1
                name = f"d{counter}.xml"
                masters[name] = new_document(rng)
                db.put(name, serialize(masters[name]), ts=ts)
            elif roll < 0.17 and deleted:
                name = deleted.pop(rng.randrange(len(deleted)))
                masters[name] = new_document(rng)
                db.put(name, serialize(masters[name]), ts=ts)
            elif roll < 0.22 and len(masters) > 1:
                name = rng.choice(sorted(masters))
                del masters[name]
                deleted.append(name)
                db.delete(name, ts=ts)
            elif roll < 0.27:
                if checkpoints:
                    db.checkpoint()
                continue
            elif roll < 0.32:
                db.close()
                db = open_db()
                check(db)
                continue
            else:
                name = rng.choice(sorted(masters))
                masters[name] = evolve(rng, masters[name])
                db.update(name, serialize(masters[name]), ts=ts)
            check(db)
        db.close()
        db = open_db()
        check(db)
        if checkpoints:
            db.checkpoint()
            db.close()
            db = open_db()
            check(db)
    finally:
        db.close()
    return db


def script_features(store):
    """What the stored deltas of ``store`` exercised: the edit operation
    class names, plus ``"cross-parent move"``."""
    features = set()
    for record in store.repository.records():
        for script in record.deltas.values():
            for op in script:
                features.add(type(op).__name__)
                if (type(op).__name__ == "MoveOp"
                        and op.from_parent != op.to_parent):
                    features.add("cross-parent move")
    return features
