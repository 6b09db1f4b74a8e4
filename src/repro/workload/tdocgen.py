"""TDocGen-style synthetic temporal document generator.

Generates random XML trees (configurable fanout/depth, Zipf vocabulary for
both element names and text) and evolves them version by version with
per-node probabilities of text update, subtree insertion, and deletion —
the knobs temporal-document benchmarks sweep (change ratio drives delta
size, version count drives chain length).

The generator never mutates committed state: each ``evolve`` works on a
private master copy and emits a fresh unstamped tree, so the store's differ
sees exactly what a real application would hand it.
"""

from __future__ import annotations

import random

from ..clock import SECONDS_PER_DAY, parse_date
from ..xmlcore.node import Element, Text, parent_map
from .words import Vocabulary

#: Element names drawn from a small pool so patterns have selective tags.
_TAG_POOL = (
    "section", "item", "entry", "record", "note", "title", "body",
    "meta", "field", "para",
)


class TDocGenerator:
    """Random temporal documents."""

    def __init__(
        self,
        vocabulary=None,
        seed=0,
        fanout=(2, 4),
        depth=3,
        text_words=(1, 4),
        p_update=0.15,
        p_insert=0.05,
        p_delete=0.05,
    ):
        self.vocab = vocabulary if vocabulary is not None else Vocabulary(
            seed=seed
        )
        self._rng = random.Random(seed + 1)
        self.fanout = fanout
        self.depth = depth
        self.text_words = text_words
        self.p_update = p_update
        self.p_insert = p_insert
        self.p_delete = p_delete
        self._masters = {}  # doc name -> master tree (never handed out)

    # -- initial documents -------------------------------------------------------

    def document(self, name):
        """Create (and remember) the initial tree for document ``name``."""
        root = Element("doc")
        self._fill(root, self.depth)
        self._masters[name] = root
        return root.copy()

    def _fill(self, parent, levels):
        count = self._rng.randint(*self.fanout)
        for _ in range(count):
            child = Element(self._rng.choice(_TAG_POOL))
            if levels <= 1 or self._rng.random() < 0.4:
                child.append(Text(self.vocab.sample_text(*self.text_words)))
            else:
                self._fill(child, levels - 1)
            parent.append(child)

    # -- evolution ---------------------------------------------------------------------

    def evolve(self, name):
        """One change step for ``name``; returns the new (unstamped) tree."""
        master = self._masters[name]
        rng = self._rng
        parents = parent_map(master)
        elements = [el for el in master.iter_elements() if el is not master]
        # Only an element this round deleted is skipped: one inside a
        # deleted subtree still draws, so the sequence stays what it was.
        deleted = set()
        for element in elements:
            if id(element) in deleted:
                continue
            parent = parents[id(element)]
            roll = rng.random()
            if roll < self.p_delete:
                parent.remove(element)
                deleted.add(id(element))
            elif roll < self.p_delete + self.p_insert:
                sibling = Element(rng.choice(_TAG_POOL))
                sibling.append(Text(self.vocab.sample_text(*self.text_words)))
                parent.insert(parent.children.index(element), sibling)
            elif roll < self.p_delete + self.p_insert + self.p_update:
                texts = [c for c in element.children if isinstance(c, Text)]
                if texts:
                    texts[0].value = self.vocab.sample_text(*self.text_words)
        if not master.children:
            # Never let a document dwindle to nothing.
            refill = Element(rng.choice(_TAG_POOL))
            refill.append(Text(self.vocab.sample_text(*self.text_words)))
            master.append(refill)
        return master.copy()

    def version_sequence(self, name, count):
        """The initial tree plus ``count - 1`` evolved versions."""
        trees = [self.document(name)]
        for _ in range(count - 1):
            trees.append(self.evolve(name))
        return trees


def build_collection(
    store,
    n_docs=5,
    versions_per_doc=5,
    generator=None,
    start_ts=None,
    tick=SECONDS_PER_DAY,
    name_prefix="doc",
):
    """Populate a store with a synthetic temporal collection.

    Returns the list of document names.  Commits are interleaved by time
    (doc1 v1, doc2 v1, ..., doc1 v2, ...), which resembles a warehouse
    receiving updates round-robin.
    """
    if generator is None:
        generator = TDocGenerator()
    ts = parse_date("01/01/2001") if start_ts is None else start_ts
    names = [f"{name_prefix}{i}.xml" for i in range(1, n_docs + 1)]
    sequences = {
        name: generator.version_sequence(name, versions_per_doc)
        for name in names
    }
    for round_index in range(versions_per_doc):
        for name in names:
            tree = sequences[name][round_index]
            if round_index == 0:
                store.put(name, tree, ts=ts)
            else:
                store.update(name, tree, ts=ts)
            ts += tick
    return names
