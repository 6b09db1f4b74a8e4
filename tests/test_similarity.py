"""The similarity operator ``~``: scores and their cost in nesting depth.

``_children_score`` pairs children greedily — repeatedly the best-scoring
remaining pair, first in row-major order on ties.  The pair matrix is
scored once per level; re-scoring every remaining pair in every round
made ``SIMILARITY(R, S)`` and ``R ~ S`` exponential in depth (46 s at 20
levels of two children).  The scores must not move by a single bit.
"""

import importlib
import json
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TemporalXMLDatabase
from repro.equality import similarity
from repro.workload import TDocGenerator
from repro.xmlcore.node import Element, Text
from repro.xmlcore.serializer import serialize

SCORES = os.path.join(os.path.dirname(__file__), "data", "similarity_scores.json")

# The package re-exports the function under the module's name.
similarity_module = importlib.import_module("repro.equality.similarity")

_TAGS = ("r", "n", "p", "s", "q")
_WORDS = ("napoli", "roma", "pizza", "15", "18", "gata", "elm", "road")


def _random_tree(rng, depth=3, fanout=3):
    root = Element(rng.choice(_TAGS))
    if rng.random() < 0.3:
        root.attrib[rng.choice(("k", "m"))] = rng.choice(_WORDS)
    for _ in range(rng.randint(0, fanout) if depth > 0 else 0):
        if rng.random() < 0.3:
            root.append(Text(" ".join(
                rng.choice(_WORDS) for _ in range(rng.randint(1, 3))
            )))
        else:
            root.append(_random_tree(rng, depth - 1, fanout))
    if not root.children and rng.random() < 0.7:
        root.append(Text(rng.choice(_WORDS)))
    return root


def seeded_pairs():
    """500 tree pairs, a function of nothing but the code below: 250 from
    TDocGen histories (consecutive and distant versions, unrelated
    documents, subtrees, a tree and its copy) and 250 random small trees
    with repeated tags, so ties between pair scores are common."""
    pairs = []
    for seed in range(50):
        versions = TDocGenerator(
            seed=seed, fanout=(2, 3), depth=3
        ).version_sequence("d", 4)
        other = TDocGenerator(seed=seed + 1000, fanout=(2, 3), depth=3)
        pairs += [
            (versions[0], versions[1]),
            (versions[1], versions[3]),
            (versions[0], other.document("e")),
            (versions[2].children[0], versions[3].children[-1]),
            (versions[3], versions[3].copy()),
        ]
    rng = random.Random(20011015)
    for _ in range(250):
        pairs.append((_random_tree(rng), _random_tree(rng)))
    return pairs


def _reference_children_score(left, right):
    """Greedy pairing that re-scores every remaining pair in every round
    (the quadratic-per-round original), kept as the reference."""
    left_children = left.child_elements()
    right_children = right.child_elements()
    if not left_children and not right_children:
        return 1.0
    if not left_children or not right_children:
        return 0.0
    remaining_left = list(left_children)
    remaining_right = list(right_children)
    total = 0.0
    pair_count = max(len(remaining_left), len(remaining_right))
    while remaining_left and remaining_right:
        best = None
        best_score = -1.0
        for i, lc in enumerate(remaining_left):
            for j, rc in enumerate(remaining_right):
                score = similarity(lc, rc)
                if score > best_score:
                    best_score = score
                    best = (i, j)
        total += best_score
        remaining_left.pop(best[0])
        remaining_right.pop(best[1])
    return total / pair_count


def _chain(depth, leaf_text="x"):
    """``depth`` levels, each an element with two children: a leaf and
    the next level."""
    node = Element("l")
    node.append(Text(leaf_text))
    for _ in range(depth):
        parent = Element("l")
        leaf = Element("t")
        leaf.append(Text("same"))
        parent.append(leaf)
        parent.append(node)
        node = parent
    return node


class TestScoresUnchanged:
    def test_scores_equal_the_recorded_values(self):
        with open(SCORES, encoding="utf-8") as handle:
            recorded = json.load(handle)
        pairs = seeded_pairs()
        assert len(pairs) == len(recorded) == 500
        got = [similarity(left, right) for left, right in pairs]
        mismatches = [
            (index, want, score)
            for index, (want, score) in enumerate(zip(recorded, got))
            if score != want
        ]
        assert not mismatches
        assert len(set(got)) > 100  # the pairs are not all alike

    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_per_round_rescoring_reference(self, seed):
        rng = random.Random(seed)
        left, right = _random_tree(rng), _random_tree(rng)
        fast = similarity(left, right)
        original = similarity_module._children_score
        similarity_module._children_score = _reference_children_score
        try:
            assert similarity(left, right) == fast
        finally:
            similarity_module._children_score = original


class TestDepth:
    @pytest.mark.timeout(5)
    def test_twenty_levels_answer_at_once(self):
        left, right = _chain(20), _chain(20, leaf_text="y")
        assert similarity(left, left.copy()) == pytest.approx(1.0)
        assert 0.0 < similarity(left, right) < 1.0

    @pytest.mark.timeout(5)
    def test_twenty_levels_through_txql(self):
        db = TemporalXMLDatabase()
        db.put("deep", serialize(_chain(20)))
        result = db.query(
            'SELECT SIMILARITY(R, S) FROM doc("deep")/l R, doc("deep")/l S '
            "WHERE R ~ S"
        )
        assert [row["SIMILARITY(R, S)"] for row in result.rows] == [
            pytest.approx(1.0)
        ]
