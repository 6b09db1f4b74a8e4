"""The similarity operator ``~`` (after Theobald & Weikum).

Section 7.4 proposes a similarity operator for the hard matching cases —
same restaurant, slightly different markup; re-created entries with fresh
EIDs; chains sharing a name.  We score two elements in ``[0, 1]`` by a
weighted blend of:

* tag agreement,
* attribute-set overlap (Jaccard over name/value pairs),
* text-token overlap of the direct content (Jaccard),
* child-structure overlap, computed recursively with an optimal greedy
  pairing of best-matching children.

``similar(a, b, threshold)`` is the boolean operator the query language
exposes; 0.7 is the default threshold and the weights favour content over
markup, which is what makes the re-created-entry case come out equal again
(contra ``==``) without collapsing genuinely different restaurants that
merely share a name (contra bare name-``=``).
"""

from __future__ import annotations

from ..index.postings import tokenize
from ..xmlcore.node import Element, Text

#: Fixed markup weights (tag, attributes); the remaining 0.7 goes to
#: content — split between direct text and child structure depending on
#: which of the two an element actually has (see below).
_TAG_WEIGHT = 0.2
_ATTR_WEIGHT = 0.1
_CONTENT_WEIGHT = 0.7

#: Default decision threshold for the boolean ``~`` operator.
DEFAULT_THRESHOLD = 0.7


def similarity(left, right):
    """Similarity score in ``[0, 1]``; 1.0 means structurally identical.

    The 0.7 content weight adapts to the elements' shape: leaves are all
    text, containers are all children, mixed content splits evenly.  This
    keeps empty-vs-empty components from inflating scores (a container with
    no direct text should be judged by its children, not rewarded for
    matching "no text").
    """
    if isinstance(left, Text) or isinstance(right, Text):
        return _jaccard(_words_of(left), _words_of(right))
    if not isinstance(left, Element) or not isinstance(right, Element):
        return _jaccard(_words_of(left), _words_of(right))

    tag_score = 1.0 if left.tag == right.tag else 0.0
    attr_score = _jaccard(
        set(left.attrib.items()), set(right.attrib.items()), empty=1.0
    )

    left_text = set(tokenize(left.text))
    right_text = set(tokenize(right.text))
    has_text = bool(left_text or right_text)
    has_children = bool(left.child_elements() or right.child_elements())

    if has_text and has_children:
        content = 0.5 * _jaccard(left_text, right_text) + 0.5 * (
            _children_score(left, right)
        )
    elif has_children:
        content = _children_score(left, right)
    elif has_text:
        content = _jaccard(left_text, right_text)
    else:
        content = 1.0  # both completely empty: shapes agree
    return (
        _TAG_WEIGHT * tag_score
        + _ATTR_WEIGHT * attr_score
        + _CONTENT_WEIGHT * content
    )


def similar(left, right, threshold=DEFAULT_THRESHOLD):
    """The boolean ``~`` operator."""
    return similarity(left, right) >= threshold


def _children_score(left, right):
    left_children = left.child_elements()
    right_children = right.child_elements()
    if not left_children and not right_children:
        # Leaf elements: their whole content is the direct text, already
        # scored; agreeing on leafness counts as full structural agreement.
        return 1.0
    if not left_children or not right_children:
        return 0.0
    # Greedy best-pair matching: repeatedly take the highest-scoring
    # remaining pair, the first in row-major order on ties.  Each pair is
    # scored once, up front: re-scoring the remaining pairs every round
    # recursed into the same subtrees again, exponentially in depth.
    scores = [
        [similarity(lc, rc) for rc in right_children] for lc in left_children
    ]
    rows = list(range(len(left_children)))
    columns = list(range(len(right_children)))
    total = 0.0
    pair_count = max(len(rows), len(columns))
    while rows and columns:
        best = None
        best_score = -1.0
        for i, row in enumerate(rows):
            for j, column in enumerate(columns):
                score = scores[row][column]
                if score > best_score:
                    best_score = score
                    best = (i, j)
        total += best_score
        rows.pop(best[0])
        columns.pop(best[1])
    return total / pair_count


def _jaccard(left, right, empty=1.0):
    left = set(left)
    right = set(right)
    if not left and not right:
        return empty
    union = left | right
    if not union:
        return empty
    return len(left & right) / len(union)


def _words_of(value):
    if isinstance(value, Element):
        return set(tokenize(value.text_content()))
    if isinstance(value, Text):
        return set(tokenize(value.value))
    return set(tokenize(str(value)))
