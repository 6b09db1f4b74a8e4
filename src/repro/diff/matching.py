"""Version-to-version node matching (the XyDiff recipe, simplified).

The matcher pairs nodes of an old tree with nodes of a new tree so the store
can carry XIDs across versions.  Three phases:

1. **Exact-subtree phase** — identical subtrees (by structural hash) are
   matched greedily, largest first, preferring candidates whose parents are
   already matched.  Only subtrees of at least four nodes participate, which
   stops accidental value coincidences (two equal prices) from anchoring
   matches between unrelated elements.
2. **Upward propagation** — an unmatched new element whose child is matched
   adopts the child's old parent when tags agree (bottom-up).
3. **Positional alignment** — under every matched parent pair, remaining
   children of equal kind (and tag, for elements) are aligned by a longest
   common subsequence, then leftovers pair up in order.  This is what makes
   a ``<price>`` whose text changed keep its XID.

A final *connectedness* pass removes any match whose new-side ancestor is
unmatched: inserted subtrees must be wholly fresh for edit-script generation
to stay simple (the paper's wrap-an-existing-element case then degrades to
delete+insert, which XyDiff also permits).
"""

from __future__ import annotations

from ..xmlcore.node import Element, Text, parent_map


class Matching:
    """A partial bijection between old-tree nodes and new-tree nodes.

    ``old_parents`` and ``new_parents`` are the two trees'
    :func:`~repro.xmlcore.node.parent_map`: nodes keep no parent pointer,
    so the matcher builds one per side, and the script builder walks the
    new tree upwards through its map."""

    def __init__(self, old_parents=None, new_parents=None):
        self._old_to_new = {}
        self._new_to_old = {}
        self.old_parents = {} if old_parents is None else old_parents
        self.new_parents = {} if new_parents is None else new_parents

    def pair(self, old, new):
        self._old_to_new[id(old)] = new
        self._new_to_old[id(new)] = old

    def unpair(self, old, new):
        self._old_to_new.pop(id(old), None)
        self._new_to_old.pop(id(new), None)

    def new_for(self, old):
        return self._old_to_new.get(id(old))

    def old_for(self, new):
        return self._new_to_old.get(id(new))

    def has_old(self, old):
        return id(old) in self._old_to_new

    def has_new(self, new):
        return id(new) in self._new_to_old

    def pairs(self):
        """Iterate ``(old, new)`` pairs (no defined order)."""
        for old in self._new_to_old.values():
            yield old, self._old_to_new[id(old)]

    def __len__(self):
        return len(self._new_to_old)


def signature(node, cache):
    """Structural hash of a subtree (tag, attrs, ordered child signatures)."""
    key = id(node)
    cached = cache.get(key)
    if cached is not None:
        return cached
    if isinstance(node, Text):
        sig = hash(("#text", node.value))
    else:
        child_sigs = tuple(signature(c, cache) for c in node.children)
        sig = hash((node.tag, tuple(sorted(node.attrib.items())), child_sigs))
    cache[key] = sig
    return sig


def _compatible(old, new):
    if isinstance(old, Text):
        return isinstance(new, Text)
    return isinstance(new, Element) and old.tag == new.tag


def match_trees(old_root, new_root):
    """Compute the matching between two trees.

    Roots are force-matched when their tags agree (documents keep their root
    identity across versions); when tags differ, the matching is empty and
    the differ falls back to root replacement.
    """
    if not _compatible(old_root, new_root):
        return Matching()
    matching = Matching(parent_map(old_root), parent_map(new_root))

    cache = {}
    _phase_exact(old_root, new_root, matching, cache)
    _phase_propagate_up(new_root, matching)
    if not matching.has_new(new_root):
        matching.pair(old_root, new_root)
    elif matching.old_for(new_root) is not old_root:
        # A subtree match claimed the new root for an inner old node; the
        # document root must stay the document root, so re-anchor it.
        matching.unpair(matching.old_for(new_root), new_root)
        if matching.has_old(old_root):
            matching.unpair(old_root, matching.new_for(old_root))
        matching.pair(old_root, new_root)
    _phase_positional(old_root, new_root, matching)
    _phase_leftover_moves(old_root, new_root, matching, cache)
    _enforce_connectedness(new_root, matching)
    return matching


# -- phase 1: exact subtrees --------------------------------------------------


#: Minimum subtree size for exact-hash matching.  Tiny subtrees (a lone
#: <price>40</price> is 2 nodes) are too ambiguous to anchor matches: an
#: accidental value coincidence would seed phase 2 with a wrong parent
#: adoption.  They are aligned by the positional/overlap phase instead.
_MIN_EXACT_SIZE = 4


def _phase_exact(old_root, new_root, matching, cache):
    old_by_sig = {}
    for node in old_root.iter():
        if _subtree_weight(node) < _MIN_EXACT_SIZE:
            continue
        old_by_sig.setdefault(signature(node, cache), []).append(node)

    candidates = [
        n for n in new_root.iter() if _subtree_weight(n) >= _MIN_EXACT_SIZE
    ]
    candidates.sort(key=_subtree_weight, reverse=True)
    for new_node in candidates:
        if matching.has_new(new_node) or _covered(new_node, matching):
            continue
        pool = old_by_sig.get(signature(new_node, cache))
        if not pool:
            continue
        best = _pick_candidate(pool, new_node, matching)
        if best is not None:
            _pair_identical(best, new_node, matching)


def _subtree_weight(node):
    return node.subtree_size() if isinstance(node, Element) else 1


def _above(node, parents):
    """The ancestors of ``node`` in the tree ``parents`` maps, nearest first."""
    node = parents.get(id(node))
    while node is not None:
        yield node
        node = parents.get(id(node))


def _covered(new_node, matching):
    """True if some ancestor of ``new_node`` is already exact-matched."""
    return any(
        matching.has_new(anc) for anc in _above(new_node, matching.new_parents)
    )


def _pick_candidate(pool, new_node, matching):
    """Prefer an unmatched old node whose parent matches new_node's parent."""
    fallback = None
    old_parents = matching.old_parents
    new_parent = matching.new_parents.get(id(new_node))
    for old_node in pool:
        if matching.has_old(old_node):
            continue
        if any(matching.has_old(anc) for anc in _above(old_node, old_parents)):
            continue
        old_parent = old_parents.get(id(old_node))
        if (
            new_parent is not None
            and old_parent is not None
            and matching.new_for(old_parent) is new_parent
        ):
            return old_node
        if fallback is None:
            fallback = old_node
    return fallback


def _pair_identical(old_node, new_node, matching):
    """Pair two structurally identical subtrees node-by-node."""
    matching.pair(old_node, new_node)
    if isinstance(old_node, Element):
        for old_child, new_child in zip(old_node.children, new_node.children):
            _pair_identical(old_child, new_child, matching)


# -- phase 2: upward propagation ----------------------------------------------


def _phase_propagate_up(new_root, matching):
    # The elements in pre-order with their depths, from one walk; the stable
    # sort takes the deepest first, pre-order among equals.
    nodes, depth = [], {}
    stack = [(new_root, 0)]
    while stack:
        node, level = stack.pop()
        nodes.append(node)
        depth[id(node)] = level
        stack.extend(
            (child, level + 1) for child in reversed(node.children)
            if isinstance(child, Element)
        )
    nodes.sort(key=lambda n: depth[id(n)], reverse=True)
    old_parents = matching.old_parents
    for new_node in nodes:
        if matching.has_new(new_node):
            continue
        for child in new_node.children:
            old_child = matching.old_for(child)
            if old_child is None:
                continue
            old_parent = old_parents.get(id(old_child))
            if old_parent is None or matching.has_old(old_parent):
                continue
            if old_parent.tag == new_node.tag:
                matching.pair(old_parent, new_node)
                break


# -- phase 3: positional alignment ---------------------------------------------


def _phase_positional(old_root, new_root, matching):
    """Align children under matched parents, breadth-first to a fixpoint."""
    queue = [(old_root, new_root)]
    seen = set()
    while queue:
        old_parent, new_parent = queue.pop(0)
        key = (id(old_parent), id(new_parent))
        if key in seen or not isinstance(old_parent, Element):
            continue
        seen.add(key)
        _align_children(old_parent, new_parent, matching)
        for new_child in new_parent.children:
            old_child = matching.old_for(new_child)
            if old_child is not None:
                queue.append((old_child, new_child))


def _align_children(old_parent, new_parent, matching):
    old_free = [c for c in old_parent.children if not matching.has_old(c)]
    new_free = [c for c in new_parent.children if not matching.has_new(c)]
    if not old_free or not new_free:
        return
    # Children whose tag is unique on both sides pair directly — this is
    # what keeps a <price> whose value changed matched to *the* <price>.
    _pair_unique_tags(old_free, new_free, matching)
    old_free = [c for c in old_free if not matching.has_old(c)]
    new_free = [c for c in new_free if not matching.has_new(c)]
    # Repeated-tag elements pair greedily by best content overlap (so a
    # deletion cannot shift every later sibling onto the wrong partner);
    # text runs pair positionally.
    _pair_elements_by_overlap(
        [c for c in old_free if isinstance(c, Element)],
        [c for c in new_free if isinstance(c, Element)],
        matching,
    )
    old_texts = [c for c in old_free if isinstance(c, Text)]
    new_texts = [c for c in new_free if isinstance(c, Text)]
    for old_node, new_node in zip(old_texts, new_texts):
        matching.pair(old_node, new_node)


def _pair_unique_tags(old_free, new_free, matching):
    old_by_tag = {}
    for node in old_free:
        if isinstance(node, Element):
            old_by_tag.setdefault(node.tag, []).append(node)
    new_by_tag = {}
    for node in new_free:
        if isinstance(node, Element):
            new_by_tag.setdefault(node.tag, []).append(node)
    for tag, old_nodes in old_by_tag.items():
        new_nodes = new_by_tag.get(tag, [])
        if len(old_nodes) != 1 or len(new_nodes) != 1:
            continue
        old_node, new_node = old_nodes[0], new_nodes[0]
        # Leaf fields (<price>15</price> -> <price>18</price>) keep their
        # identity through any value change — there is only one place the
        # field can be.  Composites (a whole <restaurant>) additionally
        # need content overlap: a full rewrite is a replacement, not an
        # update, and must not inherit the old EID.
        is_leaf_pair = (
            not old_node.child_elements() and not new_node.child_elements()
        )
        if is_leaf_pair or _word_overlap(old_node, new_node) >= _CONTENT_OVERLAP:
            matching.pair(old_node, new_node)


#: Minimum word overlap (relative to the smaller side) for two same-tag
#: elements to be paired at all.  Below this they become delete+insert,
#: which only costs delta size, never correctness.
_CONTENT_OVERLAP = 0.5


def _pair_elements_by_overlap(old_nodes, new_nodes, matching):
    """Greedy best-overlap pairing of same-tag sibling elements.

    Plain positional alignment would let a deletion shift every later
    sibling onto the wrong partner — giving a surviving element the XID of
    a deleted one (disastrous for ``==`` queries).  Scoring all compatible
    pairs and taking the best first pairs each element with the candidate
    that shares the most content; order is only the tie-breaker.
    """
    scored = []
    for i, old_node in enumerate(old_nodes):
        for j, new_node in enumerate(new_nodes):
            if not _compatible(old_node, new_node):
                continue
            overlap = _word_overlap(old_node, new_node)
            if overlap >= _CONTENT_OVERLAP:
                scored.append((-overlap, abs(i - j), i, j))
    scored.sort()
    used_old = set()
    used_new = set()
    for _neg, _dist, i, j in scored:
        if i in used_old or j in used_new:
            continue
        used_old.add(i)
        used_new.add(j)
        matching.pair(old_nodes[i], new_nodes[j])


def _word_overlap(old_node, new_node):
    old_words = _subtree_words(old_node)
    new_words = _subtree_words(new_node)
    if not old_words or not new_words:
        return 1.0  # structure-only elements: nothing to compare
    return len(old_words & new_words) / min(len(old_words), len(new_words))


def _subtree_words(node):
    """Words of every text node in the subtree (kept per node — naive
    ``text_content()`` would glue adjacent values into one token)."""
    words = set()
    for inner in node.iter():
        if isinstance(inner, Text):
            words.update(inner.value.lower().split())
    return words


# -- phase 4: leftover moves -----------------------------------------------------


def _phase_leftover_moves(old_root, new_root, matching, cache):
    """Recover small subtrees that moved to a different parent.

    Positional alignment only pairs siblings under matched parents, so an
    element that changed parents (below the exact-match size threshold) is
    still unmatched here.  Whatever identical content remains on both sides
    at this point is paired when the signature match is *unique* — ambiguity
    is resolved as delete+insert rather than guessed.
    """
    old_leftovers = {}
    for node in old_root.iter():
        if isinstance(node, Element) and not matching.has_old(node):
            if _fully_unmatched(node, matching.has_old):
                old_leftovers.setdefault(
                    signature(node, cache), []
                ).append(node)

    candidates = [
        n
        for n in new_root.iter()
        if isinstance(n, Element)
        and not matching.has_new(n)
        and n.subtree_size() >= 2
    ]
    candidates.sort(key=_subtree_weight, reverse=True)
    for new_node in candidates:
        if matching.has_new(new_node):
            continue
        if not _fully_unmatched(new_node, matching.has_new):
            continue
        pool = [
            old_node
            for old_node in old_leftovers.get(signature(new_node, cache), [])
            if not matching.has_old(old_node)
            and _fully_unmatched(old_node, matching.has_old)
        ]
        if len(pool) == 1:
            _pair_identical(pool[0], new_node, matching)


def _fully_unmatched(node, is_matched):
    return not any(is_matched(inner) for inner in node.iter())


# -- connectedness --------------------------------------------------------------


def _enforce_connectedness(new_root, matching):
    """Unmatch any node whose new-side ancestor is unmatched."""
    stack = list(new_root.children) if isinstance(new_root, Element) else []
    while stack:
        node = stack.pop()
        if matching.has_new(node):
            if isinstance(node, Element):
                stack.extend(node.children)
        else:
            _unmatch_subtree(node, matching)


def _unmatch_subtree(node, matching):
    nodes = node.iter() if isinstance(node, Element) else [node]
    for inner in nodes:
        old = matching.old_for(inner)
        if old is not None:
            matching.unpair(old, inner)
