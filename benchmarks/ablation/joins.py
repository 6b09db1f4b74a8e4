"""The paper's structural join (Sections 7.3.1–7.3.2), as the reference.

The engine's :func:`repro.pattern.structjoin.structural_join` orders nodes
by selectivity and probes hash edge indexes; this is the algorithm it
replaced, which the equivalence tests and E1b/E2b compare it against.
"""

from repro.index.stats import JoinStats
from repro.pattern.structjoin import PatternMatch, _intersect


def nested_loop_join(pattern, posting_lists, stats=None):
    """The paper's backtracking nested-loop join in pattern pre-order.

    This is the pre-overhaul engine, retained verbatim as the reference:
    the equivalence harness asserts :func:`structural_join` produces the
    identical match set, and the benchmarks compare candidate-probe counts
    against it.  Returns the full match list (no streaming).
    """
    nodes = pattern.nodes()
    if len(posting_lists) != len(nodes):
        raise ValueError("one posting list per pattern node required")
    if stats is None:
        stats = JoinStats()
    stats.joins += 1
    if any(not lst for lst in posting_lists):
        return []

    by_doc = [_group_by_doc(lst) for lst in posting_lists]
    docs = set(by_doc[0])
    for groups in by_doc[1:]:
        docs &= set(groups)

    parent_of = pattern.parent_map()
    matches = []
    for doc_id in sorted(docs):
        stats.docs_considered += 1
        lists = [groups[doc_id] for groups in by_doc]
        _nested_join_one_doc(doc_id, lists, parent_of, matches, stats)
    unique = _dedupe(matches)
    stats.matches_emitted += len(unique)
    return unique


def _group_by_doc(postings):
    groups = {}
    for posting in postings:
        groups.setdefault(posting.doc_id, []).append(posting)
    return groups


def _nested_join_one_doc(doc_id, lists, parent_of, out, stats):
    bound = [None] * len(lists)

    def extend(node_index, interval):
        if node_index == len(lists):
            out.append(PatternMatch(doc_id, interval, tuple(bound)))
            return
        link = parent_of.get(node_index)
        stats.candidates_scanned += len(lists[node_index])
        for posting in lists[node_index]:
            stats.candidates_probed += 1
            if link is not None:
                parent_posting = bound[link[0]]
                if not _related(parent_posting, posting, link[1]):
                    continue
            narrowed = _intersect(interval, posting)
            if narrowed is None:
                continue
            bound[node_index] = posting
            extend(node_index + 1, narrowed)
        bound[node_index] = None

    extend(0, None)


def _related(parent_posting, child_posting, relationship):
    if relationship == "child":
        return child_posting.parent_xid() == parent_posting.xid
    if relationship == "descendant":
        return parent_posting.xid in child_posting.ancestors
    if relationship == "contains":
        return (
            parent_posting.xid == child_posting.xid
            or parent_posting.xid in child_posting.ancestors
        )
    raise ValueError(f"unknown relationship {relationship!r}")


def _dedupe(matches):
    """Repeated words inside one element yield identical XID bindings —
    collapse them (set semantics, as the paper's operators return sets)."""
    seen = set()
    unique = []
    for match in matches:
        key = (match.doc_id, match.xids(), match.interval)
        if key not in seen:
            seen.add(key)
            unique.append(match)
    return unique
