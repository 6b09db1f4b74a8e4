"""Reference code the tests use and the engine does not.

* :class:`TemporalJoin` — the hand-composable sequenced join
  (overlapping validity intervals) that ``test_temporal_algebra.py``
  checks TXQL's ``OVERLAPS`` against;
* :func:`collect_xids`, :func:`verify_timestamp_invariant` and
  :func:`max_timestamp` — checks of the stamped-tree invariants the
  differ and the store maintain (``repro.model.versioned``).
"""

from __future__ import annotations

from repro.errors import IdentityError
from repro.operators.relational import INTERVAL_KEY
from repro.xmlcore.node import Element


class TemporalJoin:
    """Join requiring overlapping validity intervals.

    The output row's interval is the intersection — the span during which
    both inputs were simultaneously valid.  An extra ``predicate`` can
    refine the match.  It is not on the query path: TXQL evaluates
    ``OVERLAPS`` as a predicate over rows the engine already joined.
    """

    def __init__(self, left, right, predicate=None):
        self.left = left
        self.right = right
        self.predicate = predicate

    def __iter__(self):
        right_rows = list(self.right)
        for left_row in self.left:
            left_interval = left_row.get(INTERVAL_KEY)
            for right_row in right_rows:
                right_interval = right_row.get(INTERVAL_KEY)
                if left_interval is not None and right_interval is not None:
                    overlap = left_interval.intersect(right_interval)
                    if overlap is None:
                        continue
                else:
                    overlap = left_interval or right_interval
                merged = dict(left_row)
                merged.update(right_row)
                if overlap is not None:
                    merged[INTERVAL_KEY] = overlap
                if self.predicate is None or self.predicate(merged):
                    yield merged


def collect_xids(root):
    """Map XID → node over the whole subtree.

    Raises :class:`~repro.errors.IdentityError` on duplicate or missing
    XIDs — both indicate a stamping bug, never a user error.
    """
    index = {}
    for node in _iter_nodes(root):
        if node.xid is None:
            raise IdentityError("tree contains an unstamped node")
        if node.xid in index:
            raise IdentityError(f"duplicate XID {node.xid} in tree")
        index[node.xid] = node
    return index


def verify_timestamp_invariant(root):
    """Check that every element's timestamp >= all of its children's.

    Returns the list of offending XIDs (empty when the invariant holds).
    """
    offenders = []
    for node in _iter_nodes(root):
        if not isinstance(node, Element):
            continue
        for child in node.children:
            if (
                child.tstamp is not None
                and node.tstamp is not None
                and child.tstamp > node.tstamp
            ):
                offenders.append(node.xid)
                break
    return offenders


def max_timestamp(root):
    """Largest ``tstamp`` in the subtree (None when nothing is stamped)."""
    best = None
    for node in _iter_nodes(root):
        if node.tstamp is not None and (best is None or node.tstamp > best):
            best = node.tstamp
    return best


def _iter_nodes(root):
    if isinstance(root, Element):
        return root.iter()
    return iter([root])
