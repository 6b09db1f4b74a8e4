"""Corpus statistics for the cost-based planner (ROADMAP item 3).

:class:`CorpusStatistics` is the read-only view the optimizer prices plans
with.  It never owns state of its own and never subscribes to the store —
every number is either served directly off a structure that is already
maintained incrementally on commit (FTI posting lists, per-document
``DeltaIndex`` entries, the ``LifetimeIndex``) or derived lazily and
memoized against the document's current version number, so statistics stay
fresh without adding work to the commit path.

Per-term probes (all O(1) or O(log n) — see the matching methods on
:class:`~repro.index.fti.TemporalFullTextIndex`):

* ``term_counts(word)`` — (whole-history, currently-open) posting counts;
* ``term_scan_at(word, ts)`` — the exact prefix a ``lookup_t`` would scan;
* ``term_scan_window(word, start, end)`` — ditto for ``lookup_w``.

Per-document probes (off the ``DeltaIndex`` and the current tree):

* ``version_count`` / ``versions_between`` — how many versions an EVERY
  scan must reconstruct;
* ``delta_chain_depth(doc, ts)`` — deltas between the version at ``ts``
  and its nearest anchor (snapshot either side, or the current tree);
* ``element_count`` / ``path_count`` — navigational walk width, the
  latter sampled on the current tree (memoized per version).

Exact where exactness is cheap, sampled where it is not; either way the
planner only needs *relative* costs, and EXPLAIN ANALYZE reports estimated
vs. actual rows so misestimates stay visible.
"""

from __future__ import annotations

from ..errors import NoSuchDocumentError
from ..xmlcore.node import Element
from .postings import tokenize


class CorpusStatistics:
    """Planner-facing statistics over a store and its (optional) FTI."""

    def __init__(self, store, fti=None):
        self.store = store
        self.fti = fti
        # doc_id -> (version_number, element_count) — refreshed whenever the
        # document has committed a newer version since the memo was taken.
        self._element_counts = {}
        # (doc_id, path_text) -> (version_number, match_count)
        self._path_counts = {}

    # -- term statistics -------------------------------------------------------

    def term_counts(self, word):
        """``(history_postings, open_postings)`` for ``word`` (0, 0 when no
        FTI is attached)."""
        if self.fti is None:
            return (0, 0)
        return self.fti.term_stats(word)

    def term_scan_at(self, word, ts):
        """Postings a ``lookup_t(word, ts)`` would scan (exact)."""
        if self.fti is None:
            return 0
        return self.fti.postings_at_or_before(word, ts)

    def term_scan_window(self, word, start, end):
        """Postings a ``lookup_w(word, start, end)`` would scan (exact)."""
        if self.fti is None or start >= end:
            return 0
        return self.fti.postings_starting_before(word, end)

    def distinct_terms(self):
        """Vocabulary size of the attached index (0 when none)."""
        if self.fti is None:
            return 0
        return self.fti.distinct_terms()

    def rarest_token(self, value):
        """Of ``value``'s tokens, the one with the fewest history postings.

        Returns ``(token, history_count)`` or ``None`` for untokenizable
        values — used to rank pushdown candidates and WHERE conjuncts."""
        tokens = tokenize(str(value))
        if not tokens:
            return None
        counted = [(self.term_counts(token)[0], token) for token in tokens]
        count, token = min(counted)
        return (token, count)

    # -- document statistics ---------------------------------------------------

    def _dindex(self, doc_id):
        try:
            return self.store.delta_index(doc_id)
        except NoSuchDocumentError:
            return None

    def version_count(self, doc_id):
        dindex = self._dindex(doc_id)
        return len(dindex) if dindex is not None else 0

    def versions_between(self, doc_id, start, end):
        """Versions of ``doc_id`` whose validity intersects ``[start, end)``
        — the reconstruction count of a windowed EVERY scan."""
        if start >= end:
            return 0
        dindex = self._dindex(doc_id)
        if dindex is None:
            return 0
        return len(dindex.versions_in(start, end))

    def delta_chain_depth(self, doc_id, ts):
        """Deltas between the version at ``ts`` and its nearest anchor.

        Mirrors the repository's bidirectional anchor choice: the nearest
        snapshot at or below, the nearest at or above, and the always-
        materialized current tree all compete; the estimate is the shortest
        distance."""
        dindex = self._dindex(doc_id)
        if dindex is None:
            return 0
        entry = dindex.version_at(ts)
        if entry is None:
            return 0
        number = entry.number
        depths = [dindex.current_number - number]
        below = dindex.nearest_snapshot_at_or_before(number)
        if below is not None:
            depths.append(number - below.number)
        above = dindex.nearest_snapshot_at_or_after(number)
        if above is not None:
            depths.append(above.number - number)
        return max(0, min(depths))

    def element_count(self, doc_id):
        """Elements in the document's current tree (memoized per version)."""
        record = self._record(doc_id)
        if record is None or record.current_root is None:
            return 0
        number = record.dindex.current_number
        memo = self._element_counts.get(doc_id)
        if memo is not None and memo[0] == number:
            return memo[1]
        count = _count_elements(record.current_root)
        self._element_counts[doc_id] = (number, count)
        return count

    def path_count(self, doc_id, path):
        """Matches of ``path`` sampled on the current tree (memoized per
        version) — the navigational row-width estimate.  ``path`` is a
        compiled :class:`~repro.xmlcore.path.Path` or ``None`` (the root)."""
        if path is None:
            return 1
        record = self._record(doc_id)
        if record is None or record.current_root is None:
            return 0
        number = record.dindex.current_number
        key = (doc_id, str(path))
        memo = self._path_counts.get(key)
        if memo is not None and memo[0] == number:
            return memo[1]
        count = len(path.select(record.current_root))
        self._path_counts[key] = (number, count)
        return count

    def _record(self, doc_id):
        try:
            return self.store.repository.record(doc_id)
        except (KeyError, NoSuchDocumentError):
            return None


def _count_elements(root):
    count = 0
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Element):
            count += 1
            stack.extend(node.children)
    return count
