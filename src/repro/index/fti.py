"""The temporal full-text index — alternative 1 (the paper's choice).

"We choose the first alternative, i.e., to index the contents of versions."

Rather than writing one posting per (word, version) — which would duplicate
postings for content that survives across versions — we store *interval
postings*: a posting opens when a word occurrence appears in a committed
version and closes when a later version no longer contains it.  This is the
standard trick in temporal text indexing (Nørvåg's own follow-up work uses
it) and it implements the paper's three required operations exactly:

``lookup(word)``
    postings of the current version only — open postings of live documents;

``lookup_t(word, ts)``
    postings valid at time ``ts`` (snapshot);

``lookup_h(word)``
    every posting, whole history.

Physically each per-word posting list is kept **sorted by interval start**
(commit timestamps are monotone, so maintenance is an append in the common
case), and the open postings are additionally threaded on a side list:

* ``lookup`` reads the side list only — it never touches closed history, so
  its cost tracks the *current* result size, not the accumulated churn;
* ``lookup_t`` binary-searches the start-sorted list and scans just the
  prefix with ``start <= ts`` — postings born after the queried instant are
  never examined.

:class:`~repro.index.stats.IndexStats` records scanned vs. returned entries
per query, which is how the benchmarks expose the difference.

The index is a store observer; reconciliation happens on every commit by
comparing the new version's occurrences, element by element, against the
element's open postings.

Each fact is stored once.  An intern table maps every distinct ancestors
tuple, path and word to one object that all postings share, so a posting
is its interval plus references.  The open postings of a document are
kept per element, in occurrence order: the k-th open posting of a word
at an element is that element's k-th occurrence of the word, so no
per-occurrence key is stored.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort_right

from ..sync import RWLock
from .postings import Posting, element_runs
from .stats import IndexStats


def _start(posting):
    return posting.start


class TemporalFullTextIndex:
    """Inverted lists of interval postings over all documents.

    Maintenance (the commit observer) and lookups run under a
    write-preferring :class:`~repro.sync.RWLock`: any number of reader
    sessions may look up together, a commit reconciles alone.  The
    ``stats`` counters are updated inside shared read sections, so under
    heavy concurrency they are monotone approximations, not exact counts.
    """

    #: Prefix this index's ``stats`` register under in a MetricsRegistry.
    metrics_label = "fti"

    def __init__(self):
        self._lists = {}      # word -> list[Posting], sorted by start
        self._open_lists = {}  # word -> open postings only, sorted by start
        self._open = {}       # doc_id -> {xid: [open Posting, ...]}
        # ancestors tuple / path / word -> the one object postings share;
        # written under the write lock only.
        self._interned = {}
        self.stats = IndexStats()
        self._rwlock = RWLock()

    # -- store observer ---------------------------------------------------------

    def document_committed(self, event):
        with self._rwlock.write_lock():
            if event.kind in ("create", "update"):
                self._reconcile(event.doc_id, event.root, event.timestamp)
            elif event.kind == "delete":
                self._close_all(event.doc_id, event.timestamp)

    def _reconcile(self, doc_id, root, ts):
        interned = self._interned
        runs = element_runs(root, interned)
        fresh = {}  # xid -> [ancestors, every word of the element]
        for element, ancestors, _path, words in runs:
            entry = fresh.get(element.xid)
            if entry is None:
                fresh[element.xid] = [ancestors, words]
            else:
                entry[1] = entry[1] + words

        previous = self._open.get(doc_id, {})
        now_open = {}
        pending = {}  # xid -> its open list, None where a posting opens
        for xid, (ancestors, words) in fresh.items():
            kept = previous.pop(xid, None)
            if kept is None or kept[0].ancestors is not ancestors:
                # New element, or it moved (hierarchy info in its postings
                # would be stale): every occurrence opens a posting.
                if kept is not None:
                    for posting in kept:
                        self._close(posting, ts)
                slots = [None] * len(words)
            elif [posting.word for posting in kept] == words:
                now_open[xid] = kept  # unchanged element: keep its list
                continue
            else:
                slots = self._match(kept, words, ts)
            now_open[xid] = slots
            if None in slots:
                pending[xid] = slots
        for kept in previous.values():  # elements without words now
            for posting in kept:
                self._close(posting, ts)
        self._open[doc_id] = now_open

        # Open the new postings in document order, so every per-word list
        # gets them in the order the occurrences stand in the version.
        filled = {}
        for element, ancestors, path, words in runs:
            slots = pending.get(element.xid)
            if slots is None:
                continue
            at = filled.get(element.xid, 0)
            filled[element.xid] = at + len(words)
            opened = 0
            for offset, word in enumerate(words, start=at):
                if slots[offset] is not None:
                    continue
                word = interned.setdefault(word, word)
                posting = Posting(
                    doc_id, element.xid, ancestors, path, ts, word=word
                )
                self._insert(word, posting)
                slots[offset] = posting
                opened += 1
            if opened:  # the run's postings share their estimated size
                self.stats.opened(opened * posting.estimated_bytes(), opened)

    def _match(self, kept, words, ts):
        """Line an element's open postings up with its new ``words``: the
        k-th posting of a word stays open for the k-th occurrence of it,
        the rest close.  Returns the new open list, ``None`` where an
        occurrence needs a posting."""
        by_ordinal = {}
        seen = {}
        for posting in kept:
            ordinal = seen.get(posting.word, 0)
            seen[posting.word] = ordinal + 1
            by_ordinal[posting.word, ordinal] = posting
        seen = {}
        slots = []
        for word in words:
            ordinal = seen.get(word, 0)
            seen[word] = ordinal + 1
            slots.append(by_ordinal.pop((word, ordinal), None))
        for posting in by_ordinal.values():
            self._close(posting, ts)
        return slots

    def _close_all(self, doc_id, ts):
        for kept in self._open.pop(doc_id, {}).values():
            for posting in kept:
                self._close(posting, ts)

    def _insert(self, word, posting):
        """File a new posting, keeping both lists sorted by start.

        Commit timestamps increase monotonically, so this is an append;
        ``insort`` only runs for out-of-order starts (e.g. replayed
        histories).
        """
        lst = self._lists.setdefault(word, [])
        if lst and posting.start < lst[-1].start:
            insort_right(lst, posting, key=_start)
        else:
            lst.append(posting)
        opens = self._open_lists.setdefault(word, [])
        if opens and posting.start < opens[-1].start:
            insort_right(opens, posting, key=_start)
        else:
            opens.append(posting)

    def _close(self, posting, ts):
        """End ``posting``'s interval and take it off its word's open list:
        a bisect to the run of equal starts, then a scan from there
        (postings compare by identity)."""
        posting.end = ts
        opens = self._open_lists[posting.word]
        run = bisect_left(opens, posting.start, key=_start)
        del opens[opens.index(posting, run)]
        self.stats.closed()

    # -- the three FTI operations (Section 7.2) ------------------------------------

    def lookup(self, word, docs=None):
        """``FTI_lookup``: occurrences in currently valid document versions.

        Served entirely from the open-postings side list — closed history is
        never scanned.  ``docs`` restricts the result to a document set
        during retrieval (the pattern operators' forest argument, pushed
        down so no full list is ever materialized just to be filtered).
        """
        with self._rwlock.read_lock():
            candidates = self._open_lists.get(word, ())
            if docs is None:
                result = list(candidates)
            else:
                result = [p for p in candidates if p.doc_id in docs]
            self.stats.scanned(len(candidates), returned=len(result))
            return result

    def lookup_t(self, word, ts, docs=None):
        """``FTI_lookup_T``: occurrences in versions valid at time ``ts``.

        Bisects the start-sorted list: only postings with ``start <= ts``
        are examined at all.  ``docs`` restricts during retrieval.
        """
        with self._rwlock.read_lock():
            candidates = self._lists.get(word, [])
            prefix = bisect_right(candidates, ts, key=_start)
            result = [
                p
                for p in candidates[:prefix]
                if p.end > ts and (docs is None or p.doc_id in docs)
            ]
            self.stats.scanned(prefix, returned=len(result))
            return result

    def lookup_h(self, word, docs=None):
        """``FTI_lookup_H``: every posting over the whole history (sorted by
        interval start).  ``docs`` restricts during retrieval."""
        with self._rwlock.read_lock():
            candidates = self._lists.get(word, [])
            if docs is None:
                result = list(candidates)
            else:
                result = [p for p in candidates if p.doc_id in docs]
            self.stats.scanned(len(candidates), returned=len(result))
            return result

    def lookup_w(self, word, start, end, docs=None):
        """Windowed ``FTI_lookup_H``: postings overlapping ``[start, end)``.

        Bisects the start-sorted list so postings born at or after ``end``
        are never examined; the scanned prefix is then filtered to postings
        still valid after ``start``.  Equivalent to ``lookup_h`` followed by
        an overlap filter, at a fraction of the scan cost — the planner's
        time-window pushdown routes history lookups here.
        """
        if start >= end:
            return []
        with self._rwlock.read_lock():
            candidates = self._lists.get(word, [])
            prefix = bisect_left(candidates, end, key=_start)
            result = [
                p
                for p in candidates[:prefix]
                if p.end > start and (docs is None or p.doc_id in docs)
            ]
            self.stats.scanned(prefix, returned=len(result))
            return result

    # -- planner probes (statistics; no postings are examined) --------------------

    def term_stats(self, word):
        """``(history_postings, open_postings)`` for ``word`` — O(1), not
        charged to ``stats`` (list lengths, nothing is scanned)."""
        with self._rwlock.read_lock():
            return (
                len(self._lists.get(word, ())),
                len(self._open_lists.get(word, ())),
            )

    def postings_at_or_before(self, word, ts):
        """Postings with ``start <= ts`` — exactly the prefix a
        ``lookup_t(word, ts)`` call scans.  O(log n)."""
        with self._rwlock.read_lock():
            return bisect_right(self._lists.get(word, []), ts, key=_start)

    def postings_starting_before(self, word, end):
        """Postings with ``start < end`` — exactly the prefix a
        ``lookup_w(word, ..., end)`` call scans.  O(log n)."""
        with self._rwlock.read_lock():
            return bisect_left(self._lists.get(word, []), end, key=_start)

    def distinct_terms(self):
        """Vocabulary size (number of per-word posting lists)."""
        with self._rwlock.read_lock():
            return len(self._lists)

    # -- introspection -----------------------------------------------------------------

    def words(self):
        with self._rwlock.read_lock():
            return list(self._lists)

    def posting_count(self):
        with self._rwlock.read_lock():
            return sum(len(lst) for lst in self._lists.values())

    def open_posting_count(self):
        with self._rwlock.read_lock():
            return sum(len(lst) for lst in self._open_lists.values())

    def footprint(self):
        """Entry counts of the stored layout: ``postings``,
        ``open_postings``, ``open_elements`` (elements holding an open
        posting) and ``interned`` (the distinct ancestors tuples, paths and
        words the postings share)."""
        with self._rwlock.read_lock():
            return {
                "postings": sum(len(lst) for lst in self._lists.values()),
                "open_postings": sum(
                    len(lst) for lst in self._open_lists.values()
                ),
                "open_elements": sum(
                    len(elements) for elements in self._open.values()
                ),
                "interned": len(self._interned),
            }

    def estimated_bytes(self):
        """The paper's logical index size (E6), not resident memory."""
        with self._rwlock.read_lock():
            return sum(
                p.estimated_bytes()
                for lst in self._lists.values()
                for p in lst
            )
