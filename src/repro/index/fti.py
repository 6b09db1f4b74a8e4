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

Physically each word's history is a set of typed :mod:`array` columns
whose rows are **sorted by interval start** (commit timestamps are
monotone, and so is replay, so maintenance is an append; an event
earlier than the last one is a :class:`~repro.errors.TimeError`, refused
before anything changes): ``start`` and ``end``, and one ``numbers``
array holding each row's document id, XID and the intern-table numbers
of its ancestors tuple and path side by side.  The rows of the word's
open postings are additionally kept as an ascending array of row
numbers:

* ``lookup`` reads the open rows only — it never touches closed history,
  so its cost tracks the *current* result size, not the accumulated churn;
* ``lookup_t`` binary-searches the ``start`` column and scans just the
  prefix with ``start <= ts`` — postings born after the queried instant
  are never examined.

A lookup filters on the ``end`` and ``doc`` columns and builds a
:class:`~repro.index.postings.Posting` only for the rows it returns.
:class:`~repro.index.stats.IndexStats` records scanned vs. returned entries
per query, which is how the benchmarks expose the difference.

The index is a store observer; reconciliation happens on every commit by
comparing the new version's occurrences, element by element, against the
element's open postings.

Each fact is stored once.  One :class:`~repro.index.postings.InternTable`
numbers every distinct ancestors tuple, path and word; a row holds the
numbers, and every posting a lookup returns for one value holds the same
object.  A document's open postings are one flat array of ``(xid, word
id, row)`` triples in occurrence order, grouped by element: the k-th open
posting of a word at an element is that element's k-th occurrence of the
word, so no per-occurrence key is stored.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import accumulate, compress, repeat
from operator import and_, itemgetter, mul

from ..clock import BEFORE_TIME, UNTIL_CHANGED
from ..errors import TimeError
from ..sync import RWLock
from .postings import InternTable, Posting, element_runs, estimated_bytes
from .stats import IndexStats

#: Column typecodes: times are 64-bit; document ids, XIDs, intern-table
#: numbers and row numbers 32-bit.
_TIME, _NUMBER = "q", "i"
_NO_TRIPLES = array(_NUMBER)
_NO_ROWS = ()
#: The six posting fields of an empty answer.
_NO_FIELDS = ((),) * 6

#: A row's four numbers stand side by side in one ``numbers`` array, at
#: these offsets: one array where four would each cost a header per word,
#: and most words hold a few dozen postings.
_DOC, _XID, _ANCESTORS, _PATH = range(4)
_WIDTH = 4


class _Columns:
    """One word's postings, a row per posting, rows sorted by ``start``
    (equal starts in the order they were filed): the ``start`` and
    ``end`` columns, the ``numbers`` of each row (document id, XID,
    ancestors and path ids, :data:`_WIDTH` entries a row), the ascending
    row numbers of the open postings, and the row numbers of the closed
    ones in the order of their ends."""

    __slots__ = ("start", "end", "numbers", "open", "closed")

    def __init__(self):
        self.start = array(_TIME)
        self.end = array(_TIME)
        self.numbers = array(_NUMBER)
        self.open = array(_NUMBER)
        self.closed = _NO_ROWS  # until the first close: no array to hold

    def __len__(self):
        return len(self.start)

    def add(self, doc_id, xid, ancestors_id, path_id, ts):
        """File an open posting; returns its row.  Commit timestamps
        never decrease, so this is an append."""
        row = len(self.start)
        self.start.append(ts)
        self.end.append(UNTIL_CHANGED)
        self.numbers.extend((doc_id, xid, ancestors_id, path_id))
        self.open.append(row)
        return row

    def close(self, row, ts):
        """Close the posting at ``row`` at ``ts``.  Commit timestamps never
        decrease, so ``closed`` stays in end order by appending."""
        end, closed = self.end, self.closed
        end[row] = ts
        del self.open[bisect_left(self.open, row)]
        if not closed:
            self.closed = array(_NUMBER, (row,))
        else:
            closed.append(row)

    def closed_by(self, ts):
        """The rows of the postings that ended at or before ``ts``."""
        closed = self.closed
        return closed[:bisect_right(closed, ts, key=self.end.__getitem__)]

    def column(self, field, stop=None):
        """Field ``field`` of the first ``stop`` rows (of all for None)."""
        stop = None if stop is None else stop * _WIDTH
        return self.numbers[field:stop:_WIDTH]

    def pick_prefix(self, stop, keep=None, as_columns=False):
        """The posting fields of the first ``stop`` rows, of those only
        where ``keep`` (a list of truths) is true if given, in the order
        ``doc, start, end, xid, ancestors, path``; with ``as_columns`` the
        first three only.  Each field is a copy of a column slice or an
        iterator over one, so it stays valid once the caller's read lock
        is released."""
        fields = [self.column(_DOC, stop), self.start[:stop], self.end[:stop]]
        if not as_columns:
            fields += [
                self.column(field, stop)
                for field in (_XID, _ANCESTORS, _PATH)
            ]
        if keep is None:
            return fields
        if as_columns:  # lazily: a caller may read one column only
            return list(map(compress, fields, repeat(keep)))
        # Read only the kept rows: ``compress`` would box every row.
        rows = list(compress(range(stop), keep))
        if len(rows) < 2:  # ``itemgetter`` returns a single item bare
            return [[field[row] for row in rows] for field in fields]
        return list(map(itemgetter(*rows), fields))


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
        self._lists = {}  # word -> _Columns
        # doc_id -> array of (xid, word id, row) triples, occurrence order
        self._open = {}
        # ancestors tuples, paths and words; written under the write lock
        self._table = InternTable()
        self._last_ts = BEFORE_TIME  # of the last event: they come in order
        self.stats = IndexStats()
        self._rwlock = RWLock()

    # -- store observer ---------------------------------------------------------

    def document_committed(self, event):
        with self._rwlock.write_lock():
            if event.timestamp < self._last_ts:
                raise TimeError(
                    f"{event.kind} at {event.timestamp} is earlier than the "
                    f"last event indexed, at {self._last_ts}: the index is "
                    f"fed in commit order"
                )
            self._last_ts = event.timestamp
            if event.kind in ("create", "update"):
                self._reconcile(event.doc_id, event.root, event.timestamp)
            elif event.kind == "delete":
                self._close_all(event.doc_id, event.timestamp)

    def _reconcile(self, doc_id, root, ts):
        table = self._table
        values = table.values
        word_id = table.ids.get
        runs = element_runs(root, table)
        fresh = {}  # xid -> [ancestors id, every word of the element]
        for element, ancestors_id, _path, words in runs:
            entry = fresh.get(element.xid)
            if entry is None:
                fresh[element.xid] = [ancestors_id, words]
            else:
                entry[1] = entry[1] + words

        flat = self._open.pop(doc_id, _NO_TRIPLES)
        previous = self._element_spans(flat)
        lists = self._lists
        # xid -> the (low, high) span of its kept triples in ``flat``, or
        # a list of (word id, row) with None where a posting opens
        now_open = {}
        pending = {}  # xid -> its list where a posting opens
        for xid, (ancestors_id, words) in fresh.items():
            span = previous.pop(xid, None)
            if span is None:  # a new element: every occurrence opens
                slots = [None] * len(words)
            else:
                low, high = span
                wids = flat[low + 1:high:3]
                numbers = lists[values[wids[0]]].numbers
                moved = (numbers[flat[low + 2] * _WIDTH + _ANCESTORS]
                         != ancestors_id)
                if not moved and wids.tolist() == list(map(word_id, words)):
                    now_open[xid] = span  # unchanged: keep its postings
                    continue
                rows = flat[low + 2:high:3]
                if moved:
                    # Hierarchy info in its postings would be stale: every
                    # occurrence opens a new posting.
                    self._close_each(wids, rows, ts)
                    slots = [None] * len(words)
                else:
                    slots = self._match(wids, rows, words, ts)
            now_open[xid] = slots
            if None in slots:
                pending[xid] = slots
        for low, high in previous.values():  # elements without words now
            self._close_each(flat[low + 1:high:3], flat[low + 2:high:3], ts)

        # Open the new postings in document order, so every per-word list
        # gets them in the order the occurrences stand in the version.
        filled = {}
        for element, ancestors_id, path_id, words in runs:
            slots = pending.get(element.xid)
            if slots is None:
                continue
            at = filled.get(element.xid, 0)
            filled[element.xid] = at + len(words)
            opened = 0
            for offset, word in enumerate(words, start=at):
                if slots[offset] is not None:
                    continue
                wid = table.intern(word)
                word = values[wid]  # key the lists by the table's string
                columns = lists.get(word)
                if columns is None:
                    columns = lists[word] = _Columns()
                row = columns.add(doc_id, element.xid, ancestors_id,
                                  path_id, ts)
                slots[offset] = (wid, row)
                opened += 1
            if opened:  # the run's postings share their estimated size
                self.stats.opened(opened * estimated_bytes(
                    values[ancestors_id], values[path_id]), opened)

        self._open[doc_id] = self._joined(flat, now_open)

    @staticmethod
    def _joined(flat, now_open):
        """The new open array of a document: its elements' triples in
        ``now_open`` order, kept spans copied from ``flat`` (adjacent ones
        in one piece)."""
        parts = []  # (low, high) spans of ``flat``, and arrays
        fresh_triples = []  # of new lists, until the next kept span
        for xid, kept in now_open.items():
            if type(kept) is tuple:
                if fresh_triples:
                    parts.append(array(_NUMBER, fresh_triples))
                    fresh_triples = []
                if parts and type(parts[-1]) is tuple \
                        and parts[-1][1] == kept[0]:
                    kept = (parts.pop()[0], kept[1])
                parts.append(kept)
            else:
                for wid, row in kept:
                    fresh_triples += (xid, wid, row)
        parts.append(array(_NUMBER, fresh_triples))
        view = memoryview(flat)
        return array(_NUMBER, b"".join(
            view[part[0]:part[1]] if type(part) is tuple else part
            for part in parts
        ))

    @staticmethod
    def _element_spans(flat):
        """``{xid: (low, high)}``: where each element's triples stand in a
        document's open array (they stand together, elements in order)."""
        counts = Counter(flat[::3])
        highs = list(accumulate(map(mul, counts.values(), repeat(3))))
        return dict(zip(counts, zip([0, *highs], highs)))

    def _columns(self, wid):
        return self._lists[self._table.values[wid]]

    def _match(self, wids, rows, words, ts):
        """Line an element's open postings (``wids[k]``, ``rows[k]``) up
        with its new ``words``: the k-th posting of a word stays open for
        the k-th occurrence of it, the rest close.  Returns the new open
        list of ``(word id, row)``, ``None`` where an occurrence needs a
        posting."""
        by_ordinal = {}
        seen = {}
        for slot in zip(wids, rows):
            wid = slot[0]
            ordinal = seen.get(wid, 0)
            seen[wid] = ordinal + 1
            by_ordinal[wid, ordinal] = slot
        seen = {}
        slots = []
        for wid in map(self._table.ids.get, words):
            ordinal = seen.get(wid, 0)
            seen[wid] = ordinal + 1
            slots.append(by_ordinal.pop((wid, ordinal), None))
        closing = by_ordinal.values()
        self._close_each([wid for wid, _row in closing],
                         [row for _wid, row in closing], ts)
        return slots

    def _close_all(self, doc_id, ts):
        flat = self._open.pop(doc_id, _NO_TRIPLES)
        self._close_each(flat[1::3], flat[2::3], ts)

    def _close_each(self, wids, rows, ts):
        """End the intervals of the postings at ``rows`` of the words
        ``wids`` and take them off their words' open rows."""
        for wid, row in zip(wids, rows):
            self._columns(wid).close(row, ts)
            self.stats.closed()

    # -- the three FTI operations (Section 7.2) ------------------------------------

    def _answer(self, fields, as_columns):
        """What a lookup returns for the field iterables of
        :meth:`_Columns.pick_prefix`: the postings, or with ``as_columns``
        the ``(doc_ids, starts, ends)`` iterables."""
        if as_columns:
            return tuple(fields[:3])
        doc, start, end, xid, ancestors, path = fields
        value = self._table.values.__getitem__
        return list(map(Posting._make, zip(
            doc, xid, map(value, ancestors), map(value, path), start, end
        )))

    def lookup(self, word, docs=None):
        """``FTI_lookup``: occurrences in currently valid document versions.

        Served entirely from the open rows — closed history is never
        scanned.  ``docs`` restricts the result to a document set during
        retrieval (the pattern operators' forest argument, pushed down so
        no full list is ever materialized just to be filtered).
        """
        with self._rwlock.read_lock():
            columns = self._lists.get(word)
            if columns is None:
                self.stats.scanned(0, returned=0)
                return []
            opens = columns.open
            stop = opens[-1] + 1 if opens else 0
            keep = [False] * stop
            for row in opens:
                keep[row] = True
            if docs is not None:
                keep = list(map(and_, keep, map(
                    docs.__contains__, columns.column(_DOC, stop)
                )))
            self.stats.scanned(len(opens), returned=keep.count(True))
            return self._answer(columns.pick_prefix(stop, keep), False)

    def lookup_t(self, word, ts, docs=None, *, as_columns=False):
        """``FTI_lookup_T``: occurrences in versions valid at time ``ts``.

        Bisects the ``start`` column: only postings with ``start <= ts``
        are examined at all.  ``docs`` restricts during retrieval.

        The history lookups (this, :meth:`lookup_h`, :meth:`lookup_w`)
        return a list of :class:`~repro.index.postings.Posting`.  With
        ``as_columns`` they return the same answer as three iterables
        instead — its document ids, starts and ends, in answer order — and
        charge ``stats`` the same.  Keyword ranking reads only those, so
        it builds no posting.
        """
        with self._rwlock.read_lock():
            columns = self._lists.get(word)
            prefix = 0 if columns is None else bisect_right(columns.start, ts)
            return self._alive_after(columns, prefix, ts, docs, as_columns)

    def lookup_h(self, word, docs=None, *, as_columns=False):
        """``FTI_lookup_H``: every posting over the whole history (sorted by
        interval start).  ``docs`` restricts during retrieval."""
        with self._rwlock.read_lock():
            columns = self._lists.get(word)
            if columns is None:
                self.stats.scanned(0, returned=0)
                return self._answer(_NO_FIELDS, as_columns)
            keep, returned = None, len(columns)
            if docs is not None:
                keep = list(map(docs.__contains__, columns.column(_DOC)))
                returned = keep.count(True)
            self.stats.scanned(len(columns), returned=returned)
            return self._answer(
                columns.pick_prefix(len(columns), keep, as_columns),
                as_columns,
            )

    def lookup_w(self, word, start, end, docs=None, *, as_columns=False):
        """Windowed ``FTI_lookup_H``: postings overlapping ``[start, end)``.

        Bisects the ``start`` column so postings born at or after ``end``
        are never examined; the scanned prefix is then filtered to postings
        still valid after ``start``.  Equivalent to ``lookup_h`` followed by
        an overlap filter, at a fraction of the scan cost — the planner's
        time-window pushdown routes history lookups here.
        """
        if start >= end:
            return self._answer(_NO_FIELDS, as_columns)
        with self._rwlock.read_lock():
            columns = self._lists.get(word)
            prefix = 0 if columns is None else bisect_left(columns.start, end)
            return self._alive_after(columns, prefix, start, docs,
                                     as_columns)

    def _alive_after(self, columns, prefix, ts, docs, as_columns):
        """The answer over the first ``prefix`` rows: those whose interval
        ends after ``ts`` and whose document is in ``docs`` (if given).
        Charges ``stats``."""
        if not prefix:
            self.stats.scanned(0, returned=0)
            return self._answer(_NO_FIELDS, as_columns)
        if docs is None:
            # The rows still open after ``ts`` are the most: clear the
            # others.  A row that ended by ``ts`` started before its end,
            # so it lies in the prefix.
            keep = [True] * prefix
            for row in columns.closed_by(ts):
                keep[row] = False
        else:
            # ``docs`` is usually a document or a few: filter on it first,
            # so only the rows left have their end read.
            keep = list(map(docs.__contains__, columns.column(_DOC, prefix)))
            end = columns.end
            for row in compress(range(prefix), keep):
                if end[row] <= ts:
                    keep[row] = False
        self.stats.scanned(prefix, returned=keep.count(True))
        return self._answer(columns.pick_prefix(prefix, keep, as_columns),
                            as_columns)

    # -- planner probes (statistics; no postings are examined) --------------------

    def term_stats(self, word):
        """``(history_postings, open_postings)`` for ``word`` — O(1), not
        charged to ``stats`` (column lengths, nothing is scanned)."""
        with self._rwlock.read_lock():
            columns = self._lists.get(word)
            if columns is None:
                return (0, 0)
            return (len(columns), len(columns.open))

    def postings_at_or_before(self, word, ts):
        """Postings with ``start <= ts`` — exactly the prefix a
        ``lookup_t(word, ts)`` call scans.  O(log n)."""
        with self._rwlock.read_lock():
            columns = self._lists.get(word)
            return 0 if columns is None else bisect_right(columns.start, ts)

    def postings_starting_before(self, word, end):
        """Postings with ``start < end`` — exactly the prefix a
        ``lookup_w(word, ..., end)`` call scans.  O(log n)."""
        with self._rwlock.read_lock():
            columns = self._lists.get(word)
            return 0 if columns is None else bisect_left(columns.start, end)

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
            return sum(map(len, self._lists.values()))

    def open_posting_count(self):
        with self._rwlock.read_lock():
            return sum(len(columns.open) for columns in self._lists.values())

    def footprint(self):
        """Entry counts of the stored layout: ``postings``,
        ``open_postings``, ``open_elements`` (elements holding an open
        posting) and ``interned`` (the distinct ancestors tuples, paths and
        words the postings share)."""
        with self._rwlock.read_lock():
            return {
                "postings": sum(map(len, self._lists.values())),
                "open_postings": sum(
                    len(columns.open) for columns in self._lists.values()
                ),
                "open_elements": sum(
                    len(set(flat[::3])) for flat in self._open.values()
                ),
                "interned": len(self._table),
            }

    def memory_parts(self):
        """The roots of the layout's parts, for a memory probe, in an
        order a walk that counts each object once can follow: the intern
        table, the open-row arrays, the per-document open arrays, then
        the row columns (the word dict and its per-word holders, which
        reach the parts before them too)."""
        return {
            "intern_table": self._table,
            "open_rows": [columns.open for columns in self._lists.values()],
            "open_by_document": self._open,
            "row_columns": self._lists,
        }

    def estimated_bytes(self):
        """The paper's logical index size (E6), not resident memory."""
        with self._rwlock.read_lock():
            value = self._table.values.__getitem__
            total = 0
            for columns in self._lists.values():
                total += (
                    24 * len(columns)
                    + 8 * sum(map(len, map(value,
                                           columns.column(_ANCESTORS))))
                    + sum(map(len, map(value, columns.column(_PATH))))
                )
            return total
