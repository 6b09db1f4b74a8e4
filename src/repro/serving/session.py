"""Snapshot-isolated sessions over a live writer.

The transaction-time store never mutates a committed version, which makes
multi-version concurrency control almost free: a reader that *pins* itself
to a commit timestamp sees a frozen, internally consistent database no
matter what the writer does afterwards.  This module adds the missing
coordination point — an epoch-style **published-version pointer**:

* :class:`SessionManager` serializes writers (one commit at a time through
  the existing store/journal path) and, after each commit has fully
  reached the repository, delta index, FTI, lifetime index, and journal,
  atomically swaps an immutable :class:`PublishedState` ``(seq, ts)``.
* :class:`Session` is a reader handle.  At creation (and on
  :meth:`Session.refresh`) it reads the published pointer once and pins
  its private :class:`~repro.query.executor.QueryEngine` to that
  timestamp (``engine.pinned_now``).  Every TXQL construct that touches
  "now" — ``NOW``, ``[EVERY]``'s horizon, ``CURRENT()``, ``NEXT()``,
  ``DELETE TIME()``, even document-name resolution — is clamped to the
  pin, so a session's queries are byte-identical to running them against
  a quiesced store containing exactly the commits up to its pin.

Readers never take the commit lock and never block the writer; the writer
never waits for readers.  Because commit timestamps increase strictly and
the repository publishes each version's structures *before* the version
becomes reachable (delta → delta-index entry → current-state swap),
pinned reads need no storage-level locks beyond the per-structure ones
the store already takes.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass

from ..errors import StorageError
from ..obs import MetricsRegistry
from ..query.executor import QueryEngine


@dataclass(frozen=True)
class PublishedState:
    """The atomically-published tip of the database.

    ``seq`` counts commits published since the manager was created (0 for
    the initial state) — tests key serial-equivalence baselines off it.
    ``ts`` is the commit timestamp of the newest published version; pinned
    sessions see every version with ``timestamp <= ts`` and nothing else.
    """

    seq: int
    ts: int


class SessionManager:
    """Coordinates one writer and many pinned readers over a database.

    ``db`` is anything exposing ``store``/``fti``/``lifetime`` (a
    :class:`~repro.db.TemporalXMLDatabase` or a
    :class:`~repro.serving.replica.Replica`).  Write methods route through
    the database facade under a commit lock, then publish; readers call
    :meth:`session` and never touch that lock.
    """

    def __init__(self, db, read_only=False):
        self.db = db
        self.read_only = read_only
        self._commit_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self._published = PublishedState(0, db.store.clock.now())
        self.commits = 0
        self.sessions_opened = 0

    # -- readers --------------------------------------------------------------

    @property
    def published(self):
        """Current :class:`PublishedState` (a single atomic attribute read)."""
        return self._published

    def session(self):
        """Open a :class:`Session` pinned to the currently published state."""
        with self._counter_lock:
            self.sessions_opened += 1
        return Session(self)

    # -- the writer -----------------------------------------------------------

    def put(self, name, source, ts=None):
        """Create a document through the writer path; returns its doc_id."""
        with self._commit_lock:
            self._check_writable()
            doc_id = self.db.put(name, source, ts=ts)
            self._publish()
            return doc_id

    def update(self, name, source, ts=None):
        """Commit a new version; returns the new version number."""
        with self._commit_lock:
            self._check_writable()
            version = self.db.update(name, source, ts=ts)
            self._publish()
            return version

    def delete(self, name, ts=None):
        """Logically delete a document (history stays pinned-queryable)."""
        with self._commit_lock:
            self._check_writable()
            self.db.delete(name, ts=ts)
            self._publish()

    @contextmanager
    def batch(self):
        """Group-commit through the writer path: stage several ops, commit
        them as one journal group, publish **one** epoch::

            with manager.batch() as b:
                b.put("a.xml", "<doc/>")
                b.update("b.xml", "<doc>new</doc>")

        The commit lock is held for the whole group and the published
        pointer moves exactly once, after every member commit has reached
        every structure — so a pinned reader either sees none of the group
        or all of it, never a half-applied prefix."""
        with self._commit_lock:
            self._check_writable()
            staged = self.db.batch()
            try:
                yield staged
            except BaseException:
                if not staged._closed:
                    staged.abort()
                raise
            if not staged._closed:
                staged.commit()
            if staged.results:
                self._publish(members=len(staged.results))

    def _check_writable(self):
        if self.read_only:
            raise StorageError(
                "this serving endpoint is read-only (a journal-shipping "
                "replica); send writes to the leader"
            )

    def _publish(self, members=1):
        """Swap the published pointer.  Runs *after* the commit has reached
        every structure a pinned reader could touch (repository, delta
        index, FTI, lifetime index, journal), so the instant a reader
        observes the new state, everything it references is in place.
        A commit group publishes one epoch covering ``members`` commits."""
        previous = self._published
        self._published = PublishedState(
            previous.seq + 1, self.db.store.clock.now()
        )
        with self._counter_lock:
            self.commits += members

    def stats(self):
        published = self._published
        return {
            "published_seq": published.seq,
            "published_ts": published.ts,
            "commits": self.commits,
            "sessions_opened": self.sessions_opened,
            "read_only": self.read_only,
        }


class Session:
    """A reader handle pinned to one published snapshot.

    Each session owns a private :class:`QueryEngine` — its own metrics
    registry, tracer, join statistics, and per-query stats — over the
    *shared* store and indexes.  Queries therefore never clobber another
    session's counters (the old engine-global ``last_query_stats`` hazard),
    and :meth:`stats` reports this session's activity as a registry delta
    since it opened.
    """

    def __init__(self, manager):
        self.manager = manager
        db = manager.db
        self.engine = QueryEngine(db.store, fti=db.fti, lifetime=db.lifetime)
        self.queries = 0
        self.pinned = None
        self.refresh()
        self._baseline = self.engine.registry.snapshot()

    def refresh(self):
        """Re-pin to the latest published state; returns the new pin."""
        self.pinned = self.manager.published
        self.engine.pinned_now = self.pinned.ts
        return self.pinned

    def query(self, text):
        """Execute TXQL pinned to this session's snapshot.

        Returns a :class:`~repro.query.executor.ResultSet` whose ``stats``
        attribute carries this query's own counter deltas."""
        self.queries += 1
        return self.engine.execute(text)

    def trace(self, text):
        """EXPLAIN ANALYZE pinned to this session's snapshot; the report's
        root span gives per-query wall-clock latency."""
        self.queries += 1
        return self.engine.explain_analyze(text)

    def stats(self):
        """Counters observed through this session's registry since it
        opened.  Join/materialization counters are session-local; counters
        sourced from the shared store and indexes also move with
        concurrent sessions' traffic, so treat those as approximate."""
        delta = MetricsRegistry.delta(
            self._baseline, self.engine.registry.snapshot()
        )
        return {
            "pinned_seq": self.pinned.seq,
            "pinned_ts": self.pinned.ts,
            "queries": self.queries,
            "metrics": delta,
        }
