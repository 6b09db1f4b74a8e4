"""Journal-shipping read replicas.

A :class:`Replica` is a read-only copy of a durable database directory
(the layout written by :meth:`~repro.db.TemporalXMLDatabase.open`): it
seeds itself through the crash-recovery path — checkpoint plus journal
replay — and then *tails the leader's commit journal*, feeding newly
shipped records through the same idempotent
:func:`~repro.storage.recover.apply_record` used by recovery.  Because
records are keyed by document id and version number, re-scanning the
journal from the start on every :meth:`catch_up` is safe: already-applied
records are skipped, only the genuine tail changes the store.  It is also
cheap: the scan leaves record bodies undecoded and a skipped record never
decodes its own, so a catch-up against an unchanged leader checks frames
and envelopes and builds no tree.  Seeding
goes through :func:`~repro.storage.recover.recover_store`, so a leader
replicates from whichever checkpoint it holds (the content-addressed
store of :mod:`~repro.storage.cas`, or an older release's XML archive).

The replica never writes to the leader's directory (recovery runs with
``repair=False`` so even a torn journal tail is left untouched), and it
serves reads through its own :class:`~repro.serving.SessionManager`
(marked read-only), so replica sessions get the same pinned-snapshot
guarantees as leader sessions.

If the leader checkpoints twice between catch-ups, the journal the
replica tailed may have rolled past it (a version gap —
:class:`~repro.errors.CorruptArchiveError`); the replica then re-seeds
itself from the leader's current checkpoint + journal and counts a
``resync``.  Sessions opened before a re-seed keep reading their old —
still internally consistent — store.
"""

from __future__ import annotations

import os
import threading
import weakref

from ..errors import CorruptArchiveError
from ..index.fti import TemporalFullTextIndex
from ..index.lifetime import LifetimeIndex
from ..storage.checkpoint import JOURNAL_FILE, PREV_SUFFIX
from ..storage.faults import REAL_FS
from ..storage.journal import scan_journal
from ..storage.recover import apply_record, recover_store
from .session import SessionManager


class Replica:
    """A read replica of a leader's durable database directory."""

    def __init__(self, directory, fs=None):
        self.directory = str(directory)
        self._fs = fs if fs is not None else REAL_FS
        self._catch_up_lock = threading.Lock()
        self.records_applied = 0
        self.resyncs = 0
        self.recovery = None
        self._seed()
        # The manager sees the replica through a proxy: the replica owns
        # it, and a cycle would leave a dropped replica to the cycle
        # collector.  Its sessions are the replica's to hand out while the
        # replica lives.
        self.sessions = SessionManager(weakref.proxy(self), read_only=True)
        # The seed already contains the full journal; publish it.
        with self.sessions._commit_lock:
            self.sessions._publish()

    # -- db-like surface (what SessionManager expects) ------------------------

    # store / fti / lifetime are set by _seed(); the replica deliberately has
    # no put/update/delete — its manager is read-only.

    def session(self):
        """Open a pinned read session over the replica."""
        return self.sessions.session()

    def query(self, text):
        """One-shot convenience: query through a fresh pinned session."""
        return self.session().query(text)

    # -- replication ----------------------------------------------------------

    def _seed(self):
        """(Re)build store and indexes from the leader directory via the
        recovery path, without repairing (mutating) the leader's files."""
        self.fti = TemporalFullTextIndex()
        self.lifetime = LifetimeIndex()
        self.store, self.recovery = recover_store(
            self.directory,
            observers=[self.fti, self.lifetime],
            fs=self._fs,
            repair=False,
        )

    def follow(self, interval, duration=None, stop=None):
        """Auto-tail the leader on a timer: :meth:`catch_up` every
        ``interval`` seconds.

        Runs until ``duration`` seconds elapse (``None`` = forever),
        ``stop`` (a :class:`threading.Event`) is set, or the thread is
        interrupted.  Seeding already happened in the constructor, so the
        loop is nothing but the idempotent catch-up — exactly what a
        cron-like follower wants.  Returns the total records applied
        while following."""
        import time

        stop = stop if stop is not None else threading.Event()
        deadline = None if duration is None else time.monotonic() + duration
        applied = 0
        while not stop.is_set():
            applied += self.catch_up()
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                stop.wait(min(interval, remaining))
            else:
                stop.wait(interval)
        return applied

    def catch_up(self):
        """Tail the leader's journal; returns the number of new records
        applied.  Idempotent — safe to call on a timer or before reads."""
        with self._catch_up_lock:
            resynced = False
            try:
                applied = self._scan_and_apply()
            except CorruptArchiveError:
                # The journal rolled past our seed (e.g. two leader
                # checkpoints between catch-ups): start over from the
                # leader's current checkpoint.
                self._seed()
                self.resyncs += 1
                resynced = True
                applied = self.recovery.records_replayed
            if applied or resynced:
                self.records_applied += applied
                with self.sessions._commit_lock:
                    self.sessions._publish()
            return applied

    def _scan_and_apply(self):
        journal_path = os.path.join(self.directory, JOURNAL_FILE)
        applied = 0
        observers = (self.fti, self.lifetime)
        for path in (journal_path + PREV_SUFFIX, journal_path):
            scan = scan_journal(path, fs=self._fs)
            for record in scan.records:
                if apply_record(self.store, record, observers):
                    applied += 1
        return applied

    # -- introspection --------------------------------------------------------

    def stats(self):
        published = self.sessions.published
        return {
            "directory": self.directory,
            "documents": len(self.store.repository.records()),
            "records_applied": self.records_applied,
            "resyncs": self.resyncs,
            "published_seq": published.seq,
            "published_ts": published.ts,
            "recovery": self.recovery.as_dict() if self.recovery else None,
        }
