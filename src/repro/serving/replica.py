"""Journal-shipping read replicas.

A :class:`Replica` is a read-only copy of a durable database directory
(the layout written by :meth:`~repro.db.TemporalXMLDatabase.open`): it
seeds itself by opening the directory without a journal
(``TemporalXMLDatabase.open(directory, durability="none")``, the
crash-recovery path — checkpoint plus journal replay) and then *tails
the leader's commit journal* through the same
:func:`~repro.storage.recover.replay_journals` recovery ends with.  Because
records are keyed by document id and version number, re-scanning the
journal from the start on every :meth:`catch_up` is safe: already-applied
records are skipped, only the genuine tail changes the store.  It is also
cheap: the scan leaves record bodies undecoded and a skipped record never
decodes its own, so a catch-up against an unchanged leader checks frames
and envelopes and builds no tree.  Seeding goes through recovery, so a
leader replicates from whichever checkpoint generation it holds, and a
directory an older release wrote is refused until ``repro upgrade``.

The replica never writes to the leader's directory (a journal-less open
creates nothing and repairs nothing, so even a torn journal tail is left
untouched), and it serves reads through its own
:class:`~repro.serving.SessionManager` (marked read-only), so replica
sessions get the same pinned-snapshot guarantees as leader sessions.

If the leader checkpoints twice between catch-ups, the journal the
replica tailed has rolled past it: neither of the leader's checkpoint
pointers (``checkpoint.cas`` and its ``.prev``) still names the
checkpoint the replica last covered.  The replica then re-seeds itself
from the leader's current checkpoint + journal and counts a ``resync``;
so it does on a version gap (:class:`~repro.errors.CorruptArchiveError`)
in what it tails.  Sessions opened before a re-seed keep reading their old —
still internally consistent — store.
"""

from __future__ import annotations

import os
import threading
import weakref
from dataclasses import asdict

from ..db import TemporalXMLDatabase
from ..errors import CorruptArchiveError
from ..storage.cas import CAS_POINTER_FILE
from ..storage.faults import REAL_FS
from ..storage.recover import replay_journals
from .session import SessionManager


class Replica:
    """A read replica of a leader's durable database directory."""

    def __init__(self, directory, fs=None):
        self.directory = str(directory)
        self._catch_up_lock = threading.Lock()
        self.records_applied = 0
        self.resyncs = 0
        self._seed(fs)
        # The manager sees the replica through a proxy: the replica owns
        # it, and a cycle would leave a dropped replica to the cycle
        # collector.  Its sessions are the replica's to hand out while the
        # replica lives.
        self.sessions = SessionManager(weakref.proxy(self), read_only=True)
        # The seed already contains the full journal; publish it.
        with self.sessions._commit_lock:
            self.sessions._publish()

    # -- db-like surface (what SessionManager expects) ------------------------

    # What the manager reads, off the seeded database, which a re-seed
    # swaps in one step; the replica deliberately has no
    # put/update/delete — its manager is read-only.
    store = property(lambda self: self.db.store)
    fti = property(lambda self: self.db.fti)
    lifetime = property(lambda self: self.db.lifetime)
    recovery = property(lambda self: self.db.recovery)

    def session(self):
        """Open a pinned read session over the replica."""
        return self.sessions.session()

    def query(self, text):
        """One-shot convenience: query through a fresh pinned session."""
        return self.session().query(text)

    # -- replication ----------------------------------------------------------

    def _seed(self, fs):
        """(Re)open the leader directory through ``fs`` without a journal:
        recovery, which neither creates nor repairs (mutates) the leader's
        files."""
        fs = fs if fs is not None else REAL_FS
        # Read before the journals are: the seed holds at least this
        # checkpoint, whatever the leader does meanwhile.
        self._covered_pointer = _read_if_there(
            fs, os.path.join(self.directory, CAS_POINTER_FILE)
        )
        self.db = TemporalXMLDatabase.open(
            self.directory, durability="none", fs=fs
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
            objstore = self.db.checkpointer.objstore
            fs, pointer = objstore.fs, objstore.pointer
            current = _read_if_there(fs, pointer)
            previous = _read_if_there(fs, pointer + ".prev")
            applied = None
            # The journals hold every commit since the older pointer's
            # checkpoint; one the replica covered must still be named.
            if self._covered_pointer in (current, previous):
                try:
                    applied = replay_journals(
                        self.store, objstore, (self.fti, self.lifetime),
                    ).records_replayed
                    self._covered_pointer = current
                except CorruptArchiveError:
                    pass  # a version gap
            resynced = applied is None
            if resynced:
                # The journals rolled past what the replica holds: start
                # over from the leader's current checkpoint.
                self._seed(fs)
                self.resyncs += 1
                applied = self.recovery.records_replayed
            if applied or resynced:
                self.records_applied += applied
                with self.sessions._commit_lock:
                    self.sessions._publish()
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
            "recovery": asdict(self.recovery) if self.recovery else None,
        }


def _read_if_there(fs, path):
    """The bytes of the file at ``path``, or ``None`` when it is missing."""
    try:
        return fs.read_bytes(path)
    except FileNotFoundError:
        return None
