"""The one-stop facade: a temporal XML database in a single object.

:class:`TemporalXMLDatabase` wires together the versioned store, the
temporal full-text index, the lifetime index, and the query engine — the
configuration the paper's system assumes.  Typical use::

    from repro import TemporalXMLDatabase

    db = TemporalXMLDatabase()
    db.put("guide.com", "<guide>...</guide>", ts=db.ts("01/01/2001"))
    db.update("guide.com", "<guide>...</guide>", ts=db.ts("15/01/2001"))
    result = db.query(
        'SELECT R FROM doc("guide.com")[26/01/2001]/restaurant R'
    )
    print(result.to_xml_string())

Lower-level pieces stay reachable (``db.store``, ``db.fti``,
``db.lifetime``, ``db.engine``) for operator-level experiments.
"""

from __future__ import annotations

from .clock import parse_date
from .index.fti import TemporalFullTextIndex
from .index.lifetime import LifetimeIndex
from .query.executor import QueryEngine
from .storage.store import TemporalDocumentStore


#: Accepted ``durability`` knob values for :meth:`TemporalXMLDatabase.open`.
DURABILITY_MODES = ("none", "journal", "fsync")


class TemporalXMLDatabase:
    """Store + indexes + query engine, pre-wired."""

    # Durable-mode attributes; plain in-memory databases keep the defaults.
    data_dir = None
    durability = "none"
    journal = None
    checkpointer = None
    recovery = None

    def __init__(self, clock=None, snapshot_interval=None):
        """The one place tuning is named; :meth:`load` and :meth:`open`
        take the same keywords and pass them here.  ``snapshot_interval``
        materializes a full snapshot every k-th version of each document
        — see ``docs/PERFORMANCE.md``."""
        self.store = TemporalDocumentStore(
            clock=clock, snapshot_interval=snapshot_interval
        )
        self.fti = self.store.subscribe(TemporalFullTextIndex())
        self.lifetime = self.store.subscribe(LifetimeIndex())
        self.engine = QueryEngine(
            self.store, fti=self.fti, lifetime=self.lifetime
        )

    # -- updates ---------------------------------------------------------------

    def put(self, name, source, ts=None):
        """Create a document (XML text or a tree); returns its doc_id."""
        return self.store.put(name, source, ts=ts)

    def update(self, name, source, ts=None):
        """Commit a new version; returns the new version number."""
        return self.store.update(name, source, ts=ts)

    def delete(self, name, ts=None):
        """Logically delete a document (history stays queryable)."""
        self.store.delete(name, ts=ts)

    def batch(self):
        """Open a group-commit batch: stage several put/update/delete ops,
        commit them as one journal group with a single fsync::

            with db.batch() as b:
                b.put("a.xml", "<doc/>")
                b.update("b.xml", "<doc>new</doc>")

        Returns a :class:`~repro.storage.store.CommitBatch` (commits on
        clean ``with``-exit, aborts untouched on exception).  See
        ``docs/DURABILITY.md`` and ``docs/PERFORMANCE.md``."""
        return self.store.batch()

    # -- queries ------------------------------------------------------------------

    def query(self, text):
        """Execute TXQL text; returns a ResultSet.

        ``EXPLAIN`` / ``EXPLAIN ANALYZE`` queries return plan/trace
        reports instead (see :mod:`repro.obs`)."""
        return self.engine.execute(text)

    def trace(self, text):
        """EXPLAIN ANALYZE a query: execute it under a tracer and return
        the :class:`~repro.obs.ExplainAnalyzeReport` (per-operator tree,
        JSON-exportable)."""
        return self.engine.explain_analyze(text)

    # -- persistence ------------------------------------------------------------------

    def save(self, path):
        """Write the whole version history to ``path`` as one checksummed
        XML archive (the export file :meth:`load` reads back)."""
        from .storage.persistence import dump_store

        dump_store(self.store, path)

    @classmethod
    def load(cls, path, **tuning):
        """Restore a database from :meth:`save`'s archive (or a CAS
        checkpoint directory); ``tuning`` is any keyword the constructor
        takes.

        Indexes (FTI, lifetime) are rebuilt by replaying the stored commit
        history through the usual observers, so query behaviour after a
        load is identical to before the save."""
        from .storage.persistence import load_store, replay_history

        db = cls(**tuning)
        load_store(path, store=db.store)
        replay_history(db.store, [db.fti, db.lifetime])
        return db

    # -- durable databases -------------------------------------------------------------

    @classmethod
    def open(
        cls,
        directory,
        durability="journal",
        fs=None,
        storage=None,
        **tuning,
    ):
        """Open (creating or recovering) a crash-safe database directory;
        ``tuning`` is any keyword the constructor takes.

        The directory holds a checkpoint — a content-addressed object
        store under ``objects/`` named by the ``checkpoint.cas`` pointer
        (``docs/STORAGE.md``) — plus an append-only commit journal
        (``journal.bin``); opening always runs recovery — loads the newest
        valid checkpoint, replays the journal tail through the index
        observers, truncates a torn tail (unless ``durability="none"``,
        which appends nothing and so leaves the journal file alone) — and
        then attaches the journal so every commit is logged.  A journal in
        an older format is read, then checkpointed once so it rolls aside
        before anything is appended.  The
        :class:`~repro.storage.recover.RecoveryReport` is left on
        ``db.recovery``.

        ``durability`` selects the write-path cost (see
        ``docs/DURABILITY.md``): ``"fsync"`` syncs the journal on every
        commit, ``"journal"`` flushes without syncing, ``"none"`` keeps no
        journal — only explicit :meth:`checkpoint` calls persist anything.

        A directory an older release wrote holds XML archives
        (``checkpoint.xml``) instead; recovery reads them, and the next
        :meth:`checkpoint` writes CAS and removes them.  ``storage``
        accepts only ``"cas"`` (or nothing): a directory has one
        checkpoint format, and :meth:`save` is the XML export.
        """
        import os

        from .errors import StorageError
        from .storage.checkpoint import JOURNAL_FILE, Checkpointer
        from .storage.faults import REAL_FS
        from .storage.journal import FORMAT_VERSION, CommitJournal
        from .storage.recover import recover_store

        if durability not in DURABILITY_MODES:
            raise StorageError(
                f"unknown durability mode {durability!r}; "
                f"expected one of {DURABILITY_MODES}"
            )
        if storage not in (None, "cas"):
            raise StorageError(
                f"unknown storage backend {storage!r}: a database directory "
                "checkpoints to CAS only; write an XML archive with save()"
            )
        db = cls(**tuning)
        os.makedirs(directory, exist_ok=True)
        if fs is None:
            fs = REAL_FS
        _, db.recovery = recover_store(
            directory,
            store=db.store,
            observers=[db.fti, db.lifetime],
            fs=fs,
            # Only a journal reopened for append needs its torn tail cut.
            repair=durability != "none",
        )
        db.data_dir = str(directory)
        db.durability = durability
        if durability != "none":
            db.journal = CommitJournal(
                os.path.join(str(directory), JOURNAL_FILE),
                fsync_policy="commit" if durability == "fsync" else "flush",
                fs=fs,
            )
            db.store.attach_journal(db.journal)
        db.checkpointer = Checkpointer(
            db.store, directory, journal=db.journal, fs=fs
        )
        # Dedup/compression/GC counters join the shared registry so
        # `repro stats` and EXPLAIN-era tooling see the storage layer.
        db.engine.registry.register("cas", db.checkpointer.objstore.stats)
        # The next checkpoint writes only what changed since the loaded one.
        db.checkpointer.objstore.published = db.recovery.published
        if db.journal is not None and db.journal.version != FORMAT_VERSION:
            # journal.bin was written by an older release in a format that
            # is only read now: fold it into a checkpoint, which rolls it
            # to .prev, so the first append lands in a fresh file.
            db.checkpoint()
        return db

    def checkpoint(self):
        """Write an atomic checkpoint and roll the journal (durable mode)."""
        if self.checkpointer is None:
            from .errors import StorageError

            raise StorageError(
                "database has no data directory; open it with "
                "TemporalXMLDatabase.open() to checkpoint"
            )
        return self.checkpointer.checkpoint()

    def close(self):
        """Flush and close the journal (no-op for in-memory databases)."""
        if self.journal is not None:
            self.journal.close()

    def durability_stats(self):
        """Journal/checkpoint/recovery counters for the bench harness."""
        return {
            "durability": self.durability,
            "journal": self.journal.stats.as_dict() if self.journal else None,
            "checkpoints": (
                self.checkpointer.stats.as_dict() if self.checkpointer else None
            ),
            "recovery": self.recovery.as_dict() if self.recovery else None,
        }

    def storage_stats(self):
        """Per-kind storage breakdown: logical bytes + on-disk backend.

        ``logical`` is the store's own accounting
        (:meth:`~repro.storage.repository.Repository.storage_bytes`);
        ``backend`` (durable databases only) reports what actually sits
        on disk: the CAS dedup/compression/GC counters per kind
        (current/deltas/snapshots/checkpoint manifests, raw vs stored
        bytes, dedup ratio) plus the object directory size.
        ``indexes`` counts what the in-memory indexes hold: total and open
        postings, elements with an open posting, interned contexts shared
        by postings, and lifetime entries.  ``held`` counts what the
        stored deltas hold in memory: operations, packed payloads and the
        payloads' bytes."""
        out = {
            "logical": self.store.repository.storage_bytes(),
            "indexes": {
                **self.fti.footprint(),
                "lifetime_entries": len(self.lifetime),
            },
            "held": self.store.repository.held_deltas(),
            "backend": None,
        }
        if self.checkpointer is None:
            return out
        from .storage.cas import kind_breakdown, storage_size

        backend = self.checkpointer.objstore.stats.as_dict()
        backend["disk_bytes"] = storage_size(self.data_dir)
        # Counters cover this store's lifetime; the disk breakdown is
        # what the published checkpoint holds right now.
        backend["disk_by_kind"] = kind_breakdown(self.data_dir)
        if self.checkpointer.last_gc is not None:
            backend["last_gc"] = self.checkpointer.last_gc.as_dict()
        out["backend"] = backend
        return out

    # -- conveniences ----------------------------------------------------------------

    @staticmethod
    def ts(date_text):
        """Parse a ``dd/mm/yyyy`` date into a timestamp."""
        return parse_date(date_text)

    def now(self):
        return self.store.clock.now()

    def current(self, name):
        return self.store.current(name)

    def snapshot(self, name, ts):
        return self.store.snapshot(name, ts)

    def documents(self, include_deleted=False):
        return self.store.documents(include_deleted=include_deleted)
