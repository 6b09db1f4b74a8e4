"""Checkpointing: CAS checkpoints + journal rotation.

A checkpoint publishes the store into the directory's content-addressed
object store (:mod:`~repro.storage.cas`), after which the commit journal
can be rolled — every journaled record is now contained in the
checkpoint.  The protocol keeps **two generations** so there is no moment
at which a crash can leave the directory unrecoverable:

1. ``journal.sync()`` — everything acknowledged is on disk;
2. write the objects that changed (invisible until referenced);
3. rotate the pointer (``checkpoint.cas`` → ``checkpoint.cas.prev``) and
   publish the new one atomically (temp + fsync + rename + dir sync);
4. roll the journal (``journal.bin`` → ``journal.bin.prev``, fresh file);
5. mark-and-sweep GC of every object no retained pointer reaches.

A crash between any two steps is safe: recovery
(:mod:`~repro.storage.recover`) tries ``checkpoint.cas`` first and falls
back to ``checkpoint.cas.prev``, replaying both journal generations with
idempotent records, so whichever pair of files survived reproduces the
exact pre-crash commit history.  GC runs last, so a crash anywhere
earlier can only leave extra garbage, never remove a reachable object.

A directory written by an older release holds XML archives
(``checkpoint.xml`` and its ``.prev``) instead; recovery still reads
them, and the first checkpoint after such an open removes them once the
CAS pointer is published.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .cas import (
    CAS_POINTER_FILE,
    CASObjectStore,
    collect_garbage,
    write_checkpoint,
)
from .faults import REAL_FS

#: The XML archive an older release checkpointed to (read-only now).
LEGACY_CHECKPOINT_FILE = "checkpoint.xml"
JOURNAL_FILE = "journal.bin"
PREV_SUFFIX = ".prev"


@dataclass
class CheckpointStats:
    checkpoints: int = 0
    bytes_written: int = 0
    last_bytes: int = 0

    def as_dict(self):
        return {
            "checkpoints": self.checkpoints,
            "bytes_written": self.bytes_written,
            "last_bytes": self.last_bytes,
        }


class Checkpointer:
    """Writes CAS checkpoints of a store and rolls its journal."""

    def __init__(self, store, directory, journal=None, fs=None):
        self.store = store
        self.directory = str(directory)
        self.journal = journal
        self.fs = fs if fs is not None else REAL_FS
        self.stats = CheckpointStats()
        #: Shared across checkpoints so dedup and GC counters accumulate
        #: per database, not per checkpoint call.
        self.objstore = CASObjectStore(self.directory, fs=self.fs)
        self.last_gc = None

    def checkpoint(self):
        """Write a checkpoint and roll the journal; returns the pointer
        file's path."""
        if self.journal is not None:
            self.journal.sync()
        objstore = self.objstore
        before = objstore.stats.stored_bytes
        write_checkpoint(
            self.store, self.directory, fs=self.fs, objstore=objstore,
            rotate=True,
        )
        if self.journal is not None:
            self.journal.roll()
        # Rotation just demoted the old checkpoint to the .prev
        # generation; anything older is now unreachable — reclaim it.
        self.last_gc = collect_garbage(
            self.directory, fs=self.fs, objstore=objstore
        )
        written = objstore.stats.stored_bytes - before
        self._retire_legacy_checkpoints()
        self.stats.checkpoints += 1
        self.stats.bytes_written += written
        self.stats.last_bytes = written
        return os.path.join(self.directory, CAS_POINTER_FILE)

    def _retire_legacy_checkpoints(self):
        """Drop an older release's XML checkpoints once ours is durable.

        They are stale from the moment the CAS pointer is published and
        recovery would never reach them again; removing them strictly
        after the publish means a crash anywhere still leaves a
        recoverable generation.
        """
        stale = os.path.join(self.directory, LEGACY_CHECKPOINT_FILE)
        for path in (stale, stale + PREV_SUFFIX):
            if self.fs.exists(path):
                self.fs.remove(path)
