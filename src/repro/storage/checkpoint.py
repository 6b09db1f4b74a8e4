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
"""

from __future__ import annotations

from dataclasses import dataclass

from .cas import collect_garbage, write_checkpoint

JOURNAL_FILE = "journal.bin"
PREV_SUFFIX = ".prev"


@dataclass
class CheckpointStats:
    checkpoints: int = 0
    bytes_written: int = 0
    last_bytes: int = 0


class Checkpointer:
    """Writes CAS checkpoints of a store into its directory's object
    store and rolls its journal."""

    def __init__(self, store, objstore, journal=None):
        self.store = store
        #: The open database's one object store (recovery read the
        #: checkpoint through it), so dedup, read and GC counters
        #: accumulate per database, not per checkpoint call.
        self.objstore = objstore
        self.journal = journal
        self.stats = CheckpointStats()
        self.last_gc = None

    def checkpoint(self):
        """Write a checkpoint and roll the journal; returns the pointer
        file's path."""
        if self.journal is not None:
            self.journal.sync()
        objstore = self.objstore
        before = objstore.stats.stored_bytes
        write_checkpoint(self.store, objstore, rotate=True)
        if self.journal is not None:
            self.journal.roll()
        # Rotation just demoted the old checkpoint to the .prev
        # generation; anything older is now unreachable — reclaim it.
        self.last_gc = collect_garbage(objstore)
        written = objstore.stats.stored_bytes - before
        self.stats.checkpoints += 1
        self.stats.bytes_written += written
        self.stats.last_bytes = written
        return objstore.pointer
