"""Versioned document storage (Section 7.1 of the paper).

Physical model: each named document is stored as one **complete current
version** plus a chain of **completed deltas** (applicable both forwards and
backwards), with optional intermediate **snapshots** every *k* versions.  A
per-document **delta index** maps version numbers to timestamps and records
how many bytes each delta/snapshot takes.  Every stored read is counted
(delta, snapshot and current reads), the currency in which the paper reasons
about operator cost.

Durability lives alongside: the append-only
:class:`~repro.storage.journal.CommitJournal`, the CAS
:class:`~repro.storage.checkpoint.Checkpointer`, crash recovery
(:func:`~repro.storage.recover.recover_store`), and the fault-injecting
filesystem shim (:mod:`~repro.storage.faults`) that proves them — see
``docs/DURABILITY.md``.

The logical entry point is
:class:`~repro.storage.store.TemporalDocumentStore`.
"""

from .checkpoint import Checkpointer, CheckpointStats
from .faults import OSFileSystem, REAL_FS
from .journal import (
    CommitJournal,
    JournalRecord,
    JournalScan,
    JournalStats,
    scan_journal,
    verify_journal,
)
from .deltaindex import DeltaIndex, VersionEntry
from .recover import RecoveryReport, recover_store
from .repository import Anchor, AnchorStats, Repository
from .snapshots import (
    AdaptiveSnapshotPolicy,
    IntervalSnapshotPolicy,
    SnapshotPolicy,
)
from .store import CommitEvent, TemporalDocumentStore

__all__ = [
    "Checkpointer",
    "CheckpointStats",
    "OSFileSystem",
    "REAL_FS",
    "CommitJournal",
    "JournalRecord",
    "JournalScan",
    "JournalStats",
    "scan_journal",
    "verify_journal",
    "DeltaIndex",
    "VersionEntry",
    "RecoveryReport",
    "recover_store",
    "Anchor",
    "AnchorStats",
    "Repository",
    "SnapshotPolicy",
    "IntervalSnapshotPolicy",
    "AdaptiveSnapshotPolicy",
    "TemporalDocumentStore",
    "CommitEvent",
]
