"""Full-version storage: every version is a complete stored document.

This is the storage half of the stratum approach (and also the "copy-based"
scheme of Chien et al. that the paper cites): no diffing, no deltas, no
XIDs carried across versions.  Space grows with total document size per
version; snapshot retrieval is a single read (its advantage — benchmark E7
measures both sides of that trade).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from bisect import bisect_right

from repro.clock import LogicalClock, UNTIL_CHANGED
from repro.errors import (
    DocumentDeletedError,
    NoSuchDocumentError,
    NoSuchVersionError,
    StorageError,
)
from repro.xmlcore.node import Element
from repro.xmlcore.parser import parse
from repro.xmlcore.serializer import serialize

from ..disk import DiskSimulator


@dataclass
class StoredVersion:
    number: int
    timestamp: int
    tree: object
    extent: object
    nbytes: int


@dataclass
class StratumDocument:
    doc_id: int
    name: str
    versions: list = field(default_factory=list)
    deleted_at: int = None

    @property
    def is_deleted(self):
        return self.deleted_at is not None

    def version_at(self, ts):
        if self.deleted_at is not None and ts >= self.deleted_at:
            return None
        timestamps = [v.timestamp for v in self.versions]
        pos = bisect_right(timestamps, ts)
        if pos == 0:
            return None
        return self.versions[pos - 1]

    def end_of(self, version):
        if version.number < len(self.versions):
            return self.versions[version.number].timestamp
        return self.deleted_at if self.deleted_at is not None else UNTIL_CHANGED


class StratumStore:
    """All versions stored complete; the conventional-database substrate."""

    def __init__(self, clock=None, disk=None, clustered=True):
        self.clock = clock if clock is not None else LogicalClock()
        self.disk = disk if disk is not None else DiskSimulator(
            clustered=clustered
        )
        self._by_name = {}
        self._by_id = {}
        self._next_doc_id = 1
        self.version_reads = 0

    # -- commits -----------------------------------------------------------------

    def put(self, name, source, ts=None):
        existing = self._by_name.get(name)
        if existing is not None and not existing.is_deleted:
            raise StorageError(f"document {name!r} already exists")
        doc = StratumDocument(self._next_doc_id, name)
        self._next_doc_id += 1
        self._by_name[name] = doc
        self._by_id[doc.doc_id] = doc
        self._store_version(doc, source, ts)
        return doc.doc_id

    def update(self, name, source, ts=None):
        doc = self._live(name)
        self._store_version(doc, source, ts)
        return len(doc.versions)

    def delete(self, name, ts=None):
        doc = self._live(name)
        doc.deleted_at = self._commit_ts(ts)

    def _store_version(self, doc, source, ts):
        tree = source if isinstance(source, Element) else parse(source)
        ts = self._commit_ts(ts)
        nbytes = len(serialize(tree))
        extent = self.disk.allocate(nbytes, cluster_key=doc.doc_id)
        doc.versions.append(
            StoredVersion(len(doc.versions) + 1, ts, tree, extent, nbytes)
        )

    def _commit_ts(self, ts):
        if ts is None:
            return self.clock.advance()
        self.clock.advance_to(ts)
        return ts

    # -- lookups -------------------------------------------------------------------

    def document(self, name_or_id):
        doc = (
            self._by_id.get(name_or_id)
            if isinstance(name_or_id, int)
            else self._by_name.get(name_or_id)
        )
        if doc is None:
            raise NoSuchDocumentError(f"unknown document {name_or_id!r}")
        return doc

    def _live(self, name):
        doc = self.document(name)
        if doc.is_deleted:
            raise DocumentDeletedError(f"document {name!r} is deleted")
        return doc

    def documents(self, include_deleted=False):
        return [
            d.name
            for d in self._by_id.values()
            if include_deleted or not d.is_deleted
        ]

    def read_version(self, doc, version):
        """Read (and account) one stored version; returns a copy."""
        self.disk.read(version.extent)
        self.version_reads += 1
        return version.tree.copy()

    def snapshot(self, name_or_id, ts):
        doc = self.document(name_or_id)
        version = doc.version_at(ts)
        if version is None:
            return None
        return self.read_version(doc, version)

    def all_versions(self, name_or_id):
        """Read every stored version — what EVERY costs without deltas."""
        doc = self.document(name_or_id)
        return [
            (v.timestamp, self.read_version(doc, v)) for v in doc.versions
        ]

    def current(self, name_or_id):
        doc = self.document(name_or_id)
        if doc.is_deleted:
            raise DocumentDeletedError(f"document {doc.name!r} is deleted")
        if not doc.versions:
            raise NoSuchVersionError(f"document {doc.name!r} is empty")
        return self.read_version(doc, doc.versions[-1])

    # -- accounting -----------------------------------------------------------------

    def storage_bytes(self):
        total = sum(
            v.nbytes for d in self._by_id.values() for v in d.versions
        )
        return {"versions": total, "total": total}
