"""Group-commit ingestion: :class:`BatchingWriter`.

A thin writer proxy that stages ``put`` / ``update`` / ``delete`` into the
current commit group
(:meth:`~repro.storage.store.TemporalDocumentStore.batch`) and flushes a
group every ``batch_size`` ops, amortizing journal fsyncs across the
group.  It quacks enough like a store that the
:class:`~repro.warehouse.crawler.Crawler` (which only ever calls those
three methods plus ``delta_index``) ingests through it unchanged.

``batch_size=1`` degrades to per-commit ingestion, and reads through the
wrapped store observe only *flushed* groups — never a half-staged batch.
The warehouse-scale drivers that stream synthetic or crawled histories
through it live with the scale benchmark (``benchmarks/ingest.py``).
"""

from __future__ import annotations


class BatchingWriter:
    """Group-commit writer proxy over a store (or database facade).

    ``target`` is anything with a ``batch()`` method (a
    :class:`~repro.storage.store.TemporalDocumentStore`,
    :class:`~repro.db.TemporalXMLDatabase`, or a serving
    ``SessionManager`` is *not* suitable — its batch is a context
    manager holding the commit lock; wrap the underlying db instead).
    Ops stage into the current :class:`~repro.storage.store.CommitBatch`;
    every ``batch_size`` staged ops the group is committed.  Call
    :meth:`flush` (or exit the ``with`` block) to commit a final partial
    group.  Attribute access falls through to the target, so read paths
    (``delta_index``, ``current``, ...) keep working — they see only
    flushed state.
    """

    def __init__(self, target, batch_size=64):
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self._target = target
        self.batch_size = batch_size
        self._batch = None
        self.ops = 0
        self.groups = 0

    # -- the writer surface ---------------------------------------------------

    def put(self, name, source, ts=None):
        self._current().put(name, source, ts=ts)
        self._maybe_flush()

    def update(self, name, source, ts=None):
        self._current().update(name, source, ts=ts)
        self._maybe_flush()

    def delete(self, name, ts=None):
        self._current().delete(name, ts=ts)
        self._maybe_flush()

    def flush(self):
        """Commit the open partial group, if any."""
        batch, self._batch = self._batch, None
        if batch is not None and len(batch):
            batch.commit()
            self.groups += 1

    # -- plumbing -------------------------------------------------------------

    def _current(self):
        if self._batch is None:
            self._batch = self._target.batch()
        self.ops += 1
        return self._batch

    def _maybe_flush(self):
        if self._batch is not None and len(self._batch) >= self.batch_size:
            self.flush()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.flush()
            return False
        batch, self._batch = self._batch, None
        if batch is not None:
            batch.abort()
        return False

    def __getattr__(self, name):
        return getattr(self._target, name)
