"""Backward-only reconstruction (Section 7.3.3), as the reference.

"Processing start using the oldest snapshot with timestamp greater or
equal to t", else the current version, and the completed deltas are
applied backwards from there.  The engine's
:meth:`repro.storage.repository.Repository.reconstruct` also considers
anchors *below* the target and picks the cheapest; this is the paper's
walk, written once over the repository's public read methods so its reads
land in the same ``delta_reads`` / ``snapshot_reads`` / ``current_reads``
counters (E3c, ``tests/test_bidirectional_reconstruct``).
"""

from repro.diff.apply import apply_chain


def reconstruct_backward(repository, record, number):
    """Materialize version ``number`` of ``record`` by the paper's rule."""
    after = record.dindex.nearest_snapshot_at_or_after(number)
    if after is not None:
        start = after.number
        tree = repository.read_snapshot(record, start)
    else:
        start = record.dindex.current_number
        tree = repository.read_current(record)
    chain = [
        repository.read_delta(record, version)
        for version in range(number, start)
    ]
    return apply_chain(tree, chain, index=tree.xid_index(), invert=True)
