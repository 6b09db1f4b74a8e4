"""Backward-only reconstruction (Section 7.3.3), as the reference.

"Processing start using the oldest snapshot with timestamp greater or
equal to t", else the current version, and the completed deltas are
applied backwards from there.  The engine's
:meth:`repro.storage.repository.Repository.reconstruct` also considers
anchors *below* the target and picks the cheapest; this is the paper's
walk, written once over the repository's public read methods so its reads
land in the same ``delta_reads`` / ``snapshot_reads`` / ``current_reads``
counters (E3c, ``tests/test_bidirectional_reconstruct``).  It shares no
stepping code with the engine's walker (``repro.storage.cursor``):
:func:`apply_chain` below is its own.
"""

from repro.diff.apply import apply_script


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
    return apply_chain(tree, chain, invert=True)


def apply_chain(root, scripts, index=None, invert=False):
    """Apply a chain of edit scripts to ``root``; returns the resulting root.

    ``scripts`` must be ordered oldest-first — the order the repository
    stores them and the order a sequential sweep over the delta arena reads
    them.  With ``invert=False`` they are applied as-is, rolling the tree
    *forward* one version per script.  With ``invert=True`` the chain is
    replayed newest-first with every script inverted, rolling the tree
    *backward* (completed deltas are usable in both directions).  The shared
    ``index`` survives across scripts, so the chain pays for one XID map.
    """
    if index is None:
        index = {node.xid: node for node in root.iter()}
    if invert:
        for script in reversed(scripts):
            root = apply_script(root, script.invert(), index)
    else:
        for script in scripts:
            root = apply_script(root, script, index)
    return root
