"""CreTime/DelTime by delta traversal (Section 7.3.6), as the reference.

The paper's first answer: walk the delta chain.  For CreTime, backwards
from the version in the TEID until the delta that introduces the element
is found — "note that no reconstruction is necessary", only delta reads.
For DelTime, forwards until the delta that removes it (or the document's
own delete time when the element survived to the end).  "Traversing the
deltas ... can easily become a bottleneck", so the engine answers both
from the lifetime index (:class:`repro.operators.CreTime` /
:class:`repro.operators.DelTime`); these walks stay for E5 and for the
tests that check the index against them.

Both walks agree with the index on *validity*: a TEID whose XID does not
exist in the version it addresses raises
:class:`~repro.errors.NoSuchVersionError`, settled from the same delta
events the walk reads anyway plus — for an element with no lifecycle
event in the chain at all — one probe of the in-memory current tree's XID
index, never a reconstruction.  Reads go through the repository's public
``read_delta``, so they land in its ``delta_reads`` counter.
"""

from repro.errors import NoSuchVersionError
from repro.operators.lifetime import script_creates, script_deletes


def traverse_create_time(store, teid):
    """The create timestamp of ``teid``'s element, by a backward walk."""
    record = store.record(teid.doc_id)
    entry = _addressed_entry(record, teid)
    # Walk deltas backwards; delta v leads from version v to v+1, so if it
    # inserts the XID the element was created at version v+1's time.  The
    # nearest lifecycle event below the addressed version also settles
    # existence: a deletion there means the XID was already gone by the
    # addressed version.
    for version in range(entry.number - 1, 0, -1):
        script = store.repository.read_delta(record, version)
        if script_creates(script, teid.xid):
            return record.dindex.entry(version + 1).timestamp
        if script_deletes(script, teid.xid):
            raise NoSuchVersionError(
                f"element {teid.eid} does not exist in the version "
                f"at {teid.timestamp} (deleted earlier)"
            )
    # No event below the addressed version: the element existed there iff
    # it existed in version 1.  The nearest event *above* (or, with no
    # events at all, presence in the current tree) decides that.
    if _existed_at_version_one(store, record, teid.xid, entry.number):
        return record.dindex.entry(1).timestamp
    raise NoSuchVersionError(
        f"element {teid.eid} does not exist in the version at "
        f"{teid.timestamp}"
    )


def traverse_delete_time(store, teid):
    """The delete timestamp of ``teid``'s element by a forward walk;
    ``None`` while it is still alive."""
    record = store.record(teid.doc_id)
    entry = _addressed_entry(record, teid)
    for version in range(entry.number, record.dindex.current_number):
        script = store.repository.read_delta(record, version)
        if script_deletes(script, teid.xid):
            return record.dindex.entry(version + 1).timestamp
        if script_creates(script, teid.xid):
            # First appears after the addressed version, so the TEID does
            # not resolve at its own timestamp.
            raise NoSuchVersionError(
                f"element {teid.eid} does not exist in the version "
                f"at {teid.timestamp} (created later)"
            )
    # Survived every delta: deleted with the document, or still alive —
    # provided it was ever there at all (current-tree XID probe; the
    # current root is retained even for deleted documents).
    if not _in_current_tree(record, teid.xid):
        raise NoSuchVersionError(
            f"element {teid.eid} does not exist in the version at "
            f"{teid.timestamp}"
        )
    return record.dindex.deleted_at


def _addressed_entry(record, teid):
    entry = record.dindex.version_at(teid.timestamp)
    if entry is None:
        raise NoSuchVersionError(f"{teid} does not address a stored version")
    return entry


def _existed_at_version_one(store, record, xid, from_number):
    for version in range(from_number, record.dindex.current_number):
        script = store.repository.read_delta(record, version)
        if script_creates(script, xid):
            return False  # first appears after the addressed version
        if script_deletes(script, xid):
            return True   # deleted later, so alive from version 1
    # No lifecycle event anywhere: alive the whole history iff present in
    # the current tree (an in-memory XID probe, not a read).
    return _in_current_tree(record, xid)


def _in_current_tree(record, xid):
    root = record.current_root
    return root is not None and root.find_by_xid(xid) is not None
