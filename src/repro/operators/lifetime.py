"""CreTime and DelTime (Section 7.3.6).

The paper gives two ways to answer them: traverse the delta chain, which
"can easily become a bottleneck", or "use an additional index".  Both
operators read the auxiliary :class:`~repro.index.lifetime.LifetimeIndex`,
one O(1) lookup each; the traversal is kept as the reference in
``benchmarks/ablation/lifetime.py`` (benchmark E5 measures the gap).
Without an index they raise :class:`~repro.errors.QueryPlanError`, so
CREATE TIME / DELETE TIME do on an engine built without one; a TEID whose
element the index does not know raises
:class:`~repro.errors.NoSuchVersionError`.

:func:`script_creates` / :func:`script_deletes` say whether one edit script
brings an XID into existence or removes it; the traversal and the
navigational existence check (:mod:`repro.operators.navigation`) read
deltas through them.
"""

from __future__ import annotations

from ..diff.editscript import DeleteOp, InsertOp, ReplaceRootOp
from ..errors import NoSuchVersionError, QueryPlanError
from ..obs import NULL_TRACER


class _LifetimeLookup:
    """One TEID, answered from the lifetime index."""

    def __init__(self, lifetime_index, teid, tracer=None):
        if lifetime_index is None:
            raise QueryPlanError(
                f"{type(self).__name__} reads the lifetime index "
                "(LifetimeIndex), and none was given"
            )
        self.lifetime_index = lifetime_index
        self.teid = teid
        self.tracer = tracer if tracer is not None else NULL_TRACER


class CreTime(_LifetimeLookup):
    """Create time of the element identified by a TEID."""

    def value(self):
        """The create timestamp (raises if the TEID does not resolve)."""
        with self.tracer.span("CreTime"):
            ts = self.lifetime_index.create_time(self.teid.eid)
            if ts is None:
                raise NoSuchVersionError(f"unknown element {self.teid.eid}")
            return ts


class DelTime(_LifetimeLookup):
    """Delete time of the element identified by a TEID.

    ``value()`` returns ``None`` while the element is still alive.
    """

    def value(self):
        with self.tracer.span("DelTime"):
            if not self.lifetime_index.known(self.teid.eid):
                raise NoSuchVersionError(f"unknown element {self.teid.eid}")
            return self.lifetime_index.delete_time(self.teid.eid)


def script_creates(script, xid):
    """Does this edit script bring ``xid`` into existence?

    A root replacement only *creates* the XIDs of the new payload that were
    not already in the old one (an element carried across a replace is
    continuous, not recreated).
    """
    for op in script:
        if isinstance(op, InsertOp) and xid in op.payload.xids():
            return True
        if (
            isinstance(op, ReplaceRootOp)
            and xid in op.new_payload.xids()
            and xid not in op.old_payload.xids()
        ):
            return True
    return False


def script_deletes(script, xid):
    """Does this edit script remove ``xid``?  (Mirror of
    :func:`script_creates` for root replacements.)"""
    for op in script:
        if isinstance(op, DeleteOp) and xid in op.payload.xids():
            return True
        if (
            isinstance(op, ReplaceRootOp)
            and xid in op.old_payload.xids()
            and xid not in op.new_payload.xids()
        ):
            return True
    return False
