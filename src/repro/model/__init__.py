"""Temporal data model: persistent identifiers and stamped trees.

Implements Section 3.2 and Section 4 of the paper:

* :class:`~repro.model.identifiers.EID` — document id + XID, identifying an
  element *time-independently*,
* :class:`~repro.model.identifiers.TEID` — EID + timestamp, identifying one
  particular *version* of an element,
* :class:`~repro.model.identifiers.XIDAllocator` — per-document XID source
  that never reuses an identifier,
* stamping utilities in :mod:`repro.model.versioned` that maintain the
  element-timestamp invariant ("every update of an element also implies
  update of the element it is contained in").
"""

from .identifiers import EID, TEID, XIDAllocator
from .versioned import stamp_new_nodes, touch_upwards

__all__ = [
    "EID",
    "TEID",
    "XIDAllocator",
    "stamp_new_nodes",
    "touch_upwards",
]
