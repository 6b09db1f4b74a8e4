"""Identity equality (the ``==`` operator).

"If we assume elements have persistent IDs (EIDs), this comparison could be
performed by utilizing persistent node identifiers."  Two element versions
are identity-equal when they are versions of the *same* element: equal
EIDs, regardless of content.

The paper's caveat applies and is preserved by construction: an entry that
is deleted and later re-introduced receives a fresh XID, so ``==`` fails
across the gap even when the content is byte-identical — that is exactly
the failure mode benchmark E10 measures against the similarity operator.
"""

from __future__ import annotations

from ..model.identifiers import EID, TEID
from ..xmlcore.node import Element


def identity_equal(left, right, doc_left=None, doc_right=None):
    """True when both sides denote the same persistent element.

    Accepts EIDs, TEIDs, or stamped element trees (for trees, the owning
    document ids must be supplied — XIDs alone are only unique per
    document).
    """
    return _as_eid(left, doc_left) == _as_eid(right, doc_right)



def _as_eid(value, doc_id):
    if isinstance(value, EID):
        return value
    if isinstance(value, TEID):
        return value.eid
    if isinstance(value, Element):
        if value.xid is None:
            raise ValueError("identity comparison needs a stamped element")
        if doc_id is None:
            raise ValueError(
                "identity comparison of raw elements needs their doc ids"
            )
        return EID(doc_id, value.xid)
    raise TypeError(f"cannot take identity of {type(value).__name__}")
