"""The Reconstruct operator (Section 7.3.3).

Materializes the tree rooted at a TEID's element for the version valid at
the TEID's timestamp: an element cursor (:mod:`repro.storage.cursor`) is
started at the cheapest stored anchor — a snapshot on either side of the
target or the current version, see ``storage/repository.py`` — and walked
to the target, applying only what lands under the element.  The TEID's
timestamp may come from ``PreviousTS``/``NextTS``/``CurrentTS`` or from a
pattern-scan match.
"""

from __future__ import annotations

from ..errors import NoSuchVersionError
from ..obs import NULL_TRACER


class Reconstruct:
    """Materialize one element version."""

    def __init__(self, store, teid, tracer=None):
        self.store = store
        self.teid = teid
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def run(self):
        """The subtree (whole document when the TEID names the root).

        Raises :class:`~repro.errors.NoSuchVersionError` when the document
        has no version at the TEID's time or the element is not present in
        that version — a reconstructed TEID should always resolve, so a
        miss indicates a stale identifier rather than an empty result.
        """
        teid = self.teid
        with self.tracer.span("Reconstruct", teid=str(teid)):
            node = self.store.subtree(teid)
        if node is not None:
            return node
        if self.store.delta_index(teid.doc_id).version_at(teid.timestamp) is None:
            raise NoSuchVersionError(
                f"no version of document {teid.doc_id} at {teid.timestamp}"
            )
        raise NoSuchVersionError(
            f"element {teid.eid} not present in the version at "
            f"{teid.timestamp}"
        )

    def run_or_none(self):
        """Like :meth:`run` but ``None`` on a miss (operator-pipeline use)."""
        try:
            return self.run()
        except NoSuchVersionError:
            return None
