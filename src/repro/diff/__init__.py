"""XML diff substrate: completed deltas between document versions.

The paper stores previous document versions as a chain of **completed
deltas** — edit scripts carrying enough information to be applied both
forwards (old → new) and backwards (new → old).  Edit scripts are XML trees
themselves, so returning one from the ``Diff`` operator does not break query
closure (Section 6.1).

The matcher follows the XyDiff recipe (Cobéna et al.): largest identical
subtrees are matched first by structural hash, matches are propagated upward
to parents with equal tags, and remaining nodes are aligned positionally
under matched parents.  Matching is what carries XIDs from one version to
the next; the script builder reads the XIDs alone, so two stored versions
of one element are diffed by them (:func:`~repro.diff.differ.diff_by_xid`).

Public surface:

* :func:`~repro.diff.differ.diff` — compute an edit script (stamping the new
  tree's XIDs/timestamps as a side effect),
* :class:`~repro.diff.editscript.EditScript` and the operation dataclasses,
* :func:`~repro.diff.apply.apply_script` — replay a script on a tree,
* :func:`~repro.diff.matching.match_trees` — the raw matcher.
"""

from .editscript import (
    DeleteOp,
    EditScript,
    InsertOp,
    MoveOp,
    ReplaceRootOp,
    StampOp,
    UpdateAttrOp,
    UpdateTextOp,
)
from .matching import Matching, match_trees
from .differ import diff
from .apply import apply_script

__all__ = [
    "EditScript",
    "InsertOp",
    "DeleteOp",
    "MoveOp",
    "UpdateTextOp",
    "UpdateAttrOp",
    "StampOp",
    "ReplaceRootOp",
    "Matching",
    "match_trees",
    "diff",
    "apply_script",
]
