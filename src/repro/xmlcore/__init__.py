"""XML substrate: tree model, parser, serializer, paths.

The tree model, the serializer and the path expressions are this package's
own, because the reproduction has to own what the paper's algorithms touch:
node identity, sibling order and the serialized form are all load-bearing
for diffing, indexing and checksums.  Tokenizing XML text is not one of
those; :mod:`~repro.xmlcore.parser` builds the tree from the standard
library's expat callbacks and adds the policies expat would not choose on
its own (no DTD entity ever expanded, bounded nesting, whitespace-only runs
dropped).

Public surface:

* :class:`~repro.xmlcore.node.Element` / :class:`~repro.xmlcore.node.Text` —
  the ordered tree model,
* :func:`~repro.xmlcore.parser.parse` — text to trees,
* :func:`~repro.xmlcore.serializer.serialize` — trees to text,
* :class:`~repro.xmlcore.path.Path` — ``a/b//c`` path expressions.
"""

from .node import Element, Text, element, xid_index_stats
from .parser import parse
from .serializer import serialize
from .path import Path

__all__ = [
    "Element",
    "Text",
    "element",
    "xid_index_stats",
    "parse",
    "serialize",
    "Path",
]
