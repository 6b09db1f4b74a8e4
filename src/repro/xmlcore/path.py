"""Path expressions over the tree model.

The paper's queries use simple downward paths: ``guide.com/restaurant``,
``R/price``, and paths containing the descendant operator ``//``.  This
module implements exactly that fragment:

* steps separated by ``/`` select children by tag,
* ``//`` selects descendants at any depth,
* ``*`` matches any element tag,
* a leading ``/`` or ``//`` anchors at the context node itself.

Paths are compiled once into a list of :class:`Step` objects and can then be
evaluated against any element.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import PathSyntaxError
from .node import Element

CHILD = "child"
DESCENDANT = "descendant"


@dataclass(frozen=True)
class Step:
    """One location step: an axis plus a tag test (``*`` = any)."""

    axis: str
    tag: str

    def matches_tag(self, element):
        return self.tag == "*" or element.tag == self.tag


class Path:
    """A compiled downward path expression.

    >>> guide = element_fixture()  # doctest: +SKIP
    >>> Path("restaurant/name").select(guide)  # doctest: +SKIP
    """

    def __init__(self, expression):
        self.expression = expression.strip()
        self.steps = _compile(self.expression)

    @property
    def is_empty(self):
        """True for the empty path, which selects the context node itself."""
        return not self.steps

    def select(self, context):
        """All elements selected by the path from ``context``, document order.

        ``context`` may be a single element or an iterable of elements (a
        forest); duplicates arising from overlapping descendant steps are
        removed while preserving order.
        """
        if isinstance(context, Element):
            frontier = [context]
        else:
            frontier = list(context)
        for step in self.steps:
            frontier = _advance(frontier, step)
        return frontier

    def first(self, context):
        """First selected element or ``None``."""
        selected = self.select(context)
        return selected[0] if selected else None

    def matches(self, context):
        """True if the path selects at least one element."""
        return bool(self.select(context))

    def __str__(self):
        return self.expression

    def __repr__(self):
        return f"Path({self.expression!r})"

    def __eq__(self, other):
        return isinstance(other, Path) and self.steps == other.steps

    def __hash__(self):
        return hash(tuple(self.steps))


def _compile(expression):
    if expression in ("", "."):
        return []
    text = expression
    steps = []
    axis = CHILD
    # A leading "//" makes the first step a descendant step; a single leading
    # "/" just anchors at the context (our paths are always relative).
    if text.startswith("//"):
        axis = DESCENDANT
        text = text[2:]
    elif text.startswith("/"):
        text = text[1:]
    if not text:
        raise PathSyntaxError(f"path has no steps: {expression!r}")
    pos = 0
    while pos < len(text):
        separator = text.find("/", pos)
        if separator < 0:
            name = text[pos:]
            pos = len(text)
            next_axis = CHILD
        else:
            name = text[pos:separator]
            if text.startswith("//", separator):
                next_axis = DESCENDANT
                pos = separator + 2
            else:
                next_axis = CHILD
                pos = separator + 1
            if pos >= len(text):
                raise PathSyntaxError(
                    f"path ends with a separator: {expression!r}"
                )
        if not name:
            raise PathSyntaxError(f"empty step in path: {expression!r}")
        steps.append(Step(axis, name))
        axis = next_axis
    for step in steps:
        if step.tag != "*" and not _valid_tag(step.tag):
            raise PathSyntaxError(f"invalid step name {step.tag!r}")
    return steps


def _valid_tag(name):
    if not name:
        return False
    first = name[0]
    if not (first.isalpha() or first in "_:"):
        return False
    return all(ch.isalnum() or ch in "_:.-" for ch in name)


def _advance(frontier, step):
    out = []
    seen = set()
    for node in frontier:
        if step.axis == CHILD:
            candidates = node.child_elements()
        else:
            candidates = (
                el for el in node.iter_elements() if el is not node
            )
        for el in candidates:
            if step.matches_tag(el) and id(el) not in seen:
                seen.add(id(el))
                out.append(el)
    return out
