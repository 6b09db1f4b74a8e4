"""XML text to trees: expat tokenizes, this module builds the tree.

The tree model, the serializer and the paths are this package's own (node
identity, ordering and serialization are load-bearing for diffing and
indexing); a tokenizer is not among the paper's algorithms, so well-formedness
is left to the standard library's ``xml.parsers.expat``.  Three policies are
ours and are stated here because expat alone would decide them differently:

* **The DTD never reaches the tree.**  A DOCTYPE is read and dropped: nothing
  external is fetched, parameter entities stay unparsed, declared attribute
  defaults are not applied, and a reference to anything but the five
  predefined entities is an "unknown entity" error.  Because expat expands an
  internal entity inside an attribute value before any handler could object,
  a general ``<!ENTITY ...>`` declaration is refused where it stands.
* **Nesting is bounded** by :data:`MAX_DEPTH`: the layers behind the parser
  (copy, serialize, compare, encode, diff) recurse once per level.
* **Whitespace.**  Character data on either side of a comment, PI or CDATA
  section is one :class:`Text`; a run that is whitespace only is dropped.

Everything else is XML 1.0 as expat reads it: names may be non-ASCII, line
ends in text arrive as ``\\n`` and TAB/LF/CR in attribute values as spaces
(the serializer writes those as character references, so
``parse(serialize(t))`` is still the identity), and C0 controls, ``&#0;`` and
a lower-case ``<!doctype`` are errors.  Violations are
:class:`~repro.errors.XMLSyntaxError` with 1-based line/column positions.
"""

from __future__ import annotations

from xml.parsers import expat

from ..errors import XMLSyntaxError
from .node import Element, Text

#: Deepest element nesting :func:`parse` accepts (the root is level 1).
#: expat has no limit of its own, but what the tree is handed to recurses:
#: ``equals_deep`` costs three interpreter frames a level, the differ two,
#: ``copy``/``serialize``/``binfmt.write_node`` one.  Under the default
#: recursion limit of 1000, in a server worker thread, a put / update / save
#: (xml, cas) / load / ``EXPLAIN ANALYZE`` cycle runs clean at 310 levels and
#: first fails at 320; the bound keeps a third of that in hand.
MAX_DEPTH = 200

#: Levels the store's own XML forms put around a stored tree: five above its
#: root (``temporalstore/document/delta/replaceroot/old``, or ``j/j/...`` in a
#: v1 journal) and one below a leaf (``<t>`` for text, ``<a>`` for an attribute).
_ENVELOPE = 6

#: What may stand before ``<?xml``: CLI files start with a blank line or a BOM.
_PADDING = "\ufeff \t\r\n"


class _TreeBuilder:
    """expat's callbacks; ``error(message)`` raises at the parser's position."""

    def __init__(self, error, max_depth):
        self.root = None
        self._error = error
        self._max_depth = max_depth
        self._open = []
        self._text = []
        self.characters = self._text.append

    def start(self, tag, attrib):
        if len(self._open) >= self._max_depth:
            raise self._error(f"elements nested deeper than {self._max_depth}")
        node = Element(tag, attrib)
        if self._open:
            self._flush_text()
            self._open[-1].children.append(node)
        else:
            self.root = node
        self._open.append(node)

    def end(self, tag):
        self._flush_text()
        self._open.pop()

    def _flush_text(self):
        if self._text:
            merged = "".join(self._text)
            self._text.clear()
            if merged.strip():
                self._open[-1].children.append(Text(merged))

    def release(self):
        self._error = None

    def entity_declared(self, name, is_parameter, *_definition):
        if not is_parameter:
            raise self._error(f"entity declarations are not supported (&{name};)")

    def entity_skipped(self, name, is_parameter):
        if not is_parameter:
            raise self._error(f"unknown entity &{name};")


def parse(text):
    """Parse a complete XML document; returns the root :class:`Element`.

    Exactly one root element is required (surrounding comments/PIs and a
    prolog are allowed, as is whitespace or a BOM before ``<?xml``), nested
    no deeper than :data:`MAX_DEPTH`.  A DOCTYPE is skipped; see the module
    docstring for what that rules out.
    """
    return _build(text, MAX_DEPTH)


def parse_stored(text):
    """:func:`parse` for XML this program wrote around a stored tree (an
    archive, a v1 journal record): the same rules, with room for the wrapper
    elements so that whatever :func:`parse` let in can be read back."""
    return _build(text, MAX_DEPTH + _ENVELOPE)


def _build(text, max_depth):
    body = text.lstrip(_PADDING)
    lead = len(text) - len(body)
    lead_lines = text.count("\n", 0, lead)
    lead_columns = lead - (text.rfind("\n", 0, lead) + 1)

    def located(message, line, column):
        # expat's position in ``body`` (line from 1, column from 0) as a
        # 1-based position in ``text``.
        if line == 1:
            column += lead_columns
        return XMLSyntaxError(message, line=line + lead_lines, column=column + 1)

    def error(message):
        return located(message, parser.CurrentLineNumber, parser.CurrentColumnNumber)

    parser = expat.ParserCreate()
    builder = _TreeBuilder(error, max_depth)
    parser.buffer_text = True
    parser.specified_attributes = True
    parser.StartElementHandler = builder.start
    parser.EndElementHandler = builder.end
    parser.CharacterDataHandler = builder.characters
    parser.EntityDeclHandler = builder.entity_declared
    parser.SkippedEntityHandler = builder.entity_skipped
    try:
        parser.Parse(body, True)
    except expat.ExpatError as exc:
        raise located(expat.ErrorString(exc.code), exc.lineno, exc.offset) from None
    except UnicodeEncodeError as exc:
        # A lone surrogate: pyexpat cannot encode the text for expat.
        line = body.count("\n", 0, exc.start) + 1
        column = exc.start - (body.rfind("\n", 0, exc.start) + 1)
        raise located("character outside Unicode", line, column) from None
    finally:
        # parser -> handlers -> builder -> error -> parser: undo the loop, so
        # expat's copy of the input goes when this frame does and does not
        # wait for the cycle collector.
        builder.release()
    return builder.root
