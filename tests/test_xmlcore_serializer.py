"""Tests for serialization."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import TemporalXMLError
from repro.xmlcore import element, parse, serialize
from repro.xmlcore.node import Element, Text
from repro.xmlcore.serializer import escape_attribute, escape_text


#: Text and attribute values over the characters XML treats specially:
#: markup, quotes, both line-end forms, TAB and the CDATA terminator.
xml_values = st.lists(
    st.one_of(
        st.characters(codec="utf-8", categories=("Lu", "Ll", "Nd")),
        st.sampled_from(
            ["\r", "\n", "\r\n", "\t", " ", "&", "<", ">", '"', "'", "]]>"]
        ),
    ),
    max_size=12,
).map("".join)


class TestEscaping:
    def test_text_escapes(self):
        assert escape_text("a<b>&c") == "a&lt;b&gt;&amp;c"

    def test_attribute_escapes(self):
        assert escape_attribute('say "hi" & <go>') == (
            "say &quot;hi&quot; &amp; &lt;go>"
        )

    def test_line_ends_are_written_as_references(self):
        """A parser reads a literal CR as LF, and a literal TAB, LF or CR in
        an attribute as a space; as references they come back as written."""
        assert escape_text("x\ry\r\nz\tw") == "x&#13;y&#13;\nz\tw"
        assert escape_attribute("p\tq\nr\rs") == "p&#9;q&#10;r&#13;s"

    @given(xml_values, xml_values)
    def test_every_value_comes_back_as_written(self, text, value):
        tree = Element("a", {"attr": value})
        tree.append(Text(text))
        again = parse(serialize(tree))
        assert again.attrib == {"attr": value}
        assert again.text_content() == (text if text.strip() else "")

    def test_escaped_roundtrip(self):
        tree = element("a", "x < y & z")
        tree.set("attr", 'quo"te')
        again = parse(serialize(tree))
        assert again.text == "x < y & z"
        assert again.attrib["attr"] == 'quo"te'


class TestShapes:
    def test_empty_element_self_closes(self):
        assert serialize(Element("a")) == "<a/>"

    def test_attributes(self):
        assert serialize(Element("a", {"x": "1"})) == '<a x="1"/>'

    def test_nested_compact(self):
        tree = element("a", element("b", "t"))
        assert serialize(tree) == "<a><b>t</b></a>"

    def test_text_node_alone(self):
        assert serialize(Text("hi & bye")) == "hi &amp; bye"

    def test_rejects_non_node(self):
        with pytest.raises(TemporalXMLError):
            serialize("not a node")


class TestPretty:
    def test_indents_element_content(self):
        tree = element("a", element("b"), element("c"))
        text = serialize(tree, indent=2)
        assert text == "<a>\n  <b/>\n  <c/>\n</a>"

    def test_does_not_indent_mixed_content(self):
        tree = parse("<p>one<b>two</b>three</p>")
        assert serialize(tree, indent=2) == "<p>one<b>two</b>three</p>"

    def test_pretty_parses_back(self):
        tree = element("g", element("r", element("n", "Napoli")))
        again = parse(serialize(tree, indent=4))
        assert again.find("r").find("n").text == "Napoli"


class TestXidDump:
    def test_xids_emitted_when_requested(self):
        tree = element("a")
        tree.xid = 42
        assert serialize(tree, xids=True) == '<a _xid="42"/>'
        assert serialize(tree) == "<a/>"


# -- the one writer against the recursive writer it replaced -----------------

_REF_TEXT = {"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;"}
_REF_ATTR = {
    "&": "&amp;", "<": "&lt;", '"': "&quot;",
    "\t": "&#9;", "\n": "&#10;", "\r": "&#13;",
}


def _ref_escape(value, table):
    for raw, escaped in table.items():
        value = value.replace(raw, escaped)
    return value


def reference_serialize(node, indent=None, xids=False):
    """The serializer as it stood before it became one pass: a copy of the
    attributes per element, a replace per special character, a mixed-content
    scan whatever the indent.  ``serialize`` must give the same text."""
    parts = []
    _ref_write(node, parts, indent, 0, xids)
    return "".join(parts)


def _ref_write(node, parts, indent, level, xids):
    if isinstance(node, Text):
        parts.append(_ref_escape(node.value, _REF_TEXT))
        return
    if not isinstance(node, Element):
        raise TemporalXMLError(f"cannot serialize {type(node).__name__}")

    pad = "" if indent is None else "\n" + " " * (indent * level) if level else ""
    if pad:
        parts.append(pad)
    parts.append(f"<{node.tag}")
    attrib = dict(node.attrib)
    if xids and node.xid is not None:
        attrib["_xid"] = str(node.xid)
    for name in attrib:
        parts.append(f' {name}="{_ref_escape(str(attrib[name]), _REF_ATTR)}"')
    if not node.children:
        parts.append("/>")
        return
    parts.append(">")

    mixed = any(isinstance(c, Text) for c in node.children)
    for child in node.children:
        _ref_write(child, parts, None if mixed else indent, level + 1, xids)
    if indent is not None and not mixed:
        parts.append("\n" + " " * (indent * level))
    parts.append(f"</{node.tag}>")


def _element(tag, attrib, children, xid):
    node = Element(tag, attrib)
    node.xid = xid
    for child in children:
        node.append(child)
    return node


#: Trees with every escapable character in text and attribute values,
#: empty elements, mixed and element-only content, XIDs on some elements
#: (and an ``_xid`` attribute the xids form must overwrite in place), and
#: bare ``Text`` roots.
tags = st.sampled_from(["a", "r", "name", "x-y", "été"])
trees = st.recursive(
    st.one_of(st.builds(Text, xml_values), st.builds(Element, tags)),
    lambda children: st.builds(
        _element,
        tags,
        st.dictionaries(st.sampled_from(["k", "id", "_xid", "m.n"]),
                        xml_values, max_size=3),
        st.lists(children, max_size=4),
        st.one_of(st.none(), st.integers(0, 10**6)),
    ),
    max_leaves=24,
)


class TestOnePassWriter:
    @given(trees, st.sampled_from([None, 0, 2]), st.booleans())
    def test_same_text_as_the_reference(self, tree, indent, xids):
        assert serialize(tree, indent=indent, xids=xids) == (
            reference_serialize(tree, indent=indent, xids=xids)
        )

    def test_xid_overwrites_an_xid_attribute_in_place(self):
        tree = Element("a", {"_xid": "old", "k": "v"})
        tree.xid = 7
        assert serialize(tree, xids=True) == '<a _xid="7" k="v"/>'
        assert tree.attrib == {"_xid": "old", "k": "v"}

    def test_rejects_a_non_node_below_the_root(self):
        tree = element("a", element("b"))
        tree.children[0].children.append(42)
        with pytest.raises(TemporalXMLError, match="cannot serialize int"):
            serialize(tree)
