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
