"""Tests for the tree model."""

import pytest

from repro.errors import TemporalXMLError
from repro.xmlcore import Element, Text, element, parse, serialize
from repro.xmlcore.node import parent_map, xid_index_stats


class TestConstruction:
    def test_element_builder(self):
        tree = element(
            "restaurant", element("name", "Napoli"), element("price", "15")
        )
        assert tree.tag == "restaurant"
        assert [c.tag for c in tree.child_elements()] == ["name", "price"]
        assert tree.find("name").text == "Napoli"

    def test_invalid_tag(self):
        with pytest.raises(TemporalXMLError):
            Element("")
        with pytest.raises(TemporalXMLError):
            Element(None)

    def test_append_string_becomes_text(self):
        node = Element("p")
        node.append("hello")
        assert isinstance(node.children[0], Text)
        assert node.text == "hello"

    def test_cannot_insert_under_self(self):
        a = element("a", element("b"))
        with pytest.raises(TemporalXMLError):
            a.append(a)
        with pytest.raises(TemporalXMLError):
            a.insert(0, a)

    @pytest.mark.parametrize("junk", [5, None, b"bytes", ["list"]])
    def test_cannot_append_a_non_node(self, junk):
        a = Element("a")
        with pytest.raises(TemporalXMLError, match="cannot insert"):
            a.append(junk)
        assert a.children == []

    def test_text_keeps_a_str_and_converts_anything_else(self):
        assert Text("x").value == "x"
        assert Text(15).value == "15"
        assert type(Text(15).value) is str

    def test_attribute_values_are_strings(self):
        """The constructor and the builder store what ``set`` and the
        parser store, so a tree equals its own round trip."""
        tree = element("r", price=15, name="Napoli")
        assert tree.attrib == {"price": "15", "name": "Napoli"}
        assert Element("a", {"n": 5, "f": 1.5}).attrib == {"n": "5", "f": "1.5"}
        again = parse(serialize(tree))
        assert tree.equals_shallow(again)
        assert tree.equals_deep(again)

    def test_the_constructor_copies_the_attribute_dict(self):
        given = {"k": "v"}
        node = Element("a", given)
        node.set("k", "w")
        assert given == {"k": "v"}

    def test_remove_non_child_raises(self):
        a = Element("a")
        with pytest.raises(TemporalXMLError):
            a.remove(Element("b"))


class TestNavigation:
    def test_root_ancestors_depth(self):
        """Nodes keep no parent pointer; the way up is a parent map."""
        tree = element("a", element("b", element("c")))
        b = tree.children[0]
        c = b.children[0]
        assert parent_map(tree) == {id(b): tree, id(c): b}
        assert not hasattr(c, "parent")

    def test_iter_preorder(self):
        tree = element("a", element("b", "t1"), element("c"))
        tags = [n.tag for n in tree.iter_elements()]
        assert tags == ["a", "b", "c"]

    def test_find_and_findall(self):
        tree = element("g", element("r"), element("r"), element("s"))
        assert tree.find("r") is tree.children[0]
        assert len(tree.findall("r")) == 2
        assert tree.find("missing") is None

    def test_subtree_size(self):
        tree = element("a", element("b", "t"), element("c"))
        assert tree.subtree_size() == 4


class TestContent:
    def test_text_property(self):
        node = element("p", "hello")
        assert node.text == "hello"
        node.text = "bye"
        assert node.text == "bye"
        node.text = None
        assert node.text == ""

    def test_text_content_recursive(self):
        tree = element("a", element("b", "x"), "y", element("c", "z"))
        assert tree.text_content() == "xyz" or tree.text_content() == "yxz"
        # Document order: b's text, then direct text, then c's text.
        assert tree.text_content() == "xyz"

    def test_attributes(self):
        node = Element("a", {"k": "v"})
        assert node.get("k") == "v"
        assert node.get("missing", "d") == "d"
        node.set("n", 5)
        assert node.attrib["n"] == "5"


class TestCopyAndEquality:
    def test_copy_is_deep_and_detached(self):
        tree = element("a", element("b", "t"))
        tree.xid = 1
        tree.children[0].xid = 2
        dup = tree.copy()
        assert dup.equals_deep(tree)
        assert dup.xid == 1 and dup.children[0].xid == 2
        dup.children[0].text = "changed"
        assert tree.children[0].text == "t"

    def test_shallow_equality(self):
        a = element("r", element("x", "1"))
        a.text = "hi"
        b = element("r", element("y", "2"))
        b.text = "hi"
        assert a.equals_shallow(b)
        assert not a.equals_deep(b)

    def test_deep_equality_order_sensitive(self):
        a = element("g", element("x"), element("y"))
        b = element("g", element("y"), element("x"))
        assert not a.equals_deep(b)

    def test_deep_equality_attributes(self):
        a = Element("r", {"k": "1"})
        b = Element("r", {"k": "2"})
        assert not a.equals_deep(b)

    def test_copy_carries_identity_and_shares_no_attributes(self):
        tree = Element("a", {"k": "v"})
        tree.append("t")
        tree.xid, tree.tstamp = 3, 100
        tree.children[0].xid, tree.children[0].tstamp = 4, 90
        dup = tree.copy()
        assert (dup.xid, dup.tstamp) == (3, 100)
        assert (dup.children[0].xid, dup.children[0].tstamp) == (4, 90)
        assert dup.children[0] is not tree.children[0]
        assert dup.attrib is not tree.attrib
        dup.set("k", "changed")
        assert tree.get("k") == "v"

    def test_text_equality(self):
        assert Text("a").equals_deep(Text("a"))
        assert not Text("a").equals_deep(Text("b"))
        assert not Text("a").equals_deep(Element("a"))


class TestXidMapInvalidation:
    """One invalidation per structural mutation of an element holding a
    map, whichever path the mutation takes; none without a map."""

    @pytest.fixture(autouse=True)
    def _reset_stats(self):
        xid_index_stats.reset()
        yield
        xid_index_stats.reset()

    MUTATIONS = {
        "append element": lambda node: node.append(Element("n")),
        "append text": lambda node: node.append(Text("t")),
        "append str": lambda node: node.append("s"),
        "insert": lambda node: node.insert(0, Element("n")),
        "pop": lambda node: node.pop(0),
        "remove": lambda node: node.remove(node.children[0]),
        "set text": lambda node: setattr(node, "text", "new"),
        "clear text": lambda node: setattr(node, "text", None),
    }

    @pytest.mark.parametrize("mutation", list(MUTATIONS))
    def test_each_mutation_of_a_mapped_element_counts_once(self, mutation):
        node = element("a", element("b"), "t")
        node.xid_index()
        self.MUTATIONS[mutation](node)
        assert xid_index_stats.invalidations == 1
        node.xid_index()
        self.MUTATIONS[mutation](node)
        assert xid_index_stats.invalidations == 2

    @pytest.mark.parametrize("mutation", list(MUTATIONS))
    def test_an_unmapped_element_counts_nothing(self, mutation):
        node = element("a", element("b"), "t")
        self.MUTATIONS[mutation](node)
        assert xid_index_stats.invalidations == 0
