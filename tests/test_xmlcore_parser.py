"""Tests for ``repro.xmlcore.parse``: a tree builder over expat's callbacks.

Tokenizing is the standard library's; what is tested here is what this
package adds or decides — the tree, the whitespace policy, the entity policy
(no DTD entity is ever expanded, nothing external is read), the nesting bound,
typed errors with positions — and that the switch from the hand-written
scanner changed nothing it was not meant to: ``tests/data/xml_corpus`` holds
what the scanner made of a fixed corpus, replayed by :class:`TestCorpus`.
"""

import gc
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro import TemporalXMLDatabase
from repro.errors import XMLSyntaxError
from repro.storage.cas import CASObjectStore, write_checkpoint
from repro.xmlcore import parse, serialize
from repro.xmlcore.node import Element, Text
from repro.xmlcore.parser import MAX_DEPTH, parse_stored
from tests.test_xmlcore_serializer import xml_values

CORPUS = json.loads(
    (Path(__file__).parent / "data" / "xml_corpus" / "corpus.json").read_text()
)


def _outcome(text):
    """The corpus form of what ``parse`` does with ``text``: the tree's
    canonical serialization, or the marker ``error`` for a positioned
    ``XMLSyntaxError``; any other exception propagates."""
    try:
        return serialize(parse(text))
    except XMLSyntaxError as exc:
        assert exc.line is not None and exc.column is not None
        return "error"


class TestBasics:
    def test_simple_document(self):
        root = parse("<a><b>hi</b></a>")
        assert root.tag == "a"
        assert root.find("b").text == "hi"

    def test_self_closing(self):
        root = parse("<a><b/><c /></a>")
        assert [c.tag for c in root.child_elements()] == ["b", "c"]
        assert all(not c.children for c in root.child_elements())

    def test_attributes_both_quotes(self):
        root = parse("""<a x="1" y='two'/>""")
        assert root.attrib == {"x": "1", "y": "two"}

    def test_mixed_content(self):
        root = parse("<p>one<b>two</b>three</p>")
        kinds = [type(c).__name__ for c in root.children]
        assert kinds == ["Text", "Element", "Text"]
        assert root.text_content() == "onetwothree"

    def test_whitespace_only_text_dropped(self):
        root = parse("<a>\n  <b/>\n</a>")
        assert len(root.children) == 1

    def test_prolog_comments_pis_doctype(self):
        root = parse(
            """<?xml version="1.0"?>
            <!DOCTYPE guide SYSTEM "guide.dtd">
            <!-- a comment -->
            <?pi data?>
            <guide><!-- inner --><r/></guide>
            <!-- trailing -->"""
        )
        assert root.tag == "guide"
        assert len(root.child_elements()) == 1

    def test_cdata(self):
        root = parse("<a><![CDATA[<not-a-tag> & raw]]></a>")
        assert root.text == "<not-a-tag> & raw"

    def test_the_expat_parser_dies_with_the_call(self):
        """It holds a copy of the input; handlers that can report positions
        form a reference loop with it, which ``parse`` undoes."""
        gc.disable()
        try:
            parse("<a><b>x</b></a>")
            with pytest.raises(XMLSyntaxError):
                parse("<a>")
            alive = [o for o in gc.get_objects() if type(o).__name__ == "xmlparser"]
        finally:
            gc.enable()
        assert alive == []


class TestEntities:
    def test_predefined(self):
        root = parse("<a>&lt;&gt;&amp;&apos;&quot;</a>")
        assert root.text == "<>&'\""

    def test_numeric(self):
        root = parse("<a>&#65;&#x42;</a>")
        assert root.text == "AB"

    def test_in_attributes(self):
        root = parse('<a x="a&amp;b"/>')
        assert root.attrib["x"] == "a&b"

    def test_unknown_entity(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a>&nope;</a>")


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "just text",
            "<a>",
            "<a></b>",
            "<a><b></a></b>",
            "<a x=1/>",
            "<a x='1' x='2'/>",
            "<a>text</a><b/>",
            "<a><!-- -- --></a>",
            "<a attr='<'/>",
            "<1tag/>",
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(XMLSyntaxError):
            parse(bad)

    def test_error_carries_location(self):
        try:
            parse("<a>\n<b></c></a>")
        except XMLSyntaxError as exc:
            assert exc.line == 2
        else:
            pytest.fail("expected XMLSyntaxError")


class TestPositions:
    def test_columns_count_characters_from_one(self):
        with pytest.raises(XMLSyntaxError) as info:
            parse("<a>ééé</b>")
        assert (info.value.line, info.value.column) == (1, 9)

    @pytest.mark.parametrize("padding", ["\n  ", "\ufeff", " \r\n\t"])
    def test_padding_before_the_declaration_keeps_positions(self, padding):
        """CLI files start with a blank line or a BOM; expat alone refuses
        anything before ``<?xml``."""
        good = padding + '<?xml version="1.0"?>\n<a><b/></a>'
        assert serialize(parse(good)) == "<a><b/></a>"
        with pytest.raises(XMLSyntaxError) as info:
            parse(padding + '<?xml version="1.0"?><a>\n<b></c></a>')
        assert info.value.line == padding.count("\n") + 2
        with pytest.raises(XMLSyntaxError) as info:
            parse(padding + '<?xml version="1.0"?><a></b>')
        first_line = (padding + '<?xml version="1.0"?><a></').rpartition("\n")[2]
        assert info.value.line == padding.count("\n") + 1
        assert info.value.column == len(first_line) + 1

    def test_lone_surrogate_is_a_typed_error_with_its_position(self):
        with pytest.raises(XMLSyntaxError) as info:
            parse("\n<a>\nxy\ud800</a>")
        assert (info.value.line, info.value.column) == (3, 3)


class TestEntityPolicy:
    """No DTD entity is ever expanded and nothing external is resolved."""

    def test_a_declared_entity_is_refused_at_its_declaration(self):
        with pytest.raises(XMLSyntaxError, match="entity declarations") as info:
            parse('<!DOCTYPE a [\n<!ENTITY e "boom">]><a>&e;</a>')
        assert info.value.line == 2

    def test_expat_would_expand_it_inside_an_attribute(self):
        """Why the declaration itself is the error: no handler sees an
        attribute value before expat has expanded it."""
        with pytest.raises(XMLSyntaxError, match="entity declarations"):
            parse('<!DOCTYPE a [<!ENTITY e "boom">]><a x="&e;"/>')

    def test_unknown_entity_behind_an_external_subset(self):
        """With a DTD it has not read, expat skips the reference instead of
        failing; the skip is the error."""
        with pytest.raises(XMLSyntaxError, match="unknown entity &nbsp;"):
            parse('<!DOCTYPE a SYSTEM "a.dtd"><a>&nbsp;</a>')

    def test_attlist_defaults_are_not_applied(self):
        root = parse('<!DOCTYPE a [<!ATTLIST a x CDATA "dflt">]><a y="1"/>')
        assert root.attrib == {"y": "1"}

    def test_parameter_entities_stay_unparsed(self):
        text = (
            "<!DOCTYPE a [<!ENTITY % p \"<!ENTITY e 'boom'>\"> %p;]>"
            "<a>&e;</a>"
        )
        with pytest.raises(XMLSyntaxError, match="unknown entity &e;"):
            parse(text)


class TestDepthBound:
    @staticmethod
    def _nested(depth, leaf="x"):
        return "<a>" * depth + leaf + "</a>" * depth

    def test_at_the_bound(self):
        node, levels = parse(self._nested(MAX_DEPTH)), 1
        while node.child_elements():
            node, levels = node.child_elements()[0], levels + 1
        assert levels == MAX_DEPTH

    def test_past_the_bound_points_at_the_first_tag_beyond(self):
        lines = [f"<l{i}>" for i in range(MAX_DEPTH)] + ["  <beyond/>"]
        with pytest.raises(XMLSyntaxError, match=f"deeper than {MAX_DEPTH}") as info:
            parse("\n".join(lines))
        assert (info.value.line, info.value.column) == (MAX_DEPTH + 1, 3)

    @pytest.mark.timeout(5)
    @pytest.mark.parametrize("depth", [500, 50_000])
    def test_far_past_the_bound_is_the_same_typed_error(self, depth):
        """500 levels used to be a ``RecursionError`` in the scanner."""
        with pytest.raises(XMLSyntaxError, match="deeper than"):
            parse(self._nested(depth))

    def test_the_store_refuses_at_the_door(self):
        db = TemporalXMLDatabase()
        with pytest.raises(XMLSyntaxError):
            db.put("deep", self._nested(MAX_DEPTH + 1))
        db.put("deep", "<a/>")
        with pytest.raises(XMLSyntaxError):
            db.update("deep", self._nested(MAX_DEPTH + 1))
        assert len(db.store.delta_index("deep").entries) == 1

    @pytest.mark.parametrize("storage", ["xml", "cas"])
    def test_a_document_at_the_bound_lives_a_whole_life(self, tmp_path, storage):
        """put, update, save, load, query: nothing behind the parser runs out
        of stack at ``MAX_DEPTH``, and the XML archive (which wraps the tree
        in its own elements, most of them around a replaced root) loads."""
        db = TemporalXMLDatabase()
        db.put("deep", self._nested(MAX_DEPTH))
        db.update("deep", self._nested(MAX_DEPTH, leaf="y z"))
        replaced = '<b k="v">' + self._nested(MAX_DEPTH - 1) + "</b>"
        db.update("deep", replaced)
        path = tmp_path / "saved"
        if storage == "xml":
            db.save(path)
            again = TemporalXMLDatabase.load(path)
        else:
            write_checkpoint(db.store, CASObjectStore(path))
            again = TemporalXMLDatabase.open(path, durability="none")
        report = again.query(
            'EXPLAIN ANALYZE SELECT TIME(R), R FROM doc("deep")[EVERY] R'
        )
        assert "rows" in str(report)
        assert again.current("deep").equals_deep(parse(replaced))

    def test_parse_stored_has_room_for_the_envelope_only(self):
        assert parse_stored(self._nested(MAX_DEPTH + 6)).tag == "a"
        with pytest.raises(XMLSyntaxError, match="deeper than"):
            parse_stored(self._nested(MAX_DEPTH + 7))


class TestCorpus:
    """What the hand-written scanner made of ``tests/data/xml_corpus``."""

    def test_covers_what_it_claims(self):
        kinds = {entry["name"].split("/")[0] for entry in CORPUS["entries"]}
        assert kinds == {"guide", "tdoc", "hand", "errors", "prefix"}
        prefixes = [e for e in CORPUS["entries"] if e["name"].startswith("prefix/")]
        whole = prefixes.pop()
        assert whole["recorded"] != "error"
        assert [e["input"] for e in prefixes] == [
            whole["input"][:end] for end in range(len(whole["input"]))
        ]
        assert {e["recorded"] for e in prefixes} == {"error"}

    @pytest.mark.parametrize(
        "entry", CORPUS["entries"], ids=[e["name"] for e in CORPUS["entries"]]
    )
    def test_replays(self, entry):
        outcome = _outcome(entry["input"])
        if "diverges" not in entry:
            assert outcome == entry["recorded"]
        else:
            assert entry["diverges"] in CORPUS["divergences"]
            assert entry["now"] != entry["recorded"]
            assert outcome == entry["now"]


class TestHostile:
    """Typed error or a tree, never another exception class, a hang, an
    expanded entity or an opened file."""

    @pytest.mark.timeout(5)
    def test_billion_laughs(self):
        levels = "".join(
            f'<!ENTITY l{i} "{("&l%d;" % (i - 1)) * 10}">' for i in range(1, 10)
        )
        subset = f'<!DOCTYPE a [<!ENTITY l0 "lol">{levels}]>'
        for document in (f"{subset}<a>&l9;</a>", f'{subset}<a x="&l9;"/>'):
            with pytest.raises(XMLSyntaxError):
                parse(document)

    def test_external_entities_are_never_read(self, tmp_path):
        secret = tmp_path / "secret.txt"
        secret.write_text('<!ENTITY x "SENTINEL">SENTINEL')
        url = secret.as_uri()
        for document in (
            f'<!DOCTYPE a [<!ENTITY e SYSTEM "{url}">]><a>&e;</a>',
            f'<!DOCTYPE a [<!ENTITY e SYSTEM "{url}">]><a x="&e;"/>',
            f'<!DOCTYPE a SYSTEM "{url}"><a>&x;</a>',
            f'<!DOCTYPE a SYSTEM "{url}"><a>text</a>',
            f'<!DOCTYPE a [<!ENTITY % p SYSTEM "{url}"> %p;]><a>&x;</a>',
            f'<!DOCTYPE a [<!ENTITY % p SYSTEM "{url}"> %p;]><a>text</a>',
        ):
            assert "SENTINEL" not in _outcome(document)

    @pytest.mark.timeout(5)
    def test_a_megabyte_attribute(self):
        value = "v" * (1 << 20)
        assert parse(f'<a x="{value}"/>').attrib["x"] == value

    @pytest.mark.parametrize(
        "text",
        ["<a>\ud800</a>", '<a x="\udfff"/>', "<a>\x00</a>", "\x00", "<a>&#0;</a>"],
    )
    def test_characters_xml_cannot_carry(self, text):
        with pytest.raises(XMLSyntaxError):
            parse(text)

    @pytest.mark.timeout(30)
    def test_seeded_mutations(self):
        rng = random.Random(23)
        base = next(
            e["input"] for e in CORPUS["entries"]
            if e["name"] == "hand/prolog-comments-pis-doctype"
        ) + '<g a="1" b=\'2\'><![CDATA[<x>]]>t&#65;&amp;<e/></g>'
        splinters = list("<>/&;\"'=![]-?#x \n\r\t\x00\ud800é") + [
            "<!--", "-->", "<![CDATA[", "]]>", "<?", "?>", "&#", "</",
            "<!DOCTYPE a [", '<!ENTITY e "v">', "<!ENTITY % p SYSTEM 'f'>", "%p;",
        ]
        for _ in range(2000):
            text = base
            for _ in range(rng.randrange(1, 4)):
                at = rng.randrange(len(text) + 1)
                cut = at + rng.choice((0, 0, 1, 5))
                text = text[:at] + rng.choice(splinters + [""]) + text[cut:]
            _outcome(text)


# -- round-trip property -------------------------------------------------------

_tags = st.sampled_from(["a", "b", "c", "item", "name"])
_texts = xml_values.filter(len)


def _trees(depth):
    if depth == 0:
        return st.builds(lambda t: t, _tags).map(Element)
    return st.builds(
        _build_element,
        _tags,
        st.dictionaries(_tags, xml_values, max_size=2),
        st.lists(
            st.one_of(_trees(depth - 1), _texts.map(Text)), max_size=3
        ),
    )


def _build_element(tag, attrib, children):
    node = Element(tag, attrib)
    for child in children:
        node.append(child)
    return node


class TestRoundTrip:
    @given(_trees(3))
    def test_parse_serialize_roundtrip(self, tree):
        again = parse(serialize(tree))
        # Serialization merges adjacent text nodes; normalize both sides.
        assert _normalize(again).equals_deep(_normalize(tree))

    @given(_trees(2))
    def test_pretty_roundtrip(self, tree):
        again = parse(serialize(tree, indent=2))
        # Pretty-printing only inserts ignorable whitespace.
        assert _normalize(again).equals_deep(_normalize(tree))


def _normalize(tree):
    """The parser's whitespace policy applied to a built tree: adjacent
    text nodes are one run, and a run that is whitespace only is dropped."""
    dup = tree.copy()
    for node in list(dup.iter()):
        if not isinstance(node, Element):
            continue
        merged = []
        for child in node.children:
            if isinstance(child, Text) and merged and isinstance(merged[-1], Text):
                merged[-1] = Text(merged[-1].value + child.value)
            else:
                merged.append(child)
        node.children = [
            child for child in merged
            if isinstance(child, Element) or child.value.strip()
        ]
    return dup
