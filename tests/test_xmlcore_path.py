"""Tests for path expressions."""

import pytest

from repro.errors import PathSyntaxError
from repro.xmlcore import Path, parse


@pytest.fixture
def guide():
    return parse(
        """<guide>
             <restaurant><name>Napoli</name><price>15</price></restaurant>
             <restaurant><name>Roma</name>
               <menu><price>20</price></menu>
             </restaurant>
             <hotel><name>Plaza</name></hotel>
           </guide>"""
    )


class TestCompile:
    def test_simple_steps(self):
        path = Path("restaurant/name")
        assert [s.tag for s in path.steps] == ["restaurant", "name"]
        assert [s.axis for s in path.steps] == ["child", "child"]

    def test_descendant_axis(self):
        path = Path("restaurant//price")
        assert path.steps[1].axis == "descendant"

    def test_leading_descendant(self):
        path = Path("//price")
        assert path.steps[0].axis == "descendant"

    def test_leading_slash_is_relative(self):
        assert Path("/restaurant") == Path("restaurant")

    def test_empty_and_dot(self):
        assert Path("").is_empty
        assert Path(".").is_empty

    @pytest.mark.parametrize("bad", ["/", "a//", "a//'x'", "a/ /b", "1tag"])
    def test_rejects(self, bad):
        with pytest.raises(PathSyntaxError):
            Path(bad)

    def test_equality_and_hash(self):
        assert Path("a/b") == Path("a/b")
        assert hash(Path("a//b")) == hash(Path("a//b"))
        assert Path("a/b") != Path("a//b")


class TestSelect:
    def test_child_steps(self, guide):
        names = Path("restaurant/name").select(guide)
        assert [n.text for n in names] == ["Napoli", "Roma"]

    def test_descendant_step(self, guide):
        prices = Path("restaurant//price").select(guide)
        assert [p.text for p in prices] == ["15", "20"]

    def test_leading_descendant_finds_all(self, guide):
        assert len(Path("//name").select(guide)) == 3
        assert len(Path("//price").select(guide)) == 2

    def test_wildcard(self, guide):
        assert len(Path("*/name").select(guide)) == 3

    def test_empty_selects_context(self, guide):
        assert Path("").select(guide) == [guide]

    def test_no_match(self, guide):
        assert Path("restaurant/phone").select(guide) == []
        assert Path("restaurant/phone").first(guide) is None
        assert not Path("restaurant/phone").matches(guide)

    def test_forest_context(self, guide):
        restaurants = guide.findall("restaurant")
        names = Path("name").select(restaurants)
        assert [n.text for n in names] == ["Napoli", "Roma"]

    def test_no_duplicates_from_overlapping_descendants(self):
        tree = parse("<a><b><b><c/></b></b></a>")
        assert len(Path("//c").select(tree)) == 1
