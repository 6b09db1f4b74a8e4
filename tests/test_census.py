"""The function census (``python -m benchmarks.census``): its enumerator,
the mapping from a called code object back to a function, and the
checker, on a tiny package written for the test.  No surface runs here."""

import importlib.util
import textwrap

import pytest

from benchmarks.census import (
    check,
    enumerate_functions,
    functions_in,
    parse_list,
    read_records,
    reached_keys,
    tally,
)

FIXTURE = textwrap.dedent('''\
    import functools


    def plain():
        return 1


    @functools.lru_cache(maxsize=None)
    def cached():
        return 2


    def outer():
        def inner():
            return 3
        return inner()


    class Box:
        @property
        def size(self):
            return self._size

        @size.setter
        def size(self, value):
            self._size = value

        @staticmethod
        def unused():
            pass
''')


@pytest.fixture
def package(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(FIXTURE)
    return tmp_path


def test_decorated_nested_and_property_functions_are_keyed(package):
    functions = enumerate_functions(package, "pkg")
    assert {key: (f.line, f.name) for key, f in functions.items()} == {
        "pkg/mod.py:plain": (4, "plain"),
        "pkg/mod.py:cached": (8, "cached"),  # the decorator's line
        "pkg/mod.py:outer": (13, "outer"),
        "pkg/mod.py:outer.<locals>.inner": (14, "inner"),
        "pkg/mod.py:Box.size": (20, "size"),
        "pkg/mod.py:Box.size.setter": (24, "size"),
        "pkg/mod.py:Box.unused": (28, "unused"),
    }
    assert functions["pkg/mod.py:Box.size.setter"].lines == 3


def test_a_name_defined_twice_gets_a_suffix():
    source = "if X:\n    def f():\n        pass\nelse:\n    def f():\n        pass\n"
    assert [f.qualname for f in functions_in(source, "m.py")] == ["f", "f#2"]


def test_called_code_objects_map_back_to_their_keys(package):
    """What a hook records (file, ``co_firstlineno``, ``co_name``) names
    the same function the AST keyed: decorated functions start at the
    decorator in both."""
    path = package / "pkg" / "mod.py"
    spec = importlib.util.spec_from_file_location("census_fixture", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    inner = next(c for c in module.outer.__code__.co_consts
                 if hasattr(c, "co_name") and c.co_name == "inner")
    codes = [module.cached.__wrapped__.__code__, inner,
             module.Box.size.fset.__code__, module.Box.size.fget.__code__]
    records = {(str(path), c.co_firstlineno, c.co_name) for c in codes}
    # Code that is no function (the module body) maps to nothing.
    records.add((str(path), 1, "<module>"))
    functions = enumerate_functions(package, "pkg")
    assert reached_keys(records, functions, package) == {
        "pkg/mod.py:cached", "pkg/mod.py:outer.<locals>.inner",
        "pkg/mod.py:Box.size", "pkg/mod.py:Box.size.setter",
    }


def test_tier1_runs_are_tallied_per_test_file(package, tmp_path):
    """``--tests`` runs tag each test file ``test_<stem>``: what they reach
    is credited to ``tests/<stem>.py``, never to the surfaces."""
    path = package / "pkg" / "mod.py"
    out = tmp_path / "out"
    out.mkdir()
    (out / "e2e.11.txt").write_text(f"{path}\t4\tplain\n")
    (out / "test_test_box.12.txt").write_text(
        f"{path}\t4\tplain\n{path}\t28\tunused\n")
    (out / "test_test_box.13.txt").write_text(f"{path}\t13\touter\n")
    (out / "test_test_other.14.txt").write_text(f"{path}\t28\tunused\n")
    functions = enumerate_functions(package, "pkg")
    reached, by_test = tally(read_records(out), functions, package)
    assert reached == {"pkg/mod.py:plain"}
    assert by_test == {
        "pkg/mod.py:plain": ["tests/test_box.py"],
        "pkg/mod.py:outer": ["tests/test_box.py"],
        "pkg/mod.py:Box.unused": ["tests/test_box.py", "tests/test_other.py"],
    }


def _verdict(package, reached, listing):
    functions = enumerate_functions(package, "pkg")
    return check(functions, {f"pkg/mod.py:{q}" for q in reached},
                 textwrap.dedent(listing), package)


ALL_BUT_UNUSED = ("plain", "cached", "outer", "outer.<locals>.inner",
                  "Box.size", "Box.size.setter")


def test_every_unreached_function_listed_passes(package):
    verdict = _verdict(package, ALL_BUT_UNUSED, """\
        # comments and blank lines are skipped

        pkg/mod.py:Box.unused  CLI/API surface - kept for callers
    """)
    assert verdict.ok
    assert verdict.unlisted == verdict.gone == verdict.now_reached == []


def test_an_unlisted_unreached_function_fails(package):
    verdict = _verdict(package, ALL_BUT_UNUSED[1:],
                       "pkg/mod.py:Box.unused  error path\n")
    assert not verdict.ok
    assert verdict.unlisted == ["pkg/mod.py:plain"]


def test_a_listed_function_that_no_longer_exists_fails(package):
    verdict = _verdict(package, ALL_BUT_UNUSED, """\
        pkg/mod.py:Box.unused  error path
        pkg/mod.py:deleted  paper surface
    """)
    assert not verdict.ok
    assert verdict.gone == ["pkg/mod.py:deleted"]


def test_a_listed_function_now_reached_is_reported_and_passes(package):
    """An error path a run happens to take must not make the check flap."""
    verdict = _verdict(package, (*ALL_BUT_UNUSED, "Box.unused"),
                       "pkg/mod.py:Box.unused  error path\n")
    assert verdict.ok
    assert verdict.now_reached == ["pkg/mod.py:Box.unused"]


def test_reasons_are_checked(package):
    _, problems = parse_list("pkg/mod.py:plain  because\n"
                             "pkg/mod.py:plain  error path\n")
    assert len(problems) == 2  # not a reason; listed twice
    (package / "tests").mkdir()
    (package / "tests" / "test_box.py").write_text("Box().unused()\n")
    verdict = _verdict(package, ALL_BUT_UNUSED,
                       "pkg/mod.py:Box.unused  reference kept: tests/test_box.py\n")
    assert verdict.ok
    for listing, problem in (
        ("reference kept: tests/test_gone.py", "missing file"),
        ("reference kept", "no tests/*.py file"),
    ):
        verdict = _verdict(package, ALL_BUT_UNUSED,
                           f"pkg/mod.py:Box.unused  {listing}\n")
        assert not verdict.ok
        assert problem in verdict.problems[0]
    (package / "tests" / "test_box.py").write_text("Box()\n")
    verdict = _verdict(package, ALL_BUT_UNUSED,
                       "pkg/mod.py:Box.unused  reference kept: tests/test_box.py\n")
    assert verdict.problems == [
        "pkg/mod.py:Box.unused: tests/test_box.py never mentions unused"
    ]
