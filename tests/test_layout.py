"""The engine/ablation split as an invariant: ``src/repro`` holds the one
engine, the paper's alternatives live in ``benchmarks/ablation/``, and
nothing in the engine exists only for them."""

import ast
import inspect
import re
from pathlib import Path

import pytest

from benchmarks.ablation.disk import DiskSimulator
from repro import TemporalXMLDatabase
from repro.index import TemporalKeywordScorer
from repro.storage import TemporalDocumentStore
from repro.storage.repository import Repository
from repro.xmlcore import parser
from repro.xmlcore.node import Element, _Node

SRC = Path(__file__).resolve().parent.parent / "src"
ROOTS = ("repro", "repro.__main__", "repro.serving", "repro.workload")


@pytest.fixture(scope="module")
def imports():
    """``{module: names it imports}`` for every module under ``src/repro``
    (function-level imports included; a ``from`` import lists both the
    source module and ``source.name``, whichever exists)."""
    graph = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        package = parts[:-1]
        if parts[-1] == "__init__":
            parts = package
        targets = graph[".".join(parts)] = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                targets.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                keep = len(package) - node.level + 1
                base = package[:keep] if node.level else ()
                source = ".".join([*base, *filter(None, [node.module])])
                targets.add(source)
                targets.update(f"{source}.{a.name}" for a in node.names)
    return graph


def test_engine_never_imports_benchmarks_or_tests(imports):
    for module, targets in imports.items():
        tops = {target.split(".")[0] for target in targets}
        assert not tops & {"benchmarks", "tests"}, module


def test_every_engine_module_is_reachable_from_a_root(imports):
    reached, frontier = set(), list(ROOTS)
    while frontier:
        parts = frontier.pop().split(".")
        for end in range(1, len(parts) + 1):  # importing a.b imports a too
            name = ".".join(parts[:end])
            if name in imports and name not in reached:
                reached.add(name)
                frontier.extend(imports[name])
    assert sorted(set(imports) - reached) == []


def test_no_ablation_knob_on_any_constructor():
    for owner in (Repository, TemporalDocumentStore, TemporalXMLDatabase,
                  TemporalKeywordScorer):
        parameters = set(inspect.signature(owner).parameters)
        assert not parameters & {
            "reconstruct_policy", "windowed_lookup", "latency_scale",
            "disk", "cache_size", "clustered", "page_size",
        }, owner.__name__
    # The simulator is one of the ablations now; it still never sleeps.
    assert "latency_scale" not in inspect.signature(DiskSimulator).parameters
    assert list(inspect.signature(Repository).parameters) == [
        "snapshot_interval", "snapshot_policy",
    ]
    for owner in (TemporalDocumentStore, TemporalXMLDatabase):
        assert list(inspect.signature(owner).parameters) == [
            "clock", "snapshot_interval", "snapshot_policy",
        ], owner.__name__


def test_engine_has_no_disk_simulator_and_no_version_cache(imports):
    """Placement and tree caching are not the repository's business: no
    engine module defines, imports or mentions either."""
    gone = {"DiskSimulator", "Extent", "VersionCache"}
    storage = SRC / "repro" / "storage"
    assert not (storage / "page.py").exists()
    assert not (storage / "cache.py").exists()
    for module, targets in imports.items():
        assert not gone & {t.rpartition(".")[2] for t in targets}, module
    mention = re.compile(
        "DiskSimulator|Extent|_extent|cache_size|VersionCache|use_cache"
    )
    for path in sorted((SRC / "repro").rglob("*.py")):
        text = path.read_text()
        assert not mention.search(text), path
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                assert node.name not in gone, path
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                assert node.id not in gone, path


def test_a_stored_read_takes_one_lock():
    """The read counters' ``_stats_lock`` is the only lock in the module
    every stored read goes through."""
    source = (SRC / "repro" / "storage" / "repository.py").read_text()
    assert source.count("threading.Lock()") == 1
    assert "self._stats_lock = threading.Lock()" in source


def _importers(imports, name):
    return {module for module, targets in imports.items() if name in targets}


def test_one_walker_over_a_stored_chain(imports):
    """Stored versions are read through ``storage/cursor.py`` and nothing
    else: the repository keeps no loop of its own, ``apply_chain`` lives
    with the backward-only reference, and the two other ``apply_script``
    users replay commits (recovery, archive verification), not reads."""
    for gone in ("reconstruct_pair", "_apply_between", "_range_iter",
                 "_count_choice", "_choose_anchor"):
        assert gone not in Repository.__dict__, gone
    for name in ("reconstruct", "reconstruct_at", "reconstruct_range"):
        assert name in Repository.__dict__, name  # benchmarks/e2e/trace.py
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                assert node.name != "apply_chain", path
    assert not _importers(imports, "repro.diff.apply.apply_chain")
    assert _importers(imports, "repro.diff.apply.apply_scoped") == {
        "repro.storage.cursor"
    }
    assert _importers(imports, "repro.diff.apply.apply_script") == {
        "repro.diff", "repro.storage.recover", "repro.storage.persistence",
    }


def test_the_query_layer_has_one_way_to_a_stored_version():
    """No ``cache is not None`` / ``active_cache is not None`` arm: every
    binding reads through its query's ``SnapshotCache``."""
    for path in sorted((SRC / "repro" / "query").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Compare):
                continue
            named = {
                part.id if isinstance(part, ast.Name) else part.attr
                for part in [node.left, *node.comparators]
                if isinstance(part, (ast.Name, ast.Attribute))
            }
            assert not named & {"cache", "active_cache"}, (
                f"{path.name}:{node.lineno}"
            )


def test_the_xml_tokenizer_is_imported_not_written(imports):
    """``xmlcore/parser.py`` builds trees from expat's callbacks: it walks
    no characters (no loop, no index or slice into a name such as ``parse``'s
    ``text``), and nothing else under ``src/repro`` offers to."""
    assert "xml.parsers.expat" in imports["repro.xmlcore.parser"]
    path = SRC / "repro" / "xmlcore" / "parser.py"
    for node in ast.walk(ast.parse(path.read_text())):
        assert not isinstance(node, (ast.For, ast.While)), node.lineno
        if isinstance(node, ast.Subscript):
            assert not isinstance(node.value, ast.Name), node.lineno
    assert _importers(imports, "repro.xmlcore.parser.parse") >= {
        "repro.storage.store",  # benchmarks/e2e/trace.py patches store.parse
    }
    # The nesting bound is a constant, not something a caller passes.
    for entry in (parser.parse, parser.parse_stored):
        assert list(inspect.signature(entry).parameters) == ["text"]
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                assert node.name not in {"_Scanner", "parse_fragment"}, path


def test_trees_keep_no_parent_pointer():
    """Version trees are acyclic values: a node has no ``parent`` slot, and
    no engine module defines or calls an upward walk over one (ancestors
    come from the walk, ``parent_map``)."""
    assert _Node.__slots__ == ("xid", "tstamp")
    assert "_xid_clean" not in Element.__slots__
    gone = {"ancestors", "detach", "index_in_parent", "path_of"}
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                assert node.name not in gone, f"{path.name}:{node.lineno}"
            elif isinstance(node, ast.Call):
                func = node.func
                name = (func.attr if isinstance(func, ast.Attribute)
                        else getattr(func, "id", None))
                assert name not in gone, f"{path.name}:{node.lineno}"


def test_the_calendar_has_no_loop():
    """Dates go through one day-count -> civil function and one back, both
    O(1); ``bucket_spans`` loops over buckets, never over years."""
    tree = ast.parse((SRC / "repro" / "clock.py").read_text())
    functions = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    }

    def called(name):
        return {
            node.func.id for node in ast.walk(functions[name])
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        } & set(functions)

    roots = {"parse_date", "format_timestamp", "bucket_floor", "bucket_next"}
    reached, frontier = set(), list(roots)
    while frontier:
        name = frontier.pop()
        if name not in reached:
            reached.add(name)
            frontier.extend(called(name))
    assert reached - roots == {"_days_from_civil", "_civil_from_days"}
    for name in reached:
        for node in ast.walk(functions[name]):
            assert not isinstance(node, (ast.For, ast.While)), name
    assert called("bucket_spans") <= roots
