"""The engine/ablation split as an invariant: ``src/repro`` holds the one
engine, the paper's alternatives live in ``benchmarks/ablation/``, and
nothing in the engine exists only for them."""

import ast
import inspect
from pathlib import Path

import pytest

from repro import TemporalXMLDatabase
from repro.index import TemporalKeywordScorer
from repro.storage import TemporalDocumentStore
from repro.storage.page import DiskSimulator
from repro.storage.repository import Repository

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
                  TemporalKeywordScorer, DiskSimulator):
        parameters = set(inspect.signature(owner).parameters)
        assert not parameters & {
            "reconstruct_policy", "windowed_lookup", "latency_scale",
        }, owner.__name__
