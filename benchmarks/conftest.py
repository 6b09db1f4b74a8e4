"""Shared benchmark fixtures and table emission.

Benchmarks print the paper-style tables through ``emit`` (bypassing pytest
capture, so ``pytest benchmarks/ --benchmark-only`` shows the series), and
time a representative operation with pytest-benchmark.

The reconstruction-direction benchmarks additionally record a
machine-readable comparison through ``reconstruct_report``; everything
collected in a session is written to ``BENCH_reconstruct.json`` at the
repository root when the run ends.  ``storage_report`` and
``durability_report`` do the same into ``BENCH_storage.json`` and
``BENCH_durability.json``.  Only a run pytest-benchmark times writes them:
under ``--benchmark-disable`` (CI's smoke sizes) the committed reports stay
as they are.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent

#: Report name -> (file at the repository root, its description).
_REPORTS = {
    "reconstruct": (
        _ROOT / "BENCH_reconstruct.json",
        "Reconstruction direction matrix: backward-only (the "
        "paper's algorithm, run from the benchmarks/ablation "
        "reference) vs. the engine's cost-based bidirectional "
        "anchor selection, plus the batched reconstruct_range "
        "DocHistory sweep.",
    ),
    "storage": (
        _ROOT / "BENCH_storage.json",
        "Storage backends compared on a long near-duplicate "
        "version history: the monolithic XML archive vs. the "
        "content-addressed object store (stored bytes, cold-open "
        "wall time, dedup/compression counters); both backends "
        "reload byte-identical stores (asserted).",
    ),
    "durability": (
        _ROOT / "BENCH_durability.json",
        "Commit throughput under the three durability modes: "
        "no journal, journalled with OS flush, journalled "
        "with fsync per commit.",
    ),
}
_records = {name: [] for name in _REPORTS}


@pytest.fixture
def emit(capsys):
    """Print a :class:`harness.Table` (or text) past pytest's capture."""

    def _emit(table_or_text):
        with capsys.disabled():
            if hasattr(table_or_text, "echo"):
                table_or_text.echo()
            else:
                print()
                print(table_or_text)

    return _emit


@pytest.fixture
def reconstruct_report():
    """Collect one reconstruction-direction comparison record."""
    return _records["reconstruct"].append


@pytest.fixture
def storage_report():
    """Collect one XML-vs-CAS storage backend comparison record."""
    return _records["storage"].append


@pytest.fixture
def durability_report():
    """Collect one durability-mode run."""
    return _records["durability"].append


def pytest_sessionfinish(session, exitstatus):
    timed = not session.config.getoption("benchmark_disable", default=True)
    for name, (path, description) in _REPORTS.items():
        records = _records[name]
        if timed and records:
            # Stable sort: runs without a "benchmark" key keep their order.
            runs = sorted(records, key=lambda r: r.get("benchmark", ""))
            payload = {"description": description, "runs": runs}
            path.write_text(json.dumps(payload, indent=2) + "\n")
        records.clear()
