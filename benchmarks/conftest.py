"""Shared benchmark fixtures and table emission.

Benchmarks print the paper-style tables through ``emit`` (bypassing pytest
capture, so ``pytest benchmarks/ --benchmark-only`` shows the series), and
time a representative operation with pytest-benchmark.

The reconstruction-direction benchmarks additionally record a
machine-readable comparison through ``reconstruct_report``; everything
collected in a session is written to ``BENCH_reconstruct.json`` at the
repository root when the run ends.  ``storage_report`` does the same into
``BENCH_storage.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_RECONSTRUCT_REPORT_PATH = _ROOT / "BENCH_reconstruct.json"
_STORAGE_REPORT_PATH = _ROOT / "BENCH_storage.json"
_reconstruct_records = []
_storage_records = []


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

    def _add(record):
        _reconstruct_records.append(record)

    return _add


@pytest.fixture
def storage_report():
    """Collect one XML-vs-CAS storage backend comparison record."""

    def _add(record):
        _storage_records.append(record)

    return _add


def pytest_sessionfinish(session, exitstatus):
    if _reconstruct_records:
        payload = {
            "description": (
                "Reconstruction direction matrix: backward-only (the "
                "paper's algorithm, run from the benchmarks/ablation "
                "reference) vs. the engine's cost-based bidirectional "
                "anchor selection, plus the batched reconstruct_range "
                "DocHistory sweep."
            ),
            "runs": sorted(
                _reconstruct_records, key=lambda r: r["benchmark"]
            ),
        }
        _RECONSTRUCT_REPORT_PATH.write_text(
            json.dumps(payload, indent=2) + "\n"
        )
        _reconstruct_records.clear()
    if _storage_records:
        payload = {
            "description": (
                "Storage backends compared on a long near-duplicate "
                "version history: the monolithic XML archive vs. the "
                "content-addressed object store (stored bytes, cold-open "
                "wall time, dedup/compression counters); both backends "
                "reload byte-identical stores (asserted)."
            ),
            "runs": sorted(_storage_records, key=lambda r: r["benchmark"]),
        }
        _STORAGE_REPORT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        _storage_records.clear()
