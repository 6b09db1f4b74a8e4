"""Sanity-run the harness at ``--smoke`` size.

Not collected by the tier-1 run (its ``testpaths`` is ``tests``); run it
with ``python -m pytest benchmarks/e2e/test_smoke.py``.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _run(*args):
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--smoke", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


def _contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_all_workloads_pass_their_checks_untraced_and_traced():
    proc = _run("--trace")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "FAILED" not in proc.stdout
    for workload in _contract()["workloads"]:
        span_file = os.path.join(
            ROOT, "benchmarks", "e2e", "out", f"trace-{workload['name']}.json"
        )
        assert os.path.getsize(span_file) > 0


def test_driver_line_carries_every_metric_of_the_contract():
    contract = _contract()
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _run("--workload", "serve_mixed", "--seed", "5", "--trace", trace)
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert list(line["metrics"]) == [m["name"] for m in contract[section]]
        for spec in contract[section]:
            assert line["metrics"][spec["name"]]["unit"] == spec["unit"]
