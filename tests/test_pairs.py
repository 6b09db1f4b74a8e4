"""The paired-run tool's reading of e2e output and its verdicts."""

import ast
from pathlib import Path

from benchmarks import pairs

CONTRACT = {
    "end_to_end": [
        {"name": "setup_s", "better": "lower", "bound": 0.25},
        {"name": "served_qps", "better": "higher", "bound": 0.25},
    ],
    "per_layer": [{"name": "xmlcore.parse_self_s", "better": "lower"}],
}

REPORT = """\
== query_mix seed=1 traced: 628 operations, 2 failed
setup_s                                                0.043330 s  n=4
served_qps                                           127.016388 1/s  n=42
xmlcore.parse_self_s                                   0.310000 s
exact result_digest                            80b54228c5
exact storage.journal.fsyncs                   15
FAILED a query answered wrong
{"correct": false, "attempted": 628, "failed": 2, "metrics": {}}
"""


def _run(setup, qps=100.0, digest="d"):
    return {"metrics": {"setup_s": (setup, "s"), "served_qps": (qps, "1/s")},
            "exact": {"result_digest": digest}, "failed": 0, "failures": [],
            "status": 0}


def test_reads_a_driver_mode_report():
    run = pairs.parse_run(REPORT)
    assert (run["attempted"], run["failed"]) == (628, 2)
    assert run["metrics"] == {
        "setup_s": (0.04333, "s"),
        "served_qps": (127.016388, "1/s"),
        "xmlcore.parse_self_s": (0.31, "s"),
    }
    assert run["exact"] == {"result_digest": "80b54228c5",
                            "storage.journal.fsyncs": "15"}
    assert run["failures"] == ["a query answered wrong"]


def _row(rows, name):
    return next(row for row in rows if row["metric"] == name)


def test_a_clear_gain_is_moved_and_a_wobble_is_not():
    base = [_run(0.60 + 0.01 * (i % 3), qps=100 + i) for i in range(10)]
    change = [_run(0.40 + 0.01 * (i % 3), qps=100 + 9 - i) for i in range(10)]
    rows = pairs.summarise(base, change, CONTRACT)
    setup = _row(rows, "setup_s")
    assert setup["wins"] == 10 and setup["beyond_iqr"]
    assert setup["moved"] == "better" and not setup["beyond_bound"]
    qps = _row(rows, "served_qps")
    assert 0 < qps["wins"] < 10 and not qps["beyond_iqr"]
    assert qps["moved"] == ""


def test_ties_count_for_neither_side_and_a_loss_is_worse():
    base = [_run(0.5, qps=200.0) for _ in range(10)]
    change = [_run(0.5, qps=100.0) for _ in range(10)]
    rows = pairs.summarise(base, change, CONTRACT)
    assert _row(rows, "setup_s")["wins"] == 0
    assert _row(rows, "setup_s")["moved"] == ""
    qps = _row(rows, "served_qps")
    assert qps["wins"] == 0 and qps["moved"] == "worse"
    assert qps["beyond_bound"]


def test_nine_of_ten_is_enough_and_eight_is_not():
    base = [_run(1.0 + 0.001 * i) for i in range(10)]
    nine = [_run(0.5) for _ in range(9)] + [_run(2.0)]
    eight = [_run(0.5) for _ in range(8)] + [_run(2.0), _run(2.0)]
    assert _row(pairs.summarise(base, nine, CONTRACT), "setup_s")["moved"] == "better"
    assert _row(pairs.summarise(base, eight, CONTRACT), "setup_s")["moved"] == ""


def test_exact_lines_are_compared_across_every_run():
    same = {"base": [_run(1.0), _run(1.0)], "change": [_run(1.0), _run(1.0)]}
    assert pairs.exact_differences(same) == []
    odd = {"base": [_run(1.0), _run(1.0)],
           "change": [_run(1.0), _run(1.0, digest="other")]}
    assert pairs.exact_differences(odd) == [
        ("result_digest", {"d": ["base#1", "base#2", "change#1"],
                           "other": ["change#2"]})
    ]


def test_quartiles_of_one_run_are_the_run():
    assert pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_markdown_puts_an_exact_difference_first():
    base, change = [_run(1.0)], [_run(1.0, digest="other")]
    report = {"base": "HEAD", "seed": 1, "trace": False, "workloads": {
        "query_mix": {
            "pairs": 1, "failed": {"base": 0, "change": 0}, "bad_runs": 0,
            "exact_count": 1,
            "exact_differences": pairs.exact_differences(
                {"base": base, "change": change}),
            "rows": pairs.summarise(base, change, CONTRACT),
        }}}
    text = pairs.markdown(report)
    assert text.startswith("**exact line differs** — query_mix `result_digest`")
    assert "| `setup_s` (s) | 1 [1–1] | 1 [1–1] | +0.0% | 0/1 | no |  |" in text


def test_imports_nothing_from_the_engine():
    tops = set()
    for node in ast.walk(ast.parse(Path(pairs.__file__).read_text())):
        if isinstance(node, ast.Import):
            tops.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            tops.add((node.module or "").split(".")[0])
    assert not tops & {"repro", "benchmarks"}
