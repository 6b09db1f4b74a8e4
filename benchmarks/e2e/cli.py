"""Command line: one workload for the driver, or the full report.

Driver mode (``--workload W --seed N --seconds S --trace 0|1``) runs one
workload once and ends its output with the contract's JSON line.  Without
``--workload`` all four run, untraced then (with ``--trace``) traced, and
``--repeat K`` runs K such sets interleaved by workload and compares them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import ROOT
from .lifecycle import OUT_DIR, run_workload
from .trace import Tracer
from .workloads import WORKLOADS


def _contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def build_parser():
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds in the workload's own phase "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="~1/10 of every count; not comparable")
    parser.add_argument("--repeat", type=int, default=1,
                        help="sets of all workloads to run and compare")
    return parser


def run_once(workload, seed, seconds, trace, smoke):
    """One run; a traced one also writes its span file."""
    if not trace:
        return run_workload(workload, seed, seconds, smoke=smoke)
    tracer = Tracer()
    tracer.install()
    try:
        result = run_workload(workload, seed, seconds, tracer=tracer,
                              smoke=smoke)
    finally:
        tracer.uninstall()
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"trace-{workload}.json"))
    return result


def print_result(result, smoke):
    label = "SMOKE (not comparable) " if smoke else ""
    mode = "traced" if result.traced else "untraced"
    print(f"== {label}{result.workload} seed={result.seed} {mode}: "
          f"{result.attempted} operations, {result.failed} failed")
    for name, (value, unit, n) in result.end_to_end.items():
        print(f"{name:46s} {value:16.6f} {unit}  n={n}")
    if result.traced:
        for name, (value, unit) in result.per_layer.items():
            print(f"{name:46s} {value:16.6f} {unit}")
    for name, value in result.exact.items():
        print(f"exact {name:40s} {value}")
    for failure in result.failures:
        print(f"FAILED {failure}")


def contract_line(result, contract):
    """The driver's JSON object: the ``end_to_end`` metrics of an untraced
    run, the ``per_layer`` metrics of a traced one."""
    values = {name: (value, unit)
              for name, (value, unit, _n) in result.end_to_end.items()}
    values.update(result.per_layer)
    section = contract["per_layer" if result.traced else "end_to_end"]
    return json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
            for m in section
        },
    })


def compare(sets, contract):
    """Print the first and last value of every end-to-end metric and by how
    much the last is worse; a gated metric beyond its bound, or a
    deterministic count that differs, is a violation.  Returns their
    number."""
    gated = {m["name"]: m for m in contract["end_to_end"]}
    better = {m["name"]: m["better"]
              for m in contract["end_to_end"] + contract["per_layer"]}
    violations = 0
    for workload in WORKLOADS:
        runs = [s[workload] for s in sets]
        print(f"== repeat check: {workload}")
        for name in runs[0].end_to_end:
            first, last = (run.end_to_end[name][0] for run in (runs[0], runs[-1]))
            worse = (last - first) / first
            if better[name] == "higher":
                worse = -worse
            note = "not gated"
            if name in gated:
                note = f"bound {gated[name]['bound']:.0%}"
                if worse > gated[name]["bound"]:
                    violations += 1
                    note += "  <-- beyond bound"
            print(f"{name:32s} {first:14.6f} {last:14.6f} "
                  f"{worse:+8.3%} worse ({note})")
        for name in runs[0].exact:
            values = {repr(run.exact[name]) for run in runs}
            if len(values) != 1:
                violations += 1
                print(f"exact {name} differs between sets: {sorted(values)}")
    return violations


def main(argv=None):
    args = build_parser().parse_args(argv)
    contract = _contract()
    seconds = contract["run_seconds"] if args.seconds is None else args.seconds
    if args.workload is not None:
        result = run_once(args.workload, args.seed, seconds, args.trace,
                          args.smoke)
        print_result(result, args.smoke)
        print(contract_line(result, contract))
        return 0 if result.correct else 1

    failed = 0
    sets = []
    for _ in range(args.repeat):
        results = {}
        for workload in WORKLOADS:
            results[workload] = run_once(workload, args.seed, seconds, 0,
                                         args.smoke)
            print_result(results[workload], args.smoke)
            failed += results[workload].failed
            if args.trace:
                traced = run_once(workload, args.seed, seconds, 1, args.smoke)
                print_result(traced, args.smoke)
                failed += traced.failed
                ratio = traced.client_seconds / results[workload].client_seconds - 1
                print(f"traced wall / untraced wall - 1 = {ratio:+.3f}")
                for name, value in traced.top_layers:
                    print(f"top layer of its own phase {name:40s} "
                          f"{value:8.3f} s")
                for name, value in traced.exact.items():
                    results[workload].exact.setdefault(f"traced {name}", value)
        sets.append(results)
        sys.stdout.flush()
    if args.repeat > 1:
        failed += compare(sets, contract)
    return 0 if failed == 0 else 1
