"""Parent against change, run in interleaved pairs and summarised.

``python -m benchmarks.pairs --base <rev> [--seed N] [--workload W ...]
[--pairs 10] [--trace] [--smoke] [--json PATH]`` checks ``<rev>`` out as a
detached ``git worktree`` under a temporary directory (the *base*) and
takes the working tree as the *change*.  Each pair runs
``python -m benchmarks.e2e --workload W --seed N`` once per side, one
after the other, each in its own process started in that side's checkout;
the side that goes first alternates from pair to pair, and within a pair
every workload runs before the next pair starts.

For every metric a run prints, the report gives each side's median and
quartiles, the number of pairs the change won (ties count for neither
side), and whether the medians differ by more than the base's own
interquartile range.  A metric is *moved* only when both hold, the rule a
claimed gain must meet: the change wins (or loses) at least nine tenths
of the pairs and the medians are beyond the base's spread.  For the
metrics ``BENCHMARK.json`` gates, the report also says whether the
change's median is worse than the base's by more than the bound.  Every
``exact`` line is compared across all runs of a workload, both sides; a
difference is printed before anything else and makes the exit status 1,
as does a run that fails.

Markdown goes to stdout, the same summary plus every run's values as JSON
to ``--json`` (default ``benchmarks/out/pairs.json``).  Run it from the
repository root.  Temporary files go where ``tempfile`` puts them
(``TMPDIR``).  Nothing from ``src/repro`` is imported: the two sides may
not share a line of the engine.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("ingest_warehouse", "reopen_crash", "query_mix", "serve_mixed")
#: Share of pairs one side must win for a metric to count as moved.
CLAIM_SHARE = 0.9


def parse_run(text):
    """``{"metrics": {name: (value, unit)}, "exact": {name: text},
    "attempted": n, "failed": n, "failures": [...]}`` from the report one
    ``python -m benchmarks.e2e --workload W`` prints."""
    run = {"metrics": {}, "exact": {}, "attempted": None, "failed": None,
           "failures": []}
    for line in text.splitlines():
        if line.startswith("== "):
            counts = line.rsplit(": ", 1)[1].split()
            run["attempted"], run["failed"] = int(counts[0]), int(counts[2])
        elif line.startswith("exact "):
            name, _, value = line[len("exact "):].partition(" ")
            run["exact"][name] = value.strip()
        elif line.startswith("FAILED "):
            run["failures"].append(line[len("FAILED "):])
        elif line and not line.startswith("{"):
            fields = line.split()
            if len(fields) >= 3:
                try:
                    run["metrics"][fields[0]] = (float(fields[1]), fields[2])
                except ValueError:
                    pass
    return run


def quartiles(values):
    """``(q1, median, q3)``; the quartiles are inclusive, so one value is
    its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarise(base_runs, change_runs, contract):
    """One row per metric of the paired runs of one workload (``base_runs[i]``
    and ``change_runs[i]`` are pair ``i``)."""
    better = {m["name"]: m["better"]
              for m in contract["end_to_end"] + contract["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    units = {name: unit for run in base_runs + change_runs
             for name, (_value, unit) in run["metrics"].items()}
    rows = []
    for name, unit in units.items():
        pairs = [(b["metrics"][name][0], c["metrics"][name][0])
                 for b, c in zip(base_runs, change_runs)
                 if name in b["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        base = quartiles([b for b, _ in pairs])
        change = quartiles([c for _, c in pairs])
        sign = -1 if better.get(name, "lower") == "lower" else 1
        wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
        losses = sum(1 for b, c in pairs if sign * (c - b) < 0)
        beyond = abs(change[1] - base[1]) > base[2] - base[0]
        verdict = ""
        if beyond and wins >= CLAIM_SHARE * len(pairs):
            verdict = "better"
        elif beyond and losses >= CLAIM_SHARE * len(pairs):
            verdict = "worse"
        row = {
            "metric": name, "unit": unit,
            "better": better.get(name), "pairs": len(pairs),
            "base": base, "change": change, "wins": wins,
            "beyond_iqr": beyond, "moved": verdict,
        }
        if name in bounds:
            worse = sign * (base[1] - change[1]) / base[1] if base[1] else 0.0
            row["beyond_bound"] = worse > bounds[name]
        rows.append(row)
    return rows


def exact_differences(runs_by_side):
    """``[(name, {value: [side/pair, ...]})]`` for every ``exact`` line
    that is not the same in all runs of one workload."""
    seen = {}
    for side, runs in runs_by_side.items():
        for i, run in enumerate(runs):
            for name, value in run["exact"].items():
                seen.setdefault(name, {}).setdefault(value, []).append(
                    f"{side}#{i + 1}")
    return [(name, values) for name, values in seen.items() if len(values) > 1]


def _fmt(value):
    return f"{value:.4g}" if abs(value) < 1e4 else f"{value:.0f}"


def markdown(report):
    lines = []
    for workload, section in report["workloads"].items():
        for name, values in section["exact_differences"]:
            lines.append(f"**exact line differs** — {workload} `{name}`: "
                         + "; ".join(f"`{v}` in {', '.join(where)}"
                                     for v, where in values.items()))
    for workload, section in report["workloads"].items():
        lines.append("")
        lines.append(f"### {workload} (seed {report['seed']}, "
                     f"{'traced' if report['trace'] else 'untraced'}, "
                     f"{section['pairs']} pairs; base `{report['base']}`)")
        lines.append("")
        lines.append(f"failed operations: base {section['failed']['base']}, "
                     f"change {section['failed']['change']}; runs that exited "
                     f"non-zero: {section['bad_runs']}; exact lines "
                     f"{'all equal' if not section['exact_differences'] else 'DIFFER'}"
                     f" ({section['exact_count']})")
        lines.append("")
        lines.append("| metric | base median [q1–q3] | change median [q1–q3] "
                     "| Δ median | change wins | beyond base IQR | moved |")
        lines.append("|---|---|---|---|---|---|---|")
        for row in section["rows"]:
            b, c = row["base"], row["change"]
            delta = f"{(c[1] - b[1]) / b[1]:+.1%}" if b[1] else "—"
            moved = row["moved"]
            if row.get("beyond_bound"):
                moved = (moved + " " if moved else "") + "**beyond bound**"
            lines.append(
                f"| `{row['metric']}` ({row['unit']}) "
                f"| {_fmt(b[1])} [{_fmt(b[0])}–{_fmt(b[2])}] "
                f"| {_fmt(c[1])} [{_fmt(c[0])}–{_fmt(c[2])}] "
                f"| {delta} | {row['wins']}/{row['pairs']} "
                f"| {'yes' if row['beyond_iqr'] else 'no'} | {moved} |")
    return "\n".join(lines)


def run_side(checkout, workload, seed, trace, smoke):
    """One e2e run in its own process, parsed, with its exit status."""
    command = [sys.executable, "-m", "benchmarks.e2e", "--workload", workload,
               "--seed", str(seed), "--trace", "1" if trace else "0"]
    if smoke:
        command.append("--smoke")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(command, cwd=checkout, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    run = parse_run(done.stdout)
    run["status"] = done.returncode
    if done.returncode:
        run["failures"].append(f"exit status {done.returncode}: "
                               + done.stderr.strip()[-500:])
    return run


def measure(base_dir, change_dir, args):
    """Every run, ``{workload: {"base": [...], "change": [...]}}``; one
    progress line per run on stderr."""
    checkouts = {"base": base_dir, "change": change_dir}
    runs = {w: {"base": [], "change": []} for w in args.workload}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for workload in args.workload:
            for side in order:
                run = run_side(checkouts[side], workload, args.seed,
                               args.trace, args.smoke)
                runs[workload][side].append(run)
                print(f"pair {i + 1}/{args.pairs} {workload} {side}: "
                      f"{run['failed']} failed", file=sys.stderr, flush=True)
    return runs


def build_report(runs, args, contract):
    report = {"base": args.base, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "workloads": {}}
    for workload, sides in runs.items():
        report["workloads"][workload] = {
            "pairs": len(sides["base"]),
            # Operations that failed; a run that crashed counts as one.
            "failed": {side: sum(r["failed"] if r["failed"] is not None
                                 else 1 for r in rs)
                       for side, rs in sides.items()},
            "bad_runs": sum(1 for rs in sides.values() for r in rs
                            if r["status"]),
            "exact_count": len(sides["base"][0]["exact"]),
            "exact_differences": exact_differences(sides),
            "rows": summarise(sides["base"], sides["change"], contract),
            "runs": sides,
        }
    return report


def build_parser():
    parser = argparse.ArgumentParser(prog="python -m benchmarks.pairs")
    parser.add_argument("--base", required=True,
                        help="revision the working tree is compared with")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", action="store_true",
                        help="traced runs: per-layer metrics as well")
    parser.add_argument("--smoke", action="store_true",
                        help="the e2e smoke sizes; checks the harness only")
    parser.add_argument("--json", default=os.path.join(ROOT, "benchmarks",
                                                       "out", "pairs.json"))
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.pairs < 1:
        sys.exit("benchmarks.pairs: --pairs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    scratch = tempfile.mkdtemp(prefix="pairs-")
    base_dir = os.path.join(scratch, "base")
    subprocess.run(["git", "worktree", "add", "--detach", "--quiet", base_dir,
                    args.base], cwd=ROOT, check=True)
    try:
        runs = measure(base_dir, ROOT, args)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", base_dir],
                       cwd=ROOT, check=False)
        shutil.rmtree(scratch, ignore_errors=True)
    report = build_report(runs, args, contract)
    print(markdown(report))
    os.makedirs(os.path.dirname(os.path.abspath(args.json)), exist_ok=True)
    with open(args.json, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    bad = any(section["exact_differences"] or section["bad_runs"]
              or any(section["failed"].values())
              for section in report["workloads"].values())
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
