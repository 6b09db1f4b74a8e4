"""Where the engine's resident memory goes, component by component.

``python -m benchmarks.memprobe [--seed N] [--smoke] [--sites]`` builds the corpus of
the wall-clock benchmark (``benchmarks.e2e.corpus``), ingests it the way
the ``ingest_warehouse`` workload does — commit groups, periodic
checkpoints, a crash copy taken while the corpus's last groups are only
in the journal — and then reopens that crash copy in this process.  It
prints:

* resident bytes per component at the end of ingest — the full-text
  index, the lifetime index, the current trees, the stored deltas and
  the snapshots — each a deep-size walk (:func:`deep_size`) from the
  component's roots — with the full-text index split into its parts
  (:func:`part_sizes` over ``TemporalFullTextIndex.memory_parts``: row
  columns, open-row arrays, per-document open arrays, intern table) and
  its bytes per posting both as that deep size and as what tracemalloc
  sees a fresh index hold after replaying the same history;
* the tracemalloc peak inside ingest — the corpus is built before tracing
  starts, so what it counts is the engine's — and the cycle collector's
  passes during it, by generation;
* for the reopen, the tracemalloc peak inside ``open()``, the bytes it
  allocated that a full collection afterwards does not free, and the
  cycle collector's passes during it, by generation;
* with ``--sites``, those held bytes attributed to the innermost
  ``src/repro`` line on each allocation's stack (tracemalloc, 32 frames
  deep), largest first.

``deep_size`` is a lower bound, not what freeing a component gives back.
``sys.getsizeof`` of an instance without ``__slots__`` leaves out its
attribute dict's share that Python 3.11 keeps inline, and the allocator
rounds every block up.  Before stored deltas were packed, the walk read
6.99 MB for them at the end of a seed-1 ingest, where tracemalloc saw
7.59 MB freed by dropping them.  ``--sites`` measures with tracemalloc.

Only ``benchmarks.e2e``'s corpus, sizes and engine configuration are
imported; nothing there is changed.  The work directory is a temporary
one.  ``--smoke`` runs the e2e smoke sizes so CI can keep the script
alive; its numbers are not comparable with a full run's.
"""

from __future__ import annotations

import argparse
import gc
import os
import shutil
import sys
import tempfile
import tracemalloc
import types
from collections import Counter

from benchmarks.e2e import SRC

#: Objects shared by everything (classes, modules, code) are not part of
#: any one component, so the walk does not follow or count them.
_SHARED = (
    type,
    types.ModuleType,
    types.FunctionType,
    types.BuiltinFunctionType,
    types.CodeType,
)


def deep_size(*roots):
    """Bytes of every object reachable from ``roots``, each counted once.

    Follows ``gc.get_referents`` (every reference a container reports,
    ints and strings included) and sums ``sys.getsizeof``.  Objects
    reachable from two components are counted in both, so per-component
    figures may add up to more than the process holds.
    """
    return _walk(list(roots), set())


def part_sizes(parts):
    """``{part: bytes}`` of ``parts`` (``{name: root}``), walked in order
    with one shared set of objects seen, so an object reachable from two
    parts counts in the first only and the parts add up to their union."""
    seen = set()
    return {name: _walk([root], seen) for name, root in parts.items()}


def _walk(stack, seen):
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _SHARED):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


def fti_held_bytes(store):
    """Bytes a fresh full-text index holds after replaying ``store``'s
    whole history into it, measured by tracemalloc after a full
    collection (the replay's rolled trees are gone by then)."""
    from repro.index import TemporalFullTextIndex
    from repro.storage.persistence import replay_history

    fti = TemporalFullTextIndex()
    _result, _peak, held, _passes, _snapshot = traced(
        lambda: replay_history(store, [fti])
    )
    return held


def components(db):
    """``{component: resident bytes}`` of an open database."""
    records = db.store.repository.records()
    return {
        "fti": deep_size(db.fti),
        "fti_parts": part_sizes(db.fti.memory_parts()),
        "fti_traced": fti_held_bytes(db.store),
        "lifetime": deep_size(db.lifetime),
        "current_trees": deep_size([r.current_root for r in records]),
        "deltas": deep_size([r.deltas for r in records]),
        "snapshots": deep_size([r.snapshots for r in records]),
    }


def ingest(directory, crash_copy, corpus, sizes):
    """Commit ``corpus`` as the ``ingest_warehouse`` workload does; copy
    the directory to ``crash_copy`` once the base corpus is acknowledged.
    Returns the still-open database."""
    from benchmarks.e2e.engine import make_db
    from repro.workload import BatchingWriter

    db = make_db(directory)
    writer = BatchingWriter(db, batch_size=sizes.batch_size)
    seen = set()

    def commit_all(commits):
        for c in commits:
            groups = writer.groups
            if c.name in seen:
                writer.update(c.name, c.xml, ts=c.ts)
            else:
                writer.put(c.name, c.xml, ts=c.ts)
                seen.add(c.name)
            if (writer.groups != groups
                    and writer.groups % sizes.checkpoint_every == 0):
                db.checkpoint()
        writer.flush()

    commit_all(corpus.base)
    shutil.copytree(directory, crash_copy)
    commit_all(corpus.extension)
    db.checkpoint()
    return db


def traced(call, frames=1):
    """``(result, peak, held, passes, snapshot)`` of ``call()``: the
    tracemalloc peak during the call, the bytes it allocated that survive
    a full collection afterwards, the cycle collector's passes during the
    call as ``[generation 0, 1, 2]``, and a tracemalloc snapshot of what
    is held, ``frames`` deep."""
    passes = [0, 0, 0]

    def count(phase, info):
        if phase == "start":
            passes[info["generation"]] += 1

    gc.collect()
    tracemalloc.start(frames)
    try:
        gc.callbacks.append(count)
        try:
            result = call()
        finally:
            gc.callbacks.remove(count)
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    return result, peak, held, passes, snapshot


def held_sites(snapshot, top=15):
    """``[(site, bytes)]``: the bytes in ``snapshot`` by the innermost
    frame under ``src/repro`` of the stack that allocated them, largest
    first (stacks with no such frame under ``"(outside repro)"``)."""
    package = os.path.join(SRC, "repro") + os.sep
    sites = Counter()
    for trace in snapshot.traces:
        site = "(outside repro)"
        for frame in reversed(trace.traceback):  # innermost first
            if frame.filename.startswith(package):
                name = os.path.relpath(frame.filename, SRC)
                site = f"{name}:{frame.lineno}"
                break
        sites[site] += trace.size
    return sites.most_common(top)


def run(seed, smoke, sites=False):
    """Measure one seed; returns the report as a dict."""
    from benchmarks.e2e.corpus import build_corpus
    from benchmarks.e2e.engine import make_db
    from benchmarks.e2e.workloads import sizes_for

    sizes = sizes_for("ingest_warehouse", 3, smoke)
    corpus = build_corpus(seed, sizes)  # before tracing: not the engine's
    with tempfile.TemporaryDirectory(prefix="memprobe-") as work:
        live = os.path.join(work, "live")
        crashed = os.path.join(work, "crashed")
        db, peak, _held, passes, _snapshot = traced(
            lambda: ingest(live, crashed, corpus, sizes)
        )
        try:
            report = {
                "seed": seed,
                "commits": len(corpus.base) + len(corpus.extension),
                "postings": db.fti.posting_count(),
                "lifetime_entries": len(db.lifetime),
                "ingest_peak_bytes": peak,
                "ingest_collections": passes,
                "ingest": components(db),
            }
        finally:
            db.close()
        del db
        reopened, peak, held, passes, snapshot = traced(
            lambda: make_db(crashed), frames=32 if sites else 1
        )
        try:
            report["open"] = {
                "peak_bytes": peak,
                "held_bytes": held,
                "collections": passes,
                "postings": reopened.fti.posting_count(),
                **components(reopened),
            }
            if sites:
                report["open"]["sites"] = held_sites(snapshot)
        finally:
            reopened.close()
    return report


def _mb(value):
    return f"{value / 1e6:7.2f} MB"


def _print_components(measured, out):
    for name in ("fti", "lifetime", "current_trees", "deltas", "snapshots"):
        print(f"  {name:<14} {_mb(measured[name])}", file=out)
        if name == "fti":
            for part, value in measured["fti_parts"].items():
                print(f"    {part:<18} {_mb(value)}", file=out)


def _by_generation(passes):
    return "/".join(map(str, passes)) + " (generation 0/1/2)"


def print_report(report, out=sys.stdout):
    print(f"seed {report['seed']}: {report['commits']} commits, "
          f"{report['postings']} postings, "
          f"{report['lifetime_entries']} lifetime entries", file=out)
    print(f"ingest (corpus built before tracing): tracemalloc peak "
          f"{_mb(report['ingest_peak_bytes'])}, collector passes "
          f"{_by_generation(report['ingest_collections'])}", file=out)
    ingest = report["ingest"]
    print("end of ingest (deep size):", file=out)
    _print_components(ingest, out)
    postings = max(1, report["postings"])
    print(f"  fti bytes/posting       {ingest['fti'] / postings:8.1f} "
          f"(deep size), {ingest['fti_traced'] / postings:8.1f} "
          f"(tracemalloc, replayed into a fresh index)", file=out)
    print(f"  lifetime bytes/entry    "
          f"{ingest['lifetime'] / max(1, report['lifetime_entries']):8.1f}",
          file=out)
    opened = report["open"]
    print("open() of the crash copy:", file=out)
    print(f"  tracemalloc peak {_mb(opened['peak_bytes'])}, "
          f"held after it {_mb(opened['held_bytes'])}, "
          f"collector passes {_by_generation(opened['collections'])}",
          file=out)
    _print_components(opened, out)
    postings = max(1, opened["postings"])
    print(f"  fti bytes/posting       {opened['fti'] / postings:8.1f} "
          f"(deep size), {opened['fti_traced'] / postings:8.1f} "
          f"(tracemalloc, replayed into a fresh index)", file=out)
    if "sites" in opened:
        print("held after open(), by innermost repro line (tracemalloc):",
              file=out)
        for site, size in opened["sites"]:
            print(f"  {_mb(size)}  {site}", file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m benchmarks.memprobe")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true",
                        help="the e2e smoke sizes; not comparable")
    parser.add_argument("--sites", action="store_true",
                        help="attribute what open() holds to repro lines")
    args = parser.parse_args(argv)
    print_report(run(args.seed, args.smoke, args.sites))
    return 0


if __name__ == "__main__":
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    sys.exit(main())
