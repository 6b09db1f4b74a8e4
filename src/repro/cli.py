"""Command-line interface: a temporal XML database in a file.

The XML archive of :mod:`repro.storage.persistence` (the export/import
file) makes the library usable as a tiny temporal document database from
the shell::

    python -m repro demo
    python -m repro put     -a db.xml guide.com guide_v1.xml --ts 01/01/2001
    python -m repro update  -a db.xml guide.com guide_v2.xml --ts 15/01/2001
    python -m repro query   -a db.xml 'SELECT R FROM doc("guide.com")[EVERY]/restaurant R'
    python -m repro explain -a db.xml 'SELECT ...'
    python -m repro history -a db.xml guide.com
    python -m repro stats   -a db.xml --exercise guide.com
    python -m repro delete  -a db.xml guide.com --ts 05/02/2001

Mutating commands load the archive, apply the commit, and save it back;
``put`` creates the archive when it does not exist yet.  ``-a`` names an
XML archive only: a durable database directory is read (checkpoint and
journal) by the commands that take ``-d`` (``stats``, ``serve``,
``recover``, ``replica``), and ``-a DIR`` is an error.  They refuse a
directory an older release wrote; ``upgrade -d DIR`` converts it once.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .clock import format_timestamp, parse_date
from .db import TemporalXMLDatabase
from .errors import TemporalXMLError

#: ``-a``'s help: an archive, never a database directory.
ARCHIVE_HELP = (
    "XML archive file (a database directory is read with -d, by stats, "
    "serve, recover and replica)"
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Temporal XML database (Nørvåg, EDBT 2002 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run the paper's Figure 1 walkthrough")
    demo.set_defaults(handler=_cmd_demo)

    def with_archive(cmd, help_text):
        p = sub.add_parser(cmd, help=help_text)
        p.add_argument("-a", "--archive", required=True, help=ARCHIVE_HELP)
        return p

    query = with_archive("query", "run a TXQL query")
    query.add_argument("text", help="the TXQL query")
    query.add_argument("--xml", action="store_true",
                       help="print the <results> envelope instead of a table")
    query.set_defaults(handler=_cmd_query)

    explain = with_archive(
        "explain",
        "show the chosen plan for a TXQL query, with cost estimates and "
        "the rejected alternatives",
    )
    explain.add_argument("text", help="the TXQL query")
    explain.add_argument("--json", action="store_true",
                         help="print the plan as JSON instead of text")
    explain.set_defaults(handler=_cmd_explain)

    trace = with_archive(
        "trace",
        "EXPLAIN ANALYZE a TXQL query: run it under the tracer and print "
        "the per-operator cost tree",
    )
    trace.add_argument("text", help="the TXQL query")
    trace.add_argument("--json", action="store_true",
                       help="print the JSON trace instead of the tree")
    trace.add_argument("-o", "--out", metavar="FILE",
                       help="also write the JSON trace to FILE")
    trace.set_defaults(handler=_cmd_trace)

    put = with_archive("put", "create a document from an XML file")
    put.add_argument("name", help="document name")
    put.add_argument("file", help="XML source file")
    put.add_argument("--ts", help="commit time (dd/mm/yyyy)")
    put.set_defaults(handler=_cmd_put)

    update = with_archive("update", "commit a new version from an XML file")
    update.add_argument("name")
    update.add_argument("file")
    update.add_argument("--ts")
    update.set_defaults(handler=_cmd_update)

    delete = with_archive("delete", "logically delete a document")
    delete.add_argument("name")
    delete.add_argument("--ts")
    delete.set_defaults(handler=_cmd_delete)

    history = with_archive("history", "list a document's versions")
    history.add_argument("name")
    history.set_defaults(handler=_cmd_history)

    docs = with_archive("ls", "list documents in the archive")
    docs.set_defaults(handler=_cmd_ls)

    stats = sub.add_parser(
        "stats", help="print repository read, anchor, and storage counters",
        epilog="The version cache is gone, and with it the 'version cache:' "
               "block, 'reads.cache' in --json and the anchor[cache] line; "
               "so are delta_reads_saved / delta_bytes_saved (the gap to "
               "the paper's backward-only walk is measured by "
               "benchmarks/bench_reconstruct.py, which runs both).",
    )
    stats_source = stats.add_mutually_exclusive_group(required=True)
    stats_source.add_argument("-a", "--archive", help=ARCHIVE_HELP)
    stats_source.add_argument(
        "-d", "--dir",
        help="durable database directory (reports the storage backend's "
             "per-kind byte breakdown too)",
    )
    stats.add_argument(
        "--exercise",
        metavar="NAME",
        help="reconstruct every version of document NAME first, so the "
             "counters reflect a full history scan",
    )
    stats.add_argument("--json", action="store_true",
                       help="print all counters as JSON")
    stats.set_defaults(handler=_cmd_stats)

    recover = sub.add_parser(
        "recover",
        help="recover a durable database directory (checkpoint + journal)",
    )
    recover.add_argument(
        "-d", "--dir", required=True,
        help="database directory (CAS checkpoint + journal.bin)",
    )
    recover.add_argument(
        "--durability", default="journal",
        choices=["none", "journal", "fsync"],
        help="journal mode to reopen with after recovery",
    )
    recover.add_argument(
        "--no-checkpoint", action="store_true",
        help="report only: write no checkpoint and change no file",
    )
    recover.set_defaults(handler=_cmd_recover)

    serve = sub.add_parser(
        "serve",
        help="serve an archive or database directory over TCP "
             "(snapshot-isolated reader sessions, one serialized writer)",
    )
    source = serve.add_mutually_exclusive_group(required=True)
    source.add_argument("-a", "--archive", help=ARCHIVE_HELP)
    source.add_argument(
        "-d", "--dir",
        help="durable database directory (CAS checkpoint + journal.bin)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 picks a free one, printed on start)")
    serve.add_argument(
        "--durability", default="journal",
        choices=["none", "journal", "fsync"],
        help="journal mode when serving a directory",
    )
    serve.add_argument(
        "--storage", default=None, choices=["cas"],
        help="checkpoint format when serving a directory; CAS is the only "
             "one (an older release's directory is converted by upgrade)",
    )
    serve.add_argument(
        "--snapshot-interval", type=int, default=None, metavar="N",
        help="when serving a directory: materialize a full snapshot at "
             "every N-th version committed while serving (default: none)",
    )
    serve.add_argument(
        "--serve-for", type=float, metavar="SECONDS",
        help="stop after SECONDS (for scripted runs); default: until ^C",
    )
    serve.add_argument("--json", action="store_true",
                       help="print server stats as JSON on shutdown")
    serve.set_defaults(handler=_cmd_serve)

    replica = sub.add_parser(
        "replica",
        help="build a read replica by tailing a leader directory's "
             "commit journal",
    )
    replica.add_argument(
        "-d", "--dir", required=True,
        help="the LEADER's database directory (read-only access)",
    )
    replica.add_argument("--query", metavar="TXQL",
                         help="run one TXQL query against the replica")
    replica.add_argument("--xml", action="store_true",
                         help="print the <results> envelope for --query")
    replica.add_argument("--json", action="store_true",
                         help="print replication stats as JSON")
    replica.add_argument(
        "--follow", type=float, metavar="SECONDS",
        help="keep tailing the leader journal every SECONDS instead of "
             "one-shot catch-up (^C to stop)",
    )
    replica.add_argument(
        "--follow-for", type=float, metavar="SECONDS",
        help="with --follow: stop after SECONDS (for scripted runs)",
    )
    replica.set_defaults(handler=_cmd_replica)

    upgrade = sub.add_parser(
        "upgrade",
        help="convert a database directory an older release wrote to CAS "
             "root format 4 and journal v3, once (safe to rerun after a "
             "crash)",
    )
    upgrade.add_argument("-d", "--dir", required=True,
                         help="database directory")
    upgrade.set_defaults(handler=_cmd_upgrade)
    return parser


def main(argv=None, out=None):
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, out)
    except TemporalXMLError as exc:
        print(f"error: {exc}", file=out)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=out)
        return 1


# -- command handlers -----------------------------------------------------------


def _open(args, must_exist=True):
    if os.path.exists(args.archive):
        return TemporalXMLDatabase.load(args.archive)
    if must_exist:
        raise FileNotFoundError(f"archive {args.archive!r} does not exist")
    return TemporalXMLDatabase()


def _ts(args):
    return parse_date(args.ts) if getattr(args, "ts", None) else None


def _cmd_demo(args, out):
    from .workload import load_figure1

    db = TemporalXMLDatabase()
    load_figure1(db)
    print("Figure 1 loaded: guide.com on 01/01, 15/01, 31/01/2001\n", file=out)
    for title, text in (
        ("Q1: restaurants as of 26/01/2001",
         'SELECT R FROM doc("guide.com")[26/01/2001]/restaurant R'),
        ("Q2: how many restaurants then?",
         'SELECT SUM(R) FROM doc("guide.com")[26/01/2001]/restaurant R'),
        ("Q3: Napoli's price history",
         'SELECT TIME(R), R/price FROM doc("guide.com")[EVERY]/restaurant R'
         ' WHERE R/name="Napoli"'),
    ):
        print(f"== {title}", file=out)
        print(f"   {text}", file=out)
        print(db.query(text), file=out)
        print(file=out)
    return 0


def _cmd_query(args, out):
    db = _open(args)
    result = db.query(args.text)
    if args.xml and hasattr(result, "to_xml_string"):
        print(result.to_xml_string(), file=out)
    else:
        # EXPLAIN [ANALYZE] queries return reports, which render as text.
        print(result, file=out)
    return 0


def _cmd_explain(args, out):
    db = _open(args)
    if args.json:
        plan = {"query": args.text, "plan": db.engine.explain(args.text)}
        print(json.dumps(plan, indent=2, sort_keys=True), file=out)
    else:
        print(db.engine.explain_text(args.text), file=out)
    return 0


def _cmd_trace(args, out):
    db = _open(args)
    report = db.trace(args.text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report.to_json_string())
            handle.write("\n")
    if args.json:
        print(report.to_json_string(), file=out)
    else:
        print(report.render(), file=out)
    return 0


def _cmd_put(args, out):
    db = _open(args, must_exist=False)
    with open(args.file, "r", encoding="utf-8") as handle:
        source = handle.read()
    doc_id = db.put(args.name, source, ts=_ts(args))
    db.save(args.archive)
    print(f"created {args.name} (doc id {doc_id})", file=out)
    return 0


def _cmd_update(args, out):
    db = _open(args)
    with open(args.file, "r", encoding="utf-8") as handle:
        source = handle.read()
    number = db.update(args.name, source, ts=_ts(args))
    db.save(args.archive)
    print(f"committed version {number} of {args.name}", file=out)
    return 0


def _cmd_delete(args, out):
    db = _open(args)
    db.delete(args.name, ts=_ts(args))
    db.save(args.archive)
    print(f"deleted {args.name}", file=out)
    return 0


def _cmd_history(args, out):
    db = _open(args)
    dindex = db.store.delta_index(args.name)
    for entry in dindex.entries:
        flags = []
        if entry.has_snapshot:
            flags.append("snapshot")
        if entry.number == dindex.current_number and not dindex.is_deleted:
            flags.append("current")
        suffix = f"  ({', '.join(flags)})" if flags else ""
        print(
            f"v{entry.number}  {format_timestamp(entry.timestamp)}{suffix}",
            file=out,
        )
    if dindex.is_deleted:
        print(f"deleted at {format_timestamp(dindex.deleted_at)}", file=out)
    return 0


def _cmd_recover(args, out):
    # Reporting only: a journal-less open leaves every file as it is.
    durability = "none" if args.no_checkpoint else args.durability
    db = TemporalXMLDatabase.open(args.dir, durability=durability)
    report = db.recovery
    print(f"recovered {report.documents} document(s) from {args.dir}", file=out)
    print(f"checkpoint used: {report.checkpoint_source}", file=out)
    for error in report.checkpoint_errors:
        print(f"checkpoint skipped: {error}", file=out)
    print(
        f"journal records: {report.records_scanned} scanned, "
        f"{report.records_replayed} replayed, "
        f"{report.records_skipped} already checkpointed",
        file=out,
    )
    _print_journal_files(report, out)
    if report.torn_tail:
        done = "left in place" if args.no_checkpoint else "truncated"
        print(
            f"torn tail {done}: {report.records_truncated} region(s), "
            f"{report.truncated_bytes} byte(s) dropped",
            file=out,
        )
    if not args.no_checkpoint:
        path = db.checkpoint()
        print(f"fresh checkpoint written to {path}", file=out)
    db.close()
    return 0


def _print_journal_files(report, out):
    """One line per journal file recovery read: format and size."""
    for journal in report.journals:
        print(
            f"  {journal['file']}: format v{journal['version']}, "
            f"{journal['records']} record(s), {journal['bytes']} byte(s) "
            f"on disk, {journal['raw_bytes']} before deflate",
            file=out,
        )


def _cmd_serve(args, out):
    import json as json_module
    import threading

    from .serving import ServingServer, SessionManager

    if args.dir:
        db = TemporalXMLDatabase.open(
            args.dir, durability=args.durability, storage=args.storage,
            snapshot_interval=args.snapshot_interval,
        )
        source = args.dir
    else:
        db = _open(args)
        source = args.archive
    manager = SessionManager(db)
    server = ServingServer(manager, host=args.host, port=args.port)
    host, port = server.start()
    print(f"serving {source} on {host}:{port}", file=out, flush=True)
    try:
        if args.serve_for is not None:
            threading.Event().wait(args.serve_for)
        else:
            threading.Event().wait()  # until interrupted
    except KeyboardInterrupt:
        pass
    server.stop()
    db.close()
    if args.json:
        print(json_module.dumps(server.stats(), indent=2, sort_keys=True),
              file=out)
    else:
        stats = server.stats()
        print(
            f"served {stats['requests']} request(s) on "
            f"{stats['connections']} connection(s); "
            f"{stats['manager']['commits']} commit(s) published",
            file=out,
        )
    return 0


def _cmd_replica(args, out):
    import json as json_module

    from .serving import Replica

    replica = Replica(args.dir)
    replica.catch_up()
    if args.follow is not None:
        print(
            f"following {args.dir} every {args.follow}s (^C to stop)",
            file=out, flush=True,
        )
        try:
            replica.follow(args.follow, duration=args.follow_for)
        except KeyboardInterrupt:
            pass
    if args.query:
        result = replica.query(args.query)
        if args.xml and hasattr(result, "to_xml_string"):
            print(result.to_xml_string(), file=out)
        else:
            print(result, file=out)
    if args.json:
        print(
            json_module.dumps(replica.stats(), indent=2, sort_keys=True),
            file=out,
        )
    elif not args.query:
        stats = replica.stats()
        print(
            f"replica of {stats['directory']}: {stats['documents']} "
            f"document(s), published seq {stats['published_seq']}",
            file=out,
        )
    return 0


def _cmd_stats(args, out):
    import json as json_module

    if args.dir:
        db = TemporalXMLDatabase.open(args.dir, durability="none")
    else:
        db = _open(args)
    if args.exercise:
        dindex = db.store.delta_index(args.exercise)
        for _ in db.store.version_range(args.exercise, 1, len(dindex)):
            pass
    storage = db.storage_stats()
    if args.json:
        payload = {"reads": db.store.read_stats()}
        if args.dir:
            payload["storage"] = storage
            payload["durability"] = db.durability_stats()
        else:
            payload["storage"] = {
                "logical": storage["logical"],
                "indexes": storage["indexes"],
            }
        print(json_module.dumps(payload, indent=2, sort_keys=True), file=out)
        return 0
    stats = db.store.read_stats()
    print("storage reads:", file=out)
    for key, value in db.store.repository.counter_snapshot().items():
        print(f"  {key}: {value}", file=out)
    anchors = stats["anchors"]
    print("anchor choices:", file=out)
    print(
        f"  forward_chains: {anchors['forward_chains']}  "
        f"backward_chains: {anchors['backward_chains']}  "
        f"exact_anchors: {anchors['exact_anchors']}",
        file=out,
    )
    for kind, count in anchors["by_anchor"].items():
        print(f"  anchor[{kind}]: {count}", file=out)
    print(f"  range_scans: {anchors['range_scans']}", file=out)
    logical = storage["logical"]
    print("storage (logical bytes):", file=out)
    print(
        f"  current: {logical['current']}  deltas: {logical['deltas']}  "
        f"snapshots: {logical['snapshots']}  total: {logical['total']}",
        file=out,
    )
    ops = logical["delta_ops"]
    total = sum(ops.values())
    print(
        f"  delta ops: {total}"
        + "".join(
            f"  {kind}: {count} ({100 * count / total:.0f}%)"
            for kind, count in sorted(ops.items(), key=lambda kv: -kv[1])
        ),
        file=out,
    )
    held = storage["held"]
    print(
        f"  held in memory: {held['ops']} stored operations, "
        f"{held['payloads']} packed payloads of {held['payload_bytes']} bytes",
        file=out,
    )
    indexes = storage["indexes"]
    print(
        f"indexes: {indexes['postings']} postings "
        f"({indexes['open_postings']} open on {indexes['open_elements']} "
        f"elements), {indexes['interned']} interned contexts, "
        f"{indexes['lifetime_entries']} lifetime entries",
        file=out,
    )
    if args.dir:
        _print_backend_stats(storage["backend"], out)
        print("journal files:", file=out)
        _print_journal_files(db.recovery, out)
    return 0


def _print_backend_stats(backend, out):
    print("storage backend: cas", file=out)
    print(
        f"  objects: {backend['objects_written']} written, "
        f"{backend['objects_deduped']} deduped, "
        f"{backend['compressed_objects']} compressed",
        file=out,
    )
    print(
        f"  bytes: {backend['raw_bytes']} raw -> "
        f"{backend['stored_bytes']} stored "
        f"(dedup ratio {backend['dedup_ratio']}x), "
        f"{backend['disk_bytes']} on disk",
        file=out,
    )
    # What the published checkpoint holds on disk right now (the
    # lifetime counters above start at zero on every open).
    for kind, counters in backend["disk_by_kind"].items():
        print(_kind_line(f"kind[{kind}]", counters), file=out)
    for kind, counters in sorted(backend["by_kind"].items()):
        deduped = f", {counters.get('deduped')} deduped"
        print(_kind_line(f"session[{kind}]", counters, deduped), file=out)
    print(
        f"  gc: {backend['gc_runs']} run(s), "
        f"{backend['gc_deleted_objects']} object(s) / "
        f"{backend['gc_deleted_bytes']} byte(s) reclaimed",
        file=out,
    )


def _kind_line(label, counters, suffix=""):
    """One line of a per-kind breakdown: a stream kind's ranges, raw bytes
    only (its stored bytes are its packs'), or an object kind's raw and
    stored bytes."""
    raw = counters.get("raw_bytes", counters.get("raw"))
    if "ranges" in counters:
        return f"  {label}: {raw} raw in {counters['ranges']} range(s) of packs"
    stored = counters.get("stored_bytes", counters.get("stored"))
    return (f"  {label}: {raw} raw -> {stored} stored "
            f"({counters['objects']} object(s){suffix})")


def _cmd_upgrade(args, out):
    from .storage.legacy import upgrade

    if not os.path.isdir(args.dir):
        raise FileNotFoundError(f"directory {args.dir!r} does not exist")
    if upgrade(args.dir):
        print(f"upgraded {args.dir}: CAS root format 4, journal v3", file=out)
    else:
        print(f"{args.dir} holds nothing older; nothing written", file=out)
    return 0


def _cmd_ls(args, out):
    db = _open(args)
    for name in db.documents(include_deleted=True):
        dindex = db.store.delta_index(name)
        state = (
            f"deleted {format_timestamp(dindex.deleted_at)}"
            if dindex.is_deleted
            else "live"
        )
        print(f"{name}  {len(dindex)} versions  {state}", file=out)
    return 0
