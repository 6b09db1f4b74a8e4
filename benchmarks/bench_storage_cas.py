"""E-storage — the XML archive vs. the content-addressed object store.

A 200-version near-duplicate history (the workload the paper's storage
sections argue about: consecutive versions share almost everything) is
persisted through both backends:

* **xml** — the monolithic pretty-printed archive ``load_store`` must
  re-parse in full on every cold open;
* **cas** — binary per-document streams in append-only segments, zlib
  for large objects, mark-and-sweep GC (``src/repro/storage/cas.py``).

Measured: stored bytes on disk and cold-open wall time, plus the dedup /
compression counters that explain the gap.  Acceptance (ISSUE 7): >=3x
fewer bytes, >=2x faster cold open, and both backends must reload stores
whose re-serialized archives are **byte-identical** — asserted here, so
the compression can never quietly trade correctness for space.
"""

import time
from pathlib import Path

from harness import Table
from repro import TemporalXMLDatabase
from repro.storage import TemporalDocumentStore
from repro.storage.cas import (
    CASObjectStore,
    collect_garbage,
    read_checkpoint,
    storage_size,
    write_checkpoint,
)
from repro.storage.persistence import (
    archive_bytes,
    build_archive,
    dump_store,
    load_store,
)
from repro.workload import TDocGenerator

VERSIONS = 200
SNAPSHOT_INTERVAL = 8
OPEN_REPEATS = 3


def _build_history():
    generator = TDocGenerator(seed=41, depth=3, fanout=(2, 3))
    db = TemporalXMLDatabase(snapshot_interval=SNAPSHOT_INTERVAL)
    db.put("history.xml", generator.document("history.xml"))
    for _ in range(VERSIONS - 1):
        db.update("history.xml", generator.evolve("history.xml"))
    return db.store


def _target_store():
    return TemporalDocumentStore(snapshot_interval=SNAPSHOT_INTERVAL)


def _time_cold_open(opener):
    best = float("inf")
    for _ in range(OPEN_REPEATS):
        start = time.perf_counter()
        store = opener()
        best = min(best, time.perf_counter() - start)
    return best, store


def test_storage_backends(tmp_path, benchmark, emit, storage_report):
    store = _build_history()
    fingerprint = archive_bytes(build_archive(store))

    # -- xml: one archive file -------------------------------------------------
    xml_path = tmp_path / "archive.xml"
    dump_store(store, xml_path)
    xml_bytes = xml_path.stat().st_size
    xml_seconds, xml_loaded = _time_cold_open(
        lambda: load_store(xml_path, store=_target_store())
    )

    # -- cas: object store, checkpointed twice + GC ----------------------------
    cas_dir = tmp_path / "cas"
    objstore = CASObjectStore(cas_dir)
    write_checkpoint(store, cas_dir, objstore=objstore)
    # A second (rotated) checkpoint of the unchanged store writes nothing
    # but its root, which dedups, and GC keeps the directory bounded — the
    # steady state a live Checkpointer sees.
    write_checkpoint(store, cas_dir, objstore=objstore, rotate=True)
    gc_report = collect_garbage(cas_dir, objstore=objstore)
    cas_bytes = storage_size(cas_dir)
    cas_seconds, cas_loaded = _time_cold_open(
        lambda: read_checkpoint(cas_dir, store=_target_store())
    )

    # Both backends reproduce the store byte-for-byte.
    assert archive_bytes(build_archive(xml_loaded)) == fingerprint
    assert archive_bytes(build_archive(cas_loaded)) == fingerprint

    bytes_ratio = xml_bytes / cas_bytes
    open_speedup = xml_seconds / cas_seconds
    stats = objstore.stats

    table = Table(
        f"E-storage: {VERSIONS}-version near-duplicate history "
        f"(snapshot every {SNAPSHOT_INTERVAL})",
        ["backend", "stored bytes", "vs xml", "cold open (s)", "speedup"],
    )
    table.add("xml", xml_bytes, "1.00x", round(xml_seconds, 4), "1.00x")
    table.add(
        "cas", cas_bytes, f"{1 / bytes_ratio:.2f}x",
        round(cas_seconds, 4), f"{open_speedup:.2f}x",
    )
    table.note(
        f"cas: {stats.objects_written} objects written, "
        f"{stats.objects_deduped} deduped, "
        f"{stats.compressed_objects} compressed, "
        f"dedup ratio {stats.dedup_ratio}x; "
        f"gc reclaimed {gc_report.objects_deleted} object(s)"
    )
    emit(table)

    record = {
        "benchmark": "storage_backends",
        "versions": VERSIONS,
        "snapshot_interval": SNAPSHOT_INTERVAL,
        "xml_bytes": xml_bytes,
        "cas_bytes": cas_bytes,
        "bytes_ratio": round(bytes_ratio, 2),
        "xml_cold_open_seconds": round(xml_seconds, 6),
        "cas_cold_open_seconds": round(cas_seconds, 6),
        "cold_open_speedup": round(open_speedup, 2),
        "byte_identical": True,  # asserted above
        "cas": stats.as_dict(),
        "gc": gc_report.as_dict(),
    }
    storage_report(record)

    # Acceptance: >=3x fewer bytes, >=2x faster cold open.
    assert bytes_ratio >= 3.0, f"only {bytes_ratio:.2f}x byte reduction"
    assert open_speedup >= 2.0, f"only {open_speedup:.2f}x open speedup"

    # pytest-benchmark series: the CAS cold open.
    benchmark(lambda: read_checkpoint(cas_dir, store=_target_store()))
