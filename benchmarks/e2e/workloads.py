"""The four workloads and their sizes.

The benchmark contract has every run report every end-to-end metric, so a
run is always the whole lifecycle (ingest -> crash copy -> reopen ->
in-process queries -> served mix) at ``BASE`` size, where every metric
already has the sample its percentile needs.  The workload named on the
command line is a traffic mix: its own phase does ``--seconds`` more
seconds of work on top (``PER_SECOND``).  Counts are a function of
``--seconds`` alone, never of how fast the machine is, so one seed always
means the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

WORKLOADS = {
    "ingest_warehouse": (
        "write path: parse, diff, index maintenance, journal+fsync and "
        "checkpoint/CAS do the work; a read-path change must leave it flat"
    ),
    "reopen_crash": (
        "recovery: checkpoint load, journal scan and replay through the "
        "indexes, never diff.diff; a differ speed-up must not move reopen_s"
    ),
    "query_mix": (
        "read path in-process: parser/optimizer/planner, FTI lookup, "
        "structural join, reconstruct, executor; diff and journal are idle"
    ),
    "serve_mixed": (
        "the same read and write layers over TCP with a live writer beside "
        "a reader, so lock or commit-time cost shows as tail latency"
    ),
}

#: The timed-region label of each workload's own phase.
OWN_PHASE = {
    "ingest_warehouse": "ingest",
    "reopen_crash": "reopen",
    "query_mix": "query",
    "serve_mixed": "serve",
}


#: Reopen, in-process queries and the served mix take turns, a third of
#: each per round.  The host slows down for seconds at a time; this way
#: such a stretch falls on a part of every metric's sample and never on
#: the whole of one.
ROUNDS = 3


@dataclass(frozen=True)
class Sizes:
    # The corpus every phase works on: restaurant guides of ~50 live
    # restaurants and ~220-element warehouse documents; 184 commits.
    guides: int = 4
    guide_versions: int = 34
    tdocs: int = 16
    tdoc_versions: int = 3
    # Commit groups of 16, a checkpoint after every 3rd: three checkpoints
    # inside the corpus, its last 40 commits (22 %) in the journal only
    # when the crash copy is taken.  The issue's 64 / every 5th, scaled
    # with the corpus.
    batch_size: int = 16
    checkpoint_every: int = 3
    # `ingest_warehouse` goes on with a wider warehouse after the copy.
    extension_docs: int = 16
    extension_versions: int = 0
    reopens: int = ROUNDS
    snapshot_queries: int = 240
    history_queries: int = 120
    keyword_queries: int = 3000
    served_reads_a: int = 300  # the stream A cycles through while B runs
    served_reads_b: int = 90
    served_updates: int = 60  # two commits in every five of B's requests
    setups: int = 2 + ROUNDS  # two up front, one after every round


BASE = Sizes()

#: What one more measured second adds to a workload's own phase, from
#: this commit's rates on the 2-core sandbox when it is quiet (warehouse
#: ingest with its checkpoints ~50 versions/s, one reopen ~0.9 s, the
#: query classes ~4 / ~28 / ~0.15 ms mean, B's served mix ~45 requests/s).
PER_SECOND = {
    "ingest_warehouse": {"extension_versions": 3},
    "reopen_crash": {"reopens": 1},
    "query_mix": {"snapshot_queries": 40, "history_queries": 20,
                  "keyword_queries": 500},
    "serve_mixed": {"served_reads_b": 27, "served_updates": 18},
}


def sizes_for(workload, seconds, smoke=False):
    sizes = replace(BASE, **{
        key: getattr(BASE, key) + round(rate * seconds)
        for key, rate in PER_SECOND[workload].items()
    })
    if not smoke:
        return sizes
    # ~1/10 of every count; never compared with full-size numbers.
    return replace(
        sizes,
        guides=2, guide_versions=12, tdocs=4, tdoc_versions=3,
        extension_docs=4, extension_versions=-(-sizes.extension_versions // 10),
        batch_size=8, checkpoint_every=2, reopens=ROUNDS,
        snapshot_queries=sizes.snapshot_queries // 10,
        history_queries=sizes.history_queries // 10,
        keyword_queries=sizes.keyword_queries // 10,
        served_reads_a=sizes.served_reads_a // 10,
        served_reads_b=sizes.served_reads_b // 10,
        served_updates=sizes.served_updates // 10,
        setups=1 + ROUNDS,
    )
