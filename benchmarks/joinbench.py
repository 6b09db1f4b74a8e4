"""Shared harness for the join-engine comparisons (E1b, E2b).

Runs the same posting lists through the reference :func:`nested_loop_join`
and the engine's :func:`structural_join`, asserts the match sets are
identical, and packages the :class:`JoinStats` counters for the table
printer.  Counters only: fewer probes is not a wall-clock claim (on lists
this short the hash join measured slower in three of the four runs the
deleted ``BENCH_joins.json`` recorded).
"""

from __future__ import annotations

from ablation.joins import nested_loop_join
from harness import Table
from repro.index.stats import JoinStats
from repro.pattern import structural_join


def _keys(matches):
    return {(m.doc_id, m.xids(), m.interval) for m in matches}


def compare_engines(pattern, posting_lists):
    """Both engines over ``posting_lists``; returns the counter record."""
    nested_stats = JoinStats()
    nested = nested_loop_join(pattern, posting_lists, stats=nested_stats)

    hash_stats = JoinStats()
    streamed = list(structural_join(pattern, posting_lists,
                                    stats=hash_stats))

    # The overhaul's contract: identical match sets, always.
    assert _keys(streamed) == _keys(nested)

    probed_ratio = (
        nested_stats.candidates_probed / hash_stats.candidates_probed
        if hash_stats.candidates_probed
        else float("inf")
    )
    return {
        "matches": len(streamed),
        "nested_probed": nested_stats.candidates_probed,
        "hash_probed": hash_stats.candidates_probed,
        "hash_pruned": hash_stats.intervals_pruned,
        "probe_ratio": round(probed_ratio, 2),
    }


def engine_table(title, record):
    """A paper-style table for one :func:`compare_engines` record."""
    table = Table(
        f"{title} (counters)",
        ["engine", "matches", "candidates_probed", "intervals_pruned"],
    )
    table.add("nested loop (reference)", record["matches"],
              record["nested_probed"], "-")
    table.add("hash join (selectivity order)", record["matches"],
              record["hash_probed"], record["hash_pruned"])
    table.note(
        f"{record['probe_ratio']}x fewer candidate postings probed; "
        "identical match sets (asserted)"
    )
    return table
