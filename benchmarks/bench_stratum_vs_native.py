"""E8 — native temporal operators vs. the stratum middleware (Section 1).

The same TXQL queries run through (a) the native engine (temporal FTI +
TPatternScan + delta storage), (b) the native engine with intermediate
snapshots every 4 versions, and (c) the stratum processor (full-version
store + translation).  All return identical answers.

The shape the paper argues: the stratum is unbeatable at raw snapshot
materialization (that is what it stores!), but it pays full-version space,
reads documents even for index-answerable queries (Q2), and cannot express
identity/navigation/lifetime queries at all.  Snapshot materialization in
the native store is the delta chain's known weak spot, mitigated by
intermediate snapshots (benchmark E3 sweeps that knob).
"""

import pytest

from ablation.disk import attach
from ablation.stratum import (
    StratumQueryProcessor,
    StratumStore,
    UnsupportedInStratumError,
)
from harness import CostMeter, Table
from repro import TemporalXMLDatabase
from repro.clock import format_timestamp
from repro.workload import RestaurantGuideGenerator


def _build(versions):
    generator = RestaurantGuideGenerator(
        n_restaurants=8, seed=33, p_price_change=0.4, p_open=0.1, p_close=0.05
    )
    history = generator.versions(versions)
    native = TemporalXMLDatabase()
    native_snap = TemporalXMLDatabase(snapshot_interval=4)
    stratum_store = StratumStore()
    first_ts, first_tree = history[0]
    native.put("guide.com", first_tree.copy(), ts=first_ts)
    native_snap.put("guide.com", first_tree.copy(), ts=first_ts)
    stratum_store.put("guide.com", first_tree.copy(), ts=first_ts)
    for ts, tree in history[1:]:
        native.update("guide.com", tree.copy(), ts=ts)
        native_snap.update("guide.com", tree.copy(), ts=ts)
        stratum_store.update("guide.com", tree.copy(), ts=ts)
    return native, native_snap, stratum_store, history


QUERY_SHAPES = (
    ("snapshot (Q1)", 'SELECT R/name FROM doc("guide.com")[{mid}]/restaurant R'),
    ("count (Q2)", 'SELECT SUM(R) FROM doc("guide.com")[{mid}]/restaurant R'),
    ("history (Q3)",
     'SELECT TIME(R), R/price FROM doc("guide.com")[EVERY]/restaurant R '
     'WHERE R/name="{name}"'),
)


@pytest.mark.parametrize("versions", [4, 12, 24])
def test_native_vs_stratum(benchmark, emit, versions):
    native, native_snap, stratum_store, history = _build(versions)
    processor = StratumQueryProcessor(stratum_store)
    mid_ts = format_timestamp(history[len(history) // 2][0])
    name = history[0][1].find("restaurant").find("name").text

    table = Table(
        f"E8: pages read per query, {versions} versions",
        ["query", "rows", "native", "native+snap4", "stratum"],
    )
    meters = {
        "native": CostMeter(
            store=native.store, disk=attach(native.store).disk,
            indexes=[native.fti],
        ),
        "snap": CostMeter(
            store=native_snap.store, disk=attach(native_snap.store).disk,
            indexes=[native_snap.fti],
        ),
        "stratum": CostMeter(stratum=stratum_store),
    }

    q2_native_pages = None
    q3_text = None
    for label, template in QUERY_SHAPES:
        text = template.format(mid=mid_ts, name=name)
        if label.startswith("history"):
            q3_text = text
        with meters["native"].measure() as native_cost:
            native_rows = sorted(str(native.query(text)).splitlines())
        with meters["snap"].measure() as snap_cost:
            snap_rows = sorted(str(native_snap.query(text)).splitlines())
        with meters["stratum"].measure() as stratum_cost:
            stratum_rows = sorted(str(processor.execute(text)).splitlines())
        # Identical answers; plans are free to order rows differently.
        assert native_rows == stratum_rows == snap_rows, label
        if label.startswith("count"):
            q2_native_pages = native_cost.result.pages_read
        table.add(
            label, len(native_rows) - 2,
            native_cost.result.pages_read,
            snap_cost.result.pages_read,
            stratum_cost.result.pages_read,
        )

    space = Table(
        f"E8b: stored bytes, {versions} versions",
        ["system", "bytes"],
    )
    native_bytes = native.store.repository.storage_bytes()["total"]
    snap_bytes = native_snap.store.repository.storage_bytes()["total"]
    stratum_bytes = stratum_store.storage_bytes()["total"]
    space.add("native (deltas)", native_bytes)
    space.add("native + snapshots(4)", snap_bytes)
    space.add("stratum (full versions)", stratum_bytes)
    table.note("Q2 is answered from the FTI alone in the native system")
    space.note("the stratum trades space for snapshot speed")
    emit(table)
    emit(space)

    # Paper shapes: Q2 reads nothing natively; the stratum always reads.
    assert q2_native_pages == 0
    # Space: the stratum pays for every version in full.
    if versions >= 12:
        assert stratum_bytes > native_bytes

    # Expressiveness: the stratum cannot translate these at all.
    for unsupported in (
        'SELECT PREVIOUS(R) FROM doc("guide.com")/restaurant R',
        'SELECT R1/name FROM doc("guide.com")[{0}]/restaurant R1, '
        'doc("guide.com")/restaurant R2 '
        "WHERE R1 == R2 AND R1/price < R2/price".format(mid_ts),
    ):
        with pytest.raises(UnsupportedInStratumError):
            processor.execute(unsupported)
        native.query(unsupported)  # the native engine handles both

    benchmark(lambda: native.query(q3_text))
