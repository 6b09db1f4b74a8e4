"""History rollups: coalescing and rewritten history queries.

Demonstrates two extensions this library builds on top of the paper's core:

* the temporal **coalescing** operator (the paper names it as the extra
  piece a valid-time variant would need) — turning a per-version price
  history into maximal constant-price periods, and
* the **algebraic rewriter** (the paper's Section 8 future work) — pushing
  ``TIME(R)`` predicates into the version enumeration so history queries
  touch only the versions they need.

Run:  python examples/price_rollup.py
"""

from dataclasses import replace

from repro import TemporalXMLDatabase
from repro.clock import format_timestamp
from repro.operators import Coalesce
from repro.operators.relational import INTERVAL_KEY
from repro.query.parser import parse_query
from repro.query.planner import bind_planned
from repro.query.rewriter import desugar, rewrite
from repro.query.values import SnapshotCache
from repro.workload import RestaurantGuideGenerator


def price_periods(db, name):
    """Maximal constant-price periods for one restaurant, via Coalesce.

    Works below the SELECT layer: the planner's bindings carry each
    version's validity interval, which is exactly what Coalesce merges.
    """
    engine = db.engine
    query = parse_query(
        'SELECT R FROM doc("guide.com")[EVERY]/restaurant R '
        f'WHERE R/name = "{name}"'
    )
    engine.active_cache = SnapshotCache(engine.store)
    bindings = bind_planned(
        engine,
        engine.optimizer.plan_from_item(query.from_items[0], query.where),
    )
    rows = [
        {
            "price": binding.select("price")[0].node.text_content(),
            INTERVAL_KEY: binding.interval,
        }
        for binding in bindings
        if binding.select("name")[0].node.text_content() == name
    ]
    return list(Coalesce(rows))


def main():
    generator = RestaurantGuideGenerator(
        n_restaurants=4, seed=10, p_price_change=0.35, p_close=0.0,
        p_open=0.0, p_rename=0.0, p_reintroduce=0.0,
    )
    db = TemporalXMLDatabase()
    generator.load_into(db, count=12)

    tree = db.current("guide.com")
    name = tree.find("restaurant").find("name").text
    print(f"== constant-price periods for {name!r} (coalesced)")
    for row in price_periods(db, name):
        interval = row[INTERVAL_KEY]
        end = (
            "now"
            if interval.is_current
            else format_timestamp(interval.end)
        )
        print(f"  {format_timestamp(interval.start)} .. {end:12s} "
              f"price {row['price']}")

    # The rewriter at work: a recent-history query touches few versions.
    dindex = db.store.delta_index("guide.com")
    cutoff = format_timestamp(dindex.entries[-3].timestamp)
    query = (
        'SELECT TIME(R), R/price FROM doc("guide.com")[EVERY]/restaurant R '
        f'WHERE R/price < 40 AND TIME(R) >= {cutoff}'
    )
    # A plan is a value: compose the stages by hand to leave the rewriter
    # out (desugar in place of rewrite), and edit the plan to evaluate the
    # WHERE conjuncts as written — the planner would otherwise test
    # TIME(R) >= cutoff before R/price < 40 either way, which hides most of
    # the delta reads this comparison is about.
    engine = db.engine
    for mode, stage in (("off", desugar), ("on ", rewrite)):
        rewritten, windows = stage(parse_query(query), now=engine.now())
        plan = engine.plan(rewritten, windows)
        db.store.repository.delta_reads = 0
        result = engine.run(replace(plan, where=rewritten.where))
        result.to_xml()
        print(f"\n== rewriter {mode}: {len(result)} rows, "
              f"{db.store.repository.delta_reads} delta reads")


if __name__ == "__main__":
    main()
