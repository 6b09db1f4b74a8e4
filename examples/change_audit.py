"""Change auditing with the operator API (below the query language).

Uses the operator classes directly — the level the paper's Section 7 is
written at: DocHistory/ElementHistory walks, CreTime/DelTime from the
lifetime index, version navigation, and edit scripts from the Diff operator.

Run:  python examples/change_audit.py
"""

from repro.clock import BEFORE_TIME, UNTIL_CHANGED, format_timestamp
from repro.index import LifetimeIndex, TemporalFullTextIndex
from repro.operators import (
    CreTime,
    DelTime,
    Diff,
    DocHistory,
    ElementHistory,
    Reconstruct,
    TPatternScanAll,
)
from repro.operators.navigation import previous_teid
from repro.pattern import Pattern
from repro.storage import TemporalDocumentStore
from repro.workload import RestaurantGuideGenerator
from repro.xmlcore import serialize


def main():
    store = TemporalDocumentStore()
    fti = store.subscribe(TemporalFullTextIndex())
    lifetime = store.subscribe(LifetimeIndex())

    generator = RestaurantGuideGenerator(
        n_restaurants=5, seed=20, p_price_change=0.5, p_close=0.1, p_open=0.2
    )
    generator.load_into(store, count=8)
    print(f"committed {len(store.delta_index('guide.com'))} versions "
          f"of guide.com\n")

    # -- document history ---------------------------------------------------
    print("== DocHistory: version sizes, newest first")
    history = DocHistory(store, "guide.com", BEFORE_TIME + 1, UNTIL_CHANGED - 1)
    for teid, tree in history:
        restaurants = len(tree.findall("restaurant"))
        print(f"  {format_timestamp(teid.timestamp)}  "
              f"{restaurants} restaurants, {tree.subtree_size()} nodes")

    # -- pick one restaurant and audit it -----------------------------------
    pattern = Pattern.from_path("restaurant")
    matches = TPatternScanAll(fti, pattern, store=store).run()
    # Choose the element with the longest validity.
    chosen = max(
        matches, key=lambda m: m.interval.end - m.interval.start
    ).teid(pattern)
    subtree = Reconstruct(store, chosen).run()
    name = subtree.find("name").text
    print(f"\n== auditing restaurant {name!r} (EID {chosen.eid})")

    created = CreTime(lifetime, chosen).value()
    deleted = DelTime(lifetime, chosen).value()
    print(f"  created: {format_timestamp(created)}")
    print(f"  deleted: {format_timestamp(deleted) if deleted else 'still live'}")

    print("\n== ElementHistory: every version of that restaurant")
    element_history = ElementHistory(
        store, chosen.eid, BEFORE_TIME + 1, UNTIL_CHANGED - 1
    )
    versions = element_history.run()
    for teid, version in versions:
        print(f"  {format_timestamp(teid.timestamp)}  "
              f"price={version.find('price').text}")

    # -- edit script between two consecutive versions -----------------------
    newest_teid, newest = versions[0]
    prev = previous_teid(store, newest_teid)
    if prev is not None:
        print("\n== Diff(previous, current) as an XML edit script")
        delta = Diff(store).run(prev, newest_teid)
        print(serialize(delta, indent=2))

    # -- cost visibility ------------------------------------------------------
    print("\n== logical I/O so far")
    repo = store.repository
    print(f"  delta reads:    {repo.delta_reads}")
    print(f"  current reads:  {repo.current_reads}")


if __name__ == "__main__":
    main()
