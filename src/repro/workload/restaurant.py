"""The restaurant-guide workload (Figure 1 and its scalable extension).

:func:`figure1_versions` reproduces the paper's Figure 1 exactly: the
restaurant list at guide.com as retrieved on January 1st, January 15th, and
January 31st 2001.

:class:`RestaurantGuideGenerator` scales the same shape up: *n* restaurants
evolving over *k* versions with configurable probabilities of price
changes, openings, closings, renames, and the Section 7.4 troublemakers —
accidental delete-and-reintroduce (same restaurant, new EID) and same-name
distinct restaurants.  The generator tracks ground-truth identity so the
equality benchmarks can score ``=`` / ``==`` / ``~`` against the truth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..clock import SECONDS_PER_DAY, parse_date
from ..xmlcore.node import Element

#: The three retrieval dates of Figure 1.
FIGURE1_DATES = (
    parse_date("01/01/2001"),
    parse_date("15/01/2001"),
    parse_date("31/01/2001"),
)

_FIGURE1_SOURCES = (
    # January 1st: one restaurant.
    "<guide>"
    "<restaurant><name>Napoli</name><price>15</price></restaurant>"
    "</guide>",
    # January 15th: Akropolis opens.
    "<guide>"
    "<restaurant><name>Napoli</name><price>15</price></restaurant>"
    "<restaurant><name>Akropolis</name><price>13</price></restaurant>"
    "</guide>",
    # January 31st: Akropolis closes, Napoli raises its price.
    "<guide>"
    "<restaurant><name>Napoli</name><price>18</price></restaurant>"
    "</guide>",
)


def figure1_versions():
    """``[(timestamp, xml_text)]`` — Figure 1 verbatim."""
    return list(zip(FIGURE1_DATES, _FIGURE1_SOURCES))


def load_figure1(store, name="guide.com"):
    """Load Figure 1 into a store (or database facade); returns the name."""
    versions = figure1_versions()
    first_ts, first_source = versions[0]
    store.put(name, first_source, ts=first_ts)
    for ts, source in versions[1:]:
        store.update(name, source, ts=ts)
    return name


# -- the scalable generator ---------------------------------------------------------


@dataclass
class _Restaurant:
    """Generator-internal state; ``identity`` is the ground-truth id that
    survives renames and delete/reintroduce accidents."""

    identity: int
    name: str
    price: int
    street: str
    alive: bool = True
    pending_reintroduction: bool = False


@dataclass
class GroundTruth:
    """What really happened, for scoring the equality operators."""

    #: identity -> list of (version_index, name, price) states while alive
    states: dict = field(default_factory=dict)
    #: identities that increased their price between two given versions are
    #: recomputed on demand via :meth:`price_increased`.
    reintroduced: set = field(default_factory=set)
    same_name_pairs: set = field(default_factory=set)

    def record(self, version_index, restaurant):
        self.states.setdefault(restaurant.identity, []).append(
            (version_index, restaurant.name, restaurant.price)
        )

    def price_increased(self, from_version, to_version):
        """Identities whose price rose between the two version indexes
        (both versions must have the restaurant alive)."""
        increased = set()
        for identity, states in self.states.items():
            by_version = {v: (name, price) for v, name, price in states}
            if from_version in by_version and to_version in by_version:
                if by_version[to_version][1] > by_version[from_version][1]:
                    increased.add(identity)
        return increased


class RestaurantGuideGenerator:
    """Evolving restaurant guide with ground-truth identity."""

    _NAMES = (
        "Napoli", "Akropolis", "Roma", "Bergen", "Lyon", "Kyoto", "Oslo",
        "Siena", "Porto", "Basel", "Cadiz", "Dakar", "Quito", "Hanoi",
    )

    def __init__(
        self,
        n_restaurants=10,
        seed=0,
        p_price_change=0.3,
        p_open=0.05,
        p_close=0.05,
        p_rename=0.05,
        p_reintroduce=0.05,
        p_duplicate_name=0.1,
    ):
        self._rng = random.Random(seed)
        self.p_price_change = p_price_change
        self.p_open = p_open
        self.p_close = p_close
        self.p_rename = p_rename
        self.p_reintroduce = p_reintroduce
        self.truth = GroundTruth()
        self._next_identity = 1
        self._restaurants = []
        for _ in range(n_restaurants):
            self._restaurants.append(self._new_restaurant(p_duplicate_name))
        self._version_index = 0

    def _new_restaurant(self, p_duplicate_name=0.0):
        if (
            self._restaurants
            and self._rng.random() < p_duplicate_name
        ):
            # A distinct restaurant that shares a name with an existing one
            # (chains / coincidences — the Section 7.4 ambiguity).
            template = self._rng.choice(self._restaurants)
            name = template.name
            self.truth.same_name_pairs.add(
                (template.identity, self._next_identity)
            )
        else:
            name = (
                f"{self._rng.choice(self._NAMES)}"
                f" {self._next_identity}"
            )
        restaurant = _Restaurant(
            identity=self._next_identity,
            name=name,
            price=self._rng.randint(8, 40),
            street=f"street {self._rng.randint(1, 99)}",
        )
        self._next_identity += 1
        return restaurant

    # -- version production ---------------------------------------------------------

    def current_tree(self):
        """The guide as an (unstamped) element tree."""
        guide = Element("guide")
        for restaurant in self._restaurants:
            if not restaurant.alive:
                continue
            node = Element("restaurant")
            name = Element("name")
            name.text = restaurant.name
            price = Element("price")
            price.text = str(restaurant.price)
            street = Element("street")
            street.text = restaurant.street
            node.append(name)
            node.append(price)
            node.append(street)
            guide.append(node)
        return guide

    def snapshot_truth(self):
        for restaurant in self._restaurants:
            if restaurant.alive:
                self.truth.record(self._version_index, restaurant)

    def step(self):
        """Advance the hidden world by one version."""
        self._version_index += 1
        rng = self._rng
        for restaurant in self._restaurants:
            if restaurant.pending_reintroduction:
                restaurant.alive = True
                restaurant.pending_reintroduction = False
                continue
            if not restaurant.alive:
                continue
            if rng.random() < self.p_price_change:
                delta = rng.choice((-3, -2, -1, 1, 2, 3, 4))
                restaurant.price = max(5, restaurant.price + delta)
            if rng.random() < self.p_rename:
                restaurant.name = f"{restaurant.name.split()[0]}'s"
            if rng.random() < self.p_reintroduce:
                # Accidentally dropped from the page and reintroduced in the
                # next version: same restaurant, but it will get a new EID.
                restaurant.alive = False
                restaurant.pending_reintroduction = True
                self.truth.reintroduced.add(restaurant.identity)
                continue
            if rng.random() < self.p_close:
                restaurant.alive = False
        if rng.random() < self.p_open:
            self._restaurants.append(self._new_restaurant())

    def versions(self, count, start_ts=None, tick=SECONDS_PER_DAY):
        """Generate ``count`` version trees with timestamps."""
        ts = parse_date("01/01/2001") if start_ts is None else start_ts
        out = []
        for index in range(count):
            if index > 0:
                self.step()
                ts += tick
            self.snapshot_truth()
            out.append((ts, self.current_tree()))
        return out

    def load_into(self, store, name="guide.com", count=10, start_ts=None):
        """Generate and commit ``count`` versions; returns the version list."""
        versions = self.versions(count, start_ts=start_ts)
        first_ts, first_tree = versions[0]
        store.put(name, first_tree, ts=first_ts)
        for ts, tree in versions[1:]:
            store.update(name, tree, ts=ts)
        return versions
