"""Seeded inputs.  The engine only ever sees the XML and TXQL *text* made
here; the version states the generators went through are retained on the
side as the independent model the correctness checks evaluate against.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.clock import parse_date
from repro.workload import KeywordWorkload, RestaurantGuideGenerator, TDocGenerator
from repro.xmlcore.serializer import serialize

START = parse_date("01/01/2001")
#: Seconds between commits.  Not a multiple of an hour, so whole-hour
#: as-of instants and day-aligned windows never fall on a commit.
TICK = 10007
HOUR = 3600


@dataclass(frozen=True)
class Commit:
    name: str
    ts: int
    xml: str


@dataclass(frozen=True)
class Query:
    """One TXQL query; ``template``/``params`` let naive.py re-evaluate it."""

    klass: str  # "snapshot" | "history"
    template: str
    text: str
    params: tuple = ()


@dataclass
class Corpus:
    base: list = field(default_factory=list)
    extension: list = field(default_factory=list)
    served_updates: list = field(default_factory=list)
    #: guide name -> [(commit ts, ((restaurant name, price), ...)), ...]
    guide_states: dict = field(default_factory=dict)
    words: list = field(default_factory=list)
    end_ts: int = START
    snapshot_queries: list = field(default_factory=list)
    history_queries: list = field(default_factory=list)
    keyword_queries: list = field(default_factory=list)
    served_a: list = field(default_factory=list)
    served_b: list = field(default_factory=list)

    def user_bytes(self, commits):
        return sum(len(c.xml.encode("utf-8")) for c in commits)


def _guide_state(tree):
    return tuple(
        (r.find("name").text, int(r.find("price").text))
        for r in tree.children
    )


#: Element counts a warehouse document may start with.  TDocGen trees come
#: out between ~20 and ~430 elements; keeping to the middle half stops a
#: few documents from deciding how heavy one seed's corpus is.
TYPICAL_ELEMENTS = (170, 280)


class _Warehouse:
    """TDocGen documents of the BENCH_scale shape, typical ones only."""

    def __init__(self, seed, prefix, count):
        self._generator = TDocGenerator(
            seed=seed, fanout=(7, 9), depth=3, p_insert=0.065, p_delete=0.035
        )
        self._prefix, self._count = prefix, count
        self._names = []
        self.words = list(self._generator.vocab.words)

    def next_versions(self):
        """``(name, tree)`` per document: new documents on the first call,
        their next versions on every later one."""
        if self._names:
            return [(name, self._generator.evolve(name)) for name in self._names]
        low, high = TYPICAL_ELEMENTS
        versions, tried = [], 0
        while len(versions) < self._count:
            name = f"{self._prefix}{tried:03d}.xml"
            tried += 1
            tree = self._generator.document(name)
            if low <= sum(1 for _ in tree.iter_elements()) <= high:
                versions.append((name, tree))
        self._names = [name for name, _tree in versions]
        return versions


def build_corpus(seed, sizes):
    """Everything a run feeds the engine, as a function of ``seed`` only."""
    corpus = Corpus()
    guides = {
        f"guide{i}.com": RestaurantGuideGenerator(
            n_restaurants=50, seed=seed * 1000 + i,
            # One opening per step at most, so 0.5 / 0.01 holds ~50 alive.
            p_open=0.5, p_close=0.01, p_rename=0.01,
            p_reintroduce=0.02, p_duplicate_name=0.0,
        )
        for i in range(sizes.guides)
    }
    warehouse = _Warehouse(seed, "wh", sizes.tdocs)
    corpus.words = warehouse.words
    # Warehouse versions are spread through the guides' history, so the
    # journal tail of the crashed state holds both kinds.
    warehouse_rounds = {
        k * sizes.guide_versions // sizes.tdoc_versions
        for k in range(sizes.tdoc_versions)
    }
    ts = START
    for round_index in range(sizes.guide_versions):
        for name, generator in guides.items():
            if round_index:
                generator.step()
            tree = generator.current_tree()
            corpus.guide_states.setdefault(name, []).append(
                (ts, _guide_state(tree))
            )
            corpus.base.append(Commit(name, ts, serialize(tree)))
            ts += TICK
        if round_index in warehouse_rounds:
            for name, tree in warehouse.next_versions():
                corpus.base.append(Commit(name, ts, serialize(tree)))
                ts += TICK
    corpus.end_ts = ts - TICK

    # The wider warehouse `ingest_warehouse` keeps committing after the
    # crash copy was taken: new documents, then their versions.
    wide = _Warehouse(seed + 1, "wide", sizes.extension_docs)
    for _ in range(sizes.extension_versions):
        for name, tree in wide.next_versions():
            corpus.extension.append(Commit(name, ts, serialize(tree)))
            ts += TICK

    # Connection B's writes: each guide's next states, round-robin, on the
    # served copy of the base (which never sees the extension).
    ts = corpus.end_ts + TICK
    names = list(guides)
    for i in range(sizes.served_updates):
        name = names[i % len(names)]
        guides[name].step()
        corpus.served_updates.append(
            Commit(name, ts, serialize(guides[name].current_tree()))
        )
        ts += TICK

    streams = _QueryStreams(corpus, seed)
    corpus.snapshot_queries = streams.snapshot(sizes.snapshot_queries, "q")
    corpus.history_queries = streams.history(sizes.history_queries, "q")
    corpus.keyword_queries = KeywordWorkload(
        None, corpus.words, START, corpus.end_ts, seed=seed
    ).make_queries(sizes.keyword_queries)
    # A reads snapshots only; the history reads ride on B, between its own
    # commits.  With history reads on A, one commit in ten waited behind a
    # 50 ms history query and `commit_p90_ms` sat on that cliff.
    corpus.served_a = streams.snapshot(sizes.served_reads_a, "a")
    n_history = sizes.served_reads_b // 5
    corpus.served_b = interleave(
        streams.snapshot(sizes.served_reads_b - n_history, "b"),
        streams.history(n_history, "b"),
    )
    return corpus


def interleave(many, few):
    """``few`` spread evenly through ``many`` (order otherwise kept)."""
    few = list(few)
    out, placed = [], 0
    for index, item in enumerate(many, start=1):
        out.append(item)
        due = index * len(few) // len(many)
        out.extend(few[placed:due])
        placed = due
    return out + few[placed:]


#: (template, share) per class; counts are exact shares of the stream so
#: the percentile of a class never depends on a draw of the mix.
_SNAPSHOT_MIX = (("asof_pred", 8), ("asof_sum", 4), ("current_pred", 5),
                 ("identity_join", 3))
_HISTORY_MIX = (("q3", 7), ("coalesce", 7), ("create_time", 1),
                ("group_month", 1), ("within_all", 1))


class _Even:
    """Seeded draws that cover their range evenly however few are made:
    the k-th draw of parameter ``dim`` is the k-th point of an additive
    recurrence started at a seeded offset.  A class's percentiles then
    depend on the corpus, not on the luck of a few hundred independent
    draws.  Each parameter steps by another irrational, so the points of
    one template also spread over their joint range."""

    _STEPS = tuple(math.sqrt(prime) % 1.0 for prime in (2, 3, 5))

    def __init__(self, rng):
        self._at = [rng.random() for _ in self._STEPS]

    def _unit(self, dim):
        self._at[dim] = (self._at[dim] + self._STEPS[dim]) % 1.0
        return self._at[dim]

    def randint(self, dim, low, high):
        return low + int(self._unit(dim) * (high - low + 1))

    def choice(self, dim, items):
        return items[int(self._unit(dim) * len(items))]


class _QueryStreams:
    def __init__(self, corpus, seed):
        self._corpus = corpus
        self._seed = seed
        self._guides = list(corpus.guide_states)
        # As-of instants start once every document exists.
        first_round = max(c.ts for c in corpus.base[: self._docs()])
        self._first_hour = (first_round - START) // HOUR + 1
        self._last_hour = (corpus.end_ts - START) // HOUR

    def _docs(self):
        return len({c.name for c in self._corpus.base})

    def snapshot(self, count, stream):
        return self._stream("snapshot", _SNAPSHOT_MIX, count, stream)

    def history(self, count, stream):
        return self._stream("history", _HISTORY_MIX, count, stream)

    def _stream(self, klass, mix, count, stream):
        rng = random.Random(f"{self._seed}:{klass}:{stream}")
        total = sum(share for _t, share in mix)
        slots = [t for t, share in mix for _ in range(share)]
        rng.shuffle(slots)
        draws = {template: _Even(rng) for template, _share in mix}
        out = []
        for index in range(count):
            template = slots[index % total]
            out.append(getattr(self, "_" + template)(klass, draws[template]))
        return out

    # -- parameter draws (dimension 0 is always the guide) --------------------

    def _guide(self, draw):
        return draw.choice(0, self._guides)

    def _hour(self, draw):
        return draw.randint(1, self._first_hour, self._last_hour)

    def _name(self, draw, guide):
        """A restaurant of an evenly drawn version of ``guide``."""
        _ts, state = draw.choice(1, self._corpus.guide_states[guide])
        return draw.choice(2, state)[0]

    # -- snapshot templates ----------------------------------------------------

    def _asof_pred(self, klass, draw):
        guide, hour = self._guide(draw), self._hour(draw)
        price = draw.randint(2, 10, 30)
        return Query(
            klass, "asof_pred",
            f'SELECT R/name FROM doc("{guide}")[01/01/2001 + {hour} HOURS]'
            f"/restaurant R WHERE R/price < {price}",
            (guide, hour, price),
        )

    def _asof_sum(self, klass, draw):
        guide, hour = self._guide(draw), self._hour(draw)
        return Query(
            klass, "asof_sum",
            f'SELECT SUM(R) FROM doc("{guide}")[01/01/2001 + {hour} HOURS]'
            "/restaurant R",
            (guide, hour),
        )

    def _current_pred(self, klass, draw):
        guide, price = self._guide(draw), draw.randint(1, 15, 35)
        return Query(
            klass, "current_pred",
            f'SELECT R/name, R/price FROM doc("{guide}")/restaurant R '
            f"WHERE R/price > {price}",
            (guide, price),
        )

    def _identity_join(self, klass, draw):
        guide, hour = self._guide(draw), self._hour(draw)
        return Query(
            klass, "identity_join",
            f'SELECT R1/name FROM doc("{guide}")[01/01/2001 + {hour} HOURS]'
            f'/restaurant R1, doc("{guide}")/restaurant R2 '
            "WHERE R1 == R2 AND R1/price < R2/price",
            (guide, hour),
        )

    # -- history templates -------------------------------------------------------

    def _q3(self, klass, draw):
        guide = self._guide(draw)
        name = self._name(draw, guide)
        return Query(
            klass, "q3",
            f'SELECT TIME(R), R/price FROM doc("{guide}")[EVERY]/restaurant R '
            f'WHERE R/name = "{name}"',
            (guide, name),
        )

    def _coalesce(self, klass, draw):
        guide = self._guide(draw)
        name = self._name(draw, guide)
        return Query(
            klass, "coalesce",
            f'SELECT COALESCE R/price FROM doc("{guide}")[EVERY]/restaurant R '
            f'WHERE R/name = "{name}"',
            (guide, name),
        )

    def _create_time(self, klass, draw):
        guide, price = self._guide(draw), draw.randint(1, 25, 35)
        return Query(
            klass, "create_time",
            f'SELECT R/name, CREATE TIME(R) FROM doc("{guide}")/restaurant R '
            f"WHERE R/price > {price}",
            (guide, price),
        )

    def _group_month(self, klass, draw):
        guide, days = self._guide(draw), draw.randint(1, 1, 2)
        return Query(
            klass, "group_month",
            f'SELECT MONTH(R), AVG(R/price) FROM doc("{guide}")'
            f"[EVERY WITHIN {days} DAYS]/restaurant R GROUP BY MONTH(R)",
            (guide, days),
        )

    def _within_all(self, klass, draw):
        hours = draw.randint(1, 6, 12)
        return Query(
            klass, "within_all",
            'SELECT DAY(R), COUNT(R) FROM doc("*")'
            f"[EVERY WITHIN {hours} HOURS]/restaurant R GROUP BY DAY(R)",
            (hours,),
        )
