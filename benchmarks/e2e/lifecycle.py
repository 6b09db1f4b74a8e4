"""One run of one workload: set-up, ingest, then rounds of reopen,
in-process queries and the served mix, with the checks along the way.

Layers are measured from outside: every timing here is ``perf_counter``
around a call into a public function of ``repro``.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field

from repro.index.relevance import TemporalKeywordScorer
from repro.serving import ServingClient
from repro.workload import BatchingWriter, load_figure1
from repro.xmlcore.serializer import serialize

from . import naive
from .corpus import build_corpus, interleave
from .engine import InProcessServer, ServerProcess, make_db
from .workloads import OWN_PHASE, ROUNDS, sizes_for

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
#: Share of each query class that is warmed up and discarded / re-checked
#: against the naive model.
WARMUP_SHARE = 0.05
CHECK_SHARE = 0.05


@dataclass
class RunResult:
    workload: str
    seed: int
    traced: bool
    end_to_end: dict = field(default_factory=dict)  # name -> (value, unit, n)
    per_layer: dict = field(default_factory=dict)   # name -> (value, unit)
    exact: dict = field(default_factory=dict)       # deterministic counts
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    client_seconds: float = 0.0  # wall of the timed regions, per client
    top_layers: list = field(default_factory=list)  # of the workload's phase

    @property
    def correct(self):
        return self.failed == 0


class _Run:
    """State shared by the phases of one run."""

    def __init__(self, workload, seed, sizes, tracer):
        self.sizes = sizes
        self.tracer = tracer
        self.result = RunResult(workload, seed, traced=tracer is not None)
        self.digest = hashlib.sha256()
        self.workdir = os.path.join(
            OUT_DIR, f"work-{workload}-{seed}-{os.getpid()}"
        )
        self.regions = []  # (label, wall seconds, closed-loop clients)
        self.server_rss_mb = 0.0

    # -- bookkeeping -----------------------------------------------------------

    def op(self, ok=True, why=None):
        self.result.attempted += 1
        if not ok:
            self.result.failed += 1
            if len(self.result.failures) < 20:
                self.result.failures.append(why)

    def check(self, ok, why):
        self.op(bool(ok), why)

    def timed(self, label, clients=1, traced=True):
        return _Region(self, label, clients, traced)

    def metric(self, name, value, unit, n):
        self.result.end_to_end[name] = (value, unit, n)

    def path(self, name):
        return os.path.join(self.workdir, name)


class _Region:
    """A timed region: collects garbage first and switches spans on inside.
    ``seconds`` is ``perf_counter`` wall time less :meth:`harness_work`."""

    def __init__(self, run, label, clients, traced):
        self._run, self._label, self._clients = run, label, clients
        self._traced = traced
        self.seconds = 0.0
        self._excluded = 0.0

    def _spans(self, on):
        tracer = self._run.tracer
        if self._traced and tracer is not None:
            tracer.enabled, tracer.region = on, self._label

    def __enter__(self):
        gc.collect()
        self._spans(True)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.seconds = time.perf_counter() - self._start - self._excluded
        self._spans(False)
        if self._traced:
            self._run.regions.append(
                (self._label, self.seconds, self._clients)
            )

    @contextlib.contextmanager
    def harness_work(self):
        """The benchmark's own bookkeeping between two operations of a
        single-threaded region: neither timed nor traced."""
        self._spans(False)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._excluded += time.perf_counter() - start
            self._spans(True)


def percentile(samples, fraction):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]


def run_workload(workload, seed, seconds, tracer=None, smoke=False):
    sizes = sizes_for(workload, seconds, smoke)
    run = _Run(workload, seed, sizes, tracer)
    shutil.rmtree(run.workdir, ignore_errors=True)
    os.makedirs(run.workdir)
    try:
        setups = _Setups(run, seed)
        corpus = setups.corpus
        _figure1(run)
        _ingest(run, corpus)
        reopens = _Reopens(run, corpus)
        queries = _Queries(run, corpus)
        served = _Served(run, corpus)
        try:
            for index in range(ROUNDS):
                reopens.round(index)
                queries.round(index, reopens.db)
                served.round(index)
                setups.round()
            setups.report()
            reopens.report()
            queries.report()
        finally:
            served.stop()
            reopens.close()
        served.report()
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    result = run.result
    result.client_seconds = sum(
        seconds * clients for _l, seconds, clients in run.regions
    )
    result.exact["result_digest"] = run.digest.hexdigest()
    peak_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.metric("peak_rss_mb", max(peak_self, run.server_rss_mb), "MB", 1)
    if tracer is not None:
        result.per_layer.update(tracer.layer_metrics(result.client_seconds))
        result.top_layers = tracer.top_layers(OWN_PHASE[workload])
    return result


def _share(items, index):
    """The ``index``-th of ROUNDS contiguous shares of ``items``."""
    return items[len(items) * index // ROUNDS:len(items) * (index + 1) // ROUNDS]


# -- set-up ---------------------------------------------------------------------


class _Setups:
    """Generate the inputs ``setups`` times, once more after every round so
    that the repeats spread over the run; ``setup_s`` is the median."""

    def __init__(self, run, seed):
        self._run, self._seed = run, seed
        self._times = []
        for _ in range(run.sizes.setups - ROUNDS):
            self.corpus = self.round()

    def round(self):
        with self._run.timed("setup", traced=False) as region:
            corpus = build_corpus(self._seed, self._run.sizes)
        self._times.append(region.seconds)
        return corpus

    def report(self):
        self._run.metric("setup_s", statistics.median(self._times), "s",
                         len(self._times))


def _figure1(run):
    """Figure 1's Q1-Q3 answers, exact, through the default engine."""
    db = make_db(run.path("figure1"))
    try:
        load_figure1(db)
        q1 = db.query('SELECT R FROM doc("guide.com")[26/01/2001]/restaurant R')
        names = sorted(row["R"].tree.find("name").text for row in q1.rows)
        run.check(names == ["Akropolis", "Napoli"], f"figure1 Q1: {names}")
        q2 = db.query(
            'SELECT SUM(R) FROM doc("guide.com")[26/01/2001]/restaurant R'
        ).scalar()
        run.check(q2 == 2, f"figure1 Q2: {q2}")
        q3 = db.query(
            'SELECT TIME(R), R/price FROM doc("guide.com")[EVERY]/restaurant R '
            'WHERE R/name="Napoli"'
        )
        history = [
            (str(row["TIME(R)"]), row["R/price"][0].node.text_content())
            for row in q3.rows
        ]
        run.check(
            history == [("01/01/2001", "15"), ("15/01/2001", "15"),
                        ("31/01/2001", "18")],
            f"figure1 Q3: {history}",
        )
    finally:
        db.close()


# -- phase 1: ingest ------------------------------------------------------------


def _ingest(run, corpus):
    """Commit the corpus (and the workload's extension) as XML text through
    commit groups, a checkpoint after every ``checkpoint_every``-th group.
    The crash copy is taken when the corpus is acknowledged, while its
    last groups are still only in the journal."""
    sizes = run.sizes
    live = run.path("live")
    db = make_db(live)
    writer = BatchingWriter(db, batch_size=sizes.batch_size)
    seen = set()
    checkpoint_s = []

    def checkpoint():
        start = time.perf_counter()
        db.checkpoint()
        checkpoint_s.append(time.perf_counter() - start)

    def commit_all(commits):
        with run.timed("ingest") as region:
            for c in commits:
                groups = writer.groups
                try:
                    if c.name in seen:
                        writer.update(c.name, c.xml, ts=c.ts)
                    else:
                        writer.put(c.name, c.xml, ts=c.ts)
                        seen.add(c.name)
                    run.op()
                except Exception as exc:
                    run.op(False, f"commit {c.name}@{c.ts}: {exc!r}")
                if (writer.groups != groups
                        and writer.groups % sizes.checkpoint_every == 0):
                    checkpoint()
            writer.flush()
        return region.seconds

    wall = commit_all(corpus.base)
    # The crashed state: no close(), so only fsynced bytes are guaranteed.
    shutil.copytree(live, run.path("crashed"))
    if corpus.extension:
        wall += commit_all(corpus.extension)
    with run.timed("ingest") as region:
        checkpoint()
    wall += region.seconds
    versions = len(corpus.base) + len(corpus.extension)
    user_bytes = corpus.user_bytes(corpus.base) + corpus.user_bytes(corpus.extension)
    journal = db.durability_stats()["journal"]
    disk_bytes = _tree_bytes(live)
    run.metric("ingest_versions_per_s", versions / wall, "1/s", versions)
    run.metric("checkpoint_s", sum(checkpoint_s), "s", len(checkpoint_s))
    ratios = {
        "journal_bytes_per_user_byte": journal["bytes_written"] / user_bytes,
        "disk_bytes_per_user_byte": disk_bytes / user_bytes,
    }
    for name, ratio in ratios.items():
        run.metric(name, ratio, "ratio", versions)
    counts = {
        "storage.journal.bytes_written": (journal["bytes_written"], "B"),
        "storage.journal.fsyncs": (journal["fsyncs"], "count"),
        "index.fti.postings_total": (db.fti.posting_count(), "count"),
    }
    run.result.exact.update(ratios)
    run.result.exact.update({k: v for k, (v, _unit) in counts.items()})
    cas = db.storage_stats()["backend"]
    run.result.per_layer.update(counts)
    run.result.per_layer.update({
        "storage.cas.bytes_stored": (cas["stored_bytes"], "B"),
        "storage.cas.dedup_ratio": (cas["dedup_ratio"], "ratio"),
    })
    db.close()


def _tree_bytes(directory):
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, names in os.walk(directory) for name in names
    )


# -- phase 2: reopen the crashed copy --------------------------------------------


class _Reopens:
    """``open()`` on fresh copies of the crashed directory until a first
    query answers.  The last database a round opened stays open as ``db``
    for that round's in-process queries; every acknowledged version must
    read back from the first one."""

    def __init__(self, run, corpus):
        self._run, self._corpus = run, corpus
        first_guide = next(iter(corpus.guide_states))
        self._probe = f'SELECT SUM(R) FROM doc("{first_guide}")/restaurant R'
        self._want = len(corpus.guide_states[first_guide][-1][1])
        self._times = []
        self.db = None

    def round(self, index):
        run = self._run
        for _ in _share(range(run.sizes.reopens), index):
            self.close()
            copy = run.path("reopened")
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(run.path("crashed"), copy)
            with run.timed("reopen") as region:
                try:
                    self.db = make_db(copy)
                    answer = self.db.query(self._probe).scalar()
                except Exception as exc:
                    run.op(False, f"reopen {len(self._times)}: {exc!r}")
                    raise
            run.check(answer == self._want,
                      f"reopen: first query {answer} != {self._want}")
            if not self._times:
                _durability_check(run, self._corpus, self.db)
            self._times.append(region.seconds)

    def close(self):
        if self.db is not None:
            self.db.close()
            self.db = None

    def report(self):
        run = self._run
        run.metric("reopen_s", statistics.median(self._times), "s",
                   len(self._times))
        recovery = self.db.recovery
        counts = {
            "storage.recover.records_scanned": recovery.records_scanned,
            "storage.recover.records_replayed": recovery.records_replayed,
        }
        run.result.exact.update(counts)
        run.result.per_layer.update(
            {k: (v, "count") for k, v in counts.items()}
        )


def _durability_check(run, corpus, db):
    """Byte-for-byte: what was acknowledged is what recovery serves."""
    committed = {}
    for c in corpus.base:
        committed.setdefault(c.name, []).append(c.xml)
    for name, texts in committed.items():
        try:
            versions = db.store.version_range(name, 1, len(texts))
            got = {number: serialize(tree) for number, tree, _x in versions}
        except Exception as exc:
            run.op(False, f"durability {name}: {exc!r}")
            continue
        for number, text in enumerate(texts, start=1):
            run.check(got.get(number) == text,
                      f"durability: {name} v{number} differs after recovery")


# -- phase 3: in-process queries ---------------------------------------------------


class _Queries:
    """The three query classes, single-threaded, on the recovered database;
    within a round the classes follow one another."""

    def __init__(self, run, corpus):
        self._run, self._corpus = run, corpus
        self._queries = {
            "snapshot": corpus.snapshot_queries,
            "history": corpus.history_queries,
            "keyword": corpus.keyword_queries,
        }
        self._checked = {
            klass: _check_sample(run, klass, queries)
            for klass, queries in self._queries.items()
        }
        self._latencies = {klass: [] for klass in self._queries}
        self._rows_returned = 0
        self._rows_bound = run.tracer.rows_bound if run.tracer else 0
        self._counters = {}  # the engine registry's, summed over rounds

    def _execute(self, db, scorer, klass, query):
        if klass != "keyword":
            return db.query(query.text)  # a ResultSet: rows materialised
        if query.mode == "instant":
            return scorer.search_t(query.terms, query.start, limit=10)
        return scorer.search_window(query.terms, query.start, query.end,
                                    limit=10)

    def round(self, index, db):
        """This round's share of every class on ``db``, freshly recovered:
        the first 5 % of a share warm it up and are discarded."""
        run, tracer = self._run, self._run.tracer
        scorer = TemporalKeywordScorer(db.fti)
        now = db.now()
        before = db.engine.registry.snapshot()
        for klass, queries in self._queries.items():
            numbers = _share(range(len(queries)), index)
            for number in numbers[: max(1, int(len(numbers) * WARMUP_SHARE))]:
                self._execute(db, scorer, klass, queries[number])
            latencies = self._latencies[klass]
            with run.timed(f"query.{klass}") as region:
                for number in numbers:
                    query = queries[number]
                    if tracer is not None:
                        tracer.begin_op(f"{klass}:{number}", klass)
                    start = time.perf_counter()
                    try:
                        answer = self._execute(db, scorer, klass, query)
                    except Exception as exc:
                        run.op(False, f"{klass} query {number}: {exc!r}")
                        continue
                    latencies.append((time.perf_counter() - start) * 1e3)
                    run.op()
                    with region.harness_work():
                        self._account(klass, number, query, answer, now)
        after = db.engine.registry.snapshot()
        for name, value in db.engine.registry.delta(before, after).items():
            self._counters[name] = self._counters.get(name, 0) + value

    def _account(self, klass, number, query, answer, now):
        run = self._run
        if klass == "keyword":
            text = repr([(d.doc_id, d.score) for d in answer])
        else:
            text = str(answer)
            self._rows_returned += len(answer.rows)
        run.digest.update(text.encode("utf-8"))
        if number in self._checked[klass]:
            want = naive.expected(query, self._corpus.guide_states, now)
            got = naive.observed(query, answer)
            run.check(
                got == want,
                f"naive mismatch for [{query.text}]: {got[:3]} != {want[:3]}",
            )

    def report(self):
        run, tracer = self._run, self._run.tracer
        for klass, latencies in self._latencies.items():
            for label, fraction in (("p50", 0.50), ("p95", 0.95)):
                run.metric(f"{klass}_query_{label}_ms",
                           percentile(latencies, fraction), "ms",
                           len(latencies))
        if tracer is not None:
            run.result.per_layer.update(
                tracer.query_counters(
                    self._counters, tracer.rows_bound - self._rows_bound,
                    self._rows_returned,
                )
            )


def _check_sample(run, klass, queries):
    """Indexes of the seeded sample re-evaluated without the engine."""
    if klass == "keyword":
        return frozenset()
    checkable = [
        index for index, query in enumerate(queries)
        if query.template in naive.MODELLED
    ]
    rng = random.Random(f"{run.result.seed}:check:{klass}")
    count = max(1, round(len(queries) * CHECK_SHARE))
    return frozenset(rng.sample(checkable, min(count, len(checkable))))


# -- phase 4: the served mix ---------------------------------------------------------


class _Served:
    """Two closed-loop connections against a server on a copy of the
    crashed directory: A only reads, B reads and commits through a fixed
    list; a round lasts until B is through its share of that list."""

    def __init__(self, run, corpus):
        self._run = run
        directory = run.path("served")
        shutil.copytree(run.path("crashed"), directory)
        self._traced = run.tracer is not None
        self._server = (
            InProcessServer(directory) if self._traced
            else ServerProcess(directory)
        )
        self._plan_b = interleave(
            [("query", query) for query in corpus.served_b],
            [("update", commit) for commit in corpus.served_updates],
        )
        self._reads_a = corpus.served_a
        try:
            self._a = _Connection(self._server.address, "A", self._traced)
            self._b = _Connection(self._server.address, "B", self._traced)
        except Exception:
            self._server.stop()
            raise
        self._seconds = 0.0
        self._stats = None

    def round(self, index):
        done = threading.Event()
        thread_a = threading.Thread(
            target=self._a.cycle, args=(self._reads_a, done), name="conn-A"
        )
        with self._run.timed("serve", clients=2) as region:
            thread_a.start()
            try:
                self._b.play(_share(self._plan_b, index))
            finally:
                done.set()
                thread_a.join()
        self._seconds += region.seconds

    def stop(self):
        try:
            with ServingClient(*self._server.address) as admin:
                self._stats = admin.stats()["server"]
            self._a.close()
            self._b.close()
        finally:
            self._run.server_rss_mb = self._server.stop()

    def report(self):
        run, a, b, stats = self._run, self._a, self._b, self._stats
        for conn in (a, b):
            for ok, why in conn.outcomes:
                run.op(ok, why)
        run.check(stats["errors"] == 0,
                  f"serving.server.errors = {stats['errors']}")
        reads = a.latencies + b.read_latencies
        commits = b.commit_latencies
        completed = len(reads) + len(commits)
        run.metric("served_qps", completed / self._seconds, "1/s", completed)
        run.metric("served_p95_ms", percentile(reads, 0.95), "ms", len(reads))
        run.metric("commit_p90_ms", percentile(commits, 0.90), "ms",
                   len(commits))
        run.digest.update(b.digest.digest())
        run.result.per_layer.update({
            "serving.server.requests": (stats["requests"], "count"),
            "serving.server.errors": (stats["errors"], "count"),
        })
        if self._traced:
            run.result.per_layer.update(
                run.tracer.wire_overhead(a.tagged + b.tagged)
            )


class _Connection:
    """One closed-loop client: the next request leaves when the previous
    response arrived."""

    def __init__(self, address, label, traced):
        self._client = ServingClient(*address)
        self._label = label
        self._traced = traced
        self.latencies = []         # A: every read
        self.read_latencies = []    # B
        self.commit_latencies = []  # B
        self.outcomes = []          # (ok, why) per request
        self.tagged = []            # (tag, client latency) in traced runs
        self.digest = hashlib.sha256()
        self._sent = 0

    def _request(self, op, **fields):
        tag = f"{self._label}:{self._sent}"
        self._sent += 1
        if self._traced:
            fields["tag"] = tag
        start = time.perf_counter()
        try:
            response = self._client.request(op, **fields)
        except Exception as exc:
            self.outcomes.append((False, f"{tag} {op}: {exc!r}"))
            return None, None
        latency = (time.perf_counter() - start) * 1e3
        ok = response.get("ok") is True
        self.outcomes.append((ok, f"{tag} {op}: {response.get('error')}"))
        if self._traced:
            self.tagged.append((tag, latency))
        return (response, latency) if ok else (None, None)

    def cycle(self, queries, done):
        """Read through ``queries``, over and over, until ``done``."""
        while not done.is_set():
            query = queries[self._sent % len(queries)]
            _response, latency = self._request("query", text=query.text)
            if latency is not None:
                self.latencies.append(latency)

    def play(self, plan):
        for kind, item in plan:
            if kind == "query":
                response, latency = self._request("query", text=item.text)
                if response is not None:
                    self.read_latencies.append(latency)
                    self.digest.update(
                        json.dumps(response["rows"]).encode("utf-8")
                    )
            else:
                response, latency = self._request(
                    "update", name=item.name, xml=item.xml, ts=item.ts
                )
                if response is not None:
                    self.commit_latencies.append(latency)

    def close(self):
        self._client.close()
