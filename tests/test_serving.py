"""The concurrent serving layer: snapshot isolation, replicas, the server.

The central test here is randomized reader/writer interleaving: reader
threads hammer pinned sessions while a writer commits a scripted history,
and afterwards every observed ``(published seq, query)`` pair is re-run
against a quiesced store built by applying exactly that prefix of the
script serially.  Snapshot isolation holds iff the concurrent results are
byte-identical to the serial ones — for every query shape the engine has:
snapshot scans, EVERY scans, aggregates, globs, ``CURRENT``/``NEXT``
navigation, ``DELETE TIME``, and document-name resolution itself.
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro import TemporalXMLDatabase
from repro.clock import parse_date
from repro.errors import ServingError, StorageError, TemporalXMLError
from repro.serving import (
    PublishedState,
    Replica,
    ServingClient,
    ServingServer,
    SessionManager,
)
import repro.serving.server as serving_server
from repro.clock import LogicalClock
from repro.sync import RWLock
from repro.xmlcore.parser import MAX_DEPTH

JAN_01 = parse_date("01/01/2001")

NAMES = ["guide.com", "news.com"]
WORDS = ["napoli", "roma", "bergen", "oslo"]

QUERIES = [
    'SELECT R FROM doc("guide.com")/restaurant R',
    'SELECT TIME(R), R/price FROM doc("guide.com")[EVERY]/restaurant R',
    'SELECT R/name FROM doc("*")[EVERY]/restaurant R WHERE R/name="napoli"',
    'SELECT SUM(R) FROM doc("news.com")/restaurant R',
    'SELECT TIME(R), DELETE TIME(R) FROM doc("news.com")[EVERY]/restaurant R',
    'SELECT CURRENT(R)/price FROM doc("guide.com")[EVERY]/restaurant R',
    'SELECT NEXT(R)/price FROM doc("guide.com")[EVERY]/restaurant R',
    'SELECT R FROM doc("guide.com") R',
]


def _doc_xml(rng):
    items = "".join(
        f"<restaurant><name>{rng.choice(WORDS)}</name>"
        f"<price>{rng.randrange(5, 40)}</price></restaurant>"
        for _ in range(rng.randrange(1, 4))
    )
    return f"<guide>{items}</guide>"


def _make_plan(seed, count):
    """A scripted commit history with strictly increasing timestamps,
    including deletions and name reuse (fresh identity after delete)."""
    rng = random.Random(seed)
    ts = JAN_01
    alive = set()
    plan = []
    for _ in range(count):
        ts += rng.randrange(3600, 200000)
        name = rng.choice(NAMES)
        if name not in alive:
            plan.append(("put", name, _doc_xml(rng), ts))
            alive.add(name)
        elif rng.random() < 0.15:
            plan.append(("delete", name, None, ts))
            alive.discard(name)
        else:
            plan.append(("update", name, _doc_xml(rng), ts))
    return plan


def _apply(target, op):
    kind, name, xml, ts = op
    if kind == "put":
        target.put(name, xml, ts=ts)
    elif kind == "update":
        target.update(name, xml, ts=ts)
    else:
        target.delete(name, ts=ts)


def _canonical(run):
    """Byte-comparable outcome of a query: its XML envelope, or the error
    class when it raises (a pinned reader must raise exactly where the
    quiesced store would)."""
    try:
        return run().to_xml_string()
    except TemporalXMLError as exc:
        return f"<error>{type(exc).__name__}</error>"


# -- sessions and the published pointer ---------------------------------------


def test_session_pins_to_published_state():
    db = TemporalXMLDatabase()
    manager = SessionManager(db)
    assert manager.published == PublishedState(0, db.now())

    manager.put("guide.com", "<guide><restaurant><name>napoli</name>"
                "<price>20</price></restaurant></guide>", ts=JAN_01)
    session = manager.session()
    assert session.pinned.seq == 1

    before = _canonical(lambda: session.query(QUERIES[0]))
    manager.update("guide.com", "<guide><restaurant><name>napoli</name>"
                   "<price>25</price></restaurant></guide>",
                   ts=parse_date("15/01/2001"))
    # The old session still reads its snapshot; a refresh re-pins it.
    assert _canonical(lambda: session.query(QUERIES[0])) == before
    session.refresh()
    assert session.pinned.seq == 2
    assert _canonical(lambda: session.query(QUERIES[0])) != before


def test_session_hides_documents_created_after_pin():
    db = TemporalXMLDatabase()
    manager = SessionManager(db)
    manager.put("guide.com", "<guide><a>x</a></guide>", ts=JAN_01)
    session = manager.session()
    manager.put("news.com", "<news><a>y</a></news>",
                ts=parse_date("15/01/2001"))
    # Pinned before news.com existed: the name must not even resolve.
    assert _canonical(
        lambda: session.query('SELECT R FROM doc("news.com") R')
    ) == "<error>NoSuchDocumentError</error>"
    result = session.query('SELECT R FROM doc("*")[EVERY] R')
    assert "news" not in result.to_xml_string()
    session.refresh()
    assert len(session.query('SELECT R FROM doc("news.com") R')) == 1


def test_per_query_stats_are_not_shared_between_sessions():
    db = TemporalXMLDatabase()
    manager = SessionManager(db)
    manager.put("guide.com", "<guide><restaurant><name>napoli</name>"
                "<price>20</price></restaurant></guide>", ts=JAN_01)
    a = manager.session()
    b = manager.session()
    result_a = a.query(QUERIES[0])
    assert result_a.stats is not None  # per-execute delta, satellite #1
    result_b = b.query(QUERIES[1])
    # a's engine-local counters are untouched by b's query.
    assert a.engine.last_query_stats == result_a.stats
    assert b.engine.last_query_stats == result_b.stats
    stats = a.stats()
    assert stats["queries"] == 1 and stats["pinned_seq"] == 1


def test_writes_are_serialized_and_publish_monotonically():
    db = TemporalXMLDatabase()
    manager = SessionManager(db)
    seen = []

    def writer(idx):
        for i in range(5):
            manager.put(f"doc{idx}-{i}.xml", "<d><v>1</v></d>")
            seen.append(manager.published.seq)

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert manager.published.seq == 15
    assert manager.commits == 15
    assert len(db.documents()) == 15


# -- the randomized interleaving proof ----------------------------------------


@pytest.mark.timeout(120)
def test_randomized_readers_match_serial_execution():
    plan = _make_plan(seed=7, count=24)
    db = TemporalXMLDatabase()
    manager = SessionManager(db)
    stop = threading.Event()
    observed = set()
    observed_lock = threading.Lock()
    reader_errors = []

    def reader(idx):
        rng = random.Random(100 + idx)
        try:
            while not stop.is_set():
                session = manager.session()
                for _ in range(rng.randrange(1, 3)):
                    query = rng.choice(QUERIES)
                    text = _canonical(lambda: session.query(query))
                    with observed_lock:
                        observed.add((session.pinned.seq, query, text))
        except Exception as exc:  # noqa: BLE001 — recorded for the assert
            reader_errors.append(exc)

    threads = [
        threading.Thread(target=reader, args=(i,)) for i in range(3)
    ]
    for t in threads:
        t.start()
    try:
        for op in plan:
            _apply(manager, op)
            time.sleep(0.002)
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=30)
    assert not reader_errors
    assert observed

    # Published seq k <=> exactly plan[:k] applied.  Rebuild each observed
    # prefix serially on a quiesced store and demand byte-identical output.
    baselines = {}
    for seq in sorted({seq for seq, _, _ in observed}):
        baseline = TemporalXMLDatabase()
        for op in plan[:seq]:
            _apply(baseline, op)
        baselines[seq] = baseline
    for seq, query, text in sorted(observed):
        expected = _canonical(lambda: baselines[seq].query(query))
        assert text == expected, (
            f"snapshot isolation violated at seq {seq} for {query!r}"
        )


# -- journal-shipping replicas ------------------------------------------------


@pytest.mark.timeout(60)
def test_replica_catches_up_with_leader(tmp_path):
    leader_dir = tmp_path / "leader"
    leader = TemporalXMLDatabase.open(leader_dir, durability="journal")
    plan = _make_plan(seed=11, count=10)
    for op in plan[:6]:
        _apply(leader, op)

    replica = Replica(leader_dir)
    _assert_same_database(leader, replica)

    for op in plan[6:]:
        _apply(leader, op)
    assert replica.catch_up() == 4
    _assert_same_database(leader, replica)

    # Catch-up is idempotent: nothing new, nothing re-applied.
    assert replica.catch_up() == 0

    # Survives a journal roll (checkpoint) and keeps tailing.
    leader.checkpoint()
    _apply(leader, ("update", plan[0][1], "<guide><a>tail</a></guide>",
                    plan[-1][3] + 5000))
    assert replica.catch_up() == 1
    _assert_same_database(leader, replica)
    leader.close()

    with pytest.raises(StorageError):
        replica.sessions.put("x.xml", "<a>no</a>")


@pytest.mark.timeout(60)
def test_replica_follow_tails_on_a_timer(tmp_path):
    leader_dir = tmp_path / "leader"
    leader = TemporalXMLDatabase.open(leader_dir, durability="journal")
    plan = _make_plan(seed=23, count=8)
    for op in plan[:4]:
        _apply(leader, op)

    replica = Replica(leader_dir)
    stop = threading.Event()
    applied = []
    follower = threading.Thread(
        target=lambda: applied.append(replica.follow(0.01, stop=stop))
    )
    follower.start()
    try:
        for op in plan[4:]:
            _apply(leader, op)
        deadline = time.monotonic() + 30
        while replica.stats()["records_applied"] < len(plan) - 4:
            assert time.monotonic() < deadline, "follow never caught up"
            time.sleep(0.01)
    finally:
        stop.set()
        follower.join()
    # The follower applied everything committed after the seed read.
    assert applied == [len(plan) - 4]
    _assert_same_database(leader, replica)
    leader.close()


def test_replica_follow_duration_returns(tmp_path):
    leader_dir = tmp_path / "leader"
    leader = TemporalXMLDatabase.open(leader_dir, durability="journal")
    plan = _make_plan(seed=29, count=4)
    for op in plan[:2]:
        _apply(leader, op)
    replica = Replica(leader_dir)
    for op in plan[2:]:
        _apply(leader, op)
    # A bounded follow picks up the tail and returns on its own.
    assert replica.follow(0.01, duration=0.1) == 2
    _assert_same_database(leader, replica)
    leader.close()


def _assert_same_database(leader, replica):
    for query in QUERIES:
        assert _canonical(lambda: replica.query(query)) == _canonical(
            lambda: leader.query(query)
        )
    now = leader.now()
    for word in WORDS:
        assert _postings(replica.fti.lookup_t(word, now)) == _postings(
            leader.fti.lookup_t(word, now)
        )
    assert len(replica.lifetime) == len(leader.lifetime)


def _postings(postings):
    return sorted((p.doc_id, p.xid, p.start, p.end) for p in postings)


# -- the socket front end -----------------------------------------------------


@pytest.mark.timeout(60)
def test_server_serves_concurrent_clients():
    db = TemporalXMLDatabase()
    manager = SessionManager(db)
    manager.put("guide.com", "<guide><restaurant><name>napoli</name>"
                "<price>20</price></restaurant></guide>", ts=JAN_01)
    failures = []
    with ServingServer(manager) as server:
        host, port = server.address

        def client_reads(idx):
            try:
                with ServingClient(host, port) as client:
                    assert client.ping()["pong"]
                    for _ in range(10):
                        response = client.query(QUERIES[0], stats=True)
                        assert response["rows"], response
                        assert response["stats"] is not None
            except Exception as exc:  # noqa: BLE001
                failures.append(exc)

        threads = [
            threading.Thread(target=client_reads, args=(i,))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        with ServingClient(host, port) as writer:
            writer.update("guide.com", "<guide><restaurant><name>napoli"
                          "</name><price>30</price></restaurant></guide>",
                          ts="15/01/2001")
        for t in threads:
            t.join(timeout=30)
        assert not failures

        with ServingClient(host, port) as client:
            # Snapshot stability across requests: refresh=False keeps the pin.
            pinned = client.pinned()
            again = client.query(QUERIES[0], refresh=False)["pinned"]
            assert again == pinned
            report = client.trace(QUERIES[1])["report"]
            assert report["wall_ms"] >= 0 and report["row_count"] >= 1
            with pytest.raises(ServingError):
                client.query('SELECT R FROM doc("missing") R')
            # A typed plan error, not "KeyError: 'R'" from inside the engine.
            refused = client.request(
                "query",
                text='SELECT R FROM doc("guide.com")[R]/restaurant R',
            )
            assert refused["error_type"] == "QueryPlanError"
            assert "cannot reference a variable" in refused["error"]
            stats = client.stats()
            assert stats["server"]["connections"] >= 6
            assert stats["server"]["manager"]["commits"] == 2


@pytest.mark.timeout(60)
def test_served_writes_meet_the_nesting_bound_at_the_door():
    """Past ``MAX_DEPTH`` the reply is the parser's typed error (it used to
    be ``"RecursionError: ..."`` from somewhere behind it, or worse, a put
    that worked and an update that did not); at the bound a worker thread
    has stack enough for everything a write and a traced read do."""
    def nested(depth, leaf):
        return "<a>" * depth + leaf + "</a>" * depth

    manager = SessionManager(TemporalXMLDatabase())
    with ServingServer(manager) as server, ServingClient(*server.address) as client:
        client.put("deep", "<a/>")
        for op, name in (("put", "over"), ("update", "deep")):
            refused = client.request(op, name=name, xml=nested(MAX_DEPTH + 1, "x"))
            assert refused["ok"] is False
            assert refused["error_type"] == "XMLSyntaxError"
            assert f"deeper than {MAX_DEPTH}" in refused["error"]
            assert "Recursion" not in refused["error"]
        assert client.update("deep", nested(MAX_DEPTH, "x"))["ok"]
        assert client.update("deep", nested(MAX_DEPTH, "y z"))["ok"]
        assert client.update("deep", "<b>" + nested(MAX_DEPTH - 1, "y") + "</b>")["ok"]
        report = client.trace('SELECT TIME(R), R FROM doc("deep")[EVERY] R')["report"]
        assert report["row_count"] == 4
        assert client.stats()["server"]["manager"]["commits"] == 4


@pytest.mark.timeout(60)
def test_an_over_long_request_line_is_refused_and_its_neighbour_served(
        monkeypatch):
    """The server reads at most ``MAX_REQUEST_BYTES`` of a line: one that
    runs past it gets a typed error, counts as an error and ends its own
    connection, while another client's connection is served on.  The line
    runs well past the bound, so the server must read the rest of it before
    it closes: closing with input unread resets the connection, and the
    reset would raise here instead of the reply and a clean end."""
    # 4 × the bound outruns the socket buffers: the client is still sending
    # when the server refuses the line, and it would see a broken pipe.
    bound = 1024 * 1024
    monkeypatch.setattr(serving_server, "MAX_REQUEST_BYTES", bound)
    manager = SessionManager(TemporalXMLDatabase())
    with ServingServer(manager) as server, \
            ServingClient(*server.address) as neighbour:
        neighbour.put("guide.com", "<guide><r>1</r></guide>")
        with socket.create_connection(server.address, timeout=30) as raw:
            raw.sendall(b"x" * (4 * bound) + b"\n")
            replies = raw.makefile("rb")
            refused = json.loads(replies.readline())
            assert replies.readline() == b""  # closed, not reset
            replies.close()
        assert refused["ok"] is False
        assert refused["error_type"] == "ServingError"
        assert f"{bound} bytes" in refused["error"]
        assert neighbour.query('SELECT R FROM doc("guide.com")/r R')["rows"]
        assert neighbour.stats()["server"]["errors"] == 1


@pytest.mark.timeout(60)
def test_an_unexpected_exception_is_an_internal_error(monkeypatch, caplog):
    """A handler failing with something other than an engine error gets a
    typed reply that says nothing of the failure, counts as an error and
    is logged with its traceback; its connection and a neighbour's are
    served on."""
    def fail(self, session, request):
        raise RuntimeError("secret detail")

    monkeypatch.setattr(ServingServer, "_op_ping", fail)
    manager = SessionManager(TemporalXMLDatabase())
    with ServingServer(manager) as server, \
            ServingClient(*server.address) as client, \
            ServingClient(*server.address) as neighbour:
        neighbour.put("guide.com", "<guide><r>1</r></guide>")
        with caplog.at_level("ERROR", logger="repro.serving.server"):
            refused = client.request("ping")
        assert refused == {"ok": False, "error": "internal error",
                           "error_type": "ServingError"}
        assert "RuntimeError: secret detail" in caplog.text
        assert client.query('SELECT R FROM doc("guide.com")/r R')["rows"]
        assert neighbour.query('SELECT R FROM doc("guide.com")/r R')["rows"]
        assert neighbour.stats()["server"]["errors"] == 1
        missing = client.request("query")
        assert missing["error_type"] == "ServingError"
        assert missing["error"] == "missing query 'text'"


@pytest.mark.timeout(60)
@pytest.mark.parametrize("flag, snapshots", [
    (["--snapshot-interval", "2"], [2, 4]),
    ([], []),
])
def test_serve_snapshot_interval_covers_commits_made_while_serving(
        tmp_path, flag, snapshots):
    """``repro serve -d DIR --snapshot-interval N``: versions committed
    through the server get interval snapshots (journaled, so a reopen sees
    them); without the flag a served database takes none."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    directory = str(tmp_path / "served")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "-d", directory, *flag],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    try:
        line = proc.stdout.readline()
        assert " on " in line, line
        host, port = line.rsplit(" on ", 1)[1].strip().rsplit(":", 1)
        with ServingClient(host, int(port)) as client:
            client.put("guide.com", "<guide><r>0</r></guide>")
            for number in range(1, 5):
                client.update("guide.com", f"<guide><r>{number}</r></guide>")
    finally:
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=30)
        proc.stdout.close()
    db = TemporalXMLDatabase.open(directory, durability="none")
    entries = db.store.delta_index("guide.com").entries
    assert len(entries) == 5
    assert [e.number for e in entries if e.has_snapshot] == snapshots


# -- satellite: shared hot-path structures are thread-safe --------------------


@pytest.mark.timeout(60)
def test_version_cache_and_clock_survive_thread_hammering():
    """The clock is the shared hot-path structure left (the version cache
    this test also hammered is gone)."""
    clock = LogicalClock()
    ticks = []
    ticks_lock = threading.Lock()
    failures = []

    def hammer(idx):
        try:
            local = []
            for _ in range(300):
                local.append(clock.advance())
            with ticks_lock:
                ticks.extend(local)
        except Exception as exc:  # noqa: BLE001
            failures.append(exc)

    threads = [threading.Thread(target=hammer, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not failures
    # Atomic ticks: every advance() returned a distinct timestamp.
    assert len(set(ticks)) == len(ticks) == 6 * 300


@pytest.mark.timeout(60)
def test_anchor_stats_are_counted_by_txql_reads_and_snapshot_beside_them():
    """Every stored read counts its anchor in the one walker, TXQL's
    included, and the registry's unlocked ``AnchorStats.snapshot()`` may run
    while reader threads choose an anchor kind for the first time: the
    three kinds are fixed keys from the start."""
    db = TemporalXMLDatabase(snapshot_interval=4)
    manager = SessionManager(db)
    rng = random.Random(5)
    manager.put("guide.com", _doc_xml(rng), ts=JAN_01)
    for number in range(1, 14):
        manager.update("guide.com", _doc_xml(rng), ts=JAN_01 + number * 86400)
    repository = db.store.repository
    stats = repository.anchor_stats
    kinds = {"by_anchor.current", "by_anchor.snapshot_after",
             "by_anchor.snapshot_before"}
    assert kinds <= set(stats.snapshot())
    before = sum(stats.by_anchor.values())

    failures = []
    done = threading.Event()

    def reader(idx):
        try:
            day = random.Random(idx)
            for _ in range(25):
                when = time.strftime(
                    "%d/%m/%Y", time.gmtime(JAN_01 + day.randrange(14) * 86400)
                )
                manager.session().query(
                    f'SELECT R FROM doc("guide.com")[{when}]/restaurant R'
                )
                manager.session().query(QUERIES[1])
        except Exception as exc:  # noqa: BLE001
            failures.append(exc)

    def snapshotter():
        try:
            while not done.is_set():
                assert kinds <= set(stats.snapshot())
        except Exception as exc:  # noqa: BLE001
            failures.append(exc)

    watcher = threading.Thread(target=snapshotter)
    watcher.start()
    threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    done.set()
    watcher.join(timeout=30)
    assert not failures
    counters = repository.counter_snapshot()
    final = stats.as_dict()
    # One anchor kind per cursor started on a stored version; exact counts.
    assert sum(final["by_anchor"].values()) - before > 0
    assert sum(final["by_anchor"].values()) == counters["subtree_reads"]
    assert final["forward_chains"] and final["backward_chains"]
    assert sum(1 for count in final["by_anchor"].values() if count) >= 2


def test_rwlock_is_write_preferring():
    lock = RWLock()
    order = []

    with lock.read_lock():
        order.append("read")
    with lock.write_lock():
        order.append("write")
    assert order == ["read", "write"]

    # A writer excludes readers: the reader thread only proceeds after
    # the writer releases.
    entered = threading.Event()
    release = threading.Event()
    progressed = []

    def writer():
        with lock.write_lock():
            entered.set()
            release.wait(timeout=10)

    def reader():
        entered.wait(timeout=10)
        with lock.read_lock():
            progressed.append(True)

    w = threading.Thread(target=writer)
    r = threading.Thread(target=reader)
    w.start()
    r.start()
    entered.wait(timeout=10)
    assert not progressed  # reader blocked behind the active writer
    release.set()
    w.join(timeout=10)
    r.join(timeout=10)
    assert progressed == [True]
