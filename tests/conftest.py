"""Shared fixtures: the Figure 1 database and synthetic collections.

Also provides a fallback for ``@pytest.mark.timeout(...)`` when the
pytest-timeout plugin is not installed: a daemon watchdog timer that
dumps every thread's stack and hard-exits, so a deadlocked concurrency
test fails fast in CI instead of hanging the whole run.
"""

from __future__ import annotations

import faulthandler
import os
import sys
import threading

import pytest
from hypothesis import settings

from benchmarks.ablation.fti_alternatives import DeltaOperationIndex
from repro import TemporalXMLDatabase
from repro.clock import parse_date
from repro.index import LifetimeIndex, TemporalFullTextIndex
from repro.storage import TemporalDocumentStore
from repro.workload import TDocGenerator, build_collection, load_figure1


# Every @given test draws the same examples on every run, so the suite's
# verdict does not depend on the draw.  Explore with hypothesis's own
# ``--hypothesis-profile=default`` or ``--hypothesis-seed=N``.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


try:
    import pytest_timeout  # noqa: F401  (the plugin enforces the marker)

    _HAVE_PYTEST_TIMEOUT = True
except ImportError:
    _HAVE_PYTEST_TIMEOUT = False


def _abort_hung_test(nodeid, seconds):
    sys.stderr.write(
        f"\n\nFATAL: {nodeid} still running after {seconds}s; "
        "dumping thread stacks and aborting.\n"
    )
    faulthandler.dump_traceback(file=sys.stderr)
    sys.stderr.flush()
    os._exit(70)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    marker = item.get_closest_marker("timeout")
    if marker is None or _HAVE_PYTEST_TIMEOUT or not marker.args:
        yield
        return
    seconds = marker.args[0]
    watchdog = threading.Timer(
        seconds, _abort_hung_test, args=(item.nodeid, seconds)
    )
    watchdog.daemon = True
    watchdog.start()
    try:
        yield
    finally:
        watchdog.cancel()


@pytest.fixture
def figure1_db():
    """The paper's Figure 1 loaded into a full database facade."""
    db = TemporalXMLDatabase()
    load_figure1(db)
    return db


@pytest.fixture
def figure1_store():
    """Figure 1 in a bare store with all three index observers attached."""
    store = TemporalDocumentStore()
    fti = store.subscribe(TemporalFullTextIndex())
    lifetime = store.subscribe(LifetimeIndex())
    ops = store.subscribe(DeltaOperationIndex())
    load_figure1(store)
    return store, fti, lifetime, ops


@pytest.fixture
def synthetic_store():
    """A small deterministic multi-document temporal collection."""
    store = TemporalDocumentStore()
    fti = store.subscribe(TemporalFullTextIndex())
    lifetime = store.subscribe(LifetimeIndex())
    generator = TDocGenerator(seed=7)
    names = build_collection(
        store, n_docs=4, versions_per_doc=5, generator=generator
    )
    return store, fti, lifetime, names


def ts(text):
    """Shorthand date parser used across test modules."""
    return parse_date(text)


JAN_01 = parse_date("01/01/2001")
JAN_15 = parse_date("15/01/2001")
JAN_26 = parse_date("26/01/2001")
JAN_31 = parse_date("31/01/2001")
