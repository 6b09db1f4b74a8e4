"""The only place the benchmark constructs the system under test.

An API-narrowing PR changes :func:`make_db` / :func:`open_served` (one
line each) through a benchmark issue of its own; nothing else in this
package opens a database or starts a server.
"""

from __future__ import annotations

import os
import resource
import signal
import subprocess
import sys

from repro import TemporalXMLDatabase
from repro.serving import ServingServer, SessionManager

from . import SRC

#: The command :class:`ServerProcess` runs on a directory, and what that
#: command opens (`repro.cli._cmd_serve`); :func:`open_served` is the
#: same call made in this process.  `repro serve` has no
#: `--snapshot-interval`, so commits made while serving take no interval
#: snapshots; the directory served was written by :func:`make_db`.
SERVE_ARGS = ("serve", "--durability", "fsync", "--storage", "cas", "-d")


def make_db(directory):
    """The default engine configuration, and nothing else."""
    return TemporalXMLDatabase.open(
        directory, durability="fsync", storage="cas", snapshot_interval=25
    )


def open_served(directory):
    """The database ``python -m repro`` + ``SERVE_ARGS`` serves."""
    return TemporalXMLDatabase.open(directory, durability="fsync", storage="cas")


class ServerProcess:
    """``python -m repro serve ... -d DIR`` as a child process.

    Construction returns once the child printed its address, i.e. after
    its recovery of ``directory`` finished."""

    def __init__(self, directory):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *SERVE_ARGS, str(directory)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env,
        )
        line = self._proc.stdout.readline()
        if " on " not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        host, port = line.rsplit(" on ", 1)[1].strip().rsplit(":", 1)
        self.address = (host, int(port))

    def stop(self):
        """Interrupt the child, wait for it, return its peak RSS in MB."""
        if self._proc.poll() is None:
            self._proc.send_signal(signal.SIGINT)
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        return children.ru_maxrss / 1024.0


class InProcessServer:
    """What ``repro serve`` does, hosted in this process so the traced
    run's wrappers see the server side too."""

    def __init__(self, directory):
        self._db = open_served(directory)
        self._server = ServingServer(SessionManager(self._db))
        self.address = self._server.start()

    def stop(self):
        self._server.stop()
        self._db.close()
        return 0.0
