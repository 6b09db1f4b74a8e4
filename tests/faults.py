"""Fault injection for the crash-consistency suite.

:class:`FaultyFS` is a drop-in replacement for the engine's
:class:`~repro.storage.faults.OSFileSystem` that counts every mutating
operation and can

* **crash** at an exact operation index (simulating process death — the op
  fails and every subsequent call raises :class:`CrashError`),
* **tear** the write in flight at the crash point (only a prefix reaches
  the file, as on a real power cut mid-``write``),
* serve a **short read** (a prefix of the file, as after a lost tail),

and :func:`flip_bit` flips a bit in an on-disk file (silent media
corruption); :func:`tree_digest` hashes a directory tree, so a test can
show a reader left it as it was.  Both filesystems operate on real files, so the post-crash
directory state a test recovers from is exactly what landed on disk.
"""

from __future__ import annotations

import hashlib
import os

from repro.storage.faults import OSFileSystem


class CrashError(Exception):
    """Simulated process death injected by :class:`FaultyFS`.

    Deliberately *not* a :class:`~repro.errors.TemporalXMLError`: production
    code must never catch it, exactly as it cannot catch a real ``kill -9``.
    """


class FaultyFS(OSFileSystem):
    """Fault-injecting filesystem for the crash-consistency suite.

    ``crash_at=k`` makes the *k*-th mutating operation (1-based; writes,
    flushes, fsyncs, renames, truncates, directory syncs) fail with
    :class:`CrashError`; if that operation is a write, only
    ``torn_fraction`` of the data reaches the file first.  After the crash
    every further call — reads included — raises, modelling a dead process,
    and nothing its handles still buffered is ever written.

    ``short_read_at=k`` makes the *k*-th ``read_bytes`` return only
    ``short_read_fraction`` of the file.
    """

    def __init__(
        self,
        crash_at=None,
        torn_fraction=0.5,
        short_read_at=None,
        short_read_fraction=0.5,
    ):
        self.crash_at = crash_at
        self.torn_fraction = torn_fraction
        self.short_read_at = short_read_at
        self.short_read_fraction = short_read_fraction
        self.ops = 0  # mutating operations performed (or attempted)
        self.reads = 0
        self.crashed = False
        self.op_log = []  # (op name, path-or-None) per mutating op
        self._handles = []  # every handle opened, to silence at the crash

    # -- fault machinery -----------------------------------------------------

    def _check_alive(self):
        if self.crashed:
            raise CrashError("filesystem used after simulated crash")

    def _mutating(self, name, path=None):
        """Count one mutating op; returns True when it must crash."""
        self._check_alive()
        self.ops += 1
        self.op_log.append((name, path))
        if self.crash_at is not None and self.ops >= self.crash_at:
            self.crashed = True
            return True
        return False

    def _crash(self, name):
        # What a dead process still buffered dies with it.  The abandoned
        # file objects live on in this one, and Python flushes them when it
        # finalizes them -- whenever the collector gets to it, possibly
        # into the directory the test is recovering by then -- so point
        # their descriptors somewhere harmless first.
        null = os.open(os.devnull, os.O_WRONLY)
        try:
            for handle in self._handles:
                if not handle.closed:
                    os.dup2(null, handle.fileno())
        finally:
            os.close(null)
        raise CrashError(f"simulated crash during {name} (op {self.ops})")

    # -- instrumented operations --------------------------------------------

    def open_append(self, path):
        self._check_alive()
        self._handles.append(super().open_append(path))
        return self._handles[-1]

    def open_write(self, path):
        self._check_alive()
        self._handles.append(super().open_write(path))
        return self._handles[-1]

    def write(self, handle, data):
        if self._mutating("write", getattr(handle, "name", None)):
            torn = data[: int(len(data) * self.torn_fraction)]
            if torn:
                handle.write(torn)
                handle.flush()
            self._crash("write")
        super().write(handle, data)

    def flush(self, handle):
        if self._mutating("flush", getattr(handle, "name", None)):
            self._crash("flush")
        super().flush(handle)

    def fsync(self, handle):
        if self._mutating("fsync", getattr(handle, "name", None)):
            self._crash("fsync")
        super().fsync(handle)

    def close(self, handle):
        self._check_alive()
        super().close(handle)

    def exists(self, path):
        self._check_alive()
        return super().exists(path)

    def size(self, path):
        self._check_alive()
        return super().size(path)

    def read_bytes(self, path, length=None):
        self._check_alive()
        self.reads += 1
        data = super().read_bytes(path, length)
        if self.short_read_at is not None and self.reads == self.short_read_at:
            return data[: int(len(data) * self.short_read_fraction)]
        return data

    def replace(self, src, dst):
        if self._mutating("replace", dst):
            self._crash("replace")
        super().replace(src, dst)

    def remove(self, path):
        if self._mutating("remove", path):
            self._crash("remove")
        super().remove(path)

    def truncate(self, path, size):
        if self._mutating("truncate", path):
            self._crash("truncate")
        super().truncate(path, size)

    def fsync_dir(self, path):
        if self._mutating("fsync_dir", path):
            self._crash("fsync_dir")
        super().fsync_dir(path)


def flip_bit(path, byte_offset, bit=0):
    """Flip one bit of an on-disk file (silent-corruption injection)."""
    with open(path, "r+b") as handle:
        handle.seek(byte_offset)
        byte = handle.read(1)
        if not byte:
            raise ValueError(f"offset {byte_offset} beyond end of {path!r}")
        handle.seek(byte_offset)
        handle.write(bytes([byte[0] ^ (1 << bit)]))


def tree_digest(directory):
    """SHA-256 over every directory and file path under ``directory``
    and each file's bytes, or ``None`` when ``directory`` does not exist:
    equal digests mean nothing was created, removed or changed."""
    if not os.path.exists(directory):
        return None
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(directory):
        dirs.sort()
        digest.update(os.path.relpath(root, directory).encode() + b"/\0")
        for name in sorted(files):
            with open(os.path.join(root, name), "rb") as handle:
                data = handle.read()
            digest.update(f"{name}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()
