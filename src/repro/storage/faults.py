"""The filesystem access layer.

Every durable-storage component (:mod:`~repro.storage.journal`, the CAS
checkpoints of :mod:`~repro.storage.cas`, recovery) performs
file I/O exclusively through an :class:`OSFileSystem` instance instead of
calling ``open``/``os`` directly.  That indirection is what makes the
crash-consistency suite possible: its fault-injecting filesystem
(``tests/faults.py``) is a drop-in subclass that counts every mutating
operation and can crash at any one of them, tear a write, serve a short
read or flip a bit, all on real files.
"""

from __future__ import annotations

import os


class OSFileSystem:
    """The real filesystem, expressed in the operations storage needs."""

    # -- handle-based I/O (journal appends, checkpoint temp files) ----------

    def open_append(self, path):
        return open(path, "ab")

    def open_write(self, path):
        return open(path, "wb")

    def write(self, handle, data):
        handle.write(data)

    def flush(self, handle):
        handle.flush()

    def fsync(self, handle):
        handle.flush()
        os.fsync(handle.fileno())

    def close(self, handle):
        handle.close()

    # -- whole-file and directory operations --------------------------------

    def exists(self, path):
        return os.path.exists(path)

    def size(self, path):
        return os.path.getsize(path)

    def read_bytes(self, path, length=None):
        """The file's bytes — all of them, or only the first ``length``."""
        with open(path, "rb") as handle:
            return handle.read(length)

    def replace(self, src, dst):
        os.replace(src, dst)

    def remove(self, path):
        os.remove(path)

    def truncate(self, path, size):
        with open(path, "r+b") as handle:
            handle.truncate(size)

    def fsync_dir(self, path):
        """Persist a directory entry (after create/rename); best effort."""
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)


#: Shared default instance; components use it when no ``fs`` is passed.
REAL_FS = OSFileSystem()
