"""Database directories in the layouts older releases wrote.

A durable directory checkpoints to CAS only, and ``repro upgrade``
(:mod:`repro.storage.legacy`) converts the XML archives
(``checkpoint.xml`` and ``checkpoint.xml.prev``) an older release left
there.  :func:`make_legacy` rewrites a CAS directory into that layout, so
the upgrade can be driven on any history: each pointer generation
becomes the archive of the store it names
(``archive_bytes(build_archive(store))``, what the XML checkpoint writer
wrote), and the pointers and the object store go.  Journals are left as
they are.  ``tests/data/xml_dir_v1`` is such a directory written by the
XML checkpoint writer itself.  :func:`crash_every_upgrade_op` holds an
upgrade against a crash at each of its filesystem operations.
"""

import hashlib
import shutil
from pathlib import Path

import pytest

from repro import TemporalXMLDatabase
from repro.storage.cas import (
    CAS_POINTER_FILE,
    OBJECTS_DIR,
    CASObjectStore,
    read_checkpoint,
)
from repro.storage.checkpoint import PREV_SUFFIX
from repro.storage.legacy import LEGACY_CHECKPOINT_FILE, upgrade
from repro.storage.persistence import archive_bytes, build_archive
from tests.faults import CrashError, FaultyFS, tree_digest


def make_legacy(directory):
    """Turn the CAS checkpoints in ``directory`` into XML checkpoints."""
    directory = Path(directory)
    for suffix in ("", PREV_SUFFIX):
        pointer = directory / (CAS_POINTER_FILE + suffix)
        if pointer.exists():
            store = read_checkpoint(
                CASObjectStore(directory), pointer=str(pointer)
            )
            archive = archive_bytes(build_archive(store))
            (directory / (LEGACY_CHECKPOINT_FILE + suffix)).write_bytes(
                archive
            )
            pointer.unlink()
    shutil.rmtree(directory / OBJECTS_DIR, ignore_errors=True)
    return directory


def digest(store):
    """sha256 of ``archive_bytes(build_archive(store))``."""
    return hashlib.sha256(archive_bytes(build_archive(store))).hexdigest()


def crash_every_upgrade_op(source, tmp_path, want):
    """Crash the upgrade of a copy of ``source`` at each of its filesystem
    operations in turn; the next upgrade of each copy must succeed, open
    to the digest ``want`` and leave nothing for a third one to write.
    Returns how many operations the upgrade takes."""
    probe = tmp_path / "probe"
    shutil.copytree(source, probe)
    fs = FaultyFS()  # counts ops, never crashes
    assert upgrade(probe, fs=fs)
    for k in range(1, fs.ops + 1):
        target = tmp_path / f"crash-{k}"
        shutil.copytree(source, target)
        with pytest.raises(CrashError):
            upgrade(target, fs=FaultyFS(crash_at=k))
        upgrade(target)
        db = TemporalXMLDatabase.open(target, durability="none")
        assert digest(db.store) == want, k
        before = tree_digest(target)
        assert not upgrade(target), k
        assert tree_digest(target) == before, k
        shutil.rmtree(target)
    return fs.ops
