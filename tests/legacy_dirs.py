"""Database directories in the layout older releases wrote.

A durable directory checkpoints to CAS only, but recovery still reads the
XML archives (``checkpoint.xml`` and ``checkpoint.xml.prev``) an older
release left there.  :func:`make_legacy` rewrites a CAS directory into
that layout, so the legacy reader and the migration can be driven on any
history: each pointer generation becomes the archive of the store it
names (``archive_bytes(build_archive(store))``, what the XML checkpoint
writer wrote), and the pointers and the object store go.  Journals are
left as they are.  ``tests/data/xml_dir_v1`` is such a directory written
by the XML checkpoint writer itself.
"""

import shutil
from pathlib import Path

from repro.storage.cas import (
    CAS_POINTER_FILE,
    OBJECTS_DIR,
    CASObjectStore,
    read_checkpoint,
)
from repro.storage.checkpoint import LEGACY_CHECKPOINT_FILE, PREV_SUFFIX
from repro.storage.persistence import archive_bytes, build_archive


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
