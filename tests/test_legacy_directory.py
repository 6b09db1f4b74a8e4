"""A directory an older release wrote: XML checkpoints, refused until
upgraded.

``tests/data/xml_dir_v1`` was written by commit ``14db009``, whose
directories checkpointed to XML archives by default: ``checkpoint.xml``
and ``checkpoint.xml.prev``, ``journal.bin.prev``, and a ``journal.bin``
whose three records lie past the newest checkpoint.  Regenerate from an
export of that commit, with ``PYTHONPATH=src``::

    from repro import TemporalXMLDatabase
    db = TemporalXMLDatabase.open("xml_dir_v1", durability="fsync",
                                  snapshot_interval=3)
    db.put("a.xml", "<doc><x>alpha one</x><y>beta</y></doc>")
    db.put("b.xml", "<doc><m>mu one</m></doc>")
    db.update("a.xml", "<doc><x>alpha two</x><y>beta</y><z>gamma</z></doc>")
    db.checkpoint()
    db.update("a.xml", "<doc><x>alpha three</x><z>gamma delta</z></doc>")
    db.update("b.xml", "<doc><m>mu two</m><n>nu</n></doc>")
    db.put("c.xml", "<doc><p>pi one</p></doc>")
    db.checkpoint()
    db.update("a.xml", "<doc><x>alpha four</x></doc>")
    db.delete("b.xml")
    db.update("c.xml", "<doc><p>pi two</p><q>chi</q></doc>")
    db.close()

Every test works on a copy.  ``open()`` and ``repro recover`` refuse it
and change no file; ``repro upgrade`` recovers it through the XML
archives and the v2 journals, writes CAS checkpoints and an empty v3
journal and removes the rest, in an order a crash at any operation
leaves for the next upgrade to finish.
"""

import io
import shutil
from pathlib import Path

import pytest

from repro import TemporalXMLDatabase
from repro.cli import main
from repro.errors import UnsupportedFormatError
from repro.storage.journal import MAGIC
from tests.faults import tree_digest
from tests.legacy_dirs import crash_every_upgrade_op, digest

XML_DIR_V1 = Path(__file__).parent / "data" / "xml_dir_v1"

#: sha256 of ``archive_bytes(build_archive(store))`` after upgrading it.
XML_DIR_V1_FINGERPRINT = (
    "6c156a21a3a6f31307d2bbac824f2740a27077ff73947c54373c22506db872ac"
)

LEGACY_FILES = [
    "checkpoint.xml", "checkpoint.xml.prev", "journal.bin", "journal.bin.prev",
]


@pytest.fixture
def directory(tmp_path):
    target = tmp_path / "db"
    shutil.copytree(XML_DIR_V1, target)
    return target


@pytest.mark.parametrize("durability", ["none", "journal"])
def test_open_refuses_it_and_changes_nothing(directory, durability):
    assert sorted(path.name for path in directory.iterdir()) == LEGACY_FILES
    before = tree_digest(directory)
    with pytest.raises(UnsupportedFormatError, match="XML checkpoint"):
        TemporalXMLDatabase.open(directory, durability=durability)
    assert tree_digest(directory) == before


def test_recover_refuses_it_and_changes_nothing(directory):
    before = tree_digest(directory)
    out = io.StringIO()
    assert main(["recover", "-d", str(directory)], out=out) == 1
    assert "`repro upgrade -d DIR`" in out.getvalue()
    assert tree_digest(directory) == before


def test_upgrade_converts_it_once(directory):
    out = io.StringIO()
    assert main(["upgrade", "-d", str(directory)], out=out) == 0
    assert "upgraded" in out.getvalue()
    assert sorted(path.name for path in directory.iterdir()) == [
        "checkpoint.cas", "checkpoint.cas.prev", "journal.bin", "objects",
    ]
    assert (directory / "journal.bin").read_bytes() == MAGIC
    db = TemporalXMLDatabase.open(directory, durability="none")
    assert db.recovery.checkpoint_source == "checkpoint"
    assert db.recovery.records_scanned == 0
    assert digest(db.store) == XML_DIR_V1_FINGERPRINT
    before = tree_digest(directory)
    assert main(["upgrade", "-d", str(directory)], out=out) == 0
    assert tree_digest(directory) == before


def test_a_crash_anywhere_in_the_upgrade_is_finished_by_the_next(tmp_path):
    ops = crash_every_upgrade_op(XML_DIR_V1, tmp_path,
                                 XML_DIR_V1_FINGERPRINT)
    assert ops >= 15
