"""A directory an older release wrote: XML checkpoints, read then replaced.

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

Every test works on a copy.  Recovery reads the XML archives; the first
checkpoint writes ``checkpoint.cas`` and removes them, strictly after the
pointer is published, so a crash anywhere in it reopens the same store.
Its journal is format v2, which is only read now, so a durable open runs
that first checkpoint itself (to roll the journal aside).
"""

import hashlib
import io
import shutil
from pathlib import Path

import pytest

from repro import TemporalXMLDatabase
from repro.cli import main
from repro.storage.faults import CrashError, FaultyFS
from repro.storage.persistence import archive_bytes, build_archive

XML_DIR_V1 = Path(__file__).parent / "data" / "xml_dir_v1"

#: sha256 of ``archive_bytes(build_archive(store))`` after opening it.
XML_DIR_V1_FINGERPRINT = (
    "6c156a21a3a6f31307d2bbac824f2740a27077ff73947c54373c22506db872ac"
)

LEGACY_FILES = [
    "checkpoint.xml", "checkpoint.xml.prev", "journal.bin", "journal.bin.prev",
]


def fingerprint(store):
    return hashlib.sha256(archive_bytes(build_archive(store))).hexdigest()


def file_contents(directory):
    return {
        path.name: path.read_bytes()
        for path in Path(directory).iterdir() if path.is_file()
    }


@pytest.fixture
def directory(tmp_path):
    target = tmp_path / "db"
    shutil.copytree(XML_DIR_V1, target)
    return target


def test_it_opens_to_the_recorded_fingerprint(directory):
    before = file_contents(directory)
    assert sorted(before) == LEGACY_FILES
    db = TemporalXMLDatabase.open(directory, durability="none")
    assert db.recovery.storage == "xml"
    assert db.recovery.checkpoint_source == "checkpoint"
    assert db.recovery.records_replayed == 3
    assert fingerprint(db.store) == XML_DIR_V1_FINGERPRINT
    assert file_contents(directory) == before


def test_recover_without_a_checkpoint_leaves_the_files_untouched(directory):
    before = file_contents(directory)
    out = io.StringIO()
    assert main(["recover", "-d", str(directory), "--no-checkpoint"],
                out=out) == 0
    assert "recovered 3 document(s)" in out.getvalue()
    assert "checkpoint used: checkpoint (storage: xml)" in out.getvalue()
    assert file_contents(directory) == before


def test_the_first_checkpoint_migrates_to_cas(directory):
    # The journal is format v2, which is read-only now: the durable open
    # checkpoints once to roll it aside, and that checkpoint migrates.
    db = TemporalXMLDatabase.open(directory, durability="journal")
    assert db.recovery.storage == "xml"
    assert sorted(path.name for path in directory.iterdir()) == [
        "checkpoint.cas", "journal.bin", "journal.bin.prev", "objects",
    ]
    assert db.checkpoint() == str(directory / "checkpoint.cas")
    db.close()
    names = sorted(path.name for path in directory.iterdir())
    assert names == ["checkpoint.cas", "checkpoint.cas.prev", "journal.bin",
                     "journal.bin.prev", "objects"]
    reopened = TemporalXMLDatabase.open(directory, durability="none")
    assert reopened.recovery.storage == "cas"
    assert fingerprint(reopened.store) == XML_DIR_V1_FINGERPRINT


def test_a_crash_anywhere_in_the_migration_reopens_equal(tmp_path):
    """``FaultyFS`` crashes the migrating checkpoint — the one the durable
    open runs to roll the v2 journal aside — at each of its ops; every
    reopen equals the fingerprint, from XML before the pointer is
    published and from CAS after it."""
    probe = tmp_path / "probe"
    shutil.copytree(XML_DIR_V1, probe)
    fs = FaultyFS()  # counts ops, never crashes
    db = TemporalXMLDatabase.open(probe, durability="journal", fs=fs)
    ops = fs.ops
    db.close()
    assert ops >= 15

    formats = set()
    for k in range(1, ops + 1):
        target = tmp_path / f"crash-{k}"
        shutil.copytree(XML_DIR_V1, target)
        with pytest.raises(CrashError):
            TemporalXMLDatabase.open(
                target, durability="journal", fs=FaultyFS(crash_at=k)
            )
        reopened = TemporalXMLDatabase.open(target, durability="none")
        assert fingerprint(reopened.store) == XML_DIR_V1_FINGERPRINT, k
        formats.add(reopened.recovery.storage)
    assert formats == {"xml", "cas"}
