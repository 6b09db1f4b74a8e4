"""A directory whose journal tail is format v2: read, then rolled aside.

``tests/data/journal_v2`` was written by commit ``d160b1b``, the last
whose journal kept whole completed deltas (``TXJRNL2``): a CAS
checkpoint, ``journal.bin.prev`` (covered by it), and a ``journal.bin``
whose tail holds updates with deletes, moves, text and attribute updates
and a root replacement, a commit group, interval snapshots and a
document delete.  Regenerate from an export of that commit, with
``PYTHONPATH=src``::

    from repro import TemporalXMLDatabase
    db = TemporalXMLDatabase.open("journal_v2", durability="fsync",
                                  snapshot_interval=3)
    db.put("a.xml", '<doc k="v"><x>alpha one</x><y>beta</y>'
                    '<w><v>keep me</v></w></doc>')
    db.put("b.xml", "<doc><m>mu one</m></doc>")
    db.put("c.xml", "<doc><p>pi one</p><q>chi</q></doc>")
    db.checkpoint()
    db.update("a.xml", '<doc k="w" n="new"><x>alpha two</x>'
                       '<w><v>keep me</v></w><y>beta</y></doc>')
    db.update("a.xml", '<doc n="new"><w><v>keep me</v>'
                       '<x>alpha two</x></w></doc>')
    with db.batch() as batch:
        batch.update("c.xml", "<doc><p>pi two</p></doc>")
        batch.update("b.xml", "<doc><m>mu one</m><n>nu</n></doc>")
    db.update("c.xml", "<page><p>pi two</p></page>")
    db.delete("b.xml")
    db.close()

Every test works on a copy.  ``open()`` and ``repro recover`` refuse it;
``repro upgrade`` replays the v2 tail through the v2 reader of
:mod:`repro.storage.legacy`, and the journal appends v3 from then on.
"""

import io
import shutil
from pathlib import Path

import pytest

from repro import TemporalXMLDatabase
from repro.cli import main
from repro.diff.editscript import (
    DeleteOp,
    MoveOp,
    ReplaceRootOp,
    UpdateAttrOp,
    UpdateTextOp,
)
from repro.errors import UnsupportedFormatError
from repro.storage.journal import FORMAT_VERSION, MAGIC, verify_journal
from repro.storage.legacy import scan_journal, upgrade
from tests.faults import tree_digest
from tests.legacy_dirs import crash_every_upgrade_op, digest

JOURNAL_V2 = Path(__file__).parent / "data" / "journal_v2"

#: sha256 of ``archive_bytes(build_archive(store))`` of the store that
#: wrote the fixture, and of every store that opens it once upgraded.
JOURNAL_V2_FINGERPRINT = (
    "9612a765d035fb204dbfae717932b2d6f4835ef655088234a30c16ddc50cdbf9"
)

V2_MAGIC = b"TXJRNL2\n"


@pytest.fixture
def directory(tmp_path):
    target = tmp_path / "db"
    shutil.copytree(JOURNAL_V2, target)
    return target


def test_fixture_is_what_the_docstring_says():
    tail = JOURNAL_V2 / "journal.bin"
    assert tail.read_bytes().startswith(V2_MAGIC)
    scan = scan_journal(str(tail))
    assert scan.version == 2 and not scan.torn
    assert [r.kind for r in scan.records] == [
        "update", "update", "snapshot", "group", "update", "snapshot",
        "delete",
    ]
    members = [m for r in scan.records for m in (r.members or (r,))]
    ops = {
        type(op)
        for record in members if record.kind == "update"
        for op in record.script()
    }
    assert {DeleteOp, MoveOp, UpdateTextOp, UpdateAttrOp,
            ReplaceRootOp} <= ops


@pytest.mark.parametrize("durability", ["none", "fsync"])
def test_open_refuses_it_and_changes_nothing(directory, durability):
    before = tree_digest(directory)
    with pytest.raises(UnsupportedFormatError, match="TXJRNL2"):
        TemporalXMLDatabase.open(directory, durability=durability)
    assert tree_digest(directory) == before


def test_upgrade_restores_the_store_that_wrote_it(directory):
    assert upgrade(directory)
    assert (directory / "journal.bin").read_bytes() == MAGIC
    assert not (directory / "journal.bin.prev").exists()
    db = TemporalXMLDatabase.open(directory, durability="fsync")
    assert digest(db.store) == JOURNAL_V2_FINGERPRINT
    db.update("a.xml", "<doc><w><v>kept</v></w></doc>")
    db.update("c.xml", "<doc><p>pi three</p></doc>")
    db.close()
    tail = verify_journal(str(directory / "journal.bin"))
    assert [r.kind for r in tail] == ["update", "update"]

    again = TemporalXMLDatabase.open(directory, durability="none")
    assert [j["version"] for j in again.recovery.journals] == [
        FORMAT_VERSION,
    ]
    assert again.recovery.records_replayed == 2
    assert digest(again.store) == digest(db.store)


def test_recover_refuses_it_until_upgraded(directory):
    out = io.StringIO()
    assert main(["recover", "-d", str(directory)], out=out) == 1
    assert "starts with b'TXJRNL2\\n'" in out.getvalue()
    assert main(["upgrade", "-d", str(directory)], out=out) == 0
    out = io.StringIO()
    assert main(["recover", "-d", str(directory)], out=out) == 0
    assert "journal.bin: format v3, 0 record(s)" in out.getvalue()
    reopened = TemporalXMLDatabase.open(directory, durability="none")
    assert digest(reopened.store) == JOURNAL_V2_FINGERPRINT


def test_a_crash_anywhere_in_the_upgrade_is_finished_by_the_next(tmp_path):
    ops = crash_every_upgrade_op(JOURNAL_V2, tmp_path, JOURNAL_V2_FINGERPRINT)
    assert ops >= 8
