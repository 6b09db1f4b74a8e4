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

Every test works on a copy.  The first durable open folds the v2 tail
into one checkpoint, which rolls the v2 file to ``journal.bin.prev``; the
journal appends the current format from then on.
"""

import hashlib
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
from tests.faults import CrashError, FaultyFS
from repro.storage.journal import (
    FORMAT_VERSION,
    MAGIC,
    scan_journal,
    verify_journal,
)
from repro.storage.persistence import archive_bytes, build_archive

JOURNAL_V2 = Path(__file__).parent / "data" / "journal_v2"

#: sha256 of ``archive_bytes(build_archive(store))`` of the store that
#: wrote the fixture, and of every store that opens it.
JOURNAL_V2_FINGERPRINT = (
    "9612a765d035fb204dbfae717932b2d6f4835ef655088234a30c16ddc50cdbf9"
)

V2_MAGIC = b"TXJRNL2\n"


def fingerprint(store):
    return hashlib.sha256(archive_bytes(build_archive(store))).hexdigest()


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


def test_it_opens_equal_to_the_store_that_wrote_it(directory):
    db = TemporalXMLDatabase.open(directory, durability="none")
    assert db.recovery.checkpoint_source == "checkpoint"
    assert [j["version"] for j in db.recovery.journals] == [2, 2]
    assert db.recovery.records_replayed == 7
    assert fingerprint(db.store) == JOURNAL_V2_FINGERPRINT
    # A reporting open writes nothing.
    assert (directory / "journal.bin").read_bytes() == (
        (JOURNAL_V2 / "journal.bin").read_bytes()
    )


def test_the_first_durable_open_rolls_it_with_one_checkpoint(directory):
    v2_tail = (directory / "journal.bin").read_bytes()
    pointer = (directory / "checkpoint.cas").read_bytes()
    db = TemporalXMLDatabase.open(directory, durability="fsync")
    assert fingerprint(db.store) == JOURNAL_V2_FINGERPRINT
    # One checkpoint: the fixture's pointer is now the previous one, the
    # v2 tail sits in .prev untouched, and a fresh file takes appends.
    assert (directory / "checkpoint.cas.prev").read_bytes() == pointer
    assert (directory / "journal.bin.prev").read_bytes() == v2_tail
    assert (directory / "journal.bin").read_bytes() == MAGIC
    assert db.journal.version == FORMAT_VERSION
    db.update("a.xml", "<doc><w><v>kept</v></w></doc>")
    db.update("c.xml", "<doc><p>pi three</p></doc>")
    db.close()
    tail = verify_journal(str(directory / "journal.bin"))
    assert [r.kind for r in tail] == ["update", "update"]

    again = TemporalXMLDatabase.open(directory, durability="none")
    assert [j["version"] for j in again.recovery.journals] == [
        2, FORMAT_VERSION,
    ]
    assert again.recovery.records_replayed == 2
    assert fingerprint(again.store) == fingerprint(db.store)


def test_recover_reports_format_v2(directory):
    out = io.StringIO()
    assert main(["recover", "-d", str(directory)], out=out) == 0
    text = out.getvalue()
    assert "journal.bin.prev: format v2, 3 record(s)" in text
    assert "journal.bin: format v2, 7 record(s)" in text
    assert (directory / "journal.bin").read_bytes() == MAGIC
    reopened = TemporalXMLDatabase.open(directory, durability="none")
    assert fingerprint(reopened.store) == JOURNAL_V2_FINGERPRINT


def test_a_crash_anywhere_in_the_rolling_open_reopens_equal(tmp_path):
    """``FaultyFS`` crashes the first durable open — its rolling
    checkpoint — at each of its filesystem operations; every reopen
    equals the fingerprint, with the v2 tail in ``journal.bin`` or
    ``journal.bin.prev`` and the other file fresh."""
    probe = tmp_path / "probe"
    shutil.copytree(JOURNAL_V2, probe)
    fs = FaultyFS()  # counts ops, never crashes
    TemporalXMLDatabase.open(probe, durability="fsync", fs=fs).close()
    assert fs.ops >= 8

    v2_tail = (JOURNAL_V2 / "journal.bin").read_bytes()
    v2_prev = (JOURNAL_V2 / "journal.bin.prev").read_bytes()
    for k in range(1, fs.ops + 1):
        target = tmp_path / f"crash-{k}"
        shutil.copytree(JOURNAL_V2, target)
        with pytest.raises(CrashError):
            TemporalXMLDatabase.open(
                target, durability="fsync", fs=FaultyFS(crash_at=k)
            ).close()
        db = TemporalXMLDatabase.open(target, durability="fsync")
        assert fingerprint(db.store) == JOURNAL_V2_FINGERPRINT, k
        assert db.journal.version == FORMAT_VERSION
        db.close()
        for name in ("journal.bin", "journal.bin.prev"):
            data = (target / name).read_bytes()
            assert data in (v2_tail, v2_prev, MAGIC), (k, name)
