"""Parent-free trees change no script and no stored version.

``tests/data/script_identity.json`` was recorded while nodes still held a
parent pointer.  For three seeded ``tests/index_history.py`` histories and
two ``tdocgen`` collections it holds the sha256 of
:func:`~repro.storage.binfmt.encode_script` of every stored delta, and of
the binary encoding of every version (tags, attributes, text, XIDs and
timestamps).  The matcher, the script builder, ``apply`` and the generator
must reproduce each one — and so must recovery from the commit journal
alone, which keeps only each delta's redo half and completes it from the
version it applies to.  Regenerate only for an intended change:
``PYTHONPATH=src python -m tests.test_script_identity``.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from repro import TemporalXMLDatabase
from repro.storage import TemporalDocumentStore
from repro.storage.binfmt import encode_script
from repro.storage.recover import recover_store
from repro.workload import TDocGenerator, build_collection
from repro.xmlcore.codec import Writer, write_node

from tests.index_history import drive

DATA = Path(__file__).parent / "data" / "script_identity.json"

#: tdocgen seed -> collection shape.
TDOCGEN = {
    7: dict(n_docs=4, versions_per_doc=10, fanout=(2, 5),
            p_insert=0.15, p_delete=0.1),
    11: dict(n_docs=8, versions_per_doc=12, fanout=(3, 6),
             p_insert=0.08, p_delete=0.05),
}
HISTORIES = [f"index_history-{seed}" for seed in (1, 2, 3)] + [
    f"tdocgen-{seed}" for seed in TDOCGEN
]


def history(name, directory, checkpoints=True):
    """The store the named history leaves behind.  ``checkpoints=False``
    journals every commit into ``directory`` and checkpoints nothing."""
    kind, seed = name.split("-")
    seed = int(seed)
    if kind == "index_history":
        return drive(
            seed, directory, [], lambda db: None, checkpoints=checkpoints
        ).store
    shape = dict(TDOCGEN[seed])
    tuning = dict(snapshot_interval=4)
    if checkpoints:
        store = TemporalDocumentStore(**tuning)
    else:
        db = TemporalXMLDatabase.open(directory, durability="journal",
                                      **tuning)
        store = db.store
    build_collection(
        store, n_docs=shape.pop("n_docs"),
        versions_per_doc=shape.pop("versions_per_doc"),
        generator=TDocGenerator(seed=seed, depth=3, **shape),
    )
    if not checkpoints:
        db.close()
    return store


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def fingerprint(store):
    """``{"<doc_id> <name>": {"deltas": [...], "versions": [...]}}``."""
    out = {}
    for record in store.repository.records():
        versions = []
        for number in range(1, record.dindex.current_number + 1):
            w = Writer()
            write_node(w, store.version(record.doc_id, number))
            versions.append(_sha256(w.getvalue()))
        out[f"{record.doc_id} {record.name}"] = {
            "deltas": [
                _sha256(encode_script(record.deltas[number]))
                for number in sorted(record.deltas)
            ],
            "versions": versions,
        }
    return out


@pytest.mark.parametrize("name", HISTORIES)
def test_history_reproduces_its_recording(name, tmp_path):
    recorded = json.loads(DATA.read_text())[name]
    assert fingerprint(history(name, tmp_path / "db")) == recorded


@pytest.mark.parametrize("name", HISTORIES)
def test_recovery_from_the_journal_alone_reproduces_it(name, tmp_path):
    """Every delta replay completes is the one committed, byte for byte."""
    recorded = json.loads(DATA.read_text())[name]
    directory = tmp_path / "db"
    history(name, directory, checkpoints=False)
    assert sorted(p.name for p in directory.iterdir()) == ["journal.bin"]
    store, report = recover_store(
        str(directory), store=TemporalDocumentStore(snapshot_interval=4)
    )
    assert report.checkpoint_source == "none"
    assert fingerprint(store) == recorded


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        DATA.write_text(json.dumps(
            {name: fingerprint(history(name, Path(work) / name))
             for name in HISTORIES},
            indent=1, sort_keys=True,
        ) + "\n")
