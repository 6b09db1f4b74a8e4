"""Stored deltas stay small: slotted operations, packed payloads.

Resident size is a deep-size walk (:func:`benchmarks.memprobe.deep_size`)
over every stored delta of one seeded history, divided by the operations
held.  The bound is about 10 % above what the layout measures on that
history (120 bytes per operation); the layout it replaced — payloads as
live trees, operations with an instance dict — measured 248 by the same
walk and 285 by tracemalloc.
"""

import dataclasses

import pytest

from benchmarks.memprobe import deep_size
from repro.diff import editscript
from repro.storage import TemporalDocumentStore
from repro.workload import TDocGenerator, build_collection
from repro.xmlcore.codec import PackedNode
from repro.xmlcore.node import Element, Text

DELTA_BYTES_PER_OP = 132

OP_CLASSES = (
    editscript.InsertOp, editscript.DeleteOp, editscript.MoveOp,
    editscript.UpdateTextOp, editscript.UpdateAttrOp, editscript.StampOp,
    editscript.ReplaceRootOp,
)


@pytest.fixture(scope="module")
def scripts():
    store = TemporalDocumentStore()
    build_collection(
        store, n_docs=8, versions_per_doc=12,
        generator=TDocGenerator(
            seed=11, fanout=(3, 6), depth=3, p_insert=0.08, p_delete=0.05
        ),
    )
    return [r.deltas for r in store.repository.records()]


def test_bytes_per_stored_operation(scripts):
    ops = sum(len(s.ops) for deltas in scripts for s in deltas.values())
    assert ops > 1500
    assert deep_size(scripts) / ops < DELTA_BYTES_PER_OP


@pytest.mark.parametrize("cls", OP_CLASSES, ids=lambda c: c.__name__)
def test_operations_are_slotted(cls):
    assert "__slots__" in cls.__dict__
    fields = [f.name for f in dataclasses.fields(cls)]
    op = cls(*(
        Text("x") if "payload" in name else 1 for name in fields
    ))
    assert not hasattr(op, "__dict__")


def test_no_stored_payload_is_a_tree(scripts):
    payloads = [
        payload
        for deltas in scripts
        for script in deltas.values()
        for payload in script.payloads()
    ]
    assert len(payloads) > 300
    for payload in payloads:
        assert type(payload) is PackedNode
        assert not isinstance(payload, (Element, Text))
