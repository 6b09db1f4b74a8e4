"""binfmt: hostile bytes raise CorruptArchiveError; deflate/inflate rule;
the two stamp records of an edit script."""

import zlib

import pytest

from repro.diff.editscript import EditScript, MoveOp, StampOp, UpdateTextOp
from repro.errors import CorruptArchiveError
from repro.storage import binfmt
from repro.storage.binfmt import (
    DEFLATE_THRESHOLD,
    decode_tree,
    deflate,
    encode_tree,
    inflate,
)
from repro.storage.legacy import decode_script
from repro.xmlcore import parse, serialize
from tests.references import encode_script


def test_attributes_round_trip_in_order():
    source = '<a k="v" empty="" z="last"><b id="1">text</b></a>'
    assert serialize(decode_tree(encode_tree(parse(source)))) == source


def test_invalid_utf8_is_a_corrupt_archive_error():
    data = bytearray(encode_tree(parse("<doc>café</doc>")))
    at = data.index("é".encode("utf-8"))
    data[at + 1] ^= 0x40  # break the continuation byte of a 2-byte character
    with pytest.raises(CorruptArchiveError, match="UTF-8"):
        decode_tree(bytes(data))


def test_tree_deeper_than_the_recursion_limit_is_a_corrupt_archive_error():
    one_child_element = b"\x01\x00\x00\x01e\x00\x01"
    data = one_child_element * 5000 + b"\x02\x00\x00\x01x"
    with pytest.raises(CorruptArchiveError, match="recursion"):
        decode_tree(data)


def test_deflate_rule():
    assert deflate(b"a" * (DEFLATE_THRESHOLD - 1)) is None  # too short
    assert deflate(bytes(range(256))) is None  # would not shrink
    raw = b"same words " * 40
    assert inflate(deflate(raw), len(raw)) == raw


class _CountingZlib:
    """``zlib`` with every inflated byte counted."""

    error = zlib.error

    def __init__(self):
        self.inflated = 0

    def decompressobj(self):
        spy, real = self, zlib.decompressobj()

        class Stream:
            eof = property(lambda _self: real.eof)
            unconsumed_tail = property(lambda _self: real.unconsumed_tail)
            unused_data = property(lambda _self: real.unused_data)

            def decompress(_self, data, max_length):
                out = real.decompress(data, max_length)
                spy.inflated += len(out)
                return out

        return Stream()


@pytest.mark.parametrize("declared", [1, 100, 4096, 10_000_000 - 1])
def test_inflate_is_capped_at_the_declared_length(monkeypatch, declared):
    bomb = zlib.compress(b"\0" * 10_000_000, 6)  # ~10 KB
    spy = _CountingZlib()
    monkeypatch.setattr(binfmt, "zlib", spy)
    with pytest.raises(CorruptArchiveError):
        inflate(bomb, declared)
    # The declared length, plus the one probe byte that shows there is more.
    assert spy.inflated <= declared + 1


@pytest.mark.parametrize("declared", [0, -1, 10_000_000 + 1, 2 ** 63])
def test_inflate_rejects_a_length_the_stream_cannot_have(declared):
    stream = zlib.compress(b"\0" * 10_000_000, 6)
    with pytest.raises(CorruptArchiveError):
        inflate(stream, declared)


def test_inflate_rejects_garbage_and_trailing_bytes():
    raw = b"same words " * 40
    with pytest.raises(CorruptArchiveError):
        inflate(b"\x00garbage" * 20, 500)
    with pytest.raises(CorruptArchiveError):
        inflate(zlib.compress(raw, 6) + b"tail", len(raw))
    with pytest.raises(CorruptArchiveError):
        inflate(zlib.compress(raw, 6)[:-4], len(raw))  # stream never ends


# -- edit scripts: the stamp-run record (0x08) and the per-op one (0x06) -------

#: from_ts 5, to_ts 9 (both +1 on the wire), then the operation count.
_HEADER = b"\x06\x0a"


def _same_script(a, b):
    return (a.from_ts, a.to_ts, a.ops) == (b.from_ts, b.to_ts, b.ops)


def test_an_ascending_stamp_run_is_one_record_grouped_by_timestamps():
    script = EditScript(
        [
            UpdateTextOp(4, "15", "18"),
            StampOp(1, 5, 9),
            StampOp(2, 7, 9),
            StampOp(3, 5, 9),
            StampOp(300, 5, 9),
        ],
        from_ts=5, to_ts=9,
    )
    data = encode_script(script)
    assert data == (
        _HEADER + b"\x05"
        + b"\x04\x04\x0215\x0218"
        + b"\x08\x02"  # one run, two (old_ts, new_ts) groups
        + b"\x05\x09\x03" + b"\x02\x02\xa9\x02"  # XIDs 1, 3, 300 as gaps
        + b"\x07\x09\x01" + b"\x03"  # XID 2
    )
    assert _same_script(decode_script(data), script)


def test_per_op_stamp_records_of_older_directories_still_decode():
    script = EditScript(
        [StampOp(1, 5, 9), StampOp(2, 7, 9), StampOp(3, 5, 9)],
        from_ts=5, to_ts=9,
    )
    per_op = (
        _HEADER + b"\x03"
        + b"\x06\x01\x05\x09" + b"\x06\x02\x07\x09" + b"\x06\x03\x05\x09"
    )
    assert per_op != encode_script(script)
    assert _same_script(decode_script(per_op), script)
    # Both records in one script, as a reader of mixed history may meet them.
    mixed = _HEADER + b"\x03" + b"\x06\x01\x05\x09" + (
        b"\x08\x02" + b"\x07\x09\x01\x03" + b"\x05\x09\x01\x04"
    )
    assert _same_script(decode_script(mixed), script)


def test_stamps_outside_an_ascending_run_round_trip_in_order():
    forward = EditScript(
        [
            MoveOp(8, 2, 0, 2, 1),
            StampOp(1, 5, 9),
            StampOp(2, 7, 9),
            StampOp(6, 5, 9),
        ],
        from_ts=5, to_ts=9,
    )
    inverted = forward.invert()  # stamps first, descending in XID
    assert [op.xid for op in inverted.ops[:3]] == [6, 2, 1]
    assert _same_script(decode_script(encode_script(inverted)), inverted)
    assert b"\x08" not in encode_script(inverted)[3:4]  # per-op records

    interleaved = EditScript(
        [
            StampOp(5, 1, 2),
            StampOp(9, 1, 2),
            StampOp(3, 1, 2),  # starts a second run
            StampOp(4, 1, 3),
            StampOp(4, 3, 4),  # an XID again: a run of its own
            UpdateTextOp(7, "a", "b"),
            StampOp(2, 1, 2),
        ]
    )
    assert _same_script(
        decode_script(encode_script(interleaved)), interleaved
    )


#: name -> (declared operation count, the bytes after it, error text).
BAD_STAMP_RUNS = {
    "run longer than the declared count": (
        2, b"\x08\x01\x05\x09\x03\x02\x01\x01", r"0 \+ 3 .* declares 2"),
    "group size nobody could allocate": (
        3, b"\x08\x01\x05\x09\xff\xff\xff\xff\xff\x7f", "declares 3 more"),
    "run after other operations used the count up": (
        3, b"\x06\x01\x05\x09\x08\x01\x05\x09\x03\x01\x01\x01",
        r"0 \+ 3 .* declares 2"),
    "second group overruns": (
        3, b"\x08\x02\x05\x09\x02\x02\x01\x07\x09\x02\x01\x01",
        r"2 \+ 2 .* declares 3"),
    "truncated inside the gaps": (
        3, b"\x08\x01\x05\x09\x03\x02\x01", "truncated"),
    "truncated before the group size": (
        3, b"\x08\x01\x05\x09", "truncated"),
    "zero gap": (
        3, b"\x08\x01\x05\x09\x03\x02\x00\x01", "repeats an XID"),
    "one XID in two groups": (
        3, b"\x08\x02\x05\x09\x02\x02\x01\x07\x09\x01\x03", "two groups"),
    "no group": (3, b"\x08\x00", "without a group"),
    "empty group": (3, b"\x08\x01\x05\x09\x00", r"0 \+ 0 "),
}


@pytest.mark.parametrize("case", sorted(BAD_STAMP_RUNS))
def test_a_bad_stamp_run_is_a_corrupt_archive_error(case):
    count, body, reason = BAD_STAMP_RUNS[case]
    with pytest.raises(CorruptArchiveError, match=reason):
        decode_script(_HEADER + bytes([count]) + body)
