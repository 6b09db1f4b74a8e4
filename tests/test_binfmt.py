"""binfmt: hostile bytes raise CorruptArchiveError; deflate/inflate rule."""

import zlib

import pytest

from repro.errors import CorruptArchiveError
from repro.storage import binfmt
from repro.storage.binfmt import (
    DEFLATE_THRESHOLD,
    decode_tree,
    deflate,
    encode_tree,
    inflate,
)
from repro.xmlcore import parse, serialize


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
