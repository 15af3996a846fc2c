import pytest

from repro.errors import CodecError
from repro.kv import codec


VALUES = [None, True, False, 0, -1, 2**40, -(2**40), 0.0, -3.5, 1e300,
           "", "hello", "ünïcode", "with'quote", "a" * 500]


class TestValueCodec:
    @pytest.mark.parametrize("value", VALUES)
    def test_roundtrip(self, value):
        data = codec.encode_value(value)
        out, pos = codec.decode_value(data, 0)
        assert out == value
        assert pos == len(data)
        # bool/int distinction preserved
        assert type(out) is type(value)

    def test_unknown_type(self):
        with pytest.raises(CodecError):
            codec.encode_value([1])

    def test_truncated(self):
        data = codec.encode_value("hello")
        with pytest.raises(CodecError):
            codec.decode_value(data[:2], 0)

    @pytest.mark.parametrize("value", VALUES)
    def test_every_proper_prefix_is_a_codec_error(self, value):
        data = codec.encode_value(value)
        for cut in range(len(data)):
            with pytest.raises(CodecError):
                codec.decode_value(data[:cut], 0)


class TestRowCodec:
    @pytest.mark.parametrize(
        "row",
        [(), (1,), (1, "a", None, 2.5), tuple(range(100))],
    )
    def test_roundtrip(self, row):
        data = codec.encode_row(row)
        out, pos = codec.decode_row(data)
        assert out == row
        assert pos == len(data)

    def test_concatenated_rows(self):
        data = codec.encode_row((1, 2)) + codec.encode_row(("x",))
        first, pos = codec.decode_row(data, 0)
        second, end = codec.decode_row(data, pos)
        assert first == (1, 2)
        assert second == ("x",)
        assert end == len(data)


class TestEntriesCodec:
    def test_roundtrip(self):
        entries = [((1, "a"), 3), ((2, None), 1)]
        data = codec.encode_entries(entries)
        out, _ = codec.decode_entries(data)
        assert out == entries

    def test_empty(self):
        out, _ = codec.decode_entries(codec.encode_entries([]))
        assert out == []


class TestTruncation:
    """A payload that ends early is a ``CodecError`` at every cut point —
    never the ``struct.error`` / ``IndexError`` of the read that ran out."""

    #: all five tags, a multi-byte string length and a multi-byte count
    ROW = (1, "ab", 2.5, True, None, "é" * 70)
    ENTRIES = [(ROW, 3), ((), 1), ((None, False, -7), 300)]

    def test_payloads_hold_every_tag(self):
        tags = {codec.encode_value(v)[:1] for v in self.ROW}
        assert tags == {b"N", b"I", b"F", b"S", b"B"}

    def test_row_cut_anywhere(self):
        data = codec.encode_row(self.ROW)
        assert codec.decode_row(data) == (self.ROW, len(data))
        for cut in range(len(data)):
            with pytest.raises(CodecError):
                codec.decode_row(data[:cut])

    def test_entries_cut_anywhere(self):
        data = codec.encode_entries(self.ENTRIES)
        assert codec.decode_entries(data) == (self.ENTRIES, len(data))
        for cut in range(len(data)):
            with pytest.raises(CodecError):
                codec.decode_entries(data[:cut])

    def test_the_reported_payload(self):
        """The 28 proper prefixes of the issue's payload (16 raised
        ``struct.error`` and 1 ``IndexError`` before the fix)."""
        data = codec.encode_entries([((1, "ab", 2.5, True, None), 3)])
        assert len(data) == 28
        for cut in range(len(data)):
            with pytest.raises(CodecError):
                codec.decode_entries(data[:cut])

    def test_cut_inside_a_later_row_at_an_offset(self):
        data = codec.encode_row((1, 2)) + codec.encode_row(("x", 2.0))
        _, pos = codec.decode_row(data, 0)
        for cut in range(pos, len(data)):
            with pytest.raises(CodecError):
                codec.decode_row(data[:cut], pos)

    def test_a_count_the_payload_cannot_hold_is_a_codec_error(self):
        """Not a ``MemoryError`` from sizing the row by a corrupt count."""
        head = []
        codec._write_varint(head, 2**40)
        with pytest.raises(CodecError):
            codec.decode_row(b"".join(head) + b"N" * 64)

    def test_unknown_tag_is_a_codec_error(self):
        with pytest.raises(CodecError, match="unknown type tag: b'X'"):
            codec.decode_row(b"\x01X")
        with pytest.raises(CodecError, match="unknown type tag: b'X'"):
            codec.decode_value(b"X", 0)


class TestKeyCodec:
    @pytest.mark.parametrize(
        "key", [(), (1,), ("GERMANY",), (1, "x", 2.5), (None,)]
    )
    def test_roundtrip(self, key):
        assert codec.decode_key(codec.encode_key(key)) == key

    def test_distinct_keys_distinct_bytes(self):
        seen = set()
        for key in [(1,), (2,), ("1",), (1, 2), ((1))]:
            if not isinstance(key, tuple):
                key = (key,)
            seen.add(codec.encode_key(key))
        assert len(seen) == 4  # (1,) appears twice

    def test_int_vs_string_unambiguous(self):
        assert codec.encode_key((1,)) != codec.encode_key(("1",))


class TestVarint:
    @pytest.mark.parametrize("n", [0, 1, 127, 128, 300, 2**21, 2**40])
    def test_roundtrip(self, n):
        out = []
        codec._write_varint(out, n)
        data = b"".join(out)
        value, pos = codec._read_varint(data, 0)
        assert value == n and pos == len(data)

    def test_negative_rejected(self):
        with pytest.raises(CodecError):
            codec._write_varint([], -1)

    def test_truncated(self):
        with pytest.raises(CodecError):
            codec._read_varint(b"\x80", 0)
