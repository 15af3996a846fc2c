import pytest

from repro.errors import CodecError
from repro.kv import codec
from repro.relational.types import AttrType as T


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

    @pytest.mark.parametrize(
        "smaller, larger",
        [
            ((-1,), (1,)),       # two's complement: the sign bit sorts last
            (("aa",), ("b",)),   # the length prefix sorts before the text
            ((-2.5,), (1.5,)),   # IEEE-754 bits: again the sign bit
        ],
    )
    def test_byte_order_is_not_tuple_order(self, smaller, larger):
        """Key bytes sort deterministically, not semantically: nothing
        may range-scan encoded keys expecting tuple order (the module
        docstring's three counter-examples)."""
        assert smaller < larger
        assert codec.encode_key(smaller) > codec.encode_key(larger)


class TestRowDecoder:
    """``row_decoder(kinds)``: the schema is the dispatch, the tags the
    verification (equality with ``decode_row`` on every input is
    ``tests/properties/test_prop_codec.py``'s)."""

    CASES = [
        ([], ()),
        ([T.INT, T.INT], (7, -7)),
        ([T.INT, T.FLOAT, T.BOOL, T.INT], (1, 2.5, True, 4)),
        ([T.INT, T.INT, T.DATE, T.FLOAT, T.FLOAT], (1, 2, "1999-01-02", 0.5, -0.5)),
        (
            [T.FLOAT, T.FLOAT, T.STR, T.INT, T.BOOL, T.STR],
            (1.0, 2.0, "é" * 70, 3, False, ""),
        ),
    ]

    @pytest.mark.parametrize("kinds, row", CASES)
    def test_a_conforming_row_never_reaches_the_generic_loop(
        self, kinds, row, monkeypatch
    ):
        decode = codec.row_decoder(kinds)
        data = b"\x00\x00" + codec.encode_row(row) + b"\xff"
        expected = codec.decode_row(data, 2)
        monkeypatch.setattr(codec, "decode_row", None)  # would raise
        out, end = decode(data, 2)
        assert (out, end) == expected == (row, len(data) - 1)
        assert [type(v) for v in out] == [type(v) for v in row]

    @pytest.mark.parametrize("kinds, row", CASES[1:])
    def test_a_deviating_row_is_the_generic_loops(self, kinds, row):
        decode = codec.row_decoder(kinds)
        for deviant in (
            (None,) + row[1:],        # a NULL
            row[:-1],                 # another width
            row + (1,),
            tuple(reversed(row)),     # other types
        ):
            data = codec.encode_row(deviant)
            assert decode(data, 0) == codec.decode_row(data, 0) == (
                deviant, len(data)
            )
        with pytest.raises(CodecError):
            decode(codec.encode_row(row)[:-1], 0)

    def test_int_in_a_float_column_keeps_its_type(self):
        """FLOAT columns accept ints; the stored tag is the value's, and
        so is the decoded type."""
        decode = codec.row_decoder([T.FLOAT, T.FLOAT])
        (a, b), _ = decode(codec.encode_row((1, 2.0)), 0)
        assert (type(a), type(b)) == (int, float)

    def test_declines_what_speculation_cannot_win(self):
        """Rows that strings cut into runs of under two fixed cells, and
        rows of 128 values or more (a two-byte count), get the generic
        loop itself — no check to fail first."""
        assert codec.row_decoder([T.STR, T.STR]) is codec.decode_row
        assert codec.row_decoder([T.INT, T.DATE, T.INT]) is codec.decode_row
        assert codec.row_decoder([T.INT] * 128) is codec.decode_row
        assert codec.row_decoder([T.INT] * 127) is not codec.decode_row
        assert codec.row_decoder([T.INT, T.INT, T.STR]) is not codec.decode_row


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
