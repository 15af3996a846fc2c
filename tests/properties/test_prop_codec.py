"""Property-based tests for the KV codec."""

from hypothesis import given
from hypothesis import strategies as st

from repro.kv import codec
from repro.relational.types import AttrType

value_strategy = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=40),
)
row_strategy = st.tuples() | st.lists(value_strategy, max_size=8).map(tuple)


@given(value_strategy)
def test_value_roundtrip(value):
    data = codec.encode_value(value)
    out, pos = codec.decode_value(data, 0)
    assert out == value
    assert pos == len(data)


@given(row_strategy)
def test_row_roundtrip(row):
    data = codec.encode_row(row)
    out, pos = codec.decode_row(data)
    assert out == row
    assert pos == len(data)


@given(row_strategy)
def test_key_roundtrip(key):
    assert codec.decode_key(codec.encode_key(key)) == key


@given(st.lists(row_strategy, max_size=4))
def test_keys_injective(keys):
    """Distinct key tuples encode to distinct bytes."""
    encoded = {}
    for key in keys:
        data = codec.encode_key(key)
        if data in encoded:
            assert encoded[data] == key
        encoded[data] = key


@given(
    st.lists(
        st.tuples(row_strategy, st.integers(min_value=1, max_value=100)),
        max_size=6,
    )
)
def test_entries_roundtrip(entries):
    data = codec.encode_entries(entries)
    out, pos = codec.decode_entries(data)
    assert out == entries
    assert pos == len(data)


# --- the row loops against the single-value API --------------------------
#
# ``encode_row`` / ``decode_row`` / ``decode_entries`` walk a row in one
# loop of their own; ``encode_value`` / ``decode_value`` one value at a
# time are the reference for the same bytes.

#: reaches what the fast paths special-case: strings of >= 128 UTF-8
#: bytes (multi-byte length varint), non-ASCII text, bools beside ints
wide_value_strategy = st.one_of(
    value_strategy,
    st.text(min_size=1, max_size=4).map(lambda text: text * 128),
    st.text(alphabet="éß漢🙂", min_size=1, max_size=80),
)
wide_row_strategy = st.one_of(
    st.just(()),
    st.lists(wide_value_strategy, max_size=8).map(tuple),
    # a field count that needs a two-byte varint
    st.tuples(
        st.lists(value_strategy, min_size=1, max_size=4),
        st.integers(min_value=128, max_value=140),
    ).map(lambda pair: tuple((pair[0] * pair[1])[: pair[1]])),
)
multiplicity_strategy = st.one_of(
    st.integers(min_value=1, max_value=127),
    st.integers(min_value=128, max_value=2**40),
)


def _reference_encode_row(row):
    head = []
    codec._write_varint(head, len(row))
    return b"".join(head) + b"".join(codec.encode_value(v) for v in row)


def _reference_decode_row(data, pos):
    count, pos = codec._read_varint(data, pos)
    values = []
    for _ in range(count):
        value, pos = codec.decode_value(data, pos)
        values.append(value)
    return tuple(values), pos


def _reference_decode_entries(data, pos):
    n_entries, pos = codec._read_varint(data, pos)
    entries = []
    for _ in range(n_entries):
        count, pos = codec._read_varint(data, pos)
        row, pos = _reference_decode_row(data, pos)
        entries.append((row, count))
    return entries, pos


def _typed(row):
    """Values with their exact types: ``True == 1`` must not pass."""
    return [(type(v), v) for v in row]


@given(wide_row_strategy, st.binary(max_size=3))
def test_row_loops_agree_with_the_value_reference(row, lead):
    data = codec.encode_row(row)
    assert data == _reference_encode_row(row)
    # decoded from an offset, and to the same end position
    out, end = codec.decode_row(lead + data, len(lead))
    expected, expected_end = _reference_decode_row(lead + data, len(lead))
    assert end == expected_end == len(lead) + len(data)
    assert _typed(out) == _typed(expected) == _typed(row)


@given(
    st.lists(st.tuples(wide_row_strategy, multiplicity_strategy), max_size=5),
    st.binary(max_size=3),
)
def test_entries_loop_agrees_with_the_value_reference(entries, lead):
    data = lead + codec.encode_entries(entries)
    out, end = codec.decode_entries(data, len(lead))
    expected, expected_end = _reference_decode_entries(data, len(lead))
    assert end == expected_end == len(data)
    assert [c for _, c in out] == [c for _, c in expected]
    assert [_typed(r) for r, _ in out] == [_typed(r) for r, _ in expected]
    assert out == entries


@given(
    st.lists(
        st.tuples(row_strategy, multiplicity_strategy), min_size=1, max_size=4
    ),
    st.integers(min_value=128, max_value=300),
)
def test_a_block_of_128_entries_or_more(some, n_entries):
    """An entry count that needs a two-byte varint."""
    entries = (some * n_entries)[:n_entries]
    data = codec.encode_entries(entries)
    assert codec.decode_entries(data) == (entries, len(data))
    assert _reference_decode_entries(data, 0) == (entries, len(data))


# --- schema-compiled decoders against the generic loop --------------------
#
# ``row_decoder(kinds)`` speculates on the declared kinds and must equal
# ``decode_row`` on EVERY input: rows that conform, rows that deviate
# (NULLs, another type, another width), truncated and arbitrary bytes.

#: mostly numerics: runs of fixed-width cells are what a decoder reads
#: with one ``struct`` call, and it declines rows that strings cut short
kind_strategy = st.sampled_from(
    [AttrType.INT] * 3 + [AttrType.FLOAT] * 3
    + [AttrType.BOOL, AttrType.STR, AttrType.DATE]
)
kinds_strategy = st.lists(kind_strategy, max_size=12)
_int64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_float64 = st.floats(allow_nan=False, width=64)
_text = st.one_of(
    st.text(max_size=12),
    st.text(min_size=1, max_size=3).map(lambda text: text * 128),
    st.text(alphabet="éß漢🙂", min_size=1, max_size=40),
)
_CONFORMING = {
    AttrType.INT: _int64,
    AttrType.FLOAT: _float64,
    AttrType.BOOL: st.booleans(),
    AttrType.STR: _text,
    AttrType.DATE: _text,
}
#: an encoded cell of any kind — including a bool whose payload byte is
#: neither 0 nor 1, which ``encode_value`` never writes but every
#: decoder reads as true
_any_cell = st.one_of(
    st.one_of(st.none(), st.booleans(), _int64, _float64, _text).map(
        codec.encode_value
    ),
    st.integers(min_value=0, max_value=255).map(lambda n: b"B" + bytes((n,))),
)


@st.composite
def declared_rows(draw, max_deviations=2, wide=False):
    """``(kinds, encoded row)``: a row of the declared kinds in which up
    to ``max_deviations`` cells were replaced by a cell of any kind, and
    whose width may differ from the declaration."""
    kinds = draw(kinds_strategy)
    cells = [codec.encode_value(draw(_CONFORMING[kind])) for kind in kinds]
    if wide and kinds and draw(st.integers(min_value=0, max_value=9)) == 0:
        # a declared width whose count needs a two-byte varint
        repeat = 128 // len(kinds) + 1
        kinds, cells = kinds * repeat, cells * repeat
    for _ in range(draw(st.integers(min_value=0, max_value=max_deviations))):
        if cells:
            where = draw(st.integers(min_value=0, max_value=len(cells) - 1))
            cells[where] = draw(_any_cell)
    change = draw(st.sampled_from(["keep"] * 6 + ["drop", "add"]))
    if change == "drop" and cells:
        cells.pop()
    elif change == "add":
        cells.append(draw(_any_cell))
    return kinds, codec._varint(len(cells)) + b"".join(cells)


def _outcome(decode, data, pos):
    """What decoding did: the typed row and end position, or the error."""
    try:
        row, end = decode(data, pos)
    except (codec.CodecError, UnicodeDecodeError) as exc:
        return type(exc)
    return _typed(row), end


@given(declared_rows(wide=True), st.binary(max_size=3), st.binary(max_size=3))
def test_compiled_decoder_equals_generic(declared, lead, trail):
    kinds, encoded = declared
    decode = codec.row_decoder(kinds)
    data = lead + encoded + trail
    generic = _outcome(codec.decode_row, data, len(lead))
    assert generic[1] == len(lead) + len(encoded)
    assert _outcome(decode, data, len(lead)) == generic


#: one cell of every kind a declared cell can turn out to be: NULL, an
#: int, a float, both bools and a non-0/1 bool payload, a short and a
#: >= 128-byte string
_DEVIANT_CELLS = [
    codec.encode_value(value)
    for value in (None, 7, -7.5, True, False, "x", "é" * 64)
] + [b"B\x02"]


@given(declared_rows(max_deviations=0), st.binary(max_size=3))
def test_compiled_decoder_equals_generic_on_one_deviation_anywhere(
    declared, lead
):
    """Every position of a conforming row in turn holds every kind of
    cell: each tag the decoder predicts is contradicted at least once."""
    kinds, encoded = declared
    decode = codec.row_decoder(kinds)
    conforming, _ = codec.decode_row(encoded)
    cells = [codec.encode_value(value) for value in conforming]
    head = lead + codec._varint(len(cells))
    for where in range(len(cells)):
        for cell in _DEVIANT_CELLS:
            data = head + b"".join(cells[:where] + [cell] + cells[where + 1:])
            generic = _outcome(codec.decode_row, data, len(lead))
            assert generic[1] == len(data)
            assert _outcome(decode, data, len(lead)) == generic


@given(declared_rows(max_deviations=0))
def test_compiled_decoder_every_cut_is_a_codec_error(declared):
    kinds, encoded = declared
    decode = codec.row_decoder(kinds)
    for cut in range(len(encoded)):
        assert _outcome(decode, encoded[:cut], 0) is codec.CodecError
        assert _outcome(codec.decode_row, encoded[:cut], 0) is codec.CodecError


@given(kinds_strategy, st.binary(max_size=60), st.integers(0, 4))
def test_compiled_decoder_equals_generic_on_arbitrary_bytes(kinds, data, pos):
    decode = codec.row_decoder(kinds)
    assert _outcome(decode, data, pos) == _outcome(codec.decode_row, data, pos)


@given(
    st.lists(
        st.tuples(declared_rows(), multiplicity_strategy), max_size=5
    ),
    st.binary(max_size=3),
)
def test_entries_with_a_decoder_equal_entries_without(rows, lead):
    """One decoder over a block whose rows need not share its kinds."""
    kinds = rows[0][0][0] if rows else []
    data = lead + codec._varint(len(rows)) + b"".join(
        codec._varint(count) + encoded for (_, encoded), count in rows
    )
    expected, end = codec.decode_entries(data, len(lead))
    out, out_end = codec.decode_entries(
        data, len(lead), codec.row_decoder(kinds)
    )
    assert out_end == end == len(data)
    assert [c for _, c in out] == [c for _, c in expected]
    assert [_typed(r) for r, _ in out] == [_typed(r) for r, _ in expected]
