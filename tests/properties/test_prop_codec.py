"""Property-based tests for the KV codec."""

from hypothesis import given
from hypothesis import strategies as st

from repro.kv import codec

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
