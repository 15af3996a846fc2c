"""Binary codec for keys, rows and blocks stored in the KV substrate.

The storage nodes hold *bytes*, like a real KV store. The codec is a small
self-describing format:

* value: 1 type tag byte followed by the payload
  (``N`` null, ``I`` int64, ``F`` float64, ``S`` length-prefixed UTF-8,
  ``B`` bool).
* row: varint field count, then each value.
* block payload: varint entry count, then per entry a varint multiplicity
  count followed by the row.

Keys are rows (:func:`encode_key` is :func:`encode_row`): unambiguous and
deterministic, so sorting raw key bytes gives every engine the same scan
order, but that order is **not** the tuple order of the keys — the
big-endian two's-complement payload puts ``-1`` after ``1``, the length
prefix puts ``"b"`` before ``"aa"``, and IEEE-754 bits put ``1.5`` before
``-2.5``. The get/``next()`` contracts of §3 need a deterministic order,
not a semantic one; nothing may rely on range order over encoded keys.

Rows are what queries decode by the thousand, and every row of one KV
instance (or TaaV relation) has the tag sequence its schema declares.
:func:`row_decoder` compiles that declaration once: the decoder it
returns *speculates* on the declared kinds. Strings cut a row into
fixed-width stretches of numerics (9-byte cells) and bools (2-byte
cells); a stretch's tags are verified with strided slice compares — one
covers a whole run of numerics — and its payloads read with one
pre-built ``struct`` call, and a string is checked by its own tag and
sliced by its length. On this path the schema is the dispatch and the
tags are the verification.
Any deviation (a NULL, another width, a value of another type, a short
buffer) hands the row to :func:`decode_row`, the generic loop that
dispatches on each tag byte and stays the single definition of the
format: results, types and errors are its by construction.
:func:`row_speculator` is the same compiled decoder answering ``None``
for such a row instead, so :func:`decode_entries` can tell its caller
which rows were *not* verified to hold exactly the declared kinds.
:func:`decode_value` / :func:`encode_value` are the single-value API of
the same format and the reference the property tests hold the row loops
to. Every decoder raises :class:`CodecError` on a payload that ends
early.
"""

from __future__ import annotations

import struct
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import CodecError
from repro.relational.types import AttrType, Row

#: ``decoder(data, pos) -> (row, new position)``: :func:`decode_row` or a
#: schema-compiled equivalent from :func:`row_decoder`
RowDecoder = Callable[[bytes, int], Tuple[Row, int]]
#: a :func:`row_speculator`: ``None`` for a row off the declared kinds
RowSpeculator = Callable[[bytes, int], Optional[Tuple[Row, int]]]

_TAG_NULL = b"N"
_TAG_INT = b"I"
_TAG_FLOAT = b"F"
_TAG_STR = b"S"
_TAG_BOOL = b"B"
#: the same tags as the integers ``data[pos]`` reads
_NULL, _INT, _FLOAT, _STR, _BOOL = b"NIFSB"

_I64_AT = struct.Struct(">q").unpack_from
_F64_AT = struct.Struct(">d").unpack_from
#: tag byte + payload in one pack
_TAGGED_I64 = struct.Struct(">cq").pack
_TAGGED_F64 = struct.Struct(">cd").pack

#: the one-byte varints: nearly every field count, multiplicity and
#: string length is below 128
_VARINT_1 = tuple(bytes((n,)) for n in range(0x80))


def _varint(n: int) -> bytes:
    if 0 <= n < 0x80:
        return _VARINT_1[n]
    if n < 0:
        raise CodecError(f"varint must be non-negative, got {n}")
    out = bytearray()
    while True:
        byte = n & 0x7F
        n >>= 7
        if n:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _write_varint(out: List[bytes], n: int) -> None:
    out.append(_varint(n))


def _read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        try:
            byte = data[pos]
        except IndexError:
            raise CodecError("truncated varint") from None
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def encode_value(value: object) -> bytes:
    """Encode one relational value to bytes."""
    if value is None:
        return _TAG_NULL
    if isinstance(value, bool):
        return _TAG_BOOL + (b"\x01" if value else b"\x00")
    if isinstance(value, int):
        return _TAGGED_I64(_TAG_INT, value)
    if isinstance(value, float):
        return _TAGGED_F64(_TAG_FLOAT, value)
    if isinstance(value, str):
        payload = value.encode("utf-8")
        return _TAG_STR + _varint(len(payload)) + payload
    raise CodecError(f"cannot encode value of type {type(value).__name__}")


def decode_value(data: bytes, pos: int) -> Tuple[object, int]:
    """Decode one value starting at ``pos``; return (value, new position)."""
    tag = data[pos:pos + 1]
    pos += 1
    try:
        if tag == _TAG_NULL:
            return None, pos
        if tag == _TAG_BOOL:
            return data[pos] != 0, pos + 1
        if tag == _TAG_INT:
            return _I64_AT(data, pos)[0], pos + 8
        if tag == _TAG_FLOAT:
            return _F64_AT(data, pos)[0], pos + 8
    except (IndexError, struct.error):
        raise CodecError("truncated value") from None
    if tag == _TAG_STR:
        length, pos = _read_varint(data, pos)
        end = pos + length
        if end > len(data):
            raise CodecError("truncated string payload")
        return data[pos:end].decode("utf-8"), end
    if not tag:
        raise CodecError("truncated value")
    raise CodecError(f"unknown type tag: {tag!r}")


def encode_row(row: Row) -> bytes:
    """Encode a tuple of values (``encode_value`` per value, in one loop)."""
    parts = [_varint(len(row))]
    append = parts.append
    for value in row:
        kind = type(value)
        if kind is float:
            append(_TAGGED_F64(_TAG_FLOAT, value))
        elif kind is int:
            append(_TAGGED_I64(_TAG_INT, value))
        elif kind is str:
            payload = value.encode("utf-8")
            append(_TAG_STR)
            append(_varint(len(payload)))
            append(payload)
        elif value is None:
            append(_TAG_NULL)
        else:
            # bool, subclasses of the above, and the unencodable
            append(encode_value(value))
    return b"".join(parts)


def decode_row(data: bytes, pos: int = 0) -> Tuple[Row, int]:
    """Decode a row starting at ``pos``; return (row, new position).

    ``decode_value`` per value, in one loop: the tag is compared as the
    integer ``data[pos]`` and a varint below 128 is that one byte.
    """
    try:
        count = data[pos]
        pos += 1
        if count > 0x7F:
            count, pos = _read_varint(data, pos - 1)
        if count > len(data) - pos:
            # every value is at least its tag byte
            raise CodecError("truncated row")
        values: List[object] = [None] * count
        for index in range(count):
            tag = data[pos]
            pos += 1
            if tag == _FLOAT:
                values[index] = _F64_AT(data, pos)[0]
                pos += 8
            elif tag == _INT:
                values[index] = _I64_AT(data, pos)[0]
                pos += 8
            elif tag == _STR:
                length = data[pos]
                pos += 1
                if length > 0x7F:
                    length, pos = _read_varint(data, pos - 1)
                end = pos + length
                if end > len(data):
                    raise CodecError("truncated string payload")
                values[index] = data[pos:end].decode("utf-8")
                pos = end
            elif tag == _BOOL:
                values[index] = data[pos] != 0
                pos += 1
            elif tag != _NULL:
                raise CodecError(f"unknown type tag: {bytes((tag,))!r}")
    except (IndexError, struct.error):
        raise CodecError("truncated row") from None
    return tuple(values), pos


#: fixed-width cells: declared type -> (``struct`` code of the payload,
#: tag); a bool payload is one byte, any non-zero value true (exactly
#: ``?``), the numerics are 8 bytes big-endian
_FIXED_CELLS = {
    AttrType.INT: ("q", _TAG_INT),
    AttrType.FLOAT: ("d", _TAG_FLOAT),
    AttrType.BOOL: ("?", _TAG_BOOL),
}
#: one fixed-width stretch of a row — the count byte, numerics, bools,
#: and the tag and first length byte of the string that ends it:
#: ``(width, tag checks, unpack, ends in a string)``. A check is ``(slice
#: of the stretch, expected bytes)``; the ``struct`` skips every checked
#: byte and the string's length byte, which is the stretch's last
_Stretch = Tuple[int, Tuple[Tuple[slice, bytes], ...], Callable, bool]


def _tag_checks(tags: Sequence[Tuple[int, bytes]]) -> Tuple[Tuple[slice, bytes], ...]:
    """Group ``(offset, expected byte)`` pairs into as few strided
    slice compares as cover them: a run of numeric cells puts its tags
    nine bytes apart, so one compare verifies the run."""
    checks: List[Tuple[slice, bytes]] = []
    index = 0
    while index < len(tags):
        first, expected = tags[index]
        last, stride = first, 1
        index += 1
        if index < len(tags):
            stride = tags[index][0] - first
            while index < len(tags) and tags[index][0] - last == stride:
                last = tags[index][0]
                expected += tags[index][1]
                index += 1
        checks.append((slice(first, last + 1, stride), expected))
    return tuple(checks)


def _stretches(types: Sequence[AttrType]) -> List[_Stretch]:
    """The layout of a row declared to hold ``types``."""
    stretches: List[_Stretch] = []
    # the count byte opens the first stretch
    tags: List[Tuple[int, bytes]] = [(0, _varint(len(types)))]
    fmt, width = ">x", 1
    for kind in types:
        cell = _FIXED_CELLS.get(kind)
        if cell is not None:
            code, tag = cell
            tags.append((width, tag))
            fmt += "x" + code
            width += 1 + struct.calcsize(code)
            continue
        tags.append((width, _TAG_STR))
        stretches.append(
            (width + 2, _tag_checks(tags), struct.Struct(fmt + "xx").unpack, True)
        )
        tags, fmt, width = [], ">", 0
    if width:
        stretches.append(
            (width, _tag_checks(tags), struct.Struct(fmt).unpack, False)
        )
    return stretches


def _decode_generically(data: bytes, pos: int) -> Tuple[Row, int]:
    # looked up per call: a test that counts fallbacks swaps decode_row
    return decode_row(data, pos)


def _decline(data: bytes, pos: int) -> None:
    return None


def row_decoder(types: Sequence[AttrType]) -> RowDecoder:
    """Compile a decoder for rows declared to hold ``types``, equal to
    :func:`decode_row` on **every** input.

    The decoder checks the count byte and the tags the declaration
    predicts and reads each fixed-width stretch with one ``struct``
    call; anything else — a NULL, a value of another type, another
    width, a short buffer — is decoded by :func:`decode_row` from the
    row's first byte, so a deviating row costs the failed check and is
    never decoded differently. Built once per schema (a KV instance's
    keys, a TaaV relation's tuples).
    """
    if len(types) > 0x7F:
        return decode_row  # the count is not one byte
    fixed = sum(kind in _FIXED_CELLS for kind in types)
    if fixed < len(types) and fixed < 2 * len(_stretches(types)):
        # strings cut the row into stretches of under two cells: checking
        # a stretch costs what the generic loop spends on two cells
        # (measured), so there is nothing to win by speculating
        return decode_row
    return _compile(types, _decode_generically)


def row_speculator(types: Sequence[AttrType]) -> RowSpeculator:
    """:func:`row_decoder` without the fallback: the decoder answers
    ``None`` where that one would call :func:`decode_row`, so every row
    it *does* answer had its tags verified — no NULL, each value of
    exactly its declared kind. That verdict is what this one is built
    for, so it speculates on every shape (on a string-cut one the
    verdict costs less than any other way of reaching it) and declines
    every row only where the count does not fit one byte."""
    if len(types) > 0x7F:
        return _decline
    return _compile(types, _decline)


def _compile(types: Sequence[AttrType], give_up: Callable) -> Callable:
    """The speculating decoder of ``types`` (at most 127 of them); a
    deviating row is answered by ``give_up(data, first byte of the
    row)``."""
    stretches = _stretches(types)
    if all(kind in _FIXED_CELLS for kind in types):
        ((width, checks, unpack, _),) = stretches

        def decode_fixed(data: bytes, pos: int = 0):
            end = pos + width
            cells = data[pos:end]
            for where, tags in checks:
                if cells[where] != tags:
                    return give_up(data, pos)
            try:
                return unpack(cells), end
            except struct.error:
                return give_up(data, pos)

        return decode_fixed

    def decode(data: bytes, pos: int = 0):
        first = pos
        values: List[object] = []
        try:
            for width, checks, unpack, ends_in_string in stretches:
                end = pos + width
                cells = data[pos:end]
                for where, tags in checks:
                    if cells[where] != tags:
                        return give_up(data, first)
                values += unpack(cells)
                pos = end
                if ends_in_string:
                    length = cells[-1]
                    if length > 0x7F:
                        length, pos = _read_varint(data, pos - 1)
                    end = pos + length
                    if end > len(data):
                        return give_up(data, first)
                    values.append(data[pos:end].decode("utf-8"))
                    pos = end
        except struct.error:
            return give_up(data, first)
        return tuple(values), pos

    return decode


def encode_entries(entries: Sequence[Tuple[Row, int]]) -> bytes:
    """Encode block entries ``[(row, multiplicity), ...]``."""
    parts = [_varint(len(entries))]
    for row, count in entries:
        parts.append(_varint(count))
        parts.append(encode_row(row))
    return b"".join(parts)


def entry_count(data: bytes, pos: int = 0) -> int:
    """How many entries the :func:`encode_entries` payload at ``pos``
    holds, read off its header — nothing is decoded."""
    try:
        count = data[pos]
    except IndexError:
        raise CodecError("truncated entries") from None
    return count if count < 0x80 else _read_varint(data, pos)[0]


def decode_entries(
    data: bytes,
    pos: int = 0,
    decoder: Optional[Callable] = None,
    deviants: Optional[List[int]] = None,
) -> Tuple[List[Tuple[Row, int]], int]:
    """Decode block entries starting at ``pos``; return (entries, new
    position). ``decoder`` is the schema-compiled decoder of the block's
    rows when the caller has one — a :func:`row_decoder`, or a
    :func:`row_speculator`: a row that one declines is decoded by
    :func:`decode_row` and its index appended to ``deviants``, the
    caller's own list, so an empty list afterwards says every row of
    *this* payload was verified against the declared kinds."""
    decode = decode_row if decoder is None else decoder
    entries: List[Tuple[Row, int]] = []
    try:
        n_entries = data[pos]
        pos += 1
        if n_entries > 0x7F:
            n_entries, pos = _read_varint(data, pos - 1)
        for _ in range(n_entries):
            count = data[pos]
            pos += 1
            if count > 0x7F:
                count, pos = _read_varint(data, pos - 1)
            decoded = decode(data, pos)
            if decoded is None:
                if deviants is not None:
                    deviants.append(len(entries))
                decoded = decode_row(data, pos)
            row, pos = decoded
            entries.append((row, count))
    except IndexError:
        raise CodecError("truncated entries") from None
    return entries, pos


# --- key encoding -------------------------------------------------------
#
# Keys reuse the self-describing row encoding. Iteration over a memstore
# sorts raw key bytes, which gives a deterministic (if not semantic) scan
# order — all that get/next() contracts of §3 require (the module
# docstring has the counter-examples to tuple order).


def encode_key(key: Row) -> bytes:
    """Encode a key tuple to bytes (unambiguous, deterministic)."""
    return encode_row(key)


def decode_key(data: bytes) -> Row:
    """Decode a key produced by :func:`encode_key`."""
    row, _ = decode_row(data, 0)
    return row
