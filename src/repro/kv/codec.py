"""Binary codec for keys, rows and blocks stored in the KV substrate.

The storage nodes hold *bytes*, like a real KV store. The codec is a small
self-describing format:

* value: 1 type tag byte followed by the payload
  (``N`` null, ``I`` int64, ``F`` float64, ``S`` length-prefixed UTF-8,
  ``B`` bool).
* row: varint field count, then each value.
* block payload: varint entry count, then per entry a varint multiplicity
  count followed by the row.

Keys additionally have an order-preserving encoding (:func:`encode_key`)
so that ``next()`` iteration over the memstore visits keys in tuple order,
which real wide-column stores (HBase, Cassandra partitioners) rely on.

Rows are what queries decode by the thousand (a block segment averages
two entries of eleven values), so :func:`decode_row` and
:func:`encode_row` walk a row's values in one loop of their own:
integer tag compares, the one-byte varint read inline, one bound
``unpack_from``. :func:`decode_value` / :func:`encode_value` are the
single-value API of the same format and the reference the property
tests hold the row loops to. Every decoder raises :class:`CodecError`
on a payload that ends early.
"""

from __future__ import annotations

import struct
from typing import List, Sequence, Tuple

from repro.errors import CodecError
from repro.relational.types import Row

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


def encode_entries(entries: Sequence[Tuple[Row, int]]) -> bytes:
    """Encode block entries ``[(row, multiplicity), ...]``."""
    parts = [_varint(len(entries))]
    for row, count in entries:
        parts.append(_varint(count))
        parts.append(encode_row(row))
    return b"".join(parts)


def decode_entries(data: bytes, pos: int = 0) -> Tuple[List[Tuple[Row, int]], int]:
    """Decode block entries starting at ``pos``; return (entries, new
    position)."""
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
            row, pos = decode_row(data, pos)
            entries.append((row, count))
    except IndexError:
        raise CodecError("truncated entries") from None
    return entries, pos


# --- key encoding -------------------------------------------------------
#
# Keys reuse the self-describing row encoding. Iteration over a memstore
# sorts raw key bytes, which gives a deterministic (if not semantic) scan
# order — all that get/next() contracts of §3 require.


def encode_key(key: Row) -> bytes:
    """Encode a key tuple to bytes (unambiguous, deterministic)."""
    return encode_row(key)


def decode_key(data: bytes) -> Row:
    """Decode a key produced by :func:`encode_key`."""
    row, _ = decode_row(data, 0)
    return row
