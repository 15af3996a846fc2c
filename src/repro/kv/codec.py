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
fixed-width stretches of numerics (9-byte cells), bools (2-byte cells)
and dates: a DATE is an ISO ``YYYY-MM-DD`` string, so its cell is the
``S`` tag, a length byte of 10 checked like a tag, and 10 bytes. A
stretch's tags are verified with strided slice compares — one covers a
whole run of numerics — and its payloads read with one pre-built
``struct`` call, and a string is checked by its own tag and sliced by
its length. The decoder is generated as straight-line code per shape,
with a loop over a block's entries beside it (:func:`decode_entries`
runs that loop). On this path the schema is the dispatch and the tags
are the verification.
Any deviation (a NULL, another width, a value of another type, a short
buffer) hands the row to :func:`decode_row`, the generic loop that
dispatches on each tag byte and stays the single definition of the
format: results, types and errors are its by construction. A row of a
shape with DATE cells that they do not fit — a date of another length
above all — first goes to the decoder that reads each DATE as a string,
so it is decoded, and speculated on, exactly as before dates had cells.
:func:`row_speculator` is the same compiled decoder answering ``None``
for such a row instead, so :func:`decode_entries` can tell its caller
which rows were *not* verified to hold exactly the declared kinds.
:func:`decode_value` / :func:`encode_value` are the single-value API of
the same format and the reference the property tests hold the row loops
to. Every decoder raises :class:`CodecError` on a payload that ends
early.
"""

from __future__ import annotations

import linecache
import struct
from itertools import groupby
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

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
#: a DATE is an ISO ``YYYY-MM-DD`` string, so its cell has a fixed width
#: too: the ``S`` tag, a length byte of 10 — checked like a tag — and
#: the 10 bytes
_DATE_BYTES = 10
_DATE_LENGTH = _varint(_DATE_BYTES)
#: a stretch of up to this many values that is not the whole row is
#: unpacked into names and the row built from them; a wider one is
#: concatenated (and sliced around its dates)
_NAMED_VALUES = 8


class _Stretch(NamedTuple):
    """One fixed-width stretch of a row: the count byte, fixed cells, and
    the tag and first length byte of the string that ends it, if one
    does. The ``struct`` skips every checked byte and that length byte,
    which is the stretch's last."""

    width: int
    #: ``(offset, expected byte)`` of each tag and date length byte
    tags: Tuple[Tuple[int, bytes], ...]
    unpack: Callable
    #: how many values ``unpack`` answers, and where a date's bytes are
    values: int
    dates: Tuple[int, ...]
    ends_in_string: bool


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


def _stretches(types: Sequence[AttrType], date_cells: bool) -> List[_Stretch]:
    """The layout of a row declared to hold ``types``; a DATE is a fixed
    cell when ``date_cells``, a string otherwise."""
    stretches: List[_Stretch] = []
    # the count byte opens the first stretch
    tags: List[Tuple[int, bytes]] = [(0, _varint(len(types)))]
    fmt, width, values, dates = ">x", 1, 0, []
    for kind in types:
        cell = _FIXED_CELLS.get(kind)
        if cell is not None:
            code, tag = cell
            tags.append((width, tag))
            fmt += "x" + code
            width += 1 + struct.calcsize(code)
        elif date_cells and kind is AttrType.DATE:
            tags += [(width, _TAG_STR), (width + 1, _DATE_LENGTH)]
            dates.append(values)
            fmt += f"xx{_DATE_BYTES}s"
            width += 2 + _DATE_BYTES
        else:
            tags.append((width, _TAG_STR))
            stretches.append(_Stretch(
                width + 2, tuple(tags), struct.Struct(fmt + "xx").unpack,
                values, tuple(dates), True,
            ))
            tags, fmt, width, values, dates = [], ">", 0, 0, []
            continue
        values += 1
    if width:
        stretches.append(_Stretch(
            width, tuple(tags), struct.Struct(fmt).unpack, values,
            tuple(dates), False,
        ))
    return stretches


def _decode_generically(data: bytes, pos: int) -> Tuple[Row, int]:
    # looked up per call: a test that counts fallbacks swaps decode_row
    return decode_row(data, pos)


def _decline(data: bytes, pos: int) -> None:
    return None


def _date_cell_missed(cut: Callable, data: bytes, pos: int):
    """A row that the fixed cells of a shape with DATE cells do not fit
    — a date of another length, or any other deviation — read by
    ``cut``, the shape's decoder with each DATE read as a string (looked
    up per call: a test counts these rows by swapping this function)."""
    return cut(data, pos)


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
    fixed = sum(kind in _FIXED_CELLS or kind is AttrType.DATE for kind in types)
    if fixed < len(types) and fixed < 2 * len(_stretches(types, True)):
        # strings cut the row into stretches of under two cells: checking
        # a stretch costs what the generic loop spends on two cells
        # (measured), so there is nothing to win by speculating
        return decode_row
    return _compile(types, _decode_generically, False)


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
    return _compile(types, _decline, True)


def _compile(types: Sequence[AttrType], give_up: Callable, loop: bool) -> Callable:
    """The speculating decoder of ``types`` (at most 127 of them); a
    deviating row is answered by ``give_up(data, first byte of the
    row)``. With a DATE among ``types``, a row that does not fit the
    date cells goes to the decoder that reads each DATE as a string,
    which answers it as it would without date cells — the same row, and
    the same verdict for a date of another length. ``loop``: also
    generate its entry loop (for value rows; keys and tuples are
    decoded one at a time, and compiling a shape costs ≈ 0.65 ms)."""
    if AttrType.DATE not in types:
        return _generate(types, give_up, None, loop)
    return _generate(types, give_up, _generate(types, give_up, None, False), loop)


class _Deviation(Exception):
    """A row off the declared kinds, inside a generated entry loop."""


def _row_code(
    stretches: Sequence[_Stretch], fail: str, in_loop: bool
) -> Tuple[List[str], str]:
    """The statements that read one row at ``pos`` of ``data`` into
    ``end`` and the expression of the row. A deviation runs ``fail``:
    ``return`` the fallback's answer, or, ``in_loop``, raise — a
    ``struct.error`` of a short buffer then reaches the loop's handler
    unguarded."""
    lines: List[str] = []
    parts: List[Tuple[bool, str]] = []  # (a tuple?, its expression)
    several = len(stretches) > 1 or stretches[0].ends_in_string
    for k, stretch in enumerate(stretches):
        if 0 < stretch.values <= _NAMED_VALUES and (stretch.dates or several):
            names = [f"v{k}_{i}" for i in range(stretch.values)]
            target = ", ".join(names) + ","
            for i, name in enumerate(names):
                parts.append(
                    (False, f"{name}.decode()" if i in stretch.dates else name)
                )
        else:
            target = f"v{k}"
            start = 0
            for i in stretch.dates:
                if i > start:
                    parts.append((True, f"v{k}[{start}:{i}]"))
                parts.append((False, f"v{k}[{i}].decode()"))
                start = i + 1
            if not stretch.dates:
                parts.append((True, target))
            elif start < stretch.values:
                parts.append((True, f"v{k}[{start}:]"))
        checks = " or ".join(
            f"cells[{where.start}] != {tags[0]}" if len(tags) == 1
            else f"cells[{where.start}:{where.stop}] != {tags!r}" if where.step == 1
            else f"cells[{where.start}:{where.stop}:{where.step}] != {tags!r}"
            for where, tags in _tag_checks(stretch.tags)
        )
        lines += [f"end = pos + {stretch.width}", "cells = data[pos:end]"]
        if in_loop:
            lines += [f"{target} = unpack{k}(cells)"]
        else:
            lines += [
                "try:",
                f"    {target} = unpack{k}(cells)",
                "except struct.error:",
                f"    {fail}",
            ]
        lines += [f"if {checks}:", f"    {fail}"]
        if stretch.ends_in_string:
            lines += [
                f"length = cells[{stretch.width - 1}]",
                "pos = end",
                "if length > 0x7F:",
                "    length, pos = _read_varint(data, pos - 1)",
                "end = pos + length",
                "if end > len(data):",
                f"    {fail}",
                f"s{k} = data[pos:end].decode()",
                "pos = end",
            ]
            parts.append((False, f"s{k}"))
    row, items = [], []
    for is_tuple, expression in parts + [(True, "")]:
        if not is_tuple:
            items.append(expression)
            continue
        if items:
            row.append(f"({', '.join(items)},)")
            items = []
        if expression:
            row.append(expression)
    return lines, " + ".join(row) or "()"


def _generate(
    types: Sequence[AttrType],
    give_up: Callable,
    cut: Optional[Callable],
    loop: bool,
) -> Callable:
    """:func:`_compile`'s decoder — DATE cells when ``cut`` takes the
    rows they miss — as straight-line code, the way
    :func:`repro.tally.tally` writes ``add``: each check a slice literal,
    each stretch one ``struct`` call. With ``loop``, its ``entries``
    attribute is :func:`decode_entries` with this decoder, the row read
    inline and a deviating row handed to the same fallback. Both are
    compiled under a file name that names the shape
    (``codec.py<INT,DATE,FLOAT*2>``), so profiles and tracebacks tell
    them apart."""
    stretches = _stretches(types, cut is not None)
    several = len(stretches) > 1 or stretches[0].ends_in_string
    fallback = (
        "give_up(data, {})" if cut is None else "_date_cell_missed(cut, data, {})"
    )
    row_lines, row = _row_code(
        stretches, "return " + fallback.format("first" if several else "pos"), False
    )
    unpacks = ", ".join(f"unpack{k}" for k in range(len(stretches)))
    source = [
        f"def _compile(give_up, cut, {unpacks}):",
        "    def decode(data, pos=0):",
        *(["        first = pos"] if several else []),
        *(f"        {line}" for line in row_lines),
        f"        return {row}, end",
    ]
    if loop:
        loop_lines, loop_row = _row_code(stretches, "raise _Deviation", True)
        source += [
            "    def entries(data, pos, deviants):",
            "        try:",
            "            n_entries = data[pos]",
            "            pos += 1",
            "            if n_entries > 0x7F:",
            "                n_entries, pos = _read_varint(data, pos - 1)",
            "            out = []",
            "            append = out.append",
            "            for index in range(n_entries):",
            "                count = data[pos]",
            "                pos += 1",
            "                if count > 0x7F:",
            "                    count, pos = _read_varint(data, pos - 1)",
            "                first = pos",
            "                try:",
            *(f"                    {line}" for line in loop_lines),
            f"                    append(({loop_row}, count))",
            "                except (struct.error, _Deviation):",
            f"                    decoded = {fallback.format('first')}",
            "                    if decoded is None:",
            "                        if deviants is not None:",
            "                            deviants.append(index)",
            "                        decoded = decode_row(data, first)",
            "                    row, end = decoded",
            "                    append((row, count))",
            "                pos = end",
            "        except IndexError:",
            '            raise CodecError("truncated entries") from None',
            "        return out, pos",
            "    decode.entries = entries",
        ]
    source.append("    return decode")
    shape = ",".join(
        (kind.name if cut is not None or kind is not AttrType.DATE else "DATE:STR")
        + (f"*{len(run)}" if len(run := list(group)) > 1 else "")
        for kind, group in groupby(types)
    )
    text = "\n".join(source)
    filename = f"{__file__}<{shape}>"
    # a traceback prints the generated line, not codec.py's line of that
    # number (``mtime`` None: ``linecache.checkcache`` keeps the entry);
    # a shape's source with the entry loop holds the one without it
    if len(text) > linecache.cache.get(filename, (0,))[0]:
        linecache.cache[filename] = (len(text), None, text.splitlines(True), filename)
    namespace: dict = {}
    # the module's globals: ``_date_cell_missed`` and ``decode_row`` are
    # looked up per call
    exec(compile(text, filename, "exec"), globals(), namespace)
    return namespace["_compile"](give_up, cut, *(s.unpack for s in stretches))


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
    *this* payload was verified against the declared kinds. A compiled
    decoder brings this loop with it, the row read inline (its
    ``entries``); the loop below is the one for any other decoder."""
    if decoder is not None:
        compiled = getattr(decoder, "entries", None)
        if compiled is not None:
            return compiled(data, pos, deviants)
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
