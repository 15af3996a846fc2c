"""The node wire protocol: length-prefixed binary frames.

This is the on-the-wire format between a :class:`~repro.kv.cluster.KVCluster`
client and a storage-node process (:mod:`repro.kv.server`). It carries
exactly the batch operations the in-process :class:`~repro.kv.node.StorageNode`
store surface already has — ``multi_get`` / ``multi_put`` / ``scan`` /
``multi_delete`` / ``drop_prefix`` (the namespace drop) / ``get_stats`` — so
the two transports stay op-for-op equivalent. A single-key ``get`` / ``put``
/ ``delete`` is a batch of one: it has no opcode of its own.

**One row per opcode.** :data:`OPS` maps each opcode byte to an
:class:`Op` row: its name, its request :class:`Codec`, its OK-response
codec, the raw-store method that serves it (``None`` for the opcodes the
server answers itself) and whether it mutates the store. Everything else
reads that table: :func:`encode_request` / :func:`decode_request`, the
server's dispatch, the client's :meth:`~repro.kv.remote.NodeClient.call`
and :data:`MUTATING_OPS`. The mutating rows are the node's whole
**mutation vocabulary**: :func:`apply_mutation` is the one dispatch for
them, the write-ahead log (:mod:`repro.kv.wal`) stores the request
payload as its record payload, and recovery replays a log through the
same :func:`apply_mutation`.

Frame layout (both directions)::

    +----------------+---------------------------+
    | u32 length (BE)| payload (length bytes)    |
    +----------------+---------------------------+

Request payload:  ``u8 opcode`` + the row's request body.
Response payload: ``u8 status`` + the row's response body
(``STATUS_OK``) or a length-prefixed UTF-8 message (``STATUS_ERROR``
for application errors, ``STATUS_PROTOCOL`` for malformed requests).

Body shapes (all lengths/counts are u32 big-endian):

* ``NOTHING``    — empty
* ``BYTES``      — u32 length + raw bytes
* ``OPT_BYTES``  — u8 flag (0 = absent) + bytes when present
* ``KEYS``       — u32 count + bytes each
* ``PAIRS``      — u32 count + (bytes, bytes) each
* ``VALUES``     — u32 count + opt bytes each
* ``U64``        — u64 big-endian
* ``BOOL``       — u8 0 or 1
* ``STATS``      — u32 count + (UTF-8 name as bytes, u64) each, by name

Every decoder is strict: truncated input, a declared length past the end
of the frame, an unknown opcode, or trailing garbage raise
:class:`~repro.errors.WireProtocolError` — never a hang, never an
out-of-range read. The server answers protocol errors with a
``STATUS_PROTOCOL`` frame and keeps serving the connection as long as
the *framing* is intact; only an unrecoverable stream (truncated or
oversized length prefix) closes the connection.
"""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import WireProtocolError

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")

#: hard ceiling on a declared frame length — anything larger is a
#: malformed or hostile frame, refused before any allocation
MAX_FRAME_BYTES = 64 * 1024 * 1024

# -- opcodes (request payload byte 0); each is described by its OPS row ----

OP_PING = 0x01
OP_MULTI_GET = 0x02
OP_MULTI_PUT = 0x03
OP_MULTI_DELETE = 0x05
OP_SCAN = 0x06
OP_KEYS = 0x07
OP_NEXT_KEY = 0x08
OP_HAS_PREFIX = 0x09
OP_SIZE_BYTES = 0x0A
OP_COUNT = 0x0B
OP_DROP_PREFIX = 0x0C
OP_CLEAR = 0x0D
OP_GET_STATS = 0x0E
OP_SHUTDOWN = 0x0F

# -- response status (response payload byte 0) -------------------------------

STATUS_OK = 0x00
STATUS_ERROR = 0x01
STATUS_PROTOCOL = 0x02


# --------------------------------------------------------------------------
# framing
# --------------------------------------------------------------------------


def encode_frame(payload: bytes) -> bytes:
    """Length-prefix a payload (refusing oversized ones symmetrically)."""
    if len(payload) > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _U32.pack(len(payload)) + payload


def send_frame(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(encode_frame(payload))


def close_quietly(sock: socket.socket) -> None:
    """Close a connection that may already be dead (either end of it)."""
    try:
        sock.close()
    except OSError:
        pass


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes; ``None`` on EOF before the first byte,
    :class:`WireProtocolError` on EOF mid-read (a truncated frame)."""
    chunks: List[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == n:
                return None
            raise WireProtocolError(
                f"peer closed mid-frame ({n - remaining}/{n} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks) if chunks else b""


def recv_frame(sock: socket.socket) -> Optional[bytes]:
    """Read one frame's payload; ``None`` on clean EOF at a frame
    boundary. A truncated length prefix, an oversized declared length,
    or a truncated payload raise :class:`WireProtocolError`."""
    prefix = _recv_exact(sock, _U32.size)
    if prefix is None:
        return None
    (length,) = _U32.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"declared frame length {length} exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    if length == 0:
        return b""
    payload = _recv_exact(sock, length)
    if payload is None:
        raise WireProtocolError("peer closed after the length prefix")
    return payload


# --------------------------------------------------------------------------
# body primitives
# --------------------------------------------------------------------------


def _truncated(n: int, pos: int, data: bytes) -> WireProtocolError:
    return WireProtocolError(
        f"truncated payload: wanted {n} bytes at offset {pos}, "
        f"frame has {len(data)}"
    )


def _bad_flag(flag: int) -> WireProtocolError:
    return WireProtocolError(f"bad optional flag {flag:#x}")


class Reader:
    """A strict cursor over one frame payload (bounds-checked reads)."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def _take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise _truncated(n, self.pos, self.data)
        out = self.data[self.pos:end]
        self.pos = end
        return out

    def u8(self) -> int:
        return self._take(1)[0]

    def u32(self) -> int:
        return int(_U32.unpack(self._take(_U32.size))[0])

    def u64(self) -> int:
        return int(_U64.unpack(self._take(_U64.size))[0])

    def bytes_(self) -> bytes:
        return self._take(self.u32())

    def opt_bytes(self) -> Optional[bytes]:
        flag = self.u8()
        if flag == 0:
            return None
        if flag != 1:
            raise _bad_flag(flag)
        return self.bytes_()

    def bool_(self) -> bool:
        flag = self.u8()
        if flag > 1:
            raise WireProtocolError(f"bad bool {flag:#x}")
        return flag == 1

    def str_(self) -> str:
        raw = self.bytes_()
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireProtocolError(f"bad UTF-8 in frame: {exc}") from None

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise WireProtocolError(
                f"{len(self.data) - self.pos} trailing bytes after payload"
            )


def _put_bytes(out: bytearray, raw: bytes) -> None:
    out += _U32.pack(len(raw))
    out += raw


def _put_opt_bytes(out: bytearray, raw: Optional[bytes]) -> None:
    if raw is None:
        out += b"\x00"
    else:
        out += b"\x01"
        _put_bytes(out, raw)


def _put_str(out: bytearray, text: str) -> None:
    _put_bytes(out, text.encode("utf-8"))


def _put_nothing(out: bytearray, value: None) -> None:
    pass


def _put_keys(out: bytearray, keys: List[bytes]) -> None:
    pack = _U32.pack
    out += pack(len(keys))
    for key in keys:
        out += pack(len(key))
        out += key


def _put_pairs(out: bytearray, pairs: List[Tuple[bytes, bytes]]) -> None:
    pack = _U32.pack
    out += pack(len(pairs))
    for key, value in pairs:
        out += pack(len(key))
        out += key
        out += pack(len(value))
        out += value


def _put_values(out: bytearray, values: List[Optional[bytes]]) -> None:
    out += _U32.pack(len(values))
    for value in values:
        _put_opt_bytes(out, value)


def _put_u64(out: bytearray, value: int) -> None:
    out += _U64.pack(value)


def _put_bool(out: bytearray, flag: bool) -> None:
    out += b"\x01" if flag else b"\x00"


def _put_stats(out: bytearray, stats: Dict[str, int]) -> None:
    out += _U32.pack(len(stats))
    for key in sorted(stats):
        _put_str(out, key)
        out += _U64.pack(stats[key])


# The three batch bodies — every multi-get's keys and values, every
# listing and scan — are read by one loop each straight off the frame:
# the same checks the Reader methods make, in the same order, raising
# the same WireProtocolError, without a method call per field.


def _read_count(data: bytes, pos: int) -> int:
    if pos + 4 > len(data):
        raise _truncated(4, pos, data)
    return int(_U32.unpack_from(data, pos)[0])


def _read_keys(reader: Reader) -> List[bytes]:
    data, pos = reader.data, reader.pos
    size = len(data)
    unpack = _U32.unpack_from
    count = _read_count(data, pos)
    pos += 4
    keys: List[bytes] = []
    append = keys.append
    for _ in range(count):
        start = pos + 4
        if start > size:
            raise _truncated(4, pos, data)
        pos = start + unpack(data, pos)[0]
        if pos > size:
            raise _truncated(pos - start, start, data)
        append(data[start:pos])
    reader.pos = pos
    return keys


def _read_pairs(reader: Reader) -> List[Tuple[bytes, bytes]]:
    data, pos = reader.data, reader.pos
    size = len(data)
    unpack = _U32.unpack_from
    count = _read_count(data, pos)
    pos += 4
    pairs: List[Tuple[bytes, bytes]] = []
    append = pairs.append
    for _ in range(count):
        start = pos + 4
        if start > size:
            raise _truncated(4, pos, data)
        pos = start + unpack(data, pos)[0]
        if pos > size:
            raise _truncated(pos - start, start, data)
        key = data[start:pos]
        start = pos + 4
        if start > size:
            raise _truncated(4, pos, data)
        pos = start + unpack(data, pos)[0]
        if pos > size:
            raise _truncated(pos - start, start, data)
        append((key, data[start:pos]))
    reader.pos = pos
    return pairs


def _read_values(reader: Reader) -> List[Optional[bytes]]:
    data, pos = reader.data, reader.pos
    size = len(data)
    unpack = _U32.unpack_from
    count = _read_count(data, pos)
    pos += 4
    values: List[Optional[bytes]] = []
    append = values.append
    for _ in range(count):
        if pos >= size:
            raise _truncated(1, pos, data)
        flag = data[pos]
        if flag == 0:
            append(None)
            pos += 1
            continue
        if flag != 1:
            raise _bad_flag(flag)
        start = pos + 5
        if start > size:
            raise _truncated(4, pos + 1, data)
        pos = start + unpack(data, pos + 1)[0]
        if pos > size:
            raise _truncated(pos - start, start, data)
        append(data[start:pos])
    reader.pos = pos
    return values


# --------------------------------------------------------------------------
# the opcode table
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Codec:
    """One body shape: ``write`` appends a value to a payload, ``read``
    parses one off a :class:`Reader`. A request in any shape but
    ``NOTHING`` carries exactly one argument."""

    write: Callable[[bytearray, Any], None]
    read: Callable[[Reader], Any]

    def decode(self, body: bytes) -> Any:
        """Parse a whole body holding exactly one value of this shape."""
        reader = Reader(body)
        value = self.read(reader)
        reader.expect_end()
        return value


NOTHING = Codec(_put_nothing, lambda r: None)
BYTES = Codec(_put_bytes, Reader.bytes_)
OPT_BYTES = Codec(_put_opt_bytes, Reader.opt_bytes)
KEYS = Codec(_put_keys, _read_keys)
PAIRS = Codec(_put_pairs, _read_pairs)
VALUES = Codec(_put_values, _read_values)
U64 = Codec(_put_u64, Reader.u64)
BOOL = Codec(_put_bool, Reader.bool_)
STATS = Codec(_put_stats, lambda r: {r.str_(): r.u64() for _ in range(r.u32())})


@dataclass(frozen=True, slots=True)
class Op:
    """One opcode: everything any module needs to know about it."""

    op: int
    name: str
    request: Codec
    response: Codec
    #: the raw-store method serving it (``None``: the server answers)
    method: Optional[str] = None
    mutating: bool = False


OPS: Dict[int, Op] = {row.op: row for row in (
    Op(OP_PING, "PING", NOTHING, NOTHING),
    Op(OP_MULTI_GET, "MULTI_GET", KEYS, VALUES, "multi_get"),
    Op(OP_MULTI_PUT, "MULTI_PUT", PAIRS, NOTHING, "multi_put", True),
    Op(OP_MULTI_DELETE, "MULTI_DELETE", KEYS, U64, "multi_delete", True),
    Op(OP_SCAN, "SCAN", BYTES, PAIRS, "scan"),
    Op(OP_KEYS, "KEYS", BYTES, KEYS, "keys"),
    Op(OP_NEXT_KEY, "NEXT_KEY", OPT_BYTES, OPT_BYTES, "next_key"),
    Op(OP_HAS_PREFIX, "HAS_PREFIX", BYTES, BOOL, "has_prefix"),
    Op(OP_SIZE_BYTES, "SIZE_BYTES", NOTHING, U64, "size_bytes"),
    Op(OP_COUNT, "COUNT", NOTHING, U64, "__len__"),
    Op(OP_DROP_PREFIX, "DROP_PREFIX", BYTES, KEYS, "drop_prefix", True),
    Op(OP_CLEAR, "CLEAR", NOTHING, NOTHING, "clear", True),
    Op(OP_GET_STATS, "GET_STATS", NOTHING, STATS),
    Op(OP_SHUTDOWN, "SHUTDOWN", NOTHING, NOTHING),
)}

#: ops that change the store: what a WAL record may carry, what recovery
#: replays, and after which the server offers the durability manager a
#: checkpoint
MUTATING_OPS = tuple(op for op, row in OPS.items() if row.mutating)


def _unknown(op: int) -> WireProtocolError:
    return WireProtocolError(f"unknown opcode {op:#x}")


# --------------------------------------------------------------------------
# requests
# --------------------------------------------------------------------------


def encode_request(op: int, *args: Any) -> bytes:
    """Encode one request payload (the inverse of :func:`decode_request`)."""
    try:
        row = OPS[op]
    except KeyError:
        raise _unknown(op) from None
    codec = row.request
    out = bytearray((op,))
    if len(args) == 1 and codec is not NOTHING:
        codec.write(out, args[0])
    elif args or codec is not NOTHING:
        arity = 0 if codec is NOTHING else 1
        raise WireProtocolError(
            f"{row.name} takes {arity} argument(s), got {len(args)}"
        )
    return bytes(out)


def decode_request(payload: bytes) -> Tuple[int, Tuple[Any, ...]]:
    """Decode a request payload to ``(opcode, args)``, strictly."""
    if not payload:
        raise WireProtocolError("empty request payload")
    op = payload[0]
    try:
        codec = OPS[op].request
    except KeyError:
        raise _unknown(op) from None
    reader = Reader(payload)
    reader.pos = 1  # past the opcode
    args: Tuple[Any, ...] = () if codec is NOTHING else (codec.read(reader),)
    reader.expect_end()
    return op, args


def apply_mutation(store: Any, op: int, args: Tuple[Any, ...]) -> Any:
    """Run one decoded :data:`MUTATING_OPS` request against a raw store;
    returns the store method's result.

    The one dispatch over the mutation vocabulary: the server answers
    mutating requests with it and recovery replays WAL records through
    it (ignoring the result), so a logged operation re-executes exactly
    as it was served. Anything outside the vocabulary is refused — a
    log can never make replay read, scan or shut down.
    """
    row = OPS.get(op)
    method = row.method if row is not None and row.mutating else None
    if method is None:
        name = hex(op) if row is None else row.name
        raise WireProtocolError(f"{name} is not a store mutation")
    return getattr(store, method)(*args)


# --------------------------------------------------------------------------
# responses
# --------------------------------------------------------------------------


def encode_ok(codec: Codec = NOTHING, value: Any = None) -> bytes:
    """An OK response carrying ``value`` in ``codec``'s shape."""
    out = bytearray((STATUS_OK,))
    codec.write(out, value)
    return bytes(out)


def encode_error(status: int, message: str) -> bytes:
    out = bytearray((status,))
    _put_str(out, message)
    return bytes(out)


def decode_response(payload: bytes) -> Tuple[int, bytes]:
    """Split a response payload into (status, body); error statuses get
    their message decoded by :func:`decode_error_message`."""
    if not payload:
        raise WireProtocolError("empty response payload")
    return payload[0], payload[1:]


def decode_error_message(body: bytes) -> str:
    reader = Reader(body)
    message = reader.str_()
    reader.expect_end()
    return message
