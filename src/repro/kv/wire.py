"""The node wire protocol: length-prefixed binary frames.

This is the on-the-wire format between a :class:`~repro.kv.cluster.KVCluster`
client and a storage-node process (:mod:`repro.kv.server`). It carries
exactly the batch operations the in-process :class:`~repro.kv.node.StorageNode`
store surface already has — ``multi_get`` / ``multi_put`` / ``scan`` /
``multi_delete`` / ``drop_prefix`` (the namespace drop) / ``get_stats`` — so
the two transports stay op-for-op equivalent. A single-key ``get`` / ``put``
/ ``delete`` is a batch of one: it has no opcode of its own.

The store-mutating opcodes (:data:`MUTATING_OPS`) are the node's whole
**mutation vocabulary**, declared once here: the request codec ships
them, :func:`apply_mutation` is the server's dispatch for them, the
write-ahead log (:mod:`repro.kv.wal`) stores the same request payload as
its record payload, and recovery replays a log through the same
:func:`apply_mutation`.

Frame layout (both directions)::

    +----------------+---------------------------+
    | u32 length (BE)| payload (length bytes)    |
    +----------------+---------------------------+

Request payload:  ``u8 opcode`` + opcode-specific body.
Response payload: ``u8 status`` + body (``STATUS_OK``) or a
length-prefixed UTF-8 message (``STATUS_ERROR`` for application errors,
``STATUS_PROTOCOL`` for malformed requests).

Body primitives (all lengths/counts are u32 big-endian):

* ``bytes``      — u32 length + raw bytes
* ``opt bytes``  — u8 flag (0 = absent) + bytes when present
* ``list``       — u32 count + items
* ``pair``       — bytes + bytes
* ``str``        — UTF-8 as ``bytes``

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
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import WireProtocolError

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")

#: hard ceiling on a declared frame length — anything larger is a
#: malformed or hostile frame, refused before any allocation
MAX_FRAME_BYTES = 64 * 1024 * 1024

# -- opcodes (request payload byte 0) ---------------------------------------

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

OP_NAMES: Dict[int, str] = {
    OP_PING: "PING",
    OP_MULTI_GET: "MULTI_GET",
    OP_MULTI_PUT: "MULTI_PUT",
    OP_MULTI_DELETE: "MULTI_DELETE",
    OP_SCAN: "SCAN",
    OP_KEYS: "KEYS",
    OP_NEXT_KEY: "NEXT_KEY",
    OP_HAS_PREFIX: "HAS_PREFIX",
    OP_SIZE_BYTES: "SIZE_BYTES",
    OP_COUNT: "COUNT",
    OP_DROP_PREFIX: "DROP_PREFIX",
    OP_CLEAR: "CLEAR",
    OP_GET_STATS: "GET_STATS",
    OP_SHUTDOWN: "SHUTDOWN",
}

#: ops whose body is a single ``bytes`` prefix
_PREFIX_OPS = (OP_SCAN, OP_KEYS, OP_HAS_PREFIX, OP_DROP_PREFIX)
#: ops with an empty body
_NULLARY_OPS = (
    OP_PING, OP_SIZE_BYTES, OP_COUNT, OP_CLEAR, OP_GET_STATS, OP_SHUTDOWN,
)
#: ops that change the store: what a WAL record may carry, what recovery
#: replays, and after which the server offers the durability manager a
#: checkpoint — each has exactly one branch in :func:`apply_mutation`
MUTATING_OPS = (OP_MULTI_PUT, OP_MULTI_DELETE, OP_DROP_PREFIX, OP_CLEAR)

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


class Reader:
    """A strict cursor over one frame payload (bounds-checked reads)."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def _take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise WireProtocolError(
                f"truncated payload: wanted {n} bytes at offset "
                f"{self.pos}, frame has {len(self.data)}"
            )
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
            raise WireProtocolError(f"bad optional flag {flag:#x}")
        return self.bytes_()

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


# --------------------------------------------------------------------------
# requests
# --------------------------------------------------------------------------


def encode_request(op: int, *args: Any) -> bytes:
    """Encode one request payload (the inverse of :func:`decode_request`)."""
    out = bytearray((op,))
    if op == OP_MULTI_GET or op == OP_MULTI_DELETE:
        (keys,) = args
        out += encode_keys(keys)
    elif op == OP_MULTI_PUT:
        (items,) = args
        out += encode_pairs(items)
    elif op == OP_NEXT_KEY:
        (after,) = args
        _put_opt_bytes(out, after)
    elif op in _PREFIX_OPS:
        (prefix,) = args
        _put_bytes(out, prefix)
    elif op in _NULLARY_OPS:
        if args:
            raise WireProtocolError(f"{OP_NAMES[op]} takes no arguments")
    else:
        raise WireProtocolError(f"unknown opcode {op:#x}")
    return bytes(out)


def decode_request(payload: bytes) -> Tuple[int, Tuple[Any, ...]]:
    """Decode a request payload to ``(opcode, args)``, strictly."""
    if not payload:
        raise WireProtocolError("empty request payload")
    reader = Reader(payload)
    op = reader.u8()
    args: Tuple[Any, ...]
    if op == OP_MULTI_GET or op == OP_MULTI_DELETE:
        args = ([reader.bytes_() for _ in range(reader.u32())],)
    elif op == OP_MULTI_PUT:
        args = (
            [
                (reader.bytes_(), reader.bytes_())
                for _ in range(reader.u32())
            ],
        )
    elif op == OP_NEXT_KEY:
        args = (reader.opt_bytes(),)
    elif op in _PREFIX_OPS:
        args = (reader.bytes_(),)
    elif op in _NULLARY_OPS:
        args = ()
    else:
        raise WireProtocolError(f"unknown opcode {op:#x}")
    reader.expect_end()
    return op, args


def apply_mutation(store: Any, op: int, args: Tuple[Any, ...]) -> bytes:
    """Run one decoded :data:`MUTATING_OPS` request against a raw store;
    returns the OK response body.

    The one dispatch over the mutation vocabulary: the server answers
    mutating requests with it and recovery replays WAL records through
    it (ignoring the body), so a logged operation re-executes exactly
    as it was served. Anything outside the vocabulary is refused — a
    log can never make replay read, scan or shut down.
    """
    if op == OP_MULTI_PUT:
        store.multi_put(args[0])
        return b""
    if op == OP_MULTI_DELETE:
        return encode_u64(store.multi_delete(args[0]))
    if op == OP_DROP_PREFIX:
        return encode_keys(store.drop_prefix(args[0]))
    if op == OP_CLEAR:
        store.clear()
        return b""
    raise WireProtocolError(
        f"{OP_NAMES.get(op, hex(op))} is not a store mutation"
    )


# --------------------------------------------------------------------------
# responses
# --------------------------------------------------------------------------


def encode_ok(body: bytes = b"") -> bytes:
    return bytes((STATUS_OK,)) + body


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


# -- typed result bodies -----------------------------------------------------


def encode_values(values: List[Optional[bytes]]) -> bytes:
    out = bytearray(_U32.pack(len(values)))
    for value in values:
        _put_opt_bytes(out, value)
    return bytes(out)


def decode_values(body: bytes) -> List[Optional[bytes]]:
    reader = Reader(body)
    values = [reader.opt_bytes() for _ in range(reader.u32())]
    reader.expect_end()
    return values


def encode_pairs(pairs: List[Tuple[bytes, bytes]]) -> bytes:
    out = bytearray(_U32.pack(len(pairs)))
    for key, value in pairs:
        _put_bytes(out, key)
        _put_bytes(out, value)
    return bytes(out)


def decode_pairs(body: bytes) -> List[Tuple[bytes, bytes]]:
    reader = Reader(body)
    pairs = [
        (reader.bytes_(), reader.bytes_()) for _ in range(reader.u32())
    ]
    reader.expect_end()
    return pairs


def encode_keys(keys: List[bytes]) -> bytes:
    out = bytearray(_U32.pack(len(keys)))
    for key in keys:
        _put_bytes(out, key)
    return bytes(out)


def decode_keys(body: bytes) -> List[bytes]:
    reader = Reader(body)
    keys = [reader.bytes_() for _ in range(reader.u32())]
    reader.expect_end()
    return keys


def encode_opt_key(key: Optional[bytes]) -> bytes:
    out = bytearray()
    _put_opt_bytes(out, key)
    return bytes(out)


def decode_opt_key(body: bytes) -> Optional[bytes]:
    reader = Reader(body)
    key = reader.opt_bytes()
    reader.expect_end()
    return key


def encode_bool(flag: bool) -> bytes:
    return b"\x01" if flag else b"\x00"


def decode_bool(body: bytes) -> bool:
    if body == b"\x01":
        return True
    if body == b"\x00":
        return False
    raise WireProtocolError(f"bad bool body {body!r}")


def encode_u64(value: int) -> bytes:
    return _U64.pack(value)


def decode_u64(body: bytes) -> int:
    if len(body) != _U64.size:
        raise WireProtocolError(f"bad u64 body of {len(body)} bytes")
    return int(_U64.unpack(body)[0])


def encode_stats(stats: Dict[str, int]) -> bytes:
    out = bytearray(_U32.pack(len(stats)))
    for key in sorted(stats):
        _put_str(out, key)
        out += _U64.pack(stats[key])
    return bytes(out)


def decode_stats(body: bytes) -> Dict[str, int]:
    reader = Reader(body)
    stats = {reader.str_(): reader.u64() for _ in range(reader.u32())}
    reader.expect_end()
    return stats
