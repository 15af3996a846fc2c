"""Wire-protocol conformance: codec round-trips and adversarial frames.

Three layers of guarantees:

* **codec** — driven by the opcode table :data:`repro.kv.wire.OPS`:
  every row's request and OK-response body round-trip, encode to the
  frozen bytes the format has always had, refuse a wrong argument
  count, and name a store method every raw store defines;
* **client** — a response that cannot be decoded closes its connection;
* **server** — a store's lazy result is drained and encoded under the
  node's store lock; a live node process answers malformed input (truncated
  length prefix, oversized declared length, garbage opcode, trailing
  bytes) with clean protocol-error frames and KEEPS SERVING: no hang,
  no crash, no poisoned state for the next request.
"""

from __future__ import annotations

import socket
import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NodePeerError, WireProtocolError
from repro.kv import wire
from repro.kv.lsm import LSMStore
from repro.kv.memstore import MemStore
from repro.kv.remote import NodeClient, NodeProcess, RemoteStore
from repro.kv.server import NodeServer


# --------------------------------------------------------------------------
# codec round-trip properties
# --------------------------------------------------------------------------

# keys/values mix raw bytes with UTF-8-encoded unicode text, including
# empty strings — the codec is length-prefixed, never delimiter-based
_blobs = st.one_of(
    st.binary(max_size=64),
    st.text(max_size=32).map(lambda s: s.encode("utf-8")),
)
_u64s = st.integers(min_value=0, max_value=2**64 - 1)

#: one strategy per body shape: a new opcode row is covered by the
#: table-driven tests below without editing them
SHAPES = {
    wire.NOTHING: st.none(),
    wire.BYTES: _blobs,
    wire.OPT_BYTES: st.one_of(st.none(), _blobs),
    wire.KEYS: st.lists(_blobs, max_size=20),
    wire.PAIRS: st.lists(st.tuples(_blobs, _blobs), max_size=20),
    wire.VALUES: st.lists(st.one_of(st.none(), _blobs), max_size=20),
    wire.U64: _u64s,
    wire.BOOL: st.booleans(),
    wire.STATS: st.dictionaries(st.text(min_size=1, max_size=16), _u64s,
                                max_size=10),
}

ROWS = list(wire.OPS.values())
ROW_IDS = [row.name for row in ROWS]


@pytest.mark.parametrize("row", ROWS, ids=ROW_IDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_every_opcode_roundtrips(row, data):
    """Request and OK-response body of every row round-trip through the
    row's own codecs (random byte/unicode keys, empty batches)."""
    args = ()
    if row.request is not wire.NOTHING:
        args = (data.draw(SHAPES[row.request]),)
    payload = wire.encode_request(row.op, *args)
    assert wire.decode_request(payload) == (row.op, args)
    result = data.draw(SHAPES[row.response])
    status, body = wire.decode_response(wire.encode_ok(row.response, result))
    assert status == wire.STATUS_OK
    assert row.response.decode(body) == result


#: opcode -> (request args, request payload, response value, OK body),
#: the hex as the format has always encoded it: round-trips pass after
#: any symmetric format change, this table does not
FROZEN = {
    wire.OP_PING: ((), "01", None, ""),
    wire.OP_MULTI_GET: (
        ([b"k1", b""],), "0200000002000000026b3100000000",
        [b"v1", None], "000000020100000002763100",
    ),
    wire.OP_MULTI_PUT: (
        ([(b"k1", b"v1"), (b"", b"\xff")],),
        "0300000002000000026b310000000276310000000000000001ff", None, "",
    ),
    wire.OP_MULTI_DELETE: (
        ([b"k1", b"zz"],), "0500000002000000026b31000000027a7a",
        1, "0000000000000001",
    ),
    wire.OP_SCAN: (
        (b"ns:",), "06000000036e733a", [(b"ns:a", b"1"), (b"ns:b", b"")],
        "00000002000000046e733a610000000131000000046e733a6200000000",
    ),
    wire.OP_KEYS: (
        (b"ns:",), "07000000036e733a", [b"ns:a", b"ns:b"],
        "00000002000000046e733a61000000046e733a62",
    ),
    wire.OP_NEXT_KEY: ((b"a",), "08010000000161", b"b", "010000000162"),
    wire.OP_HAS_PREFIX: ((b"ns:",), "09000000036e733a", True, "01"),
    wire.OP_SIZE_BYTES: ((), "0a", 300, "000000000000012c"),
    wire.OP_COUNT: ((), "0b", 2, "0000000000000002"),
    wire.OP_DROP_PREFIX: (
        (b"",), "0c00000000", [b"ns:a"], "00000001000000046e733a61",
    ),
    wire.OP_CLEAR: ((), "0d", None, ""),
    wire.OP_GET_STATS: (
        (), "0e", {"requests": 3, "pid": 42},
        "0000000200000003706964000000000000002a000000087265717565737473"
        "0000000000000003",
    ),
    wire.OP_SHUTDOWN: ((), "0f", None, ""),
}


@pytest.mark.parametrize("row", ROWS, ids=ROW_IDS)
def test_frozen_bytes(row):
    args, request, result, body = FROZEN[row.op]
    assert wire.encode_request(row.op, *args).hex() == request
    assert wire.decode_request(bytes.fromhex(request)) == (row.op, args)
    assert wire.encode_ok(row.response, result).hex() == "00" + body
    assert row.response.decode(bytes.fromhex(body)) == result


@pytest.mark.parametrize("store_cls", [MemStore, LSMStore, RemoteStore])
def test_every_store_op_is_served_by_every_store(store_cls):
    """A row's store method exists on each raw store (the conformance
    suite then runs each method on each store)."""
    for row in ROWS:
        if row.method is not None:
            assert callable(getattr(store_cls, row.method, None)), row.name


@pytest.mark.parametrize("row", ROWS, ids=ROW_IDS)
def test_wrong_argument_count_refused(row):
    arity = 0 if row.request is wire.NOTHING else 1
    for count in range(3):
        if count != arity:
            with pytest.raises(WireProtocolError):
                wire.encode_request(row.op, *([b""] * count))


#: every body shape a response is decoded with, by name
RESPONSE_CODECS = {
    name: codec for name, codec in vars(wire).items()
    if isinstance(codec, wire.Codec) and any(row.response is codec for row in ROWS)
}


@given(st.binary(max_size=2048))
@settings(max_examples=120, deadline=None)
def test_decoder_total_on_garbage(payload):
    """The request decoder and every response decoder never hang, loop,
    or raise anything but WireProtocolError on arbitrary payloads — and
    when one accepts a payload, re-encoding its parse reproduces the
    payload exactly (``STATS``, which encodes its names sorted and once
    each: reproduces the parse)."""
    try:
        op, args = wire.decode_request(payload)
    except WireProtocolError:
        pass
    else:
        assert wire.encode_request(op, *args) == payload
    for name, codec in RESPONSE_CODECS.items():
        try:
            value = codec.decode(payload)
        except WireProtocolError:
            continue
        body = wire.encode_ok(codec, value)[1:]
        if codec is wire.STATS:
            assert codec.decode(body) == value
        else:
            assert body == payload, name


@pytest.mark.parametrize("name", ["KEYS", "PAIRS", "VALUES"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_every_truncation_of_a_batch_body_is_refused(name, data):
    """Cut a valid batch body anywhere short of its end: the decoder
    raises WireProtocolError — never IndexError or struct.error."""
    codec = getattr(wire, name)
    body = wire.encode_ok(codec, data.draw(SHAPES[codec]))[1:]
    for cut in range(len(body)):
        with pytest.raises(WireProtocolError):
            codec.decode(body[:cut])


# --------------------------------------------------------------------------
# strictness of the codec
# --------------------------------------------------------------------------


def test_truncated_body_rejected():
    good = wire.encode_request(wire.OP_MULTI_GET, [b"abcdef"])
    for cut in range(1, len(good)):
        with pytest.raises(WireProtocolError):
            wire.decode_request(good[:cut])


def test_trailing_garbage_rejected():
    good = wire.encode_request(wire.OP_MULTI_DELETE, [b"k"])
    with pytest.raises(WireProtocolError):
        wire.decode_request(good + b"\x00")


def test_unknown_opcode_rejected():
    with pytest.raises(WireProtocolError):
        wire.decode_request(b"\xfe")
    with pytest.raises(WireProtocolError):
        wire.decode_request(b"")


def test_oversized_frame_refused_on_encode():
    with pytest.raises(WireProtocolError):
        wire.encode_frame(b"\x00" * (wire.MAX_FRAME_BYTES + 1))


def test_declared_length_is_bounds_checked():
    # a body whose inner u32 length points past the end of the frame
    evil = bytes((wire.OP_DROP_PREFIX,)) + struct.pack(">I", 2**31) + b"hi"
    with pytest.raises(WireProtocolError):
        wire.decode_request(evil)


# --------------------------------------------------------------------------
# adversarial frames against a LIVE server process
# --------------------------------------------------------------------------


@pytest.fixture()
def node_proc():
    proc = NodeProcess(0, engine="mem")
    yield proc
    proc.kill()


def _raw_conn(proc: NodeProcess) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", proc.port), timeout=5)
    sock.settimeout(5)
    return sock


def _server_answers(proc: NodeProcess) -> bool:
    client = NodeClient(proc.node_id, proc.port)
    try:
        return client.ping()
    finally:
        client.close()


def test_garbage_opcode_gets_protocol_error_and_connection_survives(
    node_proc,
):
    sock = _raw_conn(node_proc)
    try:
        wire.send_frame(sock, b"\xfe\x01\x02")
        status, body = wire.decode_response(wire.recv_frame(sock))
        assert status == wire.STATUS_PROTOCOL
        assert "opcode" in wire.decode_error_message(body)
        # SAME connection keeps working afterwards
        wire.send_frame(sock, wire.encode_request(wire.OP_PING))
        status, _ = wire.decode_response(wire.recv_frame(sock))
        assert status == wire.STATUS_OK
    finally:
        sock.close()
    assert _server_answers(node_proc)


def test_truncated_length_prefix_never_hangs_server(node_proc):
    sock = _raw_conn(node_proc)
    try:
        sock.sendall(b"\x00\x00")  # half a length prefix, then EOF
    finally:
        sock.close()
    assert _server_answers(node_proc)


def test_truncated_payload_never_hangs_server(node_proc):
    sock = _raw_conn(node_proc)
    try:
        # declare 100 bytes, send 3, hang up
        sock.sendall(struct.pack(">I", 100) + b"abc")
    finally:
        sock.close()
    assert _server_answers(node_proc)


def test_oversized_declared_length_rejected_cleanly(node_proc):
    sock = _raw_conn(node_proc)
    try:
        sock.sendall(struct.pack(">I", wire.MAX_FRAME_BYTES + 1))
        # the server must answer with a protocol error (it cannot trust
        # the rest of the stream, so the connection then closes) — and
        # must NOT try to allocate or read 64MiB+ first
        payload = wire.recv_frame(sock)
        assert payload is not None
        status, body = wire.decode_response(payload)
        assert status == wire.STATUS_PROTOCOL
        assert "limit" in wire.decode_error_message(body)
    finally:
        sock.close()
    assert _server_answers(node_proc)


def test_malformed_body_keeps_connection_and_state(node_proc):
    client = NodeClient(node_proc.node_id, node_proc.port)
    try:
        client.request(wire.OP_MULTI_PUT, [(b"k", b"v")])
        sock = _raw_conn(node_proc)
        try:
            # valid frame, valid opcode, truncated body
            wire.send_frame(sock, bytes((wire.OP_MULTI_DELETE,)) + b"\xff")
            status, _ = wire.decode_response(wire.recv_frame(sock))
            assert status == wire.STATUS_PROTOCOL
        finally:
            sock.close()
        # the store was untouched by the malformed delete
        assert client.call(wire.OP_MULTI_GET, [b"k"]) == [b"v"]
    finally:
        client.close()


def test_shutdown_is_acknowledged_then_process_exits(node_proc):
    client = NodeClient(node_proc.node_id, node_proc.port)
    try:
        client.request(wire.OP_SHUTDOWN)
    finally:
        client.close()
    node_proc.process.join(timeout=10)
    assert not node_proc.alive
    # further requests surface as peer errors, not hangs
    late = NodeClient(node_proc.node_id, node_proc.port)
    with pytest.raises(NodePeerError):
        late.ping()
    late.close()


class _LockCheckingStore(MemStore):
    """A raw store whose ``scan`` checks, pair by pair, that the serving
    node still holds its store lock while the response is built."""

    server = None

    def scan(self, prefix=b""):
        for pair in super().scan(prefix):
            assert self.server._store_lock.locked()
            yield pair


def test_scan_is_drained_under_the_store_lock():
    """A store's lazy ``scan`` is read to the end before the lock goes:
    another connection's mutation can never tear a SCAN response."""
    store = _LockCheckingStore()
    store.multi_put([(b"ns:a", b"1"), (b"ns:b", b"2"), (b"x", b"3")])
    server = NodeServer(None, store)
    store.server = server
    response = server._handle_request(
        wire.encode_request(wire.OP_SCAN, b"ns:")
    )
    status, body = wire.decode_response(response)
    assert status == wire.STATUS_OK, wire.decode_error_message(body)
    assert wire.PAIRS.decode(body) == [(b"ns:a", b"1"), (b"ns:b", b"2")]
    assert not server._store_lock.locked()


def test_undecodable_response_closes_the_connection():
    """A zero-length frame is valid framing but no response: the client
    raises and keeps no socket whose stream state it cannot know."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    closed_by_client = []

    def answer_once_with_nothing():
        conn, _ = listener.accept()
        with conn:
            wire.recv_frame(conn)
            wire.send_frame(conn, b"")
            closed_by_client.append(wire.recv_frame(conn) is None)

    server = threading.Thread(target=answer_once_with_nothing, daemon=True)
    server.start()
    client = NodeClient(0, listener.getsockname()[1])
    try:
        with pytest.raises(WireProtocolError):
            client.ping()
        assert client._pool == []
        server.join(timeout=10)
        assert closed_by_client == [True]
    finally:
        client.close()
        listener.close()
