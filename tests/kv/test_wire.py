"""Wire-protocol conformance: codec round-trips and adversarial frames.

Two layers of guarantees:

* **codec** — ``decode_request(encode_request(...))`` is the identity
  over arbitrary batch ops (random byte/unicode keys, empty batches),
  and every response body codec round-trips likewise;
* **server** — a live node process answers malformed input (truncated
  length prefix, oversized declared length, garbage opcode, trailing
  bytes) with clean protocol-error frames and KEEPS SERVING: no hang,
  no crash, no poisoned state for the next request.
"""

from __future__ import annotations

import socket
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NodePeerError, WireProtocolError
from repro.kv import wire
from repro.kv.remote import NodeClient, NodeProcess


# --------------------------------------------------------------------------
# codec round-trip properties
# --------------------------------------------------------------------------

# keys/values mix raw bytes with UTF-8-encoded unicode text, including
# empty strings — the codec is length-prefixed, never delimiter-based
_blobs = st.one_of(
    st.binary(max_size=64),
    st.text(max_size=32).map(lambda s: s.encode("utf-8")),
)


@given(st.lists(_blobs, max_size=20))
@settings(max_examples=60, deadline=None)
def test_multi_get_roundtrip(keys):
    op, args = wire.decode_request(
        wire.encode_request(wire.OP_MULTI_GET, keys)
    )
    assert op == wire.OP_MULTI_GET
    assert args == (keys,)


@given(st.lists(st.tuples(_blobs, _blobs), max_size=20))
@settings(max_examples=60, deadline=None)
def test_multi_put_roundtrip(items):
    op, args = wire.decode_request(
        wire.encode_request(wire.OP_MULTI_PUT, items)
    )
    assert op == wire.OP_MULTI_PUT
    assert args == (items,)


@given(st.lists(_blobs, max_size=20))
@settings(max_examples=40, deadline=None)
def test_multi_delete_roundtrip(keys):
    op, args = wire.decode_request(
        wire.encode_request(wire.OP_MULTI_DELETE, keys)
    )
    assert (op, args) == (wire.OP_MULTI_DELETE, (keys,))


@given(_blobs)
@settings(max_examples=40, deadline=None)
def test_single_key_ops_roundtrip(key):
    for op in (
        wire.OP_SCAN,
        wire.OP_KEYS,
        wire.OP_HAS_PREFIX,
        wire.OP_DROP_PREFIX,
    ):
        decoded_op, args = wire.decode_request(wire.encode_request(op, key))
        assert (decoded_op, args) == (op, (key,))


@given(st.one_of(st.none(), _blobs))
@settings(max_examples=40, deadline=None)
def test_next_key_roundtrip(after):
    op, args = wire.decode_request(
        wire.encode_request(wire.OP_NEXT_KEY, after)
    )
    assert (op, args) == (wire.OP_NEXT_KEY, (after,))


def test_nullary_ops_roundtrip():
    for op in (
        wire.OP_PING,
        wire.OP_SIZE_BYTES,
        wire.OP_COUNT,
        wire.OP_CLEAR,
        wire.OP_GET_STATS,
        wire.OP_SHUTDOWN,
    ):
        assert wire.decode_request(wire.encode_request(op)) == (op, ())


@given(st.lists(st.one_of(st.none(), _blobs), max_size=20))
@settings(max_examples=40, deadline=None)
def test_values_body_roundtrip(values):
    assert wire.decode_values(wire.encode_values(values)) == values


@given(st.lists(st.tuples(_blobs, _blobs), max_size=20))
@settings(max_examples=40, deadline=None)
def test_pairs_body_roundtrip(pairs):
    assert wire.decode_pairs(wire.encode_pairs(pairs)) == pairs


@given(
    st.dictionaries(
        st.text(min_size=1, max_size=16),
        st.integers(min_value=0, max_value=2**63 - 1),
        max_size=10,
    )
)
@settings(max_examples=40, deadline=None)
def test_stats_body_roundtrip(stats):
    assert wire.decode_stats(wire.encode_stats(stats)) == stats


@given(st.binary(max_size=2048))
@settings(max_examples=120, deadline=None)
def test_decoder_total_on_garbage(payload):
    """The request decoder never hangs, loops, or raises anything but
    WireProtocolError on arbitrary payloads — and when it does accept
    one, re-encoding its parse reproduces the payload exactly."""
    try:
        op, args = wire.decode_request(payload)
    except WireProtocolError:
        return
    assert wire.encode_request(op, *args) == payload


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
        values = wire.decode_values(
            client.request(wire.OP_MULTI_GET, [b"k"])
        )
        assert values == [b"v"]
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
