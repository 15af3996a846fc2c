"""Client side of the socket transport: node processes and their proxies.

Three layers, composed bottom-up:

* :class:`NodeProcess` — forks one :mod:`repro.kv.server` loop into its
  own OS process. The parent binds the listener on ``127.0.0.1:0``
  *before* forking (the kernel picks a free ephemeral port, so parallel
  test runs never race on port numbers) and hands the bound socket to
  the child; the child inherits it and serves, the parent closes its
  copy and keeps only the port number.
* :class:`NodeClient` — a pooled, lock-step framed-RPC client. One
  request, one response; ``OSError`` / unexpected EOF anywhere maps to
  :class:`~repro.errors.NodePeerError` (the cluster's failover signal),
  a ``STATUS_ERROR`` frame to :class:`~repro.errors.RemoteOpError`, and
  a ``STATUS_PROTOCOL`` frame to :class:`~repro.errors.WireProtocolError`.
  A request has two halves: :meth:`NodeClient.send` ships the frame and
  returns a :class:`Sent` handle holding the connection, and
  :meth:`NodeClient.request` reads the answer — so a caller can ship
  every node's frame before it waits on the first answer. A connection
  holding an unread answer is closed, never pooled.
* :class:`RemoteStore` — duck-types the raw-store surface
  (:class:`~repro.kv.memstore.MemStore` et al.) over the client, so
  :class:`RemoteNode` can *inherit* every counting method body from
  :class:`~repro.kv.node.StorageNode` unchanged. Counters therefore
  live client-side and are byte-identical across transports.

Every spawned process is tracked in a module registry;
:func:`reap_orphans` (called by the test session teardown) terminates
anything a crashed or careless caller left behind. Children are daemonic
besides, so no interpreter exit can hang on them.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import weakref
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import NodePeerError, RemoteOpError, WireProtocolError
from repro.kv import wal as walmod
from repro.kv import wire
from repro.kv.node import StorageNode, make_engine
from repro.kv.server import serve_entry
from repro.locks import make_lock

#: live NodeProcess instances, for orphan reaping at session teardown
_PROCESS_REGISTRY: "weakref.WeakSet[NodeProcess]" = weakref.WeakSet()
_REGISTRY_LOCK = make_lock("remote._REGISTRY_LOCK")

_CONNECT_TIMEOUT = 5.0
#: generous per-request ceiling — a hung peer must surface as a
#: NodePeerError, never as a silently stuck test suite
_REQUEST_TIMEOUT = 120.0


def reap_orphans() -> int:
    """Terminate every still-live node process; returns how many."""
    with _REGISTRY_LOCK:
        procs = list(_PROCESS_REGISTRY)
    reaped = 0
    for proc in procs:
        if proc.alive:
            proc.kill()
            reaped += 1
    return reaped


class NodeProcess:
    """One storage-node server running in its own OS process.

    With ``data_dir`` the server write-ahead-logs into that directory
    and :meth:`respawn` becomes *recovery*: the fresh process replays
    checkpoint + WAL tail before accepting connections, so a SIGKILL
    loses nothing that was acked.
    """

    def __init__(self, node_id: int, engine: str = "mem",
                 store_args: Optional[dict] = None,
                 data_dir: Optional[str] = None,
                 fsync_policy: str = "group",
                 checkpoint_interval: Optional[int] = None) -> None:
        # validate BEFORE spawning so a bad engine name / fsync policy
        # raises the same error, in the same place, as the in-process node
        make_engine(engine, store_args)
        walmod.validate_fsync_policy(fsync_policy)
        self.node_id = node_id
        self.engine = engine
        self.store_args = dict(store_args) if store_args else None
        self.data_dir = data_dir
        self.fsync_policy = fsync_policy
        self.checkpoint_interval = checkpoint_interval
        self.port: int = 0
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self._spawn()
        with _REGISTRY_LOCK:
            _PROCESS_REGISTRY.add(self)

    def _spawn(self) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(128)
        self.port = listener.getsockname()[1]
        ctx = multiprocessing.get_context("fork")
        self.process = ctx.Process(
            target=serve_entry,
            args=(
                listener, self.engine, self.store_args,
                self.data_dir, self.fsync_policy, self.checkpoint_interval,
            ),
            daemon=True,
            name=f"kv-node-{self.node_id}",
        )
        self.process.start()
        listener.close()  # the child keeps its inherited copy

    def respawn(self) -> None:
        """Start a fresh server process on a fresh port: empty for a
        volatile node, recovered-by-replay when ``data_dir`` is set
        (the new process reopens the same directory)."""
        self.kill()
        self._spawn()

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def sigkill(self) -> None:
        """Hard-kill the process (the fault injector's hammer)."""
        if self.process is not None and self.process.pid is not None:
            try:
                os.kill(self.process.pid, signal.SIGKILL)
            except (OSError, ProcessLookupError):
                pass
            self.process.join(timeout=10)

    def kill(self) -> None:
        """Terminate and join the process (idempotent)."""
        if self.process is None:
            return
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=10)
            if self.process.is_alive():
                self.sigkill()
        else:
            self.process.join(timeout=1)

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return (
            f"NodeProcess(id={self.node_id}, pid={self.pid}, "
            f"port={self.port}, {state})"
        )


class NodeClient:
    """Framed-RPC client with a small per-client connection pool.

    Requests are lock-step (send one frame, read one frame), so a
    connection is exclusive while a request is in flight; concurrent
    callers either grab a pooled idle connection or open a new one.
    """

    def __init__(self, node_id: int, port: int, pool_size: int = 4) -> None:
        self.node_id = node_id
        self.port = port
        self._pool: List[socket.socket] = []
        self._pool_size = pool_size
        self._lock = make_lock("NodeClient._lock")
        self._closed = False

    # -- connection management ----------------------------------------------

    def _connect(self) -> socket.socket:
        try:
            sock = socket.create_connection(
                ("127.0.0.1", self.port), timeout=_CONNECT_TIMEOUT
            )
        except OSError as exc:
            raise NodePeerError(self.node_id, f"connect failed: {exc}")
        sock.settimeout(_REQUEST_TIMEOUT)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _checkout(self) -> socket.socket:
        with self._lock:
            if self._closed:
                raise NodePeerError(self.node_id, "client closed")
            if self._pool:
                return self._pool.pop()
        return self._connect()

    def _checkin(self, sock: socket.socket) -> None:
        with self._lock:
            if not self._closed and len(self._pool) < self._pool_size:
                self._pool.append(sock)
                return
        wire.close_quietly(sock)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, []
        for sock in pool:
            wire.close_quietly(sock)

    # -- the RPC ------------------------------------------------------------

    def send(self, op: int, *args: object) -> "Sent":
        """The first half of a request: ship its frame on a checked-out
        connection and return the handle :meth:`request` reads the
        answer from (or that is closed unread)."""
        payload = wire.encode_request(op, *args)
        sock = self._checkout()
        try:
            wire.send_frame(sock, payload)
        except OSError as exc:
            wire.close_quietly(sock)
            raise NodePeerError(self.node_id, f"i/o failed: {exc}")
        return Sent(self, op, sock)

    def request(self, op: int, *args: object) -> bytes:
        """One request → the OK body, or a mapped exception.

        ``request(op, sent)`` — a :class:`Sent` handle in place of the
        arguments — only reads the answer of a frame :meth:`send`
        already shipped. Either way the RPC ends here, so one call of
        this method is one round trip."""
        sent = args[0] if args and type(args[0]) is Sent else self.send(op, *args)
        sock = sent.take()
        try:
            response = wire.recv_frame(sock)
        except WireProtocolError as exc:
            # stream died mid-frame: unreachable peer, not a codec bug
            wire.close_quietly(sock)
            raise NodePeerError(self.node_id, str(exc))
        except OSError as exc:
            wire.close_quietly(sock)
            raise NodePeerError(self.node_id, f"i/o failed: {exc}")
        if response is None:
            wire.close_quietly(sock)
            raise NodePeerError(self.node_id, "peer closed without answering")
        try:
            status, body = wire.decode_response(response)
        except WireProtocolError:
            # an undecodable answer leaves the stream state unknown
            wire.close_quietly(sock)
            raise
        # error frames leave the connection reusable too
        self._checkin(sock)
        if status == wire.STATUS_OK:
            return body
        message = wire.decode_error_message(body)
        if status == wire.STATUS_ERROR:
            raise RemoteOpError(message)
        if status == wire.STATUS_PROTOCOL:
            raise WireProtocolError(message)
        raise WireProtocolError(f"unknown response status {status:#x}")

    def call(self, op: int, *args: object) -> Any:
        """One request → its OK body, decoded by the opcode's response
        codec (:data:`repro.kv.wire.OPS`)."""
        return wire.OPS[op].response.decode(self.request(op, *args))

    def ping(self) -> bool:
        self.request(wire.OP_PING)
        return True


class Sent:
    """A request whose frame is on the wire and whose answer is unread.

    Holds the checked-out connection until :meth:`NodeClient.request`
    reads the answer (and pools the connection) or :meth:`close` drops
    it: a connection with an unread answer never goes back to a pool,
    or the next request on it would read this one's answer.
    """

    __slots__ = ("client", "op", "sock")

    def __init__(self, client: NodeClient, op: int, sock: socket.socket) -> None:
        self.client = client
        self.op = op
        self.sock: Optional[socket.socket] = sock

    def take(self) -> socket.socket:
        """Hand the connection to the receiving half (once)."""
        sock, self.sock = self.sock, None
        if sock is None:
            raise ValueError("request answer already read or abandoned")
        return sock

    def receive(self) -> Any:
        """The answer, decoded by the opcode's response codec."""
        return self.client.call(self.op, self)

    def close(self) -> None:
        """Abandon the answer: close the connection (idempotent; a no-op
        once the answer was read)."""
        sock, self.sock = self.sock, None
        if sock is not None:
            wire.close_quietly(sock)


class RemoteStore:
    """The raw-store surface, served by a node process over sockets.

    Mirrors :class:`~repro.kv.memstore.MemStore` closely enough that
    :class:`~repro.kv.node.StorageNode` (and the cluster's rebalance
    path) can use it blind. ``scan`` materializes server-side and
    returns an iterator over the shipped pairs — one frame per scan.
    """

    __slots__ = ("client",)

    def __init__(self, client: NodeClient) -> None:
        self.client = client

    def get(self, key: bytes) -> Optional[bytes]:
        return self.multi_get([key])[0]

    def multi_get(self, keys: Sequence[bytes]) -> List[Optional[bytes]]:
        # an empty batch ships no frame (here and in every batch op)
        return self.client.call(wire.OP_MULTI_GET, list(keys)) if keys else []

    def put(self, key: bytes, value: bytes) -> None:
        self.multi_put([(key, value)])

    def multi_put(self, items: Sequence[Tuple[bytes, bytes]]) -> None:
        if items:
            self.client.call(wire.OP_MULTI_PUT, list(items))

    def delete(self, key: bytes) -> bool:
        return self.multi_delete([key]) == 1

    def multi_delete(self, keys: Sequence[bytes]) -> int:
        return self.client.call(wire.OP_MULTI_DELETE, list(keys)) if keys else 0

    def scan(self, prefix: bytes = b"") -> Iterator[Tuple[bytes, bytes]]:
        return iter(self.client.call(wire.OP_SCAN, prefix))

    def keys(self, prefix: bytes = b"") -> List[bytes]:
        return self.client.call(wire.OP_KEYS, prefix)

    def next_key(self, after: Optional[bytes] = None) -> Optional[bytes]:
        return self.client.call(wire.OP_NEXT_KEY, after)

    def has_prefix(self, prefix: bytes = b"") -> bool:
        return self.client.call(wire.OP_HAS_PREFIX, prefix)

    def drop_prefix(self, prefix: bytes = b"") -> List[bytes]:
        return self.client.call(wire.OP_DROP_PREFIX, prefix)

    def size_bytes(self) -> int:
        return self.client.call(wire.OP_SIZE_BYTES)

    def clear(self) -> None:
        self.client.call(wire.OP_CLEAR)

    def __len__(self) -> int:
        return self.client.call(wire.OP_COUNT)

    def __contains__(self, key: bytes) -> bool:
        return self.multi_get([key])[0] is not None


class _NullLock:
    """Stand-in for the per-node op mutex: a remote node's server
    serializes store access itself, so the client holds nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullLock":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


class RemoteNode(StorageNode):
    """A :class:`StorageNode` whose store lives in another OS process.

    Inherits every KV method — and with them the exact counter
    semantics — from the in-process node; only the store is swapped for
    a :class:`RemoteStore` and the op mutex for a no-op (the server
    serializes). The per-thread counter shards, read-load signal and
    stats aggregation are therefore *identical* across transports.
    """

    __slots__ = ("process", "client")

    def __init__(self, node_id: int, engine: str = "mem",
                 store_args: Optional[dict] = None,
                 data_dir: Optional[str] = None,
                 fsync_policy: str = "group",
                 checkpoint_interval: Optional[int] = None) -> None:
        process = NodeProcess(
            node_id, engine, store_args,
            data_dir=data_dir,
            fsync_policy=fsync_policy,
            checkpoint_interval=checkpoint_interval,
        )
        client = NodeClient(node_id, process.port)
        # durability (when any) lives server-side in the node process;
        # the client-side facade stays volatile by construction
        super().__init__(node_id, engine, store=RemoteStore(client))
        self.process = process
        self.client = client
        self._op_lock = _NullLock()

    # -- durability / crash surface ------------------------------------------

    @property
    def durable(self) -> bool:
        """Does the node process write-ahead-log to a data directory?"""
        return self.process.data_dir is not None

    @property
    def is_crashed(self) -> bool:
        """Crash state is the process state: dead means crashed."""
        return not self.process.alive

    def wal_stats(self) -> Dict[str, int]:
        """The server process's WAL counters (empty for volatile nodes)."""
        if not self.durable:
            return {}
        return {
            key[len("wal_"):]: value
            for key, value in self.server_stats().items()
            if key.startswith("wal_")
        }

    def crash(self) -> bool:
        """SIGKILL the node process — the real thing, not a simulation.
        Always honors crash semantics (returns True)."""
        self.client.close()
        self.process.sigkill()
        return True

    def mutate(self, op: int, *args: Any) -> Any:
        """The node process applies (and checkpoints) it itself."""
        return self.client.call(op, *args)

    def send(self, op: int, *args: Any) -> Sent:
        """Ship the frame now; the ``sent=`` argument reads the answer."""
        return self.client.send(op, *args)

    # -- transport-specific surface ------------------------------------------

    def server_stats(self) -> Dict[str, int]:
        """The server process's own request/error/connection counters."""
        return self.client.call(wire.OP_GET_STATS)

    def shutdown(self) -> None:
        """Graceful stop: SHUTDOWN frame, then reap the process."""
        try:
            self.client.request(wire.OP_SHUTDOWN)
        except (NodePeerError, RemoteOpError):
            pass
        self.close()

    def close(self) -> None:
        """Drop the connection pool and terminate the process."""
        self.client.close()
        self.process.kill()

    def restart(self) -> None:
        """Respawn the server process and repoint the client at its new
        port. A volatile node comes back EMPTY (its contents died with
        the old process); a durable one recovers by checkpoint + WAL
        replay before it accepts the first connection. Counters are
        client-side and survive either way."""
        self.client.close()
        self.process.respawn()
        self.client = NodeClient(self.node_id, self.process.port)
        self.store = RemoteStore(self.client)

    def __repr__(self) -> str:
        state = "up" if self.process.alive else "down"
        return (
            f"RemoteNode(id={self.node_id}, pid={self.process.pid}, "
            f"port={self.process.port}, {state})"
        )
