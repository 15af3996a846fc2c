"""The storage-node server: one process, one raw store, one socket.

Each remote node of a ``transport="socket"`` cluster is this loop running
in its own OS process (forked by :class:`repro.kv.remote.NodeProcess`),
serving the wire protocol of :mod:`repro.kv.wire` over a listening TCP
socket on ``127.0.0.1``. The process owns a single raw storage engine
(:class:`~repro.kv.memstore.MemStore` or
:class:`~repro.kv.lsm.LSMStore`) — the *node-level* bookkeeping
(per-thread counters, read-load) stays client-side in
:class:`~repro.kv.remote.RemoteNode`, so counting is byte-identical
across transports.

Connection handling is thread-per-connection with one store-wide mutex:
inside a node, operations serialize exactly as the in-process
``StorageNode._op_lock`` serializes them. Error discipline:

* an application error (the store raised) → ``STATUS_ERROR`` frame,
  connection keeps serving;
* a malformed request payload (garbage opcode, truncated body) →
  ``STATUS_PROTOCOL`` frame, connection keeps serving;
* a broken *stream* (truncated length prefix, oversized declared
  length) → best-effort ``STATUS_PROTOCOL`` frame, then the connection
  closes — the server itself always survives;
* ``SHUTDOWN`` → acknowledge, then ``os._exit(0)`` (no atexit games in
  a forked child).
"""

from __future__ import annotations

import os
import socket
import threading
from collections.abc import Iterator
from typing import Dict, Optional

from repro.errors import WireProtocolError
from repro.kv import wire
from repro.kv.checkpoint import NodeDurability
from repro.kv.node import open_engine
from repro.locks import make_lock


class NodeServer:
    """Serve one raw store over an already-bound listening socket."""

    def __init__(self, listener: socket.socket, store,
                 durability: Optional[NodeDurability] = None) -> None:
        self.listener = listener
        self.store = store
        #: owns this process's WAL + checkpoints (``None`` = volatile)
        self._durability = durability
        #: serializes store access across connections, like the
        #: in-process node's ``_op_lock``
        self._store_lock = make_lock("NodeServer._store_lock")
        self._stats_lock = make_lock("NodeServer._stats_lock")
        self._stats: Dict[str, int] = {
            "requests": 0,
            "app_errors": 0,
            "protocol_errors": 0,
            "connections": 0,
            "pid": os.getpid(),
        }

    # -- accounting ---------------------------------------------------------

    def _bump(self, key: str, by: int = 1) -> None:
        with self._stats_lock:
            self._stats[key] += by

    # -- request dispatch ---------------------------------------------------

    def _run_op(self, op: int, args: tuple) -> bytes:
        """Run one decoded request; returns the OK response payload."""
        row = wire.OPS[op]
        if row.method is None:  # PING / GET_STATS: answered right here
            if op == wire.OP_PING:
                return wire.encode_ok()
            stats = self._durability.wal_stats() if self._durability else {}
            stats = {f"wal_{key}": value for key, value in stats.items()}
            with self._stats_lock:
                stats.update(self._stats)
            return wire.encode_ok(row.response, stats)
        with self._store_lock:
            if row.mutating:
                # the one dispatch over the mutation vocabulary — the
                # same call recovery replays a logged record through
                result = wire.apply_mutation(self.store, op, args)
                # ...after which the durability manager gets a chance
                # to checkpoint/truncate the WAL
                if self._durability is not None:
                    self._durability.maybe_checkpoint(self.store)
            else:
                result = getattr(self.store, row.method)(*args)
                if isinstance(result, Iterator):
                    result = list(result)  # a lazy scan(): drain it here
            # encoded under the lock as well: nothing the store handed
            # back is read once another connection may mutate it
            return wire.encode_ok(row.response, result)

    def _handle_request(self, payload: bytes) -> Optional[bytes]:
        """One request payload → one response payload (``None`` after a
        SHUTDOWN acknowledgement has been queued by the caller)."""
        self._bump("requests")
        try:
            op, args = wire.decode_request(payload)
            if op == wire.OP_SHUTDOWN:
                return None
            return self._run_op(op, args)
        except WireProtocolError as exc:
            self._bump("protocol_errors")
            return wire.encode_error(wire.STATUS_PROTOCOL, str(exc))
        # repro-lint: disable=broad-except -- THE process boundary: any app
        # error becomes a STATUS_ERROR frame and the connection keeps serving
        except Exception as exc:  # app error: report, keep serving
            self._bump("app_errors")
            return wire.encode_error(
                wire.STATUS_ERROR, f"{type(exc).__name__}: {exc}"
            )

    # -- connection / accept loops ------------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        self._bump("connections")
        try:
            while True:
                try:
                    payload = wire.recv_frame(conn)
                except WireProtocolError as exc:
                    # broken framing: answer if the pipe still works,
                    # then give up on this connection only
                    self._bump("protocol_errors")
                    try:
                        wire.send_frame(
                            conn,
                            wire.encode_error(wire.STATUS_PROTOCOL, str(exc)),
                        )
                    except OSError:
                        pass
                    return
                if payload is None:
                    return
                response = self._handle_request(payload)
                if response is None:  # SHUTDOWN
                    try:
                        wire.send_frame(conn, wire.encode_ok())
                        conn.shutdown(socket.SHUT_WR)
                    except OSError:
                        pass
                    os._exit(0)
                wire.send_frame(conn, response)
        except OSError:
            pass  # peer vanished; the accept loop keeps running
        finally:
            wire.close_quietly(conn)

    def serve_forever(self) -> None:
        while True:
            try:
                conn, _addr = self.listener.accept()
            except OSError:
                os._exit(0)  # listener torn down
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            thread.start()


def serve_entry(listener: socket.socket, engine: str,
                store_args: Optional[dict],
                data_dir: Optional[str] = None,
                fsync_policy: str = "group",
                checkpoint_interval: Optional[int] = None) -> None:
    """Child-process entry point (target of the forked ``Process``).

    With ``data_dir`` the process is crash-consistent: it *recovers*
    whatever checkpoint + WAL tail the directory holds before
    accepting connections, and write-ahead-logs every mutation — a
    SIGKILLed process respawned on the same directory comes back with
    every acked write.
    """
    store, durability = open_engine(
        engine, store_args, data_dir, fsync_policy, checkpoint_interval
    )
    NodeServer(listener, store, durability).serve_forever()
