"""The per-node write-ahead log: length-prefixed, CRC-checked records.

Every mutation of a durable storage engine is appended here *before* it
is acknowledged, so a node that dies mid-stream (``SIGKILL``, a pulled
plug on the process level) can rebuild its exact pre-crash store by
replaying the log over the last checkpoint
(:mod:`repro.kv.checkpoint`).

Record layout (append-only file of these)::

    +----------------+----------------+---------------------------+
    | u32 length (BE)| u32 crc32 (BE) | payload (length bytes)    |
    +----------------+----------------+---------------------------+

The payload **is a wire request** (:func:`repro.kv.wire.encode_request`)
of one of the store-mutating opcodes, :data:`repro.kv.wire.MUTATING_OPS`
— ``MULTI_PUT`` / ``MULTI_DELETE`` / ``DROP_PREFIX`` / ``CLEAR``; a
single ``put``/``delete`` logs a batch of one. This module declares no
opcodes and no codec of its own: what the server would execute for a
frame is what recovery re-executes for a record
(:func:`repro.kv.wire.apply_mutation`), with the same strict
bounds-checked decoding. The CRC is over the payload, so a torn or
bit-flipped final record is detected and replay stops cleanly at the
last intact record (`read_wal` reports the valid byte offset so
recovery can truncate the debris before appending). A CRC-valid payload
that does not decode to a *mutating* request is corruption too and ends
the log the same way — a log can never make replay read or shut down.

Crash model and fsync policies
------------------------------

Every append ``flush()``es to the OS page cache before the operation is
acknowledged, so a *process* crash (the SIGKILL fault injection, a
Python-level panic) can never lose an acknowledged write under **any**
policy — userspace buffers die with the process, the page cache does
not. What ``fsync_policy`` controls is the *machine*-crash window, the
same trade-off as SQLite's ``synchronous`` pragma:

* ``"always"``  — ``fsync`` every record (``synchronous=FULL``): no
  acknowledged write is lost even to a power cut; slowest.
* ``"group"``   — group commit: ``fsync`` once per ``group_size``
  appends and on checkpoint/close (``synchronous=NORMAL``): bounded
  machine-crash window, near-``never`` throughput. The default.
* ``"never"``   — leave syncing to the OS writeback: fastest; a
  machine crash may lose the page-cache tail (process crashes still
  lose nothing).
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import WireProtocolError
from repro.kv import wire
from repro.locks import make_lock

_U32 = struct.Struct(">I")

#: a WAL record's payload obeys the same ceiling as a wire frame — a
#: declared length past it is corruption, refused before any allocation
MAX_RECORD_BYTES = wire.MAX_FRAME_BYTES

#: u32 length + u32 crc32
_HEADER_BYTES = 8

FSYNC_POLICIES = ("always", "group", "never")
DEFAULT_GROUP_SIZE = 32


def validate_fsync_policy(policy: str) -> str:
    """Validate (and return) an fsync policy name, before any file I/O
    — the same validate-before-spawn contract as engine names."""
    if policy not in FSYNC_POLICIES:
        raise ValueError(
            f"unknown fsync_policy {policy!r}; expected one of "
            f"{list(FSYNC_POLICIES)}"
        )
    return policy


# --------------------------------------------------------------------------
# reading a log back
# --------------------------------------------------------------------------


def read_wal(
    path: str,
) -> Tuple[List[Tuple[int, Tuple[Any, ...]]], int, bool]:
    """Read every intact record of a WAL file, tolerating a torn tail.

    Returns ``(records, valid_bytes, torn)``: the decoded records in
    append order, the byte offset of the last intact record's end, and
    whether debris followed it (a record cut short by the crash, a CRC
    mismatch, an undecodable payload, or a request that is not a store
    mutation). Replay stops at the first invalid record — everything
    after a tear is unacknowledgeable by construction, because records
    are appended and flushed in order.
    A missing file reads as an empty log.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return [], 0, False
    records: List[Tuple[int, Tuple[Any, ...]]] = []
    pos = 0
    torn = False
    size = len(data)
    while pos < size:
        if pos + _HEADER_BYTES > size:
            torn = True
            break
        (length,) = _U32.unpack_from(data, pos)
        (crc,) = _U32.unpack_from(data, pos + 4)
        end = pos + _HEADER_BYTES + length
        if length > MAX_RECORD_BYTES or end > size:
            torn = True
            break
        payload = data[pos + _HEADER_BYTES:end]
        if zlib.crc32(payload) != crc:
            torn = True
            break
        try:
            record = wire.decode_request(payload)
        except WireProtocolError:
            torn = True
            break
        if record[0] not in wire.MUTATING_OPS:
            torn = True
            break
        records.append(record)
        pos = end
    return records, pos, torn


# --------------------------------------------------------------------------
# the log itself
# --------------------------------------------------------------------------


class WriteAheadLog:
    """An append-only record log with group commit.

    Thread-safe: appends, rolls and stat reads serialize on an internal
    mutex (engines already serialize under the node/server store lock,
    so the mutex is contention-free belt-and-braces).
    """

    def __init__(
        self,
        path: str,
        fsync_policy: str = "group",
        group_size: int = DEFAULT_GROUP_SIZE,
    ) -> None:
        validate_fsync_policy(fsync_policy)
        if group_size <= 0:
            raise ValueError("group_size must be positive")
        self.fsync_policy = fsync_policy
        self.group_size = group_size
        self._lock = make_lock("WriteAheadLog._lock")
        self._path = path
        self._file: Optional[Any] = open(path, "ab")
        #: appends since the last fsync (group-commit window)
        self._unsynced = 0
        self._stats: Dict[str, int] = {
            "records": 0,
            "bytes": 0,
            "fsyncs": 0,
            "rolls": 0,
        }

    @property
    def path(self) -> str:
        with self._lock:
            return self._path

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._file is None

    @property
    def stats(self) -> Dict[str, int]:
        """A copy of the cumulative counters (records/bytes/fsyncs/rolls)."""
        with self._lock:
            return dict(self._stats)

    # -- appending ----------------------------------------------------------

    def append(self, op: int, *args: Any) -> None:
        """Append one record and make it process-crash-safe.

        The record reaches the OS page cache before this returns under
        every policy; ``fsync_policy`` decides whether it also reaches
        the platter (see the module docstring's crash model).
        """
        payload = wire.encode_request(op, *args)
        frame = (
            _U32.pack(len(payload))
            + _U32.pack(zlib.crc32(payload))
            + payload
        )
        with self._lock:
            handle = self._require_open()
            handle.write(frame)
            handle.flush()
            self._stats["records"] += 1
            self._stats["bytes"] += len(frame)
            if self.fsync_policy == "always":
                self._fsync_locked()
            elif self.fsync_policy == "group":
                self._unsynced += 1
                if self._unsynced >= self.group_size:
                    self._fsync_locked()

    def sync(self) -> None:
        """Force any group-commit window to the platter (checkpoint /
        close barrier). A no-op under ``"never"`` — that policy's whole
        point is leaving writeback to the OS."""
        with self._lock:
            if (
                self.fsync_policy != "never"
                and self._file is not None
                and self._unsynced
            ):
                self._fsync_locked()

    def _require_open(self) -> Any:
        # repro-lint: holds=_lock -- internal helper of the locked paths
        if self._file is None:
            raise ValueError(f"WAL {self._path!r} is closed")
        return self._file

    def _fsync_locked(self) -> None:
        # repro-lint: holds=_lock
        handle = self._require_open()
        os.fsync(handle.fileno())
        self._stats["fsyncs"] += 1
        self._unsynced = 0

    # -- lifecycle ----------------------------------------------------------

    def roll(self, new_path: str) -> str:
        """Switch to a fresh log file (the checkpoint/truncate cycle).

        The outgoing file needs no final sync: its records are covered
        by the checkpoint that triggered the roll, and the caller
        deletes it. Returns the old path so the caller can.
        """
        with self._lock:
            handle = self._require_open()
            handle.close()
            old_path = self._path
            self._path = new_path
            self._file = open(new_path, "ab")
            self._unsynced = 0
            self._stats["rolls"] += 1
            return old_path

    def close(self) -> None:
        """Flush, honor the policy's final sync, and close. Idempotent."""
        with self._lock:
            if self._file is None:
                return
            self._file.flush()
            if self.fsync_policy != "never" and self._unsynced:
                self._fsync_locked()
            self._file.close()
            self._file = None

    def abandon(self) -> None:
        """Drop the handle *without* the close-time sync — the crash
        injector's hammer: exactly what a SIGKILL leaves behind (the
        flushed-per-record page-cache state, nothing more)."""
        with self._lock:
            if self._file is None:
                return
            self._file.close()
            self._file = None

    def __repr__(self) -> str:
        with self._lock:
            state = "closed" if self._file is None else "open"
            return (
                f"WriteAheadLog({self._path!r}, {self.fsync_policy}, "
                f"{self._stats['records']} records, {state})"
            )

