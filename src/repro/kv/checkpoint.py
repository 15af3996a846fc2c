"""Checkpoints and crash recovery for a durable storage node.

A node's data directory holds at most one **generation** of durable
state, named by a monotonically increasing sequence number::

    data_dir/
        checkpoint-00000007      # full store snapshot (absent for seq 0)
        wal-00000007.log         # records appended since that snapshot

The **checkpoint/truncate cycle** (:meth:`NodeDurability.checkpoint`):
snapshot every live pair under the caller's store lock, write it to
``checkpoint-<seq+1>.tmp``, ``fsync``, atomically rename into place,
roll the WAL onto ``wal-<seq+1>.log``, and only then delete the old
generation — at every instant the directory holds at least one complete
recoverable state. Checkpoints fire automatically every
``checkpoint_interval`` logged records (:meth:`maybe_checkpoint`), so
the log a restart must replay stays bounded.

**Recovery** (:meth:`NodeDurability.open`): find the newest generation,
load its checkpoint (magic- and CRC-validated — a corrupt *renamed*
checkpoint is a :class:`~repro.errors.DurabilityError`, it cannot
happen under this write protocol), replay the WAL tail tolerating a
torn final record (the debris is truncated so the reopened log appends
after the last intact record), and attach the WAL to the store so new
mutations are logged again.

Checkpoint file layout::

    +-------+-----------+----------------------------+----------------+
    | magic | u64 count | count × (bytes key, value) | u32 crc32(body)|
    +-------+-----------+----------------------------+----------------+
"""

from __future__ import annotations

import os
import re
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import DurabilityError, WireProtocolError
from repro.kv import wal as walmod
from repro.kv import wire
from repro.locks import make_lock

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")

CHECKPOINT_MAGIC = b"ZCKP1"

#: records logged between automatic checkpoints (the replay bound)
DEFAULT_CHECKPOINT_INTERVAL = 512

_CHECKPOINT_RE = re.compile(r"^checkpoint-(\d{8})$")
_WAL_RE = re.compile(r"^wal-(\d{8})\.log$")


def checkpoint_path(data_dir: str, seq: int) -> str:
    return os.path.join(data_dir, f"checkpoint-{seq:08d}")


def wal_path(data_dir: str, seq: int) -> str:
    return os.path.join(data_dir, f"wal-{seq:08d}.log")


# --------------------------------------------------------------------------
# checkpoint file format
# --------------------------------------------------------------------------


def write_checkpoint(
    path: str, pairs: List[Tuple[bytes, bytes]]
) -> int:
    """Write a snapshot atomically (tmp → fsync → rename); returns the
    file's size in bytes. The rename is the commit point: a crash at
    any earlier instant leaves only ignorable ``.tmp`` debris."""
    body = bytearray(_U64.pack(len(pairs)))
    for key, value in pairs:
        body += _U32.pack(len(key))
        body += key
        body += _U32.pack(len(value))
        body += value
    blob = CHECKPOINT_MAGIC + bytes(body) + _U32.pack(zlib.crc32(body))
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_dir(os.path.dirname(path))
    return len(blob)


def read_checkpoint(path: str) -> List[Tuple[bytes, bytes]]:
    """Load and validate a snapshot; magic/CRC/shape violations raise
    :class:`DurabilityError` (a renamed checkpoint is all-or-nothing)."""
    with open(path, "rb") as handle:
        blob = handle.read()
    if not blob.startswith(CHECKPOINT_MAGIC):
        raise DurabilityError(f"{path}: bad checkpoint magic")
    if len(blob) < len(CHECKPOINT_MAGIC) + _U32.size:
        raise DurabilityError(f"{path}: truncated checkpoint")
    body = blob[len(CHECKPOINT_MAGIC):-_U32.size]
    (crc,) = _U32.unpack(blob[-_U32.size:])
    if zlib.crc32(body) != crc:
        raise DurabilityError(f"{path}: checkpoint CRC mismatch")
    reader = wire.Reader(body)
    try:
        count = reader.u64()
        pairs = [(reader.bytes_(), reader.bytes_()) for _ in range(count)]
        reader.expect_end()
    except WireProtocolError as exc:
        raise DurabilityError(
            f"{path}: malformed checkpoint: {exc}"
        ) from exc
    return pairs


def _fsync_dir(path: str) -> None:
    """Persist a directory entry (the rename/unlink itself); best-effort
    where the platform refuses directory fds."""
    try:
        fd = os.open(path or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def latest_generation(data_dir: str) -> int:
    """The newest sequence number present on disk (0 when pristine)."""
    seq = 0
    try:
        names = os.listdir(data_dir)
    except FileNotFoundError:
        return 0
    for name in names:
        match = _CHECKPOINT_RE.match(name) or _WAL_RE.match(name)
        if match:
            seq = max(seq, int(match.group(1)))
    return seq


# --------------------------------------------------------------------------
# the per-node durability manager
# --------------------------------------------------------------------------


@dataclass
class RecoveryReport:
    """What one :meth:`NodeDurability.open` rebuilt."""

    #: generation recovered from (0 = pristine directory)
    seq: int = 0
    #: pairs loaded from the checkpoint file
    checkpoint_pairs: int = 0
    #: WAL records replayed over the checkpoint
    records_replayed: int = 0
    #: a torn/corrupt final record was discarded (and truncated away)
    torn_tail: bool = False
    #: WAL debris bytes truncated
    bytes_truncated: int = 0

    def __str__(self) -> str:
        out = (
            f"recovered gen {self.seq}: {self.checkpoint_pairs} "
            f"checkpoint pairs + {self.records_replayed} WAL records"
        )
        if self.torn_tail:
            out += f" (torn tail: {self.bytes_truncated}B discarded)"
        return out


class NodeDurability:
    """Owns one node's data directory: WAL lifecycle + checkpoints.

    The store-mutating entry points (:meth:`open`, :meth:`checkpoint`,
    :meth:`maybe_checkpoint`) must be called with the caller's store
    serialized (the node's ``_op_lock`` / the server's ``_store_lock``)
    — the internal mutex only guards this object's own sequencing
    state, so checkpoint bookkeeping stays consistent even if a caller
    slips.
    """

    def __init__(
        self,
        data_dir: str,
        fsync_policy: str = "group",
        group_size: int = walmod.DEFAULT_GROUP_SIZE,
        checkpoint_interval: Optional[int] = None,
    ) -> None:
        walmod.validate_fsync_policy(fsync_policy)
        if checkpoint_interval is None:
            checkpoint_interval = DEFAULT_CHECKPOINT_INTERVAL
        if checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive")
        os.makedirs(data_dir, exist_ok=True)
        self.data_dir = data_dir
        self.fsync_policy = fsync_policy
        self.group_size = group_size
        self.checkpoint_interval = checkpoint_interval
        self._lock = make_lock("NodeDurability._lock")
        self._wal: Optional[walmod.WriteAheadLog] = None
        self._seq = 0
        #: WAL record count at the last checkpoint (per WAL object)
        self._records_at_checkpoint = 0
        self.last_recovery: Optional[RecoveryReport] = None

    @property
    def wal(self) -> Optional[walmod.WriteAheadLog]:
        with self._lock:
            return self._wal

    @property
    def seq(self) -> int:
        with self._lock:
            return self._seq

    def wal_stats(self) -> Dict[str, int]:
        """The live WAL's counters (zeros before :meth:`open`)."""
        with self._lock:
            if self._wal is None:
                return {"records": 0, "bytes": 0, "fsyncs": 0, "rolls": 0}
            return self._wal.stats

    # -- recovery -----------------------------------------------------------

    def open(self, store: Any) -> RecoveryReport:
        """Rebuild ``store`` from disk, then attach the WAL to it.

        Replays checkpoint + log tail of the newest generation into the
        (assumed empty) store, truncates any torn tail so the log can
        keep appending after the last intact record, and hooks the
        store's mutators up to the reopened WAL. Reentrant across
        crash/restart cycles: an earlier abandoned WAL handle is simply
        superseded.
        """
        report = RecoveryReport()
        with self._lock:
            seq = latest_generation(self.data_dir)
            report.seq = seq
            ckpt = checkpoint_path(self.data_dir, seq)
            if os.path.exists(ckpt):
                pairs = read_checkpoint(ckpt)
                if pairs:
                    store.multi_put(pairs)
                report.checkpoint_pairs = len(pairs)
            log_path = wal_path(self.data_dir, seq)
            records, valid_bytes, torn = walmod.read_wal(log_path)
            for op, args in records:
                wire.apply_mutation(store, op, args)
            report.records_replayed = len(records)
            if torn:
                report.torn_tail = True
                report.bytes_truncated = (
                    os.path.getsize(log_path) - valid_bytes
                )
                os.truncate(log_path, valid_bytes)
            self._seq = seq
            self._wal = walmod.WriteAheadLog(
                log_path,
                fsync_policy=self.fsync_policy,
                group_size=self.group_size,
            )
            self._records_at_checkpoint = 0
            self.last_recovery = report
        store.attach_wal(self._wal)
        # a long log was replayed whole: fold it into a fresh checkpoint
        # now so the *next* restart replays a bounded tail again
        if report.records_replayed >= self.checkpoint_interval:
            self.checkpoint(store)
        return report

    # -- the checkpoint/truncate cycle --------------------------------------

    def maybe_checkpoint(self, store: Any) -> bool:
        """Checkpoint iff ``checkpoint_interval`` records accumulated
        since the last one; returns whether it did."""
        with self._lock:
            if self._wal is None:
                return False
            appended = (
                self._wal.stats["records"] - self._records_at_checkpoint
            )
            if appended < self.checkpoint_interval:
                return False
            self._checkpoint_locked(store)
            return True

    def checkpoint(self, store: Any) -> None:
        """Snapshot the store and truncate the log (see module docs)."""
        with self._lock:
            self._checkpoint_locked(store)

    def _checkpoint_locked(self, store: Any) -> None:
        # repro-lint: holds=_lock
        wal_log = self._wal
        if wal_log is None:  # callers checked; keeps the path total
            raise ValueError("NodeDurability.checkpoint() before open()")
        new_seq = self._seq + 1
        write_checkpoint(
            checkpoint_path(self.data_dir, new_seq), list(store.scan())
        )
        # the snapshot is durably committed: group-commit debt up to
        # here is covered by it, so the old log can go
        wal_log.roll(wal_path(self.data_dir, new_seq))
        for stale in (
            checkpoint_path(self.data_dir, self._seq),
            wal_path(self.data_dir, self._seq),
        ):
            try:
                os.remove(stale)
            except FileNotFoundError:
                pass
        _fsync_dir(self.data_dir)
        self._seq = new_seq
        self._records_at_checkpoint = wal_log.stats["records"]

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Sync and close the WAL (orderly shutdown). Idempotent."""
        with self._lock:
            if self._wal is not None:
                self._wal.close()

    def abandon(self) -> None:
        """Simulate the node process dying: drop the WAL handle without
        the close-time sync. The on-disk state is exactly what a
        SIGKILL would leave; :meth:`open` recovers from it."""
        with self._lock:
            if self._wal is not None:
                self._wal.abandon()

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"NodeDurability({self.data_dir!r}, gen={self._seq}, "
                f"policy={self.fsync_policy})"
            )
