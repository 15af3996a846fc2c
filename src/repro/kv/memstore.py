"""A single-node byte-oriented KV store with get / put / delete / next.

This models the per-node storage engine of a KV system (§3): a dictionary
of byte keys to byte values, plus an iterator ``next()`` that walks keys in
deterministic (sorted raw-byte) order, which is how table scans are driven
in SQL-over-NoSQL systems ("invoking get operations with keys extracted
via next()").
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.kv import wire
from repro.kv.wal import WriteAheadLog


def prefix_upper_bound(prefix: bytes) -> Optional[bytes]:
    """The smallest byte string greater than every key with ``prefix``
    (``None`` when no upper bound exists, i.e. the prefix is empty or
    all ``0xff``). Lets sorted stores answer prefix scans with two
    binary searches instead of filtering every key."""
    for i in range(len(prefix) - 1, -1, -1):
        if prefix[i] != 0xFF:
            return prefix[:i] + bytes((prefix[i] + 1,))
    return None


class Engine:
    """What every storage engine shares (:class:`MemStore` here,
    :class:`~repro.kv.lsm.LSMStore`), written once.

    * **The durability hook** (PR 8): :meth:`attach_wal` hands the
      engine a :class:`~repro.kv.wal.WriteAheadLog`; every public
      mutation then logs exactly one record *before* it is applied
      (:meth:`_wal_log`). ``multi_put`` / ``multi_delete`` /
      ``drop_prefix`` are written here: one record per batch, applied
      through the engine's ``_put_unlogged`` / ``_delete_unlogged``, so
      nothing beneath a logged operation logs again, and replaying the
      log over the last checkpoint rebuilds the store's logical
      contents. Without a WAL attached the engine is purely volatile.
    * **The single-key names**: ``put`` / ``delete`` are (and log) a
      batch of one.
    * **Ordered iteration** over the engine's sorted live keys
      (:meth:`_live_keys`): ``keys`` / ``next_key`` / ``has_prefix`` /
      prefix ranges.
    """

    __slots__ = ("_wal",)

    def __init__(self) -> None:
        self._wal: Optional[WriteAheadLog] = None

    def attach_wal(self, wal: Optional[WriteAheadLog]) -> None:
        """Log every subsequent mutation to ``wal`` (``None`` detaches).

        Recovery replays *before* attaching, so replay never re-logs
        its own input.
        """
        self._wal = wal

    def _wal_log(self, op: int, *args: object) -> None:
        """Append one record when a WAL is attached."""
        if self._wal is not None:
            self._wal.append(op, *args)

    def _put_unlogged(self, items: List[Tuple[bytes, bytes]]) -> None:
        """Apply a non-empty batch of writes, in order."""
        raise NotImplementedError

    def _delete_unlogged(self, keys: List[bytes]) -> int:
        """Remove every live key of ``keys``; returns how many were."""
        raise NotImplementedError

    def _live_keys(self) -> List[bytes]:
        """The engine's live keys in sorted byte order (a cached view,
        not to be mutated by callers)."""
        raise NotImplementedError

    def multi_put(self, items: Sequence[Tuple[bytes, bytes]]) -> None:
        """Batched write of (key, value) pairs (ONE WAL record; an empty
        batch is a no-op and logs nothing)."""
        items = list(items)
        if items:
            self._wal_log(wire.OP_MULTI_PUT, items)
            self._put_unlogged(items)

    def multi_delete(self, keys: Sequence[bytes]) -> int:
        """Batched delete; returns how many keys were present (ONE WAL
        record; an empty batch is a no-op and logs nothing)."""
        keys = list(keys)
        if not keys:
            return 0
        self._wal_log(wire.OP_MULTI_DELETE, keys)
        return self._delete_unlogged(keys)

    def drop_prefix(self, prefix: bytes = b"") -> List[bytes]:
        """Delete every key carrying ``prefix``; return the dropped keys
        (one bulk operation, so a remote namespace drop is one frame —
        and one WAL record, replayed as the same prefix drop). The
        doomed keys are materialized up front, so whatever the deletes
        trigger mid-batch (an LSM flush or compaction) can rebuild the
        sorted view freely without the loop iterating a stale one."""
        lo, hi = self._prefix_range(prefix)
        doomed = self._live_keys()[lo:hi]
        if doomed:
            self._wal_log(wire.OP_DROP_PREFIX, prefix)
            self._delete_unlogged(doomed)
        return doomed

    def put(self, key: bytes, value: bytes) -> None:
        self.multi_put([(key, value)])

    def delete(self, key: bytes) -> bool:
        """Delete ``key``; return True if it was present."""
        return self.multi_delete([key]) == 1

    def keys(self, prefix: bytes = b"") -> List[bytes]:
        """The keys carrying ``prefix`` (all of them by default), in
        sorted byte order — the keys of ``scan(prefix)``, no value read."""
        lo, hi = self._prefix_range(prefix)
        return self._live_keys()[lo:hi]

    def next_key(self, after: Optional[bytes] = None) -> Optional[bytes]:
        """The ``next()`` primitive of §3: iterate keys in order.

        ``after=None`` returns the first key; otherwise the smallest key
        strictly greater than ``after``; ``None`` when exhausted.
        """
        keys = self._live_keys()
        index = 0 if after is None else bisect_right(keys, after)
        return keys[index] if index < len(keys) else None

    def has_prefix(self, prefix: bytes = b"") -> bool:
        """Does any live key carry ``prefix``? (one binary search)"""
        keys = self._live_keys()
        index = bisect_left(keys, prefix)
        return index < len(keys) and keys[index].startswith(prefix)

    def _prefix_range(self, prefix: bytes) -> Tuple[int, int]:
        """``[lo, hi)`` slice of the sorted live keys carrying ``prefix``
        (two binary searches — O(log n + matches), not a full filter)."""
        keys = self._live_keys()
        if not prefix:
            return 0, len(keys)
        lo = bisect_left(keys, prefix)
        upper = prefix_upper_bound(prefix)
        hi = len(keys) if upper is None else bisect_left(keys, upper, lo)
        return lo, hi


class MemStore(Engine):
    """An in-memory KV store for one storage node.

    Keys and values are ``bytes``. Key iteration is in sorted byte order and
    is computed lazily: the sorted key list is invalidated on writes and
    rebuilt on demand, which keeps bulk loading O(n) and scans O(n log n)
    once per write epoch. Durability and the single-key names come from
    :class:`Engine`; without a WAL attached the store is purely
    volatile, exactly as before PR 8.
    """

    __slots__ = ("_data", "_sorted_keys", "_dirty")

    def __init__(self) -> None:
        super().__init__()
        self._data: Dict[bytes, bytes] = {}
        self._sorted_keys: List[bytes] = []
        self._dirty = False

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: bytes) -> bool:
        return key in self._data

    def get(self, key: bytes) -> Optional[bytes]:
        """Return the value for ``key`` or ``None`` if absent."""
        return self._data.get(key)

    def multi_get(self, keys: Sequence[bytes]) -> List[Optional[bytes]]:
        """Batched lookup: one value (or ``None``) per key, in key order."""
        data = self._data
        return [data.get(key) for key in keys]

    def _put_unlogged(self, items: List[Tuple[bytes, bytes]]) -> None:
        data = self._data
        for key, value in items:
            if key not in data:
                self._dirty = True
            data[key] = value

    def _delete_unlogged(self, keys: List[bytes]) -> int:
        data = self._data
        removed = 0
        for key in keys:
            if data.pop(key, None) is not None:
                removed += 1
        if removed:
            self._dirty = True
        return removed

    def _live_keys(self) -> List[bytes]:
        if self._dirty or len(self._sorted_keys) != len(self._data):
            self._sorted_keys = sorted(self._data)
            self._dirty = False
        return self._sorted_keys

    def scan(self, prefix: bytes = b"") -> Iterator[Tuple[bytes, bytes]]:
        """Yield (key, value) pairs with the given key prefix, in order."""
        lo, hi = self._prefix_range(prefix)
        for key in self._sorted_keys[lo:hi]:
            yield key, self._data[key]

    def size_bytes(self) -> int:
        """Total stored payload size (keys + values)."""
        return sum(len(k) + len(v) for k, v in self._data.items())

    def clear(self) -> None:
        """Reset to the freshly-constructed state (contents and caches)."""
        self._wal_log(wire.OP_CLEAR)
        self._data.clear()
        self._sorted_keys = []
        self._dirty = False
