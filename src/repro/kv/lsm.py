"""An LSM-tree storage engine — the write path of HBase/Cassandra.

The paper's substrates (HBase, Cassandra) are log-structured merge
stores; §2 discusses LSM-based NoSQL explicitly. This engine implements
the classic shape behind them:

* a mutable **memtable** absorbing writes;
* immutable sorted **runs** (SSTable stand-ins) produced by flushing the
  memtable when it exceeds a threshold;
* per-run **Bloom filters** so point reads skip runs that cannot contain
  the key;
* **tombstones** for deletes, dropped at the bottom level;
* size-tiered **compaction** merging runs when too many accumulate.

It is interface-compatible with :class:`repro.kv.memstore.MemStore`, so a
:class:`repro.kv.cluster.KVCluster` can be built on either engine
(``KVCluster(engine="lsm")``); every correctness test and benchmark runs
unchanged on top. Read/write amplification counters expose the LSM
trade-off that motivates the backends' cost profiles.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.kv import wire
from repro.kv.memstore import Engine
from repro.tally import Tally, tally

_TOMBSTONE = object()


class BloomFilter:
    """A fixed-size Bloom filter over byte keys."""

    __slots__ = ("_bits", "_size", "_hashes")

    def __init__(self, expected: int, bits_per_key: int = 10,
                 hashes: int = 4) -> None:
        self._size = max(64, expected * bits_per_key)
        self._bits = bytearray((self._size + 7) // 8)
        self._hashes = hashes

    def _positions(self, key: bytes) -> Iterator[int]:
        digest = hashlib.md5(key).digest()
        h1 = int.from_bytes(digest[:8], "big")
        h2 = int.from_bytes(digest[8:], "big") | 1
        for i in range(self._hashes):
            yield (h1 + i * h2) % self._size

    def add(self, key: bytes) -> None:
        for position in self._positions(key):
            self._bits[position >> 3] |= 1 << (position & 7)

    def might_contain(self, key: bytes) -> bool:
        return all(
            self._bits[p >> 3] & (1 << (p & 7)) for p in self._positions(key)
        )


class _Run:
    """An immutable sorted run of (key, value-or-tombstone) pairs."""

    __slots__ = ("keys", "values", "bloom")

    def __init__(self, items: List[Tuple[bytes, object]]) -> None:
        self.keys = [k for k, _ in items]
        self.values = [v for _, v in items]
        self.bloom = BloomFilter(len(items) or 1)
        for key in self.keys:
            self.bloom.add(key)

    def get(self, key: bytes):
        """Return the stored value, _TOMBSTONE, or None when absent."""
        index = bisect_left(self.keys, key)
        if index < len(self.keys) and self.keys[index] == key:
            return self.values[index]
        return None

    def __len__(self) -> int:
        return len(self.keys)


@tally
class LSMStats(Tally):
    """Amplification counters of the engine."""

    flushes: int = 0
    compactions: int = 0
    runs_probed: int = 0
    bloom_skips: int = 0
    entries_rewritten: int = 0


class LSMStore(Engine):
    """A single-node LSM KV store, interface-compatible with MemStore.

    Durability: the shared hook of :class:`~repro.kv.memstore.Engine`,
    same contract as ``MemStore``. Replay rebuilds the logical contents, not the physical memtable/run
    layout — a restart effectively compacts, which is also why
    checkpoints snapshot live pairs via ``scan()``.
    """

    def __init__(
        self,
        memtable_limit: int = 256,
        max_runs: int = 4,
    ) -> None:
        if memtable_limit <= 0:
            raise ValueError("memtable_limit must be positive")
        super().__init__()
        self._memtable: Dict[bytes, object] = {}
        self._runs: List[_Run] = []  # newest first
        self._memtable_limit = memtable_limit
        self._max_runs = max_runs
        self._live_count = 0
        #: merged live view (sorted keys, values), rebuilt lazily; reused
        #: by keys()/next_key()/scan()/size_bytes() so repeated next_key
        #: iteration is linear overall instead of O(n²)
        self._merged: Optional[Tuple[List[bytes], List[bytes]]] = None
        self.stats = LSMStats()

    # -- write path ---------------------------------------------------------

    def _put_unlogged(self, items: List[Tuple[bytes, bytes]]) -> None:
        """The memtable may flush mid-batch."""
        for key, value in items:
            # liveness probe is an internal write-path read: uncounted,
            # so runs_probed / bloom_skips reflect the read
            # amplification of *reads* only
            existed = self._contains_live(key)
            self._memtable[key] = value
            self._merged = None
            if not existed:
                self._live_count += 1
            self._maybe_flush()

    def _delete_unlogged(self, keys: List[bytes]) -> int:
        """Tombstone every live key of ``keys``."""
        removed = 0
        for key in keys:
            if self._contains_live(key):
                self._memtable[key] = _TOMBSTONE
                self._merged = None
                self._live_count -= 1
                self._maybe_flush()
                removed += 1
        return removed

    def _maybe_flush(self) -> None:
        if len(self._memtable) < self._memtable_limit:
            return
        items = sorted(self._memtable.items())
        self._runs.insert(0, _Run(items))
        self._memtable.clear()
        self._merged = None
        self.stats.flushes += 1
        if len(self._runs) > self._max_runs:
            self._compact()

    def _compact(self) -> None:
        """Size-tiered compaction: merge all runs into one, newest wins;
        tombstones are dropped (this is the bottom level)."""
        merged: Dict[bytes, object] = {}
        for run in reversed(self._runs):  # oldest first, newest overwrites
            for key, value in zip(run.keys, run.values):
                merged[key] = value
                self.stats.entries_rewritten += 1
        survivors = sorted(
            (k, v) for k, v in merged.items() if v is not _TOMBSTONE
        )
        self._runs = [_Run(survivors)] if survivors else []
        self._merged = None
        self.stats.compactions += 1

    # -- read path ------------------------------------------------------------

    def _lookup(self, key: bytes, counted: bool = True):
        if key in self._memtable:
            return self._memtable[key]
        for run in self._runs:
            if not run.bloom.might_contain(key):
                if counted:
                    self.stats.bloom_skips += 1
                continue
            if counted:
                self.stats.runs_probed += 1
            value = run.get(key)
            if value is not None:
                return value
        return None

    def _contains_live(self, key: bytes) -> bool:
        """Uncounted liveness probe (write path / introspection)."""
        value = self._lookup(key, counted=False)
        return value is not None and value is not _TOMBSTONE

    def get(self, key: bytes) -> Optional[bytes]:
        value = self._lookup(key)
        if value is None or value is _TOMBSTONE:
            return None
        return value  # type: ignore[return-value]

    def multi_get(self, keys: Sequence[bytes]) -> List[Optional[bytes]]:
        """Batched lookup: one value (or ``None``) per key, in key order.

        Each key still walks the memtable and runs individually — the
        LSM read path is per-key — but the batch shares one invocation,
        which is what the cluster's round-trip accounting models.
        """
        return [self.get(key) for key in keys]

    def __contains__(self, key: bytes) -> bool:
        return self._contains_live(key)

    def __len__(self) -> int:
        return self._live_count

    # -- iteration --------------------------------------------------------------

    def _merged_view(self) -> Tuple[List[bytes], List[bytes]]:
        """Sorted (keys, values) of all live pairs, cached until a write.

        Building the merge is O(n log n) once per write epoch; every
        ``next_key`` / ``scan`` / ``size_bytes`` call in between reuses
        it, so driving a scan with repeated ``next_key`` is linear
        overall instead of rebuilding the full sorted key list per call.
        """
        if self._merged is None:
            seen: Dict[bytes, object] = {}
            for run in reversed(self._runs):
                for key, value in zip(run.keys, run.values):
                    seen[key] = value
            seen.update(self._memtable)
            live = sorted(
                (k, v) for k, v in seen.items() if v is not _TOMBSTONE
            )
            self._merged = (
                [k for k, _ in live],
                [v for _, v in live],  # type: ignore[misc]
            )
        return self._merged

    def _live_keys(self) -> List[bytes]:
        return self._merged_view()[0]

    def scan(self, prefix: bytes = b"") -> Iterator[Tuple[bytes, bytes]]:
        keys, values = self._merged_view()
        lo, hi = self._prefix_range(prefix)
        for index in range(lo, hi):
            yield keys[index], values[index]

    # -- maintenance ---------------------------------------------------------------

    def size_bytes(self) -> int:
        keys, values = self._merged_view()
        return sum(len(k) + len(v) for k, v in zip(keys, values))

    def clear(self) -> None:
        """Reset to the freshly-constructed state.

        Resets the amplification counters too (PR 8 bugfix): a cleared
        store has flushed and compacted nothing, so stale
        ``flushes``/``runs_probed`` counts would no longer reconcile
        with the empty engine — same semantics as ``MemStore.clear``
        and the wire ``CLEAR`` op.
        """
        self._wal_log(wire.OP_CLEAR)
        self._memtable.clear()
        self._runs = []
        self._live_count = 0
        self._merged = None
        self.stats.reset()

    @property
    def num_runs(self) -> int:
        return len(self._runs)

    @property
    def memtable_size(self) -> int:
        return len(self._memtable)
