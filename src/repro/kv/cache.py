"""Client-side read-through block cache for the KV stack.

Real deployments of the substrates the paper models put a block cache in
front of the store (HBase's BlockCache, Cassandra's row/key caches); an
HTAP stack's analytic path lives or dies on how well hot data stays close
to compute. This module provides that layer for the repro:

* :class:`BlockCache` — a byte-capacity LRU over ``(namespace,
  key_bytes) → payload bytes``, with hit / miss / eviction / bytes
  statistics;
* :class:`PartitionedBlockCache` — per-worker caches matching the
  per-worker partitions of the parallel engine: keys are routed to one
  sub-cache by a stable hash, so the same worker owns the same keys
  across queries (no cross-worker sharing, as on a real cluster);
* :func:`make_cache` — the knob-to-cache factory used by the systems.

The cache is **read-through** and **write-invalidated**: readers
(:class:`repro.baav.store.KVInstance`, :class:`repro.kv.taav.TaaVRelation`)
consult it before the cluster and fill it on miss; every write routed
through :class:`repro.kv.cluster.KVCluster` (``put`` / ``multi_put`` /
``delete`` / ``drop_namespace``) invalidates the touched keys in every
cache registered with the cluster. Cached payloads are raw bytes — value
objects are re-decoded per read — so there is no aliasing between cached
state and caller-mutated blocks.

Cache hits never reach a storage node: :class:`~repro.kv.node.NodeCounters`
stay honest and a hit costs zero round trips in the cost model, which is
exactly the speedup the caching benchmark measures. Blind scans
(``KVCluster.scan``) bypass the cache entirely — they stream every pair
anyway and would only evict the hot point-read set.

Concurrency (PR 5)
------------------

The cache is shared by every query thread, so each :class:`BlockCache`
guards its LRU map with a mutex (an ``OrderedDict`` cannot survive
concurrent ``move_to_end``). Its statistics are thread-sharded
(:mod:`repro.tally`) and counted under that mutex, so
:attr:`BlockCache.stats`, summed under it, is a snapshot whose
invariants always hold (``hits + misses == lookups``, ``hit_rate <= 1``
— the bug class the PR-5 regression tests pin down); a query's probe
reads :meth:`thread_shards`, its own thread's live shards.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from itertools import repeat
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.locks import make_rlock
from repro.tally import ShardSet, Tally, tally

if TYPE_CHECKING:  # import cycle guard: cluster imports this module's
    # siblings; the cluster is only ever *passed in* here
    from repro.kv.cluster import InFlight, KeyListing, KVCluster, ListedOn
    from repro.kv.node import ValuesOf


@tally
class CacheStats(Tally):
    """Cumulative statistics of one cache (or an aggregate of several)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    insertions: int = 0
    bytes_cached: int = 0    # current resident payload bytes
    bytes_served: int = 0    # cumulative payload bytes served from hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups; 0.0 when the cache was never consulted."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def __str__(self) -> str:
        return (
            f"hits={self.hits} misses={self.misses} "
            f"rate={self.hit_rate:.1%} evictions={self.evictions} "
            f"cached={self.bytes_cached}B"
        )


#: accounted per-entry bookkeeping overhead (dict slot, key tuple) so a
#: cache of many tiny values cannot pretend to be free
ENTRY_OVERHEAD_BYTES = 64

_CacheKey = Tuple[str, bytes]


class BlockCache:
    """A byte-capacity LRU cache of ``(namespace, key_bytes) → payload``.

    ``capacity_bytes`` bounds the sum of entry charges (key + payload +
    :data:`ENTRY_OVERHEAD_BYTES`); least-recently-used entries are
    evicted when an insertion exceeds it. A payload larger than the whole
    capacity is never admitted (it would only flush the cache for one
    use). Absent keys are not cached — a read miss on a missing key
    always reaches the cluster.
    """

    #: invalidation-record cap before the floor-epoch prune kicks in
    MAX_INVALIDATION_RECORDS = 4096

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self._entries: "OrderedDict[_CacheKey, bytes]" = OrderedDict()
        #: serializes LRU-map access across query threads
        self._lock = make_rlock("BlockCache._lock")
        #: per-thread statistic shards (each mutated only by its owner;
        #: registry survives thread death — idents are never consulted)
        self._shards: ShardSet[CacheStats] = ShardSet(CacheStats)
        #: monotonically increasing invalidation clock; a read-through
        #: fill observed at epoch E is rejected if its key (or the
        #: key's namespace) was invalidated after E — see
        #: :meth:`put_if_fresh`
        self._epoch = 0
        self._floor_epoch = 0
        self._invalidated_keys: Dict[_CacheKey, int] = {}
        self._invalidated_namespaces: Dict[str, int] = {}

    @property
    def stats(self) -> CacheStats:
        """Aggregate statistics — a consistent snapshot, not a live view.

        Taken under the cache lock, so no in-flight lookup can tear it
        (``hits + misses == lookups`` always holds on the copy).
        """
        with self._lock:
            return self._shards.total()

    def thread_shards(self) -> List[CacheStats]:
        """The CALLING THREAD's live shard (registered on first use) —
        what a query's probe reads; only this thread mutates it."""
        return [self._shards.local()]

    # -- read path --------------------------------------------------------

    def get(self, namespace: str, key_bytes: bytes) -> Optional[bytes]:
        """Return the cached payload or ``None``; counts a hit or miss."""
        with self._lock:
            entry = self._entries.get((namespace, key_bytes))
            if entry is None:
                self._shards.local().misses += 1
                return None
            self._entries.move_to_end((namespace, key_bytes))
            stats = self._shards.local()
            stats.hits += 1
            stats.bytes_served += len(entry)
            return entry

    def peek(self, namespace: str, key_bytes: bytes) -> Optional[bytes]:
        """Uncounted, LRU-neutral read (tests and introspection)."""
        with self._lock:
            return self._entries.get((namespace, key_bytes))

    # -- fill / invalidate -------------------------------------------------

    @staticmethod
    def _charge(key: _CacheKey, payload: bytes) -> int:
        return len(key[0]) + len(key[1]) + len(payload) + ENTRY_OVERHEAD_BYTES

    def _resident_bytes(self) -> int:
        """Current resident charge, summed over shards (lock held)."""
        return sum(s.bytes_cached for s in self._shards.all())

    def put(self, namespace: str, key_bytes: bytes, payload: bytes) -> None:
        """Fill on read-miss (and refresh on re-fill); evicts LRU to fit."""
        key = (namespace, key_bytes)
        charge = self._charge(key, payload)
        if charge > self.capacity_bytes:
            return
        with self._lock:
            stats = self._shards.local()
            old = self._entries.pop(key, None)
            if old is not None:
                stats.bytes_cached -= self._charge(key, old)
            resident = self._resident_bytes()
            while self._entries and resident + charge > self.capacity_bytes:
                evicted_key, evicted = self._entries.popitem(last=False)
                evicted_charge = self._charge(evicted_key, evicted)
                stats.bytes_cached -= evicted_charge
                resident -= evicted_charge
                stats.evictions += 1
            self._entries[key] = payload
            stats.bytes_cached += charge
            stats.insertions += 1

    # -- stale-fill protection --------------------------------------------

    def read_epoch(self, namespace: str, key_bytes: bytes) -> int:
        """The invalidation clock, observed BEFORE a read-through fetch.

        Pass the value to :meth:`put_if_fresh` after the fetch: a write
        that invalidated the key (or its whole namespace) in between
        advances the clock, and the fill is rejected — otherwise a slow
        reader could re-install the pre-write payload and serve it
        stale forever.
        """
        with self._lock:
            return self._epoch

    def put_if_fresh(
        self, namespace: str, key_bytes: bytes, payload: bytes,
        epoch: int,
    ) -> bool:
        """Fill only if the key was not invalidated since ``epoch``."""
        with self._lock:
            if epoch < self._floor_epoch:
                return False
            key = (namespace, key_bytes)
            if self._invalidated_keys.get(key, -1) > epoch:
                return False
            if self._invalidated_namespaces.get(namespace, -1) > epoch:
                return False
            self.put(namespace, key_bytes, payload)
            return True

    def _record_invalidation(
        self, namespace: str, key_bytes: Optional[bytes]
    ) -> None:
        """Advance the clock and remember what was invalidated
        (lock held). Records are pruned by raising the floor epoch —
        an in-flight fill older than the floor is rejected outright."""
        # repro-lint: holds=_lock -- invalidate/invalidate_namespace/clear
        self._epoch += 1
        if key_bytes is None:
            self._invalidated_namespaces[namespace] = self._epoch
        else:
            self._invalidated_keys[(namespace, key_bytes)] = self._epoch
        if (
            len(self._invalidated_keys) + len(self._invalidated_namespaces)
            > self.MAX_INVALIDATION_RECORDS
        ):
            self._floor_epoch = self._epoch
            self._invalidated_keys.clear()
            self._invalidated_namespaces.clear()

    def invalidate(self, namespace: str, key_bytes: bytes) -> bool:
        """Drop one entry (a write touched it); True if it was cached.

        Also recorded on the invalidation clock, so a read-through fill
        that fetched BEFORE this write cannot re-install the stale
        payload afterwards (see :meth:`put_if_fresh`).
        """
        with self._lock:
            self._record_invalidation(namespace, key_bytes)
            entry = self._entries.pop((namespace, key_bytes), None)
            if entry is None:
                return False
            stats = self._shards.local()
            stats.bytes_cached -= self._charge(
                (namespace, key_bytes), entry
            )
            stats.invalidations += 1
            return True

    def invalidate_namespace(self, namespace: str) -> int:
        """Drop every entry of a namespace (``drop_namespace``)."""
        with self._lock:
            self._record_invalidation(namespace, None)
            doomed = [k for k in self._entries if k[0] == namespace]
            stats = self._shards.local()
            for key in doomed:
                entry = self._entries.pop(key)
                stats.bytes_cached -= self._charge(key, entry)
            stats.invalidations += len(doomed)
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._epoch += 1
            self._floor_epoch = self._epoch
            self._invalidated_keys.clear()
            self._invalidated_namespaces.clear()
            for shard in self._shards.all():
                shard.bytes_cached = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"BlockCache(entries={len(self)}, "
            f"{self.stats.bytes_cached}/{self.capacity_bytes}B)"
        )


class PartitionedBlockCache:
    """Per-worker block caches matching per-worker partitions.

    The parallel engine's ``p`` workers each keep a private cache of the
    keys they own; a key's owner is a stable hash of ``(namespace,
    key_bytes)``, so the same worker serves the same keys across queries
    — repeat hits accrue per worker without modeling a shared cache the
    real deployment would not have. Capacity is split evenly.
    """

    def __init__(self, capacity_bytes: int, partitions: int) -> None:
        if partitions <= 0:
            raise ValueError("partitions must be positive")
        per_worker = max(1, capacity_bytes // partitions)
        self.partitions: List[BlockCache] = [
            BlockCache(per_worker) for _ in range(partitions)
        ]
        self.capacity_bytes = per_worker * partitions

    def _route(self, namespace: str, key_bytes: bytes) -> BlockCache:
        digest = zlib.crc32(namespace.encode("utf-8") + b"\x00" + key_bytes)
        return self.partitions[digest % len(self.partitions)]

    def get(self, namespace: str, key_bytes: bytes) -> Optional[bytes]:
        return self._route(namespace, key_bytes).get(namespace, key_bytes)

    def peek(self, namespace: str, key_bytes: bytes) -> Optional[bytes]:
        return self._route(namespace, key_bytes).peek(namespace, key_bytes)

    def put(self, namespace: str, key_bytes: bytes, payload: bytes) -> None:
        self._route(namespace, key_bytes).put(namespace, key_bytes, payload)

    def read_epoch(self, namespace: str, key_bytes: bytes) -> int:
        return self._route(namespace, key_bytes).read_epoch(
            namespace, key_bytes
        )

    def put_if_fresh(
        self, namespace: str, key_bytes: bytes, payload: bytes,
        epoch: int,
    ) -> bool:
        return self._route(namespace, key_bytes).put_if_fresh(
            namespace, key_bytes, payload, epoch
        )

    def invalidate(self, namespace: str, key_bytes: bytes) -> bool:
        return self._route(namespace, key_bytes).invalidate(
            namespace, key_bytes
        )

    def invalidate_namespace(self, namespace: str) -> int:
        return sum(
            cache.invalidate_namespace(namespace) for cache in self.partitions
        )

    def clear(self) -> None:
        for cache in self.partitions:
            cache.clear()

    @property
    def stats(self) -> CacheStats:
        """Aggregate statistics over all worker partitions (a snapshot)."""
        total = CacheStats()
        for cache in self.partitions:
            total.add(cache.stats)
        return total

    def thread_shards(self) -> List[CacheStats]:
        """The calling thread's live shard of every partition."""
        return [
            shard for cache in self.partitions for shard in cache.thread_shards()
        ]

    def __len__(self) -> int:
        return sum(len(cache) for cache in self.partitions)

    def __repr__(self) -> str:
        return (
            f"PartitionedBlockCache(workers={len(self.partitions)}, "
            f"entries={len(self)})"
        )


#: either cache flavor — they expose the same get/put/invalidate surface
AnyBlockCache = Union[BlockCache, PartitionedBlockCache]


def make_cache(
    capacity_bytes: int, partitions: int = 1
) -> Optional[AnyBlockCache]:
    """Build the cache a ``cache_capacity_bytes`` knob asks for.

    ``capacity_bytes <= 0`` means caching is off (``None``) — the paper
    benchmarks pin this so they keep measuring BaaV's contribution alone.
    """
    if capacity_bytes <= 0:
        return None
    if partitions <= 1:
        return BlockCache(capacity_bytes)
    return PartitionedBlockCache(capacity_bytes, partitions)


def read_through_many(
    cache: Optional[AnyBlockCache],
    cluster: "KVCluster",
    namespace: str,
    keys: Sequence[bytes],
    values_of: Optional["ValuesOf"] = None,
    listed_on: Optional["ListedOn"] = None,
    ahead: Optional["InFlight"] = None,
) -> List[Optional[bytes]]:
    """Serve payloads through ``cache``, positionally; only the
    cache-missing keys reach ``cluster.multi_get``, whose serving nodes
    count ``values_of(payload)`` values a payload, and which is told
    where a listing found them when ``listed_on`` says. Without a cache
    the batch is ``cluster.multi_get`` itself, reading the wave
    ``ahead`` already shipped for ``keys``; with one, ``ahead`` is
    closed unread.

    A hit is served locally (no storage traffic); a miss is fetched and
    fills the cache with its non-``None`` result. This is THE
    read-through step — every cached point-read path (TaaV tuples, BaaV
    segments, stats sidecars, index postings) goes through here, a
    single key as a batch of one, so cache semantics live in one place.

    The cluster's MVCC overlay (``cluster.versions``) is honoured: a
    thread pinned at a snapshot epoch must not be served the *current*
    value from the cache when the overlay holds the one visible at its
    epoch, and a payload the overlay answered must never be filled into
    the cache (it would poison readers of the current state).
    """
    if cache is None:
        # the cluster's own overlay pass leaves what it answers uncounted
        return cluster.multi_get(namespace, keys, values_of, listed_on, ahead)
    if ahead is not None:
        ahead.close()
    versions = cluster.versions
    visible: Iterable[Tuple[bool, Optional[bytes]]] = (
        repeat((False, None))  # the overlay answers no key at this pin
        if versions is None or (epoch := versions.overlay_epoch()) is None
        else versions.read_visible_many(namespace, keys, epoch)
    )
    out: List[Optional[bytes]] = [None] * len(keys)
    missing: List[Tuple[int, bytes]] = []
    epochs: List[int] = []
    for index, (key_bytes, (handled, data)) in enumerate(zip(keys, visible)):
        if not handled:
            data = cache.get(namespace, key_bytes)
            if data is None:
                missing.append((index, key_bytes))
                epochs.append(cache.read_epoch(namespace, key_bytes))
        out[index] = data
    if not missing:
        return out
    listed = listed_on
    if listed is not None and len(missing) < len(keys):
        listed = (listed[0], [listed[1][index] for index, _ in missing])
    fetched = cluster.multi_get(
        namespace, [key for _, key in missing], values_of, listed
    )
    pin = None if versions is None else versions.read_epoch()
    for (index, key_bytes), fill_epoch, data in zip(missing, epochs, fetched):
        out[index] = data
        if data is None:
            continue
        if (
            versions is not None
            and pin is not None
            and versions.is_overlaid(namespace, key_bytes, pin)
        ):
            # a commit raced the fetch: an overlay payload must not be
            # cached as the current base value
            continue
        # guarded fill: a write that raced the fetch wins
        cache.put_if_fresh(namespace, key_bytes, data, fill_epoch)
    return out


def read_waves(
    cache: Optional[AnyBlockCache],
    cluster: "KVCluster",
    namespace: str,
    listing: "KeyListing",
    batch_size: int,
    values_of: Optional["ValuesOf"] = None,
) -> Iterator[List[Optional[bytes]]]:
    """The payloads of ``listing``'s keys, ``batch_size`` at a time, each
    wave read by :func:`read_through_many` (routed by where the listing
    found them, counted by ``values_of`` on the serving nodes): a
    batched scan's fetch loop.

    Without a cache, the next wave is shipped (``cluster.send_multi_get``)
    before this one is yielded: the node processes serve it while the
    caller decodes. ``multi_get`` routes a shipped wave afresh when the
    MVCC overlay took keys from it. A stream closed midway closes the
    wave it shipped.
    """
    keys = listing.keys
    ahead: Optional["InFlight"] = None
    try:
        for start in range(0, len(keys), batch_size):
            stop = start + batch_size
            wave = read_through_many(
                cache, cluster, namespace, keys[start:stop], values_of,
                listing.listed_on(start, stop), ahead,
            )
            ahead = None  # read, or closed unread
            if stop < len(keys) and cache is None:
                ahead = cluster.send_multi_get(
                    namespace, keys[stop:stop + batch_size],
                    listing.listed_on(stop, stop + batch_size),
                )
            yield wave
    finally:
        if ahead is not None:
            ahead.close()
