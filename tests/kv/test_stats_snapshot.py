"""Regression tests for snapshot-consistent statistics (PR 5).

Before the thread-safety pass, counters were plain ``+=`` fields read
live: a stats read racing a write could observe torn state — cache
``hits`` above ``lookups``, node ``hits`` above ``gets`` — and
unsynchronized increments could simply be lost. Stats are now
thread-sharded and snapshotted under the layer locks; these tests pin
the invariants, single-threaded and under fire.
"""

from __future__ import annotations

import threading

import pytest

from repro.kv.cache import BlockCache
from repro.kv.cluster import KVCluster


class TestSnapshotSemantics:
    def test_cluster_get_stats_is_a_copy(self):
        cluster = KVCluster(num_nodes=2)
        cluster.put("ns", b"k", b"v")
        cluster.get("ns", b"k")
        stats = cluster.get_stats()
        before = stats.totals.gets
        stats.totals.gets += 100  # mutating the snapshot changes nothing
        assert cluster.get_stats().totals.gets == before
        assert stats.num_nodes == 2
        assert stats.num_live_nodes == 2

    def test_cluster_get_stats_totals_match_per_node(self):
        cluster = KVCluster(num_nodes=3, replication_factor=2)
        for i in range(30):
            cluster.put("ns", f"k{i}".encode(), b"v")
        for i in range(30):
            cluster.get("ns", f"k{i}".encode())
        stats = cluster.get_stats()
        assert stats.totals.gets == sum(
            c.gets for c in stats.per_node.values()
        )
        assert stats.totals.hits <= stats.totals.gets
        assert stats.replication_factor == 2

    def test_cache_stats_is_a_snapshot(self):
        cache = BlockCache(capacity_bytes=4096)
        cache.put("ns", b"k", b"payload")
        cache.get("ns", b"k")
        cache.get("ns", b"missing")
        stats = cache.stats
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.lookups == 2
        stats.hits += 50  # a copy: the cache is unaffected
        assert cache.stats.hits == 1

    def test_cluster_stats_include_registered_cache(self):
        cluster = KVCluster(num_nodes=2)
        cache = BlockCache(capacity_bytes=4096)
        cluster.register_cache(cache)
        cache.put("ns", b"k", b"v")
        cache.get("ns", b"k")
        snapshot = cluster.get_stats()
        assert snapshot.cache is not None
        assert snapshot.cache.hits == 1

    def test_thread_counters_are_per_thread(self):
        cluster = KVCluster(num_nodes=2)
        cluster.put("ns", b"k", b"v")
        done = threading.Event()

        def other() -> None:
            cluster.get("ns", b"k")
            done.set()

        thread = threading.Thread(target=other, daemon=True)
        thread.start()
        assert done.wait(timeout=5.0)
        thread.join()
        # this thread never issued the get: its shards show none,
        # while the cluster aggregate does
        assert sum(shard.gets for shard in cluster.thread_shards()[1]) == 0
        assert cluster.total_counters().gets == 1

    def test_dead_thread_counts_survive_ident_reuse(self):
        """CPython recycles thread idents: a fresh thread that inherits
        a dead writer's ident must not see (or reset away) its counts.
        Shards are therefore keyed by thread-local storage, not ident."""
        cluster = KVCluster(num_nodes=2)

        def writer() -> None:
            cluster.put("ns", b"k", b"v")

        thread = threading.Thread(target=writer)
        thread.start()
        thread.join()
        # spawn successors until one recycles the dead writer's ident
        # (usually immediate); each resets "its own" counters the way
        # a query execution does
        for _ in range(8):
            successor = threading.Thread(
                target=cluster.thread_shards, kwargs={"reset": True}
            )
            successor.start()
            successor.join()
        assert cluster.total_counters().puts == 1

    def test_thread_only_reset_spares_other_threads(self):
        cluster = KVCluster(num_nodes=2)
        cluster.put("ns", b"k", b"v")
        done = threading.Event()

        def other() -> None:
            cluster.get("ns", b"k")
            done.set()

        thread = threading.Thread(target=other, daemon=True)
        thread.start()
        assert done.wait(timeout=5.0)
        thread.join()
        cluster.get("ns", b"k")
        _, shards = cluster.thread_shards(reset=True)  # a query's reset
        assert sum(shard.gets for shard in shards) == 0
        total = cluster.total_counters()
        assert total.gets == 1  # the other thread's count survives
        cluster.reset_counters()
        assert cluster.total_counters().gets == 0


class TestStaleFillProtection:
    """A write racing a read-through fetch must win: the fill of the
    pre-write payload is rejected, so the cache can never serve a
    stale value forever (the invalidation-epoch guard)."""

    def test_fill_rejected_after_concurrent_invalidation(self):
        cache = BlockCache(capacity_bytes=4096)
        epoch = cache.read_epoch("ns", b"k")
        # ... reader fetches the OLD payload from the cluster here ...
        cache.invalidate("ns", b"k")  # the concurrent write lands
        assert not cache.put_if_fresh("ns", b"k", b"OLD", epoch)
        assert cache.peek("ns", b"k") is None

    def test_fill_rejected_after_namespace_invalidation(self):
        cache = BlockCache(capacity_bytes=4096)
        epoch = cache.read_epoch("ns", b"k")
        cache.invalidate_namespace("ns")  # drop_namespace raced
        assert not cache.put_if_fresh("ns", b"k", b"OLD", epoch)
        assert cache.peek("ns", b"k") is None

    def test_fresh_fill_is_admitted(self):
        cache = BlockCache(capacity_bytes=4096)
        cache.invalidate("ns", b"k")  # history before the read
        epoch = cache.read_epoch("ns", b"k")
        assert cache.put_if_fresh("ns", b"k", b"NEW", epoch)
        assert cache.peek("ns", b"k") == b"NEW"

    def test_read_through_discards_stale_fetch(self):
        from repro.kv.cache import read_through_many

        cache = BlockCache(capacity_bytes=4096)

        class RacingCluster:
            versions = None

            def multi_get(self, namespace, missing, values_of, listed_on=None):
                # the write lands while the fetch is in flight
                for key_bytes in missing:
                    cache.invalidate(namespace, key_bytes)
                return [b"OLD"] * len(missing)

        (data,) = read_through_many(cache, RacingCluster(), "ns", [b"k"])
        assert data == b"OLD"  # caller still gets the read
        assert cache.peek("ns", b"k") is None  # but it is not cached

    def test_floor_epoch_prune_stays_conservative(self):
        cache = BlockCache(capacity_bytes=1 << 20)
        cache.MAX_INVALIDATION_RECORDS = 8
        epoch = cache.read_epoch("ns", b"hot")
        for i in range(20):  # overflow the record table -> floor prune
            cache.invalidate("ns", f"k{i}".encode())
        # records were pruned, but the old observation is still refused
        assert not cache.put_if_fresh("ns", b"hot", b"OLD", epoch)
        fresh = cache.read_epoch("ns", b"hot")
        assert cache.put_if_fresh("ns", b"hot", b"NEW", fresh)


class TestShardRetirement:
    def test_dead_thread_shards_fold_without_losing_history(self):
        """Thread churn must not grow the registry unboundedly, and the
        folded history must stay in the aggregates."""
        cluster = KVCluster(num_nodes=1)
        cluster.put("ns", b"k", b"v")

        def reader() -> None:
            cluster.get("ns", b"k")

        for _ in range(20):
            thread = threading.Thread(target=reader)
            thread.start()
            thread.join()
        node = cluster.nodes[0]
        assert cluster.total_counters().gets == 20
        # registry is O(live threads): the 20 dead readers folded into
        # one retired accumulator
        shard_set = node._shards
        assert len(shard_set._entries) <= 2  # main thread (+ slack)
        cluster.reset_counters()  # the retired history resets too
        assert cluster.total_counters().gets == 0


@pytest.mark.stress
class TestSnapshotUnderFire:
    """The actual race: stats sampled while writer threads hammer."""

    def test_cache_invariants_hold_mid_traffic(self):
        cache = BlockCache(capacity_bytes=1 << 16)
        stop = threading.Event()

        def hammer(worker: int) -> None:
            keys = [f"k{worker}-{i}".encode() for i in range(64)]
            while not stop.is_set():
                for key in keys:
                    cache.put("ns", key, b"x" * 32)
                    cache.get("ns", key)
                    cache.get("ns", key + b"?")  # guaranteed miss
                    cache.invalidate("ns", key)

        threads = [
            threading.Thread(target=hammer, args=(i,), daemon=True)
            for i in range(3)
        ]
        for thread in threads:
            thread.start()
        violations = []
        try:
            for _ in range(300):
                stats = cache.stats
                if stats.hits + stats.misses != stats.lookups:
                    violations.append(("lookups", stats))
                if not 0.0 <= stats.hit_rate <= 1.0:
                    violations.append(("rate", stats))
                if stats.bytes_cached < 0:
                    violations.append(("bytes", stats))
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
        assert violations == []
        # quiesced: every increment must have survived (no lost updates)
        final = cache.stats
        assert final.hits + final.misses == final.lookups

    def test_cluster_invariants_hold_mid_traffic(self):
        cluster = KVCluster(num_nodes=3, replication_factor=2)
        for i in range(100):
            cluster.put("ns", f"k{i}".encode(), b"v" * 8)
        stop = threading.Event()

        def hammer(worker: int) -> None:
            keys = [f"k{i}".encode() for i in range(worker, 100, 3)]
            while not stop.is_set():
                for key in keys:
                    cluster.get("ns", key)
                    cluster.put("ns", key, b"w" * 8)
                cluster.multi_get("ns", keys[:16])

        threads = [
            threading.Thread(target=hammer, args=(i,), daemon=True)
            for i in range(3)
        ]
        for thread in threads:
            thread.start()
        violations = []
        try:
            for _ in range(200):
                snapshot = cluster.get_stats()
                totals = snapshot.totals
                if totals.hits > totals.gets:
                    violations.append(("hits>gets", totals))
                if totals.values_read > totals.bytes_out:
                    # every counted value carries at least one byte here
                    violations.append(("values>bytes", totals))
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
        assert violations == []

    def test_no_lost_counter_updates(self):
        """N threads issue exactly K gets each; the aggregate must be
        exactly N*K (plain ``+=`` on shared counters loses updates)."""
        cluster = KVCluster(num_nodes=2)
        cluster.put("ns", b"hot", b"v")
        cluster.reset_counters()
        n_threads, per_thread = 4, 500

        def reader() -> None:
            for _ in range(per_thread):
                cluster.get("ns", b"hot")

        threads = [
            threading.Thread(target=reader, daemon=True)
            for _ in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        total = cluster.total_counters()
        assert total.gets == n_threads * per_thread
        assert total.hits == n_threads * per_thread
