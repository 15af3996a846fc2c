"""Replication, failover and rebalancing of the KV cluster (PR 3)."""

import threading

import pytest

from repro.errors import ClusterUnavailableError
from repro.kv import HashRing, KVCluster
from repro.kv.codec import encode_key


def load(cluster, n=100, namespace="ns"):
    for i in range(n):
        cluster.put(namespace, encode_key((i,)), f"v{i}".encode())
    return {encode_key((i,)): f"v{i}".encode() for i in range(n)}


class TestNodesFor:
    def test_first_owner_matches_node_for(self):
        ring = HashRing([0, 1, 2, 3])
        for i in range(100):
            key = f"key{i}".encode()
            assert ring.nodes_for(key, 1) == [ring.node_for(key)]

    def test_distinct_owners(self):
        ring = HashRing([0, 1, 2, 3, 4])
        for i in range(100):
            owners = ring.nodes_for(f"key{i}".encode(), 3)
            assert len(owners) == 3
            assert len(set(owners)) == 3

    def test_prefix_stability(self):
        """nodes_for(key, n) is a prefix of nodes_for(key, n+1)."""
        ring = HashRing([0, 1, 2, 3, 4])
        for i in range(50):
            key = f"key{i}".encode()
            for n in range(1, 5):
                assert ring.nodes_for(key, n + 1)[:n] == ring.nodes_for(key, n)

    def test_caps_at_ring_size(self):
        ring = HashRing([0, 1])
        assert sorted(ring.nodes_for(b"k", 5)) == [0, 1]

    def test_invalid_n(self):
        ring = HashRing([0])
        with pytest.raises(ValueError):
            ring.nodes_for(b"k", 0)

    def test_empty_ring(self):
        with pytest.raises(ValueError):
            HashRing().nodes_for(b"k", 1)

    def test_failover_shifts_to_successor(self):
        """Removing a node promotes the next distinct walk node only."""
        ring = HashRing([0, 1, 2, 3])
        for i in range(50):
            key = f"key{i}".encode()
            walk = ring.nodes_for(key, 4)
            survivors = [n for n in walk if n != walk[0]]
            ring2 = HashRing([n for n in (0, 1, 2, 3) if n != walk[0]])
            assert ring2.nodes_for(key, 3) == survivors[:3]


class TestReplicatedWrites:
    def test_put_lands_on_r_replicas(self):
        cluster = KVCluster(4, replication_factor=3)
        cluster.put("ns", b"k", b"v")
        full = cluster.full_key("ns", b"k")
        holders = [
            n.node_id for n in cluster.nodes.values()
            if n.store.get(full) == b"v"
        ]
        assert len(holders) == 3

    def test_write_counters_show_fanout(self):
        cluster = KVCluster(4, replication_factor=3)
        cluster.put("ns", b"k", b"v")
        assert cluster.total_counters().puts == 3

    def test_multi_put_one_round_trip_per_replica_node(self):
        cluster = KVCluster(4, replication_factor=2)
        items = [(encode_key((i,)), b"v") for i in range(50)]
        cluster.multi_put("ns", items)
        total = cluster.total_counters()
        assert total.puts == 100  # 50 items x 2 replicas
        assert total.round_trips <= cluster.num_nodes

    def test_replication_factor_validated(self):
        with pytest.raises(ValueError):
            KVCluster(2, replication_factor=3)
        with pytest.raises(ValueError):
            KVCluster(2, replication_factor=0)

    def test_delete_removes_all_replicas(self):
        cluster = KVCluster(4, replication_factor=3)
        cluster.put("ns", b"k", b"v")
        assert cluster.delete("ns", b"k")
        full = cluster.full_key("ns", b"k")
        assert all(n.store.get(full) is None for n in cluster.nodes.values())


class TestReplicatedReads:
    def test_reads_do_not_depend_on_other_threads_history(self):
        """A key is read from its first live owner, whatever any thread
        read before: the same batch counts the same per node before and
        after another thread reads one key 30 times."""
        cluster = KVCluster(4, replication_factor=2)
        expected = load(cluster, 8)
        keys = list(expected)

        def gets_per_node():
            _, shards = cluster.thread_shards(reset=True)
            assert cluster.multi_get("ns", keys) == [expected[k] for k in keys]
            return [shard.gets for shard in shards]

        before = gets_per_node()
        hot = threading.Thread(
            target=lambda: [cluster.get("ns", keys[0]) for _ in range(30)]
        )
        hot.start()
        hot.join(timeout=30)
        assert not hot.is_alive()
        assert gets_per_node() == before

    def test_reads_fail_over_to_the_next_live_owner_and_back(self):
        cluster = KVCluster(4, replication_factor=3)
        expected = load(cluster, 40)
        owners = {
            key: cluster._live_owner_ids(cluster.full_key("ns", key))
            for key in expected
        }

        def served_by():
            """key -> the node its get was counted on."""
            serving = {}
            for key, value in expected.items():
                cluster.reset_counters()
                assert cluster.get("ns", key) == value
                (serving[key],) = [
                    node_id
                    for node_id, counters in cluster.get_stats().per_node.items()
                    if counters.gets
                ]
            return serving

        healthy = served_by()
        assert healthy == {key: ids[0] for key, ids in owners.items()}
        cluster.fail_node(0)
        degraded = served_by()
        assert degraded == {
            key: ids[1] if ids[0] == 0 else ids[0] for key, ids in owners.items()
        }
        assert degraded != healthy
        cluster.recover_node(0)
        assert served_by() == healthy

    def test_multi_get_balances_batch(self):
        cluster = KVCluster(4, replication_factor=2)
        expected = load(cluster, 80)
        cluster.reset_counters()
        keys = list(expected)
        values = cluster.multi_get("ns", keys)
        assert values == [expected[k] for k in keys]
        per_node = [n.counters.gets for n in cluster.nodes.values()]
        assert max(per_node) < 80  # no single replica served everything

    def test_scan_yields_each_pair_once(self):
        cluster = KVCluster(4, replication_factor=3)
        expected = load(cluster, 60)
        assert dict(cluster.scan("ns", count_as_gets=False)) == expected

    def test_scan_counts_logical_pairs_not_replicas(self):
        cluster = KVCluster(4, replication_factor=3)
        load(cluster, 60)
        cluster.reset_counters()
        list(cluster.scan("ns"))
        assert cluster.total_counters().gets == 60

    def test_namespace_keys_distinct(self):
        cluster = KVCluster(4, replication_factor=3)
        expected = load(cluster, 60)
        assert sorted(cluster.list_keys("ns").keys) == sorted(expected)


class TestFirstLiveOwner:
    """A read goes to its key's first live owner: the ring's owner while
    every node is up, at any R — no ring walk."""

    @pytest.fixture()
    def walks(self, monkeypatch):
        """How many ring walks were started from here on."""
        walked = [0]
        iter_nodes = HashRing.iter_nodes

        def counting(self, key):
            walked[0] += 1
            return iter_nodes(self, key)

        monkeypatch.setattr(HashRing, "iter_nodes", counting)
        return walked

    @pytest.mark.parametrize("replication", [2, 3])
    def test_reads_walk_no_ring_with_every_node_up(self, replication, walks):
        cluster = KVCluster(4, replication_factor=replication)
        expected = load(cluster, 64)
        keys = list(expected)
        walks[0] = 0
        listing = cluster.list_keys("ns")
        assert sorted(listing.keys) == sorted(keys)
        assert cluster.multi_get("ns", keys) == [expected[k] for k in keys]
        assert dict(cluster.scan("ns")) == expected
        assert cluster.peek("ns", keys[0]) == expected[keys[0]]
        assert walks[0] == 0

    def test_one_node_down_keeps_owners_and_counts(self):
        """With a node down a read still goes to the first live id of
        its key's preference list, and is counted there."""
        cluster = KVCluster(4, replication_factor=2)
        expected = load(cluster, 64)
        cluster.fail_node(1)
        owner = {
            key: cluster._live_owner_ids(cluster.full_key("ns", key))[0]
            for key in expected
        }
        listing = cluster.list_keys("ns")
        assert dict(zip(listing.keys, listing.owners)) == owner
        served = {node_id: 0 for node_id in cluster.nodes}
        for node_id in owner.values():
            served[node_id] += 1
        assert served[1] == 0
        for read in (
            lambda: cluster.multi_get("ns", list(expected)),
            lambda: list(cluster.scan("ns")),
        ):
            cluster.reset_counters()
            read()
            per_node = cluster.get_stats().per_node
            assert {n: c.gets for n, c in per_node.items()} == served
            assert {n: c.values_read for n, c in per_node.items()} == served


class TestFailover:
    def test_single_crash_loses_nothing(self):
        cluster = KVCluster(4, replication_factor=3)
        expected = load(cluster, 150)
        for doomed in list(cluster.nodes):
            cluster.fail_node(doomed)
            for key, value in expected.items():
                assert cluster.get("ns", key) == value
            cluster.recover_node(doomed)

    def test_two_crashes_survive_with_r3(self):
        cluster = KVCluster(5, replication_factor=3)
        expected = load(cluster, 150)
        cluster.fail_node(0)
        cluster.fail_node(1)
        for key, value in expected.items():
            assert cluster.get("ns", key) == value

    def test_writes_during_outage_survive_recovery(self):
        cluster = KVCluster(4, replication_factor=2)
        load(cluster, 50)
        cluster.fail_node(2)
        cluster.put("ns", b"new", b"fresh")
        cluster.put("ns", encode_key((7,)), b"updated")
        cluster.recover_node(2)
        assert cluster.get("ns", b"new") == b"fresh"
        assert cluster.get("ns", encode_key((7,))) == b"updated"
        # no node anywhere still holds the pre-outage value of key 7
        full = cluster.full_key("ns", encode_key((7,)))
        values = {
            n.store.get(full) for n in cluster.nodes.values()
        } - {None}
        assert values == {b"updated"}

    def test_deletes_during_outage_do_not_resurrect(self):
        cluster = KVCluster(3, replication_factor=2)
        expected = load(cluster, 80)
        cluster.fail_node(1)
        for key in list(expected)[:40]:
            cluster.delete("ns", key)
        cluster.recover_node(1)
        for key in list(expected)[:40]:
            assert cluster.get("ns", key) is None
        for key in list(expected)[40:]:
            assert cluster.get("ns", key) == expected[key]

    def test_drop_namespace_during_outage(self):
        cluster = KVCluster(3, replication_factor=2)
        load(cluster, 30)
        cluster.put("other", b"k", b"keep")
        cluster.fail_node(0)
        cluster.drop_namespace("ns")
        cluster.recover_node(0)
        assert cluster.list_keys("ns").keys == []
        assert cluster.get("other", b"k") == b"keep"

    def test_unavailable_when_all_owners_down(self):
        cluster = KVCluster(2, replication_factor=1)
        cluster.put("ns", b"k", b"v")
        cluster.fail_node(0)
        cluster.fail_node(1)
        with pytest.raises(ClusterUnavailableError):
            cluster.get("ns", b"k")
        with pytest.raises(ClusterUnavailableError):
            cluster.put("ns", b"k", b"v2")

    def test_r1_failover_routes_new_writes(self):
        """With R=1 a down node's range is served by its ring successor."""
        cluster = KVCluster(2, replication_factor=1)
        cluster.fail_node(0)
        for i in range(20):
            cluster.put("ns", encode_key((i,)), b"v")
            assert cluster.get("ns", encode_key((i,))) == b"v"
        assert len(cluster.nodes[1].store) == 20

    def test_fail_validations(self):
        cluster = KVCluster(2)
        with pytest.raises(ValueError):
            cluster.fail_node(9)
        cluster.fail_node(0)
        with pytest.raises(ValueError):
            cluster.fail_node(0)
        with pytest.raises(ValueError):
            cluster.recover_node(1)

    def test_liveness_introspection(self):
        cluster = KVCluster(3)
        cluster.fail_node(1)
        assert cluster.live_node_ids == [0, 2]
        assert cluster.down_node_ids == [1]
        assert cluster.num_live_nodes == 2
        assert not cluster.is_live(1)
        cluster.recover_node(1)
        assert cluster.is_live(1)


class TestRebalancing:
    def test_fail_node_charges_rebalance_counters(self):
        cluster = KVCluster(4, replication_factor=2)
        load(cluster, 100)
        cluster.reset_counters()
        cluster.fail_node(0)
        total = cluster.total_counters()
        assert total.rebalance_keys_moved > 0
        assert total.rebalance_bytes_moved > 0
        assert total.rebalance_round_trips > 0
        report = cluster.last_rebalance
        assert report.keys_moved == total.rebalance_keys_moved
        assert report.bytes_moved == total.rebalance_bytes_moved

    def test_recovery_is_incremental(self):
        """An untouched key range costs nothing to re-sync on recovery."""
        cluster = KVCluster(4, replication_factor=3)
        load(cluster, 100)
        cluster.fail_node(0)
        cluster.reset_counters()
        cluster.recover_node(0)
        # nothing was written while down: recovery only drops the
        # failover copies, it re-copies no data
        assert cluster.total_counters().rebalance_keys_moved == 0
        assert cluster.last_rebalance.keys_dropped > 0

    def test_add_node_moves_only_changed_ranges(self):
        cluster = KVCluster(4, replication_factor=2)
        expected = load(cluster, 200)
        cluster.reset_counters()
        cluster.add_node()
        report = cluster.last_rebalance
        # consistent hashing: the new node takes ~1/5 of each replica set
        assert 0 < report.keys_moved < 200
        assert dict(cluster.scan("ns", count_as_gets=False)) == expected

    def test_add_node_preserves_data(self):
        cluster = KVCluster(3, replication_factor=2)
        expected = load(cluster, 200)
        cluster.add_node()
        assert cluster.num_nodes == 4
        for key, value in expected.items():
            assert cluster.peek("ns", key) == value

    def test_remove_node_migrates_data(self):
        cluster = KVCluster(4, replication_factor=2)
        expected = load(cluster, 150)
        cluster.remove_node(2)
        assert cluster.num_nodes == 3
        assert 2 not in cluster.nodes
        for key, value in expected.items():
            assert cluster.get("ns", key) == value
        # every key still has R replicas among the survivors
        full = cluster.full_key("ns", encode_key((0,)))
        holders = [
            n for n in cluster.nodes.values() if n.store.get(full)
        ]
        assert len(holders) == 2

    def test_remove_down_node_discards_its_disk(self):
        cluster = KVCluster(3, replication_factor=2)
        expected = load(cluster, 100)
        cluster.fail_node(1)
        cluster.remove_node(1)
        assert cluster.num_nodes == 2
        assert cluster.down_node_ids == []
        for key, value in expected.items():
            assert cluster.get("ns", key) == value

    def test_cannot_remove_last_node(self):
        cluster = KVCluster(1)
        with pytest.raises(ValueError):
            cluster.remove_node(0)

    def test_replica_invariant_after_churn(self):
        """After any membership event: every live owner holds the key,
        no live non-owner does."""
        cluster = KVCluster(4, replication_factor=2)
        expected = load(cluster, 120)
        cluster.fail_node(0)
        cluster.add_node()
        cluster.recover_node(0)
        cluster.remove_node(2)
        for key, value in expected.items():
            full = cluster.full_key("ns", key)
            owners = set(cluster._live_owner_ids(full))
            for node in cluster.nodes.values():
                held = node.store.get(full)
                if node.node_id in owners:
                    assert held == value
                else:
                    assert held is None


class TestReplicatedCacheInvalidation:
    def test_write_invalidates_across_replicas(self):
        from repro.kv import BlockCache

        cluster = KVCluster(3, replication_factor=2)
        cache = BlockCache(1 << 20)
        cluster.register_cache(cache)
        cluster.put("ns", b"k", b"v1")
        cache.put("ns", b"k", b"v1")
        cluster.put("ns", b"k", b"v2")
        assert cache.peek("ns", b"k") is None

    def test_failover_write_still_invalidates(self):
        from repro.kv import BlockCache

        cluster = KVCluster(3, replication_factor=2)
        cache = BlockCache(1 << 20)
        cluster.register_cache(cache)
        cluster.put("ns", b"k", b"v1")
        cache.put("ns", b"k", b"v1")
        cluster.fail_node(cluster._live_owner_ids(
            cluster.full_key("ns", b"k")
        )[0])
        cluster.put("ns", b"k", b"v2")
        assert cache.peek("ns", b"k") is None
        assert cluster.get("ns", b"k") == b"v2"
