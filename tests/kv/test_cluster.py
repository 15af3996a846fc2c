import pytest

from repro.kv import HashRing, KVCluster
from repro.kv.codec import encode_key


class TestHashRing:
    def test_deterministic_placement(self):
        ring1 = HashRing([0, 1, 2])
        ring2 = HashRing([0, 1, 2])
        for i in range(50):
            key = f"key{i}".encode()
            assert ring1.node_for(key) == ring2.node_for(key)

    def test_balance(self):
        ring = HashRing([0, 1, 2, 3])
        counts = {n: 0 for n in range(4)}
        for i in range(2000):
            counts[ring.node_for(f"key{i}".encode())] += 1
        assert min(counts.values()) > 2000 / 4 / 3

    def test_add_node_moves_few_keys(self):
        ring = HashRing([0, 1, 2, 3])
        before = {
            i: ring.node_for(f"key{i}".encode()) for i in range(1000)
        }
        ring.add_node(4)
        moved = sum(
            1
            for i in range(1000)
            if ring.node_for(f"key{i}".encode()) != before[i]
        )
        # consistent hashing: ~1/5 of keys move, never a majority
        assert moved < 500

    def test_remove_node(self):
        ring = HashRing([0, 1])
        ring.remove_node(0)
        assert all(
            ring.node_for(f"key{i}".encode()) == 1 for i in range(20)
        )

    def test_duplicate_node_rejected(self):
        ring = HashRing([0])
        with pytest.raises(ValueError):
            ring.add_node(0)

    def test_empty_ring(self):
        with pytest.raises(ValueError):
            HashRing().node_for(b"x")


class TestKVCluster:
    def test_put_get(self):
        cluster = KVCluster(3)
        cluster.put("ns", b"k", b"v")
        assert cluster.get("ns", b"k") == b"v"

    def test_namespaces_isolated(self):
        cluster = KVCluster(2)
        cluster.put("ns1", b"k", b"v1")
        cluster.put("ns2", b"k", b"v2")
        assert cluster.get("ns1", b"k") == b"v1"
        assert cluster.get("ns2", b"k") == b"v2"

    def test_counters(self):
        cluster = KVCluster(2)
        cluster.put("ns", b"k", b"value", n_values=3)
        cluster.get("ns", b"k", values_of=lambda _: 3)
        cluster.get("ns", b"missing")
        total = cluster.total_counters()
        assert total.puts == 1
        assert total.gets == 2
        assert total.hits == 1
        assert total.values_read == 3
        assert total.values_written == 3

    def test_reset_counters(self):
        cluster = KVCluster(2)
        cluster.put("ns", b"k", b"v")
        cluster.reset_counters()
        assert cluster.total_counters().puts == 0

    def test_scan_counts_gets(self):
        cluster = KVCluster(2)
        for i in range(10):
            cluster.put("ns", encode_key((i,)), b"v")
        cluster.reset_counters()
        pairs = list(cluster.scan("ns"))
        assert len(pairs) == 10
        assert cluster.total_counters().gets == 10

    def test_scan_uncounted(self):
        cluster = KVCluster(2)
        cluster.put("ns", b"k", b"v")
        cluster.reset_counters()
        list(cluster.scan("ns", count_as_gets=False))
        assert cluster.total_counters().gets == 0

    def test_peek_uncounted(self):
        cluster = KVCluster(2)
        cluster.put("ns", b"k", b"v")
        cluster.reset_counters()
        assert cluster.peek("ns", b"k") == b"v"
        assert cluster.total_counters().gets == 0

    def test_delete(self):
        cluster = KVCluster(2)
        cluster.put("ns", b"k", b"v")
        assert cluster.delete("ns", b"k")
        assert cluster.get("ns", b"k") is None

    def test_drop_namespace(self):
        cluster = KVCluster(2)
        for i in range(5):
            cluster.put("ns", encode_key((i,)), b"v")
        cluster.put("other", b"k", b"v")
        assert cluster.drop_namespace("ns") == 5
        assert cluster.get("other", b"k") == b"v"

    def test_add_node_preserves_data(self):
        cluster = KVCluster(3)
        for i in range(200):
            cluster.put("ns", encode_key((i,)), str(i).encode())
        cluster.add_node()
        assert cluster.num_nodes == 4
        for i in range(200):
            value = cluster.peek("ns", encode_key((i,)))
            assert value == str(i).encode()

    def test_data_spread_over_nodes(self):
        cluster = KVCluster(4)
        for i in range(400):
            cluster.put("ns", encode_key((i,)), b"v")
        sizes = [len(n.store) for n in cluster.nodes.values()]
        assert all(s > 0 for s in sizes)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            KVCluster(0)

    def test_scan_counts_values_read(self):
        """Regression: the blind scan used to bump gets but never
        values_read, undercounting #data — every pair is ≥ 1 value."""
        cluster = KVCluster(2)
        for i in range(10):
            cluster.put("ns", encode_key((i,)), b"v")
        cluster.reset_counters()
        list(cluster.scan("ns"))
        assert cluster.total_counters().values_read == 10

    def test_scan_values_of_charges_logical_counts(self):
        """Decode-aware callers pass per-payload value counts (e.g. a
        TaaV pair is ``arity`` values), charged on the owning node."""
        cluster = KVCluster(2)
        for i in range(10):
            cluster.put("ns", encode_key((i,)), b"v")
        cluster.reset_counters()
        list(cluster.scan("ns", values_of=lambda _: 3))
        total = cluster.total_counters()
        assert total.values_read == 30
        assert total.gets == 10
        # values land on the node that served the pair, not spread evenly
        for node in cluster.nodes.values():
            assert node.counters.values_read == 3 * node.counters.gets

    def test_scan_uncounted_counts_no_values(self):
        cluster = KVCluster(2)
        cluster.put("ns", b"k", b"v")
        cluster.reset_counters()
        list(cluster.scan("ns", count_as_gets=False))
        assert cluster.total_counters().values_read == 0

    def test_delete_counts_round_trip(self):
        """Regression: a delete is an RPC whether or not the key existed."""
        cluster = KVCluster(2)
        cluster.put("ns", b"k", b"v")
        cluster.reset_counters()
        assert cluster.delete("ns", b"k")
        assert not cluster.delete("ns", b"missing")
        total = cluster.total_counters()
        assert total.round_trips == 2
        assert total.deletes == 2
