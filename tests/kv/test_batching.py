"""The batched multi-get / multi-put pipeline: grouping, counters, costs."""

import pytest

from repro.kv import KVCluster
from repro.kv.backends import PROFILES, BackendProfile, profile
from repro.kv.lsm import LSMStore
from repro.kv.memstore import MemStore
from repro.kv.node import StorageNode


def _loaded_cluster(n_keys=40, nodes=4, engine="mem"):
    cluster = KVCluster(nodes, engine=engine)
    for i in range(n_keys):
        cluster.put("ns", f"k{i:03d}".encode(), f"v{i}".encode())
    cluster.reset_counters()
    return cluster


class TestStoreMultiGet:
    @pytest.mark.parametrize("store_cls", [MemStore, LSMStore])
    def test_matches_per_key_gets(self, store_cls):
        store = store_cls()
        for i in range(30):
            store.put(f"k{i}".encode(), f"v{i}".encode())
        keys = [b"k3", b"missing", b"k17", b"k3"]
        assert store.multi_get(keys) == [store.get(k) for k in keys]

    @pytest.mark.parametrize("store_cls", [MemStore, LSMStore])
    def test_multi_put_visible(self, store_cls):
        store = store_cls()
        store.multi_put([(b"a", b"1"), (b"b", b"2"), (b"a", b"3")])
        # later duplicates win, as with sequential puts
        assert store.get(b"a") == b"3"
        assert store.get(b"b") == b"2"


class TestNodeRoundTrips:
    def test_single_ops_are_one_round_trip_each(self):
        node = StorageNode(0)
        node.put(b"x", b"1")
        node.get(b"x")
        node.get(b"y")
        assert node.counters.puts == 1
        assert node.counters.gets == 2
        assert node.counters.round_trips == 3

    def test_multi_get_is_one_round_trip(self):
        node = StorageNode(0)
        for i in range(10):
            node.store.put(f"k{i}".encode(), b"v")
        node.counters.reset()
        values = node.multi_get([f"k{i}".encode() for i in range(10)])
        assert all(v == b"v" for v in values)
        assert node.counters.gets == 10
        assert node.counters.hits == 10
        assert node.counters.round_trips == 1

    def test_empty_batch_is_free(self):
        node = StorageNode(0)
        assert node.multi_get([]) == []
        node.multi_put([])
        assert node.counters.round_trips == 0


class TestClusterMultiGet:
    @pytest.mark.parametrize("engine", ["mem", "lsm"])
    def test_positional_results(self, engine):
        cluster = _loaded_cluster(engine=engine)
        keys = [b"k005", b"nope", b"k017", b"k001", b"k005"]
        values = cluster.multi_get("ns", keys)
        assert values == [cluster.peek("ns", k) for k in keys]
        assert values[1] is None

    def test_one_round_trip_per_owning_node(self):
        """The acceptance criterion: a mixed batch costs exactly one
        round trip on each node that owns at least one key."""
        cluster = _loaded_cluster(n_keys=60)
        keys = [f"k{i:03d}".encode() for i in range(60)]
        owners = {
            cluster.ring.node_for(cluster.full_key("ns", k)) for k in keys
        }
        assert len(owners) > 1  # genuinely mixed placement
        cluster.multi_get("ns", keys)
        per_node = cluster.get_stats().per_node
        for node_id, counters in per_node.items():
            expected = 1 if node_id in owners else 0
            assert counters.round_trips == expected
        total = cluster.total_counters()
        assert total.round_trips == len(owners)
        assert total.gets == len(keys)

    def test_duplicates_fetched_once(self):
        cluster = _loaded_cluster()
        values = cluster.multi_get("ns", [b"k001"] * 5)
        assert values == [cluster.peek("ns", b"k001")] * 5
        total = cluster.total_counters()
        assert total.gets == 1
        assert total.round_trips == 1

    def test_multi_put_round_trips_and_ordering(self):
        cluster = KVCluster(4)
        items = [(f"k{i}".encode(), b"old") for i in range(20)]
        items += [(b"k7", b"new")]  # later duplicate wins
        cluster.multi_put("ns", items)
        owners = {
            cluster.ring.node_for(cluster.full_key("ns", k))
            for k, _ in items
        }
        total = cluster.total_counters()
        assert total.puts == len(items)
        assert total.round_trips == len(owners)
        assert cluster.peek("ns", b"k7") == b"new"

    def test_single_get_still_one_round_trip(self):
        cluster = _loaded_cluster()
        cluster.get("ns", b"k001")
        total = cluster.total_counters()
        assert total.gets == 1
        assert total.round_trips == 1


class TestBackendBatchCosts:
    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_unbatched_equals_legacy_cost(self, name):
        p = profile(name)
        assert p.batched_get_cost_ms(7, 7, 100) == pytest.approx(
            p.get_cost_ms(7, 100)
        )
        assert p.batched_put_cost_ms(7, 7, 100) == pytest.approx(
            p.put_cost_ms(7, 100)
        )

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_batching_is_cheaper(self, name):
        p = profile(name)
        assert p.batched_get_cost_ms(2, 64, 64) < p.get_cost_ms(64, 64)

    def test_inconsistent_decomposition_rejected(self):
        with pytest.raises(ValueError):
            BackendProfile(
                name="bad",
                get_latency_ms=1.0,
                scan_value_ms=0.0,
                put_latency_ms=1.0,
                write_value_ms=0.0,
                network_bytes_per_ms=1.0,
                cpu_value_ms=0.0,
                job_overhead_ms=0.0,
                stage_overhead_ms=0.0,
                round_trip_ms=0.9,
                get_key_ms=0.5,   # 0.9 + 0.5 != 1.0
                put_key_ms=0.1,
            )


class TestTaaVBatching:
    def _taav(self):
        from repro.kv.taav import TaaVRelation
        from repro.relational import AttrType, RelationSchema

        schema = RelationSchema.of(
            "R", {"id": AttrType.INT, "v": AttrType.STR}, ["id"]
        )
        cluster = KVCluster(3)
        taav = TaaVRelation(schema, cluster)
        taav.load([(i, f"row{i}") for i in range(50)])
        cluster.reset_counters()
        return taav, cluster

    def test_multi_get_matches_per_key(self):
        taav, cluster = self._taav()
        keys = [(3,), (99,), (41,), (3,)]
        assert taav.multi_get(keys) == [taav.get(k) for k in keys]

    def test_batched_fetch_all_same_rows_fewer_round_trips(self):
        taav, cluster = self._taav()
        per_key = taav.fetch_all()
        per_key_counters = cluster.total_counters()
        cluster.reset_counters()
        batched = taav.fetch_all(batch_size=16)
        batched_counters = cluster.total_counters()
        assert sorted(per_key.rows) == sorted(batched.rows)
        assert batched_counters.gets == per_key_counters.gets
        assert batched_counters.round_trips < per_key_counters.round_trips


class TestInstanceMultiGet:
    def test_blocks_match_per_key_gets(self, paper_db, paper_baav_schema):
        from repro.baav import BaaVStore

        cluster = KVCluster(3)
        store = BaaVStore.map_database(
            paper_db, paper_baav_schema, cluster, split_threshold=4
        )
        instance = next(iter(store))
        keys = instance.keys()
        assert keys
        per_key = {tuple(k): instance.get(k) for k in keys}
        cluster.reset_counters()
        batched = instance.multi_get(keys + [("nope",) * len(keys[0])])
        for key in keys:
            expected = per_key[tuple(key)]
            got = batched[tuple(key)]
            assert got is not None
            assert sorted(got.entries) == sorted(expected.entries)
        counters = cluster.total_counters()
        # two waves (segment 0, then tail segments) of at most one round
        # trip per node each — never one per key
        assert counters.round_trips <= min(
            counters.gets, 2 * cluster.num_nodes
        )
