"""Index-namespace hygiene: drop cascades and membership-event migration.

Secondary indexes post primary keys into their relation's TaaV data, so
orphaned index entries after a relation drop would silently serve stale
keys; and index entries must travel with every other namespace through
scale-out, decommission, crash and recovery.
"""

from __future__ import annotations

from repro.index import IndexManager, index_namespace
from repro.kv import KVCluster
from tests.index.test_indexes import make_relation


def load_taav(cluster, rel):
    from repro.kv.taav import TaaVRelation

    taav = TaaVRelation(rel.schema, cluster)
    taav.load(rel.rows)
    return taav


class TestDropCascade:
    def test_namespaces_enumerates_all(self, cluster):
        rel = make_relation()
        load_taav(cluster, rel)
        manager = IndexManager(cluster)
        manager.create(rel, "c", "hash")
        manager.create(rel, "s", "ordered")
        namespaces = cluster.namespaces()
        assert "taav:R" in namespaces
        assert "__idx__/R/c" in namespaces
        assert "__idx__/R/s#ord" in namespaces

    def test_drop_taav_namespace_cascades_to_indexes(self, cluster):
        rel = make_relation()
        load_taav(cluster, rel)
        manager = IndexManager(cluster)
        manager.create(rel, "c", "hash")
        manager.create(rel, "s", "ordered")
        dropped = cluster.drop_namespace("taav:R")
        assert dropped == len(rel.rows)
        assert not any(
            ns.startswith("__idx__/R/") for ns in cluster.namespaces()
        )
        manager.forget("R")
        assert len(manager) == 0

    def test_cascade_leaves_other_relations_alone(self, cluster):
        rel = make_relation()
        load_taav(cluster, rel)
        other_schema = rel.schema
        manager = IndexManager(cluster)
        manager.create(rel, "c", "hash")
        # an index over a different relation name must survive
        cluster.put("__idx__/OTHER/c", b"k", b"v")
        cluster.drop_namespace("taav:R")
        assert "__idx__/OTHER/c" in cluster.namespaces()

    def test_cascade_invalidates_caches(self, cluster):
        from repro.kv.cache import BlockCache

        rel = make_relation()
        cache = BlockCache(1 << 20)
        manager = IndexManager(cluster, cache=cache)
        manager.create(rel, "c", "hash")
        manager.lookup_eq("R", "c", [0])  # warm the cache
        assert len(cache) > 0
        cluster.drop_namespace("taav:R")
        assert cache.peek(
            index_namespace("R", "c", "hash"),
            next(iter(cluster.list_keys("__idx__/R/c").keys), b""),
        ) is None
        assert len(cache) == 0

    def test_non_taav_drop_does_not_cascade(self, cluster):
        rel = make_relation()
        manager = IndexManager(cluster)
        manager.create(rel, "c", "hash")
        cluster.put("baav:R_view", b"k", b"v")
        cluster.drop_namespace("baav:R_view")
        assert "__idx__/R/c" in cluster.namespaces()


class TestMembershipEvents:
    def expected(self, value):
        return sorted((i,) for i in range(100) if i % 5 == value)

    def test_remove_node_migrates_index_entries(self):
        cluster = KVCluster(4)
        manager = IndexManager(cluster)
        manager.create(make_relation(), "c", "hash")
        cluster.remove_node(0)
        assert sorted(manager.lookup_eq("R", "c", [2])) == self.expected(2)

    def test_add_node_keeps_index_consistent(self):
        cluster = KVCluster(3)
        manager = IndexManager(cluster)
        manager.create(make_relation(), "c", "hash")
        cluster.add_node()
        assert sorted(manager.lookup_eq("R", "c", [4])) == self.expected(4)

    def test_fail_recover_round_trip_replicated(self):
        cluster = KVCluster(4, replication_factor=2)
        manager = IndexManager(cluster)
        manager.create(make_relation(), "c", "hash")
        manager.create(make_relation(), "s", "ordered")
        victim = cluster.live_node_ids[1]
        cluster.fail_node(victim)
        assert sorted(manager.lookup_eq("R", "c", [1])) == self.expected(1)
        # a write while the node is down must not resurrect on recovery
        manager.apply_updates("R", deletes=[(1, 1, 1.0, "n1")])
        cluster.recover_node(victim)
        pks = sorted(manager.lookup_eq("R", "c", [1]))
        assert pks == [p for p in self.expected(1) if p != (1,)]
        assert sorted(
            manager.lookup_range("R", "s", lo=1.0, hi=1.0)
        ) == [(i,) for i in range(100) if i % 20 == 1 and i != 1]

    def test_removed_relation_cannot_leave_orphans_after_migration(self):
        # drop after churn: the cascade still finds every index pair on
        # the surviving nodes
        cluster = KVCluster(4)
        rel = make_relation()
        load_taav(cluster, rel)
        manager = IndexManager(cluster)
        manager.create(rel, "c", "hash")
        cluster.remove_node(1)
        cluster.add_node()
        cluster.drop_namespace("taav:R")
        assert not any(
            ns.startswith("__idx__/") for ns in cluster.namespaces()
        )
