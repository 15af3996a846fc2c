"""Unit tests for the secondary-index subsystem (hash + ordered + manager)."""

from __future__ import annotations

import pytest

from repro.errors import ExecutionError
from repro.index import (
    HashIndex,
    IndexManager,
    OrderedIndex,
    index_namespace,
)
from repro.kv import KVCluster
from repro.relational import AttrType, Attribute, Relation, RelationSchema


def make_relation(rows=None, pk=("k",)):
    schema = RelationSchema(
        "R",
        [
            Attribute("k", AttrType.INT),
            Attribute("c", AttrType.INT),
            Attribute("s", AttrType.FLOAT),
            Attribute("name", AttrType.STR),
        ],
        list(pk),
    )
    if rows is None:
        rows = [
            (i, i % 5, float(i % 20), f"n{i % 3}") for i in range(100)
        ]
    return Relation(schema, rows)


@pytest.fixture()
def rel():
    return make_relation()


@pytest.fixture()
def manager(cluster):
    return IndexManager(cluster)


class TestHashIndex:
    def test_build_and_lookup(self, rel, manager):
        manager.create(rel, "c", "hash")
        pks = manager.lookup_eq("R", "c", [2])
        assert sorted(pks) == [(i,) for i in range(100) if i % 5 == 2]

    def test_lookup_multiple_values_dedups(self, rel, manager):
        manager.create(rel, "c", "hash")
        pks = manager.lookup_eq("R", "c", [1, 2, 1])
        expected = [(i,) for i in range(100) if i % 5 in (1, 2)]
        assert sorted(pks) == sorted(expected)
        assert len(pks) == len(set(pks))

    def test_missing_value_empty(self, rel, manager):
        manager.create(rel, "c", "hash")
        assert manager.lookup_eq("R", "c", [999]) == []

    def test_none_values_not_indexed(self, manager, cluster):
        rel = make_relation(rows=[(1, None, 0.0, "a"), (2, 7, 0.0, "b")])
        manager.create(rel, "c", "hash")
        assert manager.lookup_eq("R", "c", [None]) == []
        assert manager.lookup_eq("R", "c", [7]) == [(2,)]

    def test_string_attribute(self, rel, manager):
        manager.create(rel, "name", "hash")
        pks = manager.lookup_eq("R", "name", ["n1"])
        assert sorted(pks) == [(i,) for i in range(100) if i % 3 == 1]

    def test_entries_live_in_idx_namespace(self, rel, cluster, manager):
        manager.create(rel, "c", "hash")
        namespace = index_namespace("R", "c", "hash")
        assert namespace == "__idx__/R/c"
        assert cluster.list_keys(namespace).keys

    def test_maintenance_insert_delete(self, rel, manager):
        manager.create(rel, "c", "hash")
        manager.apply_updates(
            "R", inserts=[(500, 2, 1.0, "x")], deletes=[(2, 2, 2.0, "n2")]
        )
        pks = manager.lookup_eq("R", "c", [2])
        assert (500,) in pks and (2,) not in pks

    def test_delete_last_posting_removes_entry(self, cluster, manager):
        rel = make_relation(rows=[(1, 42, 0.0, "a")])
        manager.create(rel, "c", "hash")
        manager.apply_updates("R", deletes=[(1, 42, 0.0, "a")])
        assert manager.lookup_eq("R", "c", [42]) == []
        assert not cluster.list_keys(index_namespace("R", "c", "hash")).keys

    def test_duplicate_rows_keep_multiplicity(self, cluster, manager):
        # two logical occurrences of the same (value, pk): deleting one
        # must keep the posting alive
        rel = make_relation(rows=[(1, 5, 0.0, "a")])
        manager.create(rel, "c", "hash")
        manager.apply_updates("R", inserts=[(1, 5, 0.0, "a")])
        manager.apply_updates("R", deletes=[(1, 5, 0.0, "a")])
        assert manager.lookup_eq("R", "c", [5]) == [(1,)]


class TestOrderedIndex:
    def test_range_inclusive(self, rel, manager):
        manager.create(rel, "s", "ordered")
        pks = manager.lookup_range("R", "s", lo=3.0, hi=5.0)
        expected = [(i,) for i in range(100) if 3.0 <= (i % 20) <= 5.0]
        assert sorted(pks) == sorted(expected)

    def test_strict_bounds(self, rel, manager):
        manager.create(rel, "s", "ordered")
        pks = manager.lookup_range(
            "R", "s", lo=3.0, hi=5.0, lo_strict=True, hi_strict=True
        )
        expected = [(i,) for i in range(100) if 3.0 < (i % 20) < 5.0]
        assert sorted(pks) == sorted(expected)

    def test_open_ends(self, rel, manager):
        manager.create(rel, "s", "ordered")
        assert sorted(manager.lookup_range("R", "s", lo=18.0)) == sorted(
            (i,) for i in range(100) if (i % 20) >= 18.0
        )
        assert sorted(manager.lookup_range("R", "s", hi=1.0)) == sorted(
            (i,) for i in range(100) if (i % 20) <= 1.0
        )
        assert len(manager.lookup_range("R", "s")) == 100

    def test_empty_window(self, rel, manager):
        manager.create(rel, "s", "ordered")
        assert manager.lookup_range("R", "s", lo=5.0, hi=3.0) == []

    def test_bounded_bucket_walk(self, cluster, manager):
        # a narrow window must touch far fewer index entries than the
        # whole domain holds buckets
        rel = make_relation(
            rows=[(i, 0, float(i), "a") for i in range(2000)]
        )
        index = manager.create(rel, "s", "ordered")
        assert index.num_buckets > 10
        before = manager.stats.total().probes
        manager.lookup_range("R", "s", lo=100.0, hi=110.0)
        probed = manager.stats.total().probes - before
        assert probed <= 3  # ~11 values / 32-per-bucket → 1-2 buckets

    def test_equality_via_ordered(self, rel, manager):
        manager.create(rel, "s", "ordered")
        pks = manager.lookup_eq("R", "s", [7.0])
        assert sorted(pks) == sorted(
            (i,) for i in range(100) if (i % 20) == 7.0
        )

    def test_maintenance_outside_built_domain(self, rel, manager):
        manager.create(rel, "s", "ordered")
        manager.apply_updates("R", inserts=[(700, 0, 999.5, "z")])
        assert (700,) in manager.lookup_range("R", "s", lo=500.0)
        manager.apply_updates("R", deletes=[(700, 0, 999.5, "z")])
        assert manager.lookup_range("R", "s", lo=500.0) == []

    def test_ordered_namespace_suffix(self, rel, cluster, manager):
        manager.create(rel, "s", "ordered")
        assert cluster.list_keys("__idx__/R/s#ord").keys


class TestManager:
    def test_create_rejects_unknown_kind(self, rel, manager):
        with pytest.raises(ExecutionError):
            manager.create(rel, "c", "btree")

    def test_create_rejects_duplicate(self, rel, manager):
        manager.create(rel, "c", "hash")
        with pytest.raises(ExecutionError):
            manager.create(rel, "c", "hash")

    def test_create_rejects_pk_attribute(self, rel, manager):
        with pytest.raises(ExecutionError):
            manager.create(rel, "k", "hash")

    def test_create_rejects_unknown_attribute(self, rel, manager):
        with pytest.raises(ExecutionError):
            manager.create(rel, "nope", "hash")

    def test_create_requires_primary_key(self, manager):
        rel = make_relation(pk=())
        with pytest.raises(ExecutionError):
            manager.create(rel, "c", "hash")

    def test_catalog_views(self, rel, manager):
        manager.create(rel, "c", "hash")
        manager.create(rel, "s", "ordered")
        assert manager.equality_attrs("R") == {"c", "s"}
        assert manager.range_attrs("R") == {"s"}
        assert manager.equality_attrs("OTHER") == set()
        assert "R.c [hash]" in manager.describe()

    def test_lookup_without_index_raises(self, rel, manager):
        with pytest.raises(ExecutionError):
            manager.lookup_eq("R", "c", [1])
        with pytest.raises(ExecutionError):
            manager.lookup_range("R", "c", lo=1)

    def test_drop_removes_entries_and_catalog(self, rel, cluster, manager):
        manager.create(rel, "c", "hash")
        assert manager.drop("R", "c") == 1
        assert manager.equality_attrs("R") == set()
        assert not cluster.list_keys("__idx__/R/c").keys

    def test_drop_all_of_relation(self, rel, manager):
        manager.create(rel, "c", "hash")
        manager.create(rel, "s", "ordered")
        assert manager.drop("R") == 2
        assert len(manager) == 0

    def test_stats_meter_probes_and_maintenance(self, rel, manager):
        manager.create(rel, "c", "hash")
        built = manager.stats.total().maintenance_puts
        assert built == 5  # one posting list per distinct value
        assert manager.stats.total().maintenance_bytes > 0
        manager.lookup_eq("R", "c", [0, 1])
        assert manager.stats.total().probes == 2
        assert manager.stats.total().postings == 40

    def test_hash_probe_matches_across_numeric_types(self, manager):
        # SQL (and the scan path's ==) treat 10 and 10.0 as equal; a
        # hash probe by the other numeric type must still hit
        rel = make_relation(rows=[(1, 10, 10.0, "a"), (2, 3, 2.5, "b")])
        manager.create(rel, "c", "hash")
        manager.create(rel, "s", "hash")
        assert manager.lookup_eq("R", "c", [10.0]) == [(1,)]
        assert manager.lookup_eq("R", "c", [10]) == [(1,)]
        assert manager.lookup_eq("R", "s", [10]) == [(1,)]
        assert manager.lookup_eq("R", "s", [2.5]) == [(2,)]

    def test_posting_reads_charge_values_read(self, rel, cluster, manager):
        manager.create(rel, "c", "hash")
        before = cluster.total_counters().values_read
        manager.lookup_eq("R", "c", [2])  # posting list of 20 pks
        read = cluster.total_counters().values_read - before
        assert read == 20

    def test_ordered_index_attaches_to_persisted_buckets(self, cluster):
        from repro.index.indexes import OrderedIndex

        rel = make_relation(
            rows=[(i, 0, float(i), "a") for i in range(200)]
        )
        built = IndexManager(cluster)
        built.create(rel, "s", "ordered")
        # a fresh object over the same namespace recovers the cut
        # points from the persisted meta entry
        attached = OrderedIndex(rel.schema, "s", cluster)
        assert attached.num_buckets > 1
        assert sorted(
            attached.lookup_range(lo=50.0, hi=52.0)
        ) == [(50,), (51,), (52,)]

    def test_replicated_cluster_serves_indexes(self, rel):
        cluster = KVCluster(4, replication_factor=2)
        manager = IndexManager(cluster)
        manager.create(rel, "c", "hash")
        cluster.fail_node(cluster.live_node_ids[0])
        pks = manager.lookup_eq("R", "c", [3])
        assert sorted(pks) == [(i,) for i in range(100) if i % 5 == 3]
