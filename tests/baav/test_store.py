import pytest

from repro.baav import BaaVSchema, BaaVStore, kv_schema
from repro.kv import KVCluster
from repro.relational import AttrType, Database, RelationSchema


class TestKVInstance:
    def test_mapping_groups_by_key(self, paper_store):
        inst = paper_store.instance("sup_by_nation")
        block = inst.get((10,))
        assert sorted(block.expand()) == [(1,), (2,)]

    def test_get_missing_key(self, paper_store):
        assert paper_store.instance("sup_by_nation").get((99,)) is None

    def test_get_counts_one_get_per_block(self, paper_store, cluster):
        cluster.reset_counters()
        paper_store.instance("sup_by_nation").get((10,))
        assert cluster.total_counters().gets == 1

    def test_degree(self, paper_store):
        # nationkey 10 has suppliers {1, 2} -> degree 2
        assert paper_store.instance("sup_by_nation").degree == 2
        # suppkey 1 supplies partkeys {100, 200} -> degree 2
        assert paper_store.instance("ps_by_sup").degree == 2

    def test_store_degree_is_max(self, paper_store):
        assert paper_store.degree() == 2

    def test_relational_version_roundtrip(self, paper_store, paper_db):
        """D̃'s relational version equals the projection of D (§4.1)."""
        inst = paper_store.instance("ps_by_sup")
        version = inst.relational_version()
        expected = paper_db["PARTSUPP"].project(
            ["suppkey", "partkey", "supplycost", "availqty"]
        )
        assert sorted(version.rows) == sorted(expected)

    def test_scan_counts_gets_per_block(self, paper_store, cluster):
        inst = paper_store.instance("sup_by_nation")
        cluster.reset_counters()
        blocks = list(inst.scan())
        assert len(blocks) == inst.num_blocks
        assert cluster.total_counters().gets == inst.num_blocks

    def test_keys(self, paper_store):
        keys = paper_store.instance("nation_by_name").keys()
        assert sorted(keys) == [("FRANCE",), ("GERMANY",)]

    def test_stats_sidecar(self, paper_store, cluster):
        inst = paper_store.instance("ps_by_sup")
        stats = inst.get_stats((1,))
        assert stats["supplycost"].total == pytest.approx(7.0)
        assert stats["availqty"].count == 2

    def test_blocks_merge_duplicate_nation_names(self, paper_store):
        # GERMANY appears for nationkeys 10 and 30
        block = paper_store.instance("nation_by_name").get(("GERMANY",))
        assert sorted(block.expand()) == [(10,), (30,)]


class TestSplitting:
    def make_store(self, split_threshold):
        schema = RelationSchema.of(
            "R", {"g": AttrType.INT, "v": AttrType.INT}, []
        )
        rows = [(1, i) for i in range(25)] + [(2, 99)]
        db = Database.from_dict([schema], {"R": rows})
        baav = BaaVSchema([kv_schema("r_by_g", schema, ["g"])])
        return db, BaaVStore.map_database(
            db, baav, KVCluster(3), split_threshold=split_threshold
        )

    def test_oversized_block_splits(self):
        db, store = self.make_store(split_threshold=10)
        inst = store.instance("r_by_g")
        block = inst.get((1,))
        assert block.num_tuples == 25

    def test_split_get_counts_per_segment(self):
        db, store = self.make_store(split_threshold=10)
        inst = store.instance("r_by_g")
        store.cluster.reset_counters()
        inst.get((1,))
        assert store.cluster.total_counters().gets == 3  # ceil(25/10)

    def test_split_preserves_relational_version(self):
        db, store = self.make_store(split_threshold=7)
        version = store.instance("r_by_g").relational_version()
        assert sorted(version.rows) == sorted(db["R"].rows)

    def test_recompute_degree(self):
        db, store = self.make_store(split_threshold=10)
        inst = store.instance("r_by_g")
        assert inst.recompute_degree() == 25


class TestCompression:
    def test_compression_dedupes(self):
        schema = RelationSchema.of(
            "R", {"g": AttrType.INT, "v": AttrType.STR}, []
        )
        rows = [(1, "x")] * 50 + [(1, "y")]
        db = Database.from_dict([schema], {"R": rows})
        baav = BaaVSchema([kv_schema("r", schema, ["g"])])
        compressed = BaaVStore.map_database(db, baav, KVCluster(2))
        raw = BaaVStore.map_database(
            db, baav, KVCluster(2), compress=False
        )
        inst_c = compressed.instance("r")
        inst_r = raw.instance("r")
        assert inst_c.get((1,)).num_entries == 2
        assert inst_r.get((1,)).num_entries == 51
        # bag semantics preserved either way
        assert sorted(inst_c.get((1,)).expand()) == sorted(
            inst_r.get((1,)).expand()
        )

    def test_compression_shrinks_storage(self):
        schema = RelationSchema.of(
            "R", {"g": AttrType.INT, "v": AttrType.STR}, []
        )
        rows = [(1, "xyz")] * 200
        db = Database.from_dict([schema], {"R": rows})
        baav = BaaVSchema([kv_schema("r", schema, ["g"])])
        compressed = BaaVStore.map_database(db, baav, KVCluster(2))
        raw = BaaVStore.map_database(db, baav, KVCluster(2), compress=False)
        assert compressed.instance("r").size_bytes() < raw.instance(
            "r"
        ).size_bytes() / 10
