import pytest

from repro.kv import KVCluster, TaaVStore
from repro.kv.taav import TaaVRelation
from repro.relational import AttrType, Relation, RelationSchema


@pytest.fixture()
def rel():
    schema = RelationSchema.of(
        "R", {"k": AttrType.INT, "v": AttrType.STR}, ["k"]
    )
    return Relation(schema, [(1, "a"), (2, "b"), (3, "c")])


class TestTaaVRelation:
    def test_point_get(self, rel):
        cluster = KVCluster(2)
        taav = TaaVRelation(rel.schema, cluster)
        taav.load(rel.rows)
        assert taav.get((2,)) == (2, "b")
        assert taav.get((9,)) is None

    def test_point_get_counts_one_get(self, rel):
        cluster = KVCluster(2)
        taav = TaaVRelation(rel.schema, cluster)
        taav.load(rel.rows)
        cluster.reset_counters()
        taav.get((1,))
        total = cluster.total_counters()
        assert total.gets == 1
        assert total.values_read == rel.schema.arity

    def test_scan_counts_get_per_tuple(self, rel):
        """The §3 blind scan: as many gets as the size of the table."""
        cluster = KVCluster(2)
        taav = TaaVRelation(rel.schema, cluster)
        taav.load(rel.rows)
        cluster.reset_counters()
        fetched = taav.fetch_all()
        assert fetched == rel
        assert cluster.total_counters().gets == len(rel)

    def test_fetch_all_counts_values(self, rel):
        cluster = KVCluster(2)
        taav = TaaVRelation(rel.schema, cluster)
        taav.load(rel.rows)
        cluster.reset_counters()
        taav.fetch_all()
        assert cluster.total_counters().values_read == rel.num_values()

    def test_delete_by_key(self, rel):
        cluster = KVCluster(2)
        taav = TaaVRelation(rel.schema, cluster)
        taav.load(rel.rows)
        assert taav.delete_by_key((1,))
        assert taav.get((1,)) is None
        assert len(taav) == 2

    def test_len_counts_an_overwritten_key_once(self, rel):
        """Regression: loading a tuple whose key is already stored
        replaces it, and ``len`` used to count it a second time."""
        taav = TaaVRelation(rel.schema, KVCluster(2))
        taav.load([(1, "a"), (2, "b")])
        taav.insert((1, "c"))
        assert len(taav) == len(taav.fetch_all()) == 2

    def test_no_pk_uses_rowids(self):
        schema = RelationSchema.of("R", {"a": AttrType.INT})
        cluster = KVCluster(2)
        taav = TaaVRelation(schema, cluster)
        taav.load([(7,), (7,), (7,)])  # duplicates survive
        assert len(taav.fetch_all()) == 3

    def test_scan_iterator(self, rel):
        cluster = KVCluster(2)
        taav = TaaVRelation(rel.schema, cluster)
        taav.load(rel.rows)
        assert sorted(taav.scan()) == sorted(rel.rows)

    def test_blind_scan_counts_values(self, rel):
        """Regression: the blind-scan iterator never counted values_read,
        so TaaV #data — the paper's headline metric — was undercounted.
        Every scanned pair is ``arity`` logical values."""
        cluster = KVCluster(2)
        taav = TaaVRelation(rel.schema, cluster)
        taav.load(rel.rows)
        cluster.reset_counters()
        list(taav.scan())
        total = cluster.total_counters()
        assert total.values_read == len(rel) * rel.schema.arity
        assert total.gets == len(rel)


class TestTaaVStore:
    def test_from_database(self, paper_db, cluster):
        store = TaaVStore.from_database(paper_db, cluster)
        assert "SUPPLIER" in store
        assert len(store.relation("NATION").fetch_all()) == 3

    def test_relations_isolated(self, paper_db, cluster):
        store = TaaVStore.from_database(paper_db, cluster)
        supplier = store.relation("SUPPLIER").fetch_all()
        assert supplier == paper_db["SUPPLIER"]
