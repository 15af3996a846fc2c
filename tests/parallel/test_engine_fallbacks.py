"""Parallel-engine coverage for scan fallbacks and compound plans."""

import pytest

from repro.baav import BaaVSchema, BaaVStore, KVSchema
from repro.core import Zidian
from repro.kv import KVCluster, TaaVStore, profile
from repro.parallel import BaselineEngine, ZidianEngine
from repro.relational.compare import rows_bag_equal
from repro.sql import execute as ra_execute, plan_sql


class TestZidianScanFallbackMetrics:
    @pytest.fixture()
    def partial_setup(self, paper_schemas, paper_db):
        supplier, partsupp, nation = paper_schemas
        partial = BaaVSchema(
            [
                KVSchema("ps_partial", partsupp, ["suppkey"],
                         ["partkey", "supplycost"]),
            ]
        )
        cluster = KVCluster(3)
        taav = TaaVStore.from_database(paper_db, cluster)
        store = BaaVStore.map_database(paper_db, partial, cluster)
        zidian = Zidian(paper_db.schema, partial, store)
        return paper_db, cluster, taav, store, zidian

    def test_taav_fallback_counts_scan_stage(self, partial_setup):
        db, cluster, taav, store, zidian = partial_setup
        sql = "select S.suppkey, S.nationkey from SUPPLIER S"
        plan, decision = zidian.plan(sql)
        assert plan.access["S"] == "taav"
        engine = ZidianEngine(store, taav, cluster, profile("hbase"), 4)
        table, metrics = engine.execute(plan)
        ref_plan, _ = plan_sql(sql, db.schema)
        assert rows_bag_equal(table.rows, ra_execute(ref_plan, db).rows)
        assert any(s.name.startswith("taav-scan") for s in metrics.stages)
        assert metrics.n_get == len(db["SUPPLIER"])

    def test_kv_scan_fewer_gets_than_taav(self, paper_db, paper_baav_schema):
        """BaaV scans pay one get per block, not per tuple (§2)."""
        cluster = KVCluster(3)
        taav = TaaVStore.from_database(paper_db, cluster)
        store = BaaVStore.map_database(paper_db, paper_baav_schema, cluster)
        zidian = Zidian(paper_db.schema, paper_baav_schema, store)
        sql = "select PS.partkey, PS.suppkey from PARTSUPP PS"
        plan, _ = zidian.plan(sql)
        assert plan.access["PS"] == "scan_kv"
        engine = ZidianEngine(store, taav, cluster, profile("hbase"), 4)
        _, metrics = engine.execute(plan)
        instance = store.instance("ps_by_sup")
        assert metrics.n_get == instance.num_blocks
        assert metrics.n_get < len(paper_db["PARTSUPP"])


class TestZidianBagOperatorPricing:
    @pytest.mark.parametrize("operator", ["UnionK", "DifferenceK"])
    def test_shuffle_prices_the_inputs_as_they_arrived(
        self, paper_db, paper_baav_schema, operator
    ):
        """``comm_bytes`` of a ∪ / − stage is the size of its two inputs
        before the operator ran (a union that grew its left input in
        place used to be billed for the grown input)."""
        import dataclasses

        from repro import kba

        cluster = KVCluster(3)
        taav = TaaVStore.from_database(paper_db, cluster)
        store = BaaVStore.map_database(paper_db, paper_baav_schema, cluster)
        zidian = Zidian(paper_db.schema, paper_baav_schema, store)
        plan, _ = zidian.plan("select PS.partkey, PS.suppkey from PARTSUPP PS")
        side_bytes = kba.execute(
            plan.root, kba.ExecContext(store, taav)
        ).size_bytes()
        both = getattr(kba, operator)(plan.root, plan.root)
        engine = ZidianEngine(store, taav, cluster, profile("hbase"), 4)
        _, metrics = engine.execute(dataclasses.replace(plan, root=both))
        (stage,) = [s for s in metrics.stages if s.name == "joink"]
        assert stage.comm_bytes == 2 * side_bytes


class TestBaselineCompound:
    def test_union_and_difference_nodes(self, paper_db):
        cluster = KVCluster(2)
        taav = TaaVStore.from_database(paper_db, cluster)
        sql = (
            "select S.suppkey from SUPPLIER S where S.nationkey = 10 "
            "union all "
            "select S.suppkey from SUPPLIER S where S.nationkey = 20 "
            "except all "
            "select S.suppkey from SUPPLIER S where S.suppkey = 3"
        )
        ra_plan, _ = plan_sql(sql, paper_db.schema)
        engine = BaselineEngine(taav, cluster, profile("kudu"), 2)
        table, metrics = engine.execute(ra_plan)
        reference = ra_execute(ra_plan, paper_db)
        assert rows_bag_equal(table.rows, reference.rows)
        assert any(s.name == "union" for s in metrics.stages)
        assert any(s.name == "difference" for s in metrics.stages)


class TestWorkerScaling:
    def test_single_worker_allowed(self, paper_db, paper_baav_schema, q1_sql):
        cluster = KVCluster(1)
        taav = TaaVStore.from_database(paper_db, cluster)
        store = BaaVStore.map_database(paper_db, paper_baav_schema, cluster)
        zidian = Zidian(paper_db.schema, paper_baav_schema, store)
        plan, _ = zidian.plan(q1_sql)
        engine = ZidianEngine(store, taav, cluster, profile("cassandra"), 1)
        table, metrics = engine.execute(plan)
        ref_plan, _ = plan_sql(q1_sql, paper_db.schema)
        assert rows_bag_equal(table.rows, ra_execute(ref_plan, paper_db).rows)
        assert metrics.workers == 1
