"""Tests for chase-based KBA plan generation (§6.2, Example 7)."""

import pytest

from repro.baav import BaaVSchema, BaaVStore, KVSchema, kv_schema
from repro.core import Zidian
from repro.kba import (
    Constant,
    ExecContext,
    Extend,
    GroupK,
    ScanKV,
    TaaVScan,
    execute,
    is_scan_free,
    walk,
)
from repro.errors import NotPreservedError
from repro.relational import bag_equal
from repro.parallel.engine import Executable
from repro.sql import execute as ra_execute, plan_sql
from repro.sql.executor import Table, run as ra_run
from repro.systems import ZidianSystem
from repro.workloads import airca


def run_zidian_plan(plan, store, taav, db):
    blockset = execute(plan.root, ExecContext(store, taav))
    return Executable(plan).top(Table(blockset.attrs, list(blockset.expand())))


def reference(db, sql):
    ref_plan, _ = plan_sql(sql, db.schema)
    return ra_run(ref_plan, db)


class TestExample7:
    def test_q1_plan_is_the_papers_chain(
        self, paper_db, paper_baav_schema, paper_store, q1_sql
    ):
        """ξ1 = group_by((('GERMANY' ∝ N) ∝ S) ∝ PS, ...)."""
        zidian = Zidian(paper_db.schema, paper_baav_schema, paper_store)
        plan, decision = zidian.plan(q1_sql)
        assert decision.is_scan_free
        assert plan.scan_free
        nodes = list(walk(plan.root))
        extends = [n for n in nodes if isinstance(n, Extend)]
        assert [e.kv_name for e in extends] == [
            "ps_by_sup", "sup_by_nation", "nation_by_name"
        ]
        constants = [n for n in nodes if isinstance(n, Constant)]
        assert len(constants) == 1
        assert constants[0].keys == (("GERMANY",),)
        assert isinstance(plan.root, GroupK)
        assert is_scan_free(plan.root)

    def test_q1_plan_answers_correctly(
        self, paper_db, paper_baav_schema, paper_store, paper_taav, q1_sql
    ):
        zidian = Zidian(paper_db.schema, paper_baav_schema, paper_store)
        plan, _ = zidian.plan(q1_sql)
        got = run_zidian_plan(plan, paper_store, paper_taav, paper_db)
        want = reference(paper_db, q1_sql)
        assert sorted(got.rows) == sorted(want.rows)

    def test_q1_gets_bounded_by_probes(
        self, paper_db, paper_baav_schema, paper_store, cluster, q1_sql
    ):
        zidian = Zidian(paper_db.schema, paper_baav_schema, paper_store)
        plan, _ = zidian.plan(q1_sql)
        cluster.reset_counters()
        execute(plan.root, ExecContext(paper_store))
        # 1 (nation) + 2 (suppliers per germany nations) + 3 (partsupp)
        assert cluster.total_counters().gets <= 8


class TestChainConstruction:
    def test_in_list_makes_multi_key_constant(
        self, paper_db, paper_baav_schema, paper_store
    ):
        zidian = Zidian(paper_db.schema, paper_baav_schema, paper_store)
        sql = """
        select S.suppkey from SUPPLIER S, NATION N
        where S.nationkey = N.nationkey and N.name in ('GERMANY', 'FRANCE')
        """
        plan, decision = zidian.plan(sql)
        assert decision.is_scan_free
        constants = [
            n for n in walk(plan.root) if isinstance(n, Constant)
        ]
        assert len(constants[0].keys) == 2

    def test_multi_constant_islands_one_constant_leaf(
        self, paper_db, paper_baav_schema, paper_store, paper_taav
    ):
        """Two constants on different relations: cartesian constant leaf."""
        sql = """
        select S.suppkey, PS.partkey
        from SUPPLIER S, NATION N, PARTSUPP PS
        where S.nationkey = N.nationkey and N.name = 'GERMANY'
          and PS.suppkey = S.suppkey and PS.availqty = 9
        """
        zidian = Zidian(paper_db.schema, paper_baav_schema, paper_store)
        plan, _ = zidian.plan(sql)
        got = run_zidian_plan(plan, paper_store, paper_taav, paper_db)
        want = reference(paper_db, sql)
        assert sorted(got.rows) == sorted(want.rows)

    def test_equality_filter_on_fetched_values(
        self, paper_db, paper_baav_schema, paper_store, paper_taav
    ):
        """Fetched value attrs equated to constants must be filtered."""
        sql = """
        select S.suppkey from SUPPLIER S, NATION N
        where S.nationkey = N.nationkey and N.name = 'GERMANY'
          and S.suppkey = 2
        """
        zidian = Zidian(paper_db.schema, paper_baav_schema, paper_store)
        plan, _ = zidian.plan(sql)
        got = run_zidian_plan(plan, paper_store, paper_taav, paper_db)
        assert sorted(got.rows) == [(2,)]


class TestScanFallback:
    def test_uncovered_alias_scans_kv_instance(
        self, paper_db, paper_baav_schema, paper_store, paper_taav
    ):
        """No constants: aliases fetched by scanning KV instances."""
        sql = "select S.suppkey, S.nationkey from SUPPLIER S"
        zidian = Zidian(paper_db.schema, paper_baav_schema, paper_store)
        plan, decision = zidian.plan(sql)
        assert not decision.is_scan_free
        assert plan.access["S"] == "scan_kv"
        got = run_zidian_plan(plan, paper_store, paper_taav, paper_db)
        want = reference(paper_db, sql)
        assert sorted(got.rows) == sorted(want.rows)

    def test_mixed_chain_and_scan(
        self, paper_db, paper_baav_schema, paper_store, paper_taav
    ):
        """Join of a chain-covered alias and a scanned alias."""
        sql = """
        select S.suppkey, PS.supplycost
        from SUPPLIER S, PARTSUPP PS
        where S.suppkey = PS.suppkey and PS.availqty > 3
        """
        zidian = Zidian(paper_db.schema, paper_baav_schema, paper_store)
        plan, decision = zidian.plan(sql)
        assert not decision.is_scan_free
        got = run_zidian_plan(plan, paper_store, paper_taav, paper_db)
        want = reference(paper_db, sql)
        assert sorted(got.rows) == sorted(want.rows)

    def test_taav_fallback_for_uncovered_attrs(
        self, paper_schemas, paper_db, paper_taav, cluster
    ):
        """Attributes outside R̃ fall back to TaaV scans when allowed."""
        supplier, partsupp, nation = paper_schemas
        partial = BaaVSchema(
            [
                KVSchema("ps_partial", partsupp, ["suppkey"],
                         ["partkey", "supplycost"]),
            ]
        )
        store = BaaVStore.map_database(paper_db, partial, cluster)
        zidian = Zidian(paper_db.schema, partial, store)
        sql = "select PS.availqty from PARTSUPP PS where PS.suppkey = 1"
        plan, decision = zidian.plan(sql)
        assert not decision.answerable
        assert plan.access["PS"] == "taav"
        got = run_zidian_plan(plan, store, paper_taav, paper_db)
        want = reference(paper_db, sql)
        assert sorted(got.rows) == sorted(want.rows)

    def test_taav_fallback_disabled_raises(
        self, paper_schemas, paper_db, cluster
    ):
        supplier, partsupp, nation = paper_schemas
        partial = BaaVSchema(
            [
                KVSchema("ps_partial", partsupp, ["suppkey"],
                         ["partkey", "supplycost"]),
            ]
        )
        store = BaaVStore.map_database(paper_db, partial, cluster)
        zidian = Zidian(
            paper_db.schema, partial, store, allow_taav_fallback=False
        )
        with pytest.raises(NotPreservedError):
            zidian.plan(
                "select PS.availqty from PARTSUPP PS where PS.suppkey = 1"
            )


class TestSecondaryFetch:
    def test_two_schemas_of_one_alias(self, paper_db, cluster, paper_taav):
        """X needs attrs split over two KV schemas; pk pins combinations."""
        supplier = paper_db.schema.relation("SUPPLIER")
        partsupp = paper_db.schema.relation("PARTSUPP")
        nation = paper_db.schema.relation("NATION")
        baav = BaaVSchema(
            [
                kv_schema("nation_by_name", nation, ["name"]),
                KVSchema("sup_a", supplier, ["nationkey"], ["suppkey"]),
                # second schema of SUPPLIER keyed by its pk
                KVSchema("sup_b", supplier, ["suppkey"], ["nationkey"]),
                kv_schema("ps_by_sup", partsupp, ["suppkey"]),
            ]
        )
        store = BaaVStore.map_database(paper_db, baav, cluster)
        zidian = Zidian(paper_db.schema, baav, store)
        sql = """
        select PS.partkey, PS.availqty
        from NATION N, SUPPLIER S, PARTSUPP PS
        where N.name = 'FRANCE' and N.nationkey = S.nationkey
          and S.suppkey = PS.suppkey
        """
        plan, decision = zidian.plan(sql)
        got = run_zidian_plan(plan, store, paper_taav, paper_db)
        want = reference(paper_db, sql)
        assert sorted(got.rows) == sorted(want.rows)


class TestStatsFastPath:
    def test_whole_instance_groupby_uses_stats(
        self, paper_db, paper_baav_schema, paper_store, paper_taav
    ):
        sql = """
        select PS.suppkey, sum(PS.supplycost) as total
        from PARTSUPP PS group by PS.suppkey
        """
        zidian = Zidian(paper_db.schema, paper_baav_schema, paper_store)
        plan, _ = zidian.plan(sql)
        assert plan.uses_stats
        got = run_zidian_plan(plan, paper_store, paper_taav, paper_db)
        want = reference(paper_db, sql)
        from repro.relational.compare import rows_bag_equal

        assert rows_bag_equal(got.rows, want.rows)

    def test_stats_disabled(self, paper_db, paper_baav_schema, paper_store):
        zidian = Zidian(
            paper_db.schema, paper_baav_schema, paper_store, use_stats=False
        )
        plan, _ = zidian.plan(
            "select PS.suppkey, sum(PS.supplycost) as total "
            "from PARTSUPP PS group by PS.suppkey"
        )
        assert not plan.uses_stats

    def test_stats_not_used_with_predicates(
        self, paper_db, paper_baav_schema, paper_store
    ):
        zidian = Zidian(paper_db.schema, paper_baav_schema, paper_store)
        plan, _ = zidian.plan(
            "select PS.suppkey, sum(PS.supplycost) as total "
            "from PARTSUPP PS where PS.availqty > 2 group by PS.suppkey"
        )
        assert not plan.uses_stats

    def test_stats_not_used_for_count_star(
        self, paper_db, paper_baav_schema, paper_store
    ):
        zidian = Zidian(paper_db.schema, paper_baav_schema, paper_store)
        plan, _ = zidian.plan(
            "select PS.suppkey, count(*) as n "
            "from PARTSUPP PS group by PS.suppkey"
        )
        assert not plan.uses_stats


class TestHavingOrderLimit:
    def test_having_inside_kba(
        self, paper_db, paper_baav_schema, paper_store, paper_taav, q1_sql
    ):
        sql = q1_sql + " having SUM(PS.supplycost) > 4.0 "
        zidian = Zidian(paper_db.schema, paper_baav_schema, paper_store)
        plan, _ = zidian.plan(sql)
        got = run_zidian_plan(plan, paper_store, paper_taav, paper_db)
        want = reference(paper_db, sql)
        assert sorted(got.rows) == sorted(want.rows)

    def test_order_limit_post_ops(
        self, paper_db, paper_baav_schema, paper_store, paper_taav, q1_sql
    ):
        sql = q1_sql + " order by total desc limit 1 "
        zidian = Zidian(paper_db.schema, paper_baav_schema, paper_store)
        plan, _ = zidian.plan(sql)
        got = run_zidian_plan(plan, paper_store, paper_taav, paper_db)
        want = reference(paper_db, sql)
        assert got.rows == want.rows


class TestSelectedStepsAreWhatRuns:
    """One regression per way the coverage walk, the chain builder and
    the scan-path extender used to disagree: every plan here executes
    and bag-equals the reference executor."""

    @pytest.fixture(scope="class")
    def db(self):
        return airca.generate_airca(scale=0.1, seed=31)

    @staticmethod
    def plan_and_check(db, baav, sql, keep_taav=True):
        with ZidianSystem(workers=2, storage_nodes=2, keep_taav=keep_taav) as system:
            system.load(db, baav)
            plan, decision = system.middleware.plan(sql)
            result = system.execute(sql)
        ref_plan, _ = plan_sql(sql, db.schema)
        assert bag_equal(ra_execute(ref_plan, db), result.relation), sql
        return plan, decision

    def test_probe_key_of_a_later_fetch_survives_the_prune(self, db):
        """(a) the walk counted on F.flight_id; the builder pruned it."""
        plan, decision = self.plan_and_check(
            db,
            airca.airca_baav_schema(),
            "select F.flight_date, F.dest, F.dep_delay from FLIGHT F "
            "where F.tail_id = 5",
        )
        assert decision.is_scan_free and plan.access == {"F": "chain"}
        text = plan.root.describe()
        assert "ProjectK(F.flight_date, F.flight_id, F.tail_id)" in text
        # the second ∝ verifies #dup on what both fetches carry
        assert "F.tail_id = F.tail_id#dup" in text
        assert "F.flight_date = F.flight_date#dup" in text

    def test_two_hop_probe_key_survives_the_prune(self, db):
        baav = BaaVSchema(
            [
                KVSchema("d_by_id", airca.DELAY, ["delay_id"], ["minutes", "cause"]),
                KVSchema("d_by_minutes", airca.DELAY, ["minutes"],
                         ["severity", "delay_id"]),
            ]
        )
        plan, _ = self.plan_and_check(
            db, baav, "select A.severity from DELAY A where A.delay_id = 20"
        )
        assert plan.access == {"A": "chain"}
        text = plan.root.describe()
        assert "ProjectK(A.delay_id, A.minutes)" in text
        assert "A.delay_id = A.delay_id#dup" in text

    def test_join_attribute_behind_a_pruned_probe_key_is_joined_on(self, db):
        """(b) A.metric_01 sits behind a ∝ on A.metric_02, which the
        builder pruned: the join predicate was silently dropped."""
        baav = BaaVSchema(
            [
                KVSchema("d_a", airca.DELAY, ["delay_id"],
                         ["flight_id", "metric_02", "cause"]),
                KVSchema("d_b", airca.DELAY, ["metric_02", "delay_id"],
                         ["metric_01", "severity"]),
                KVSchema("c_by_code", airca.CARRIER, ["code"],
                         ["carrier_id", "alliance", "metric_01"]),
            ]
        )
        plan, _ = self.plan_and_check(
            db,
            baav,
            "select A.delay_id, B.alliance from DELAY A, CARRIER B "
            "where A.delay_id = 24 and A.metric_01 = B.metric_01",
        )
        assert plan.root.describe().splitlines()[0] == (
            "JoinK(A.metric_01=B.metric_01)"
        )

    def test_lossy_scan_extension_falls_to_taav(self, db):
        """(c) ⟨country | alliance⟩ does not hold the primary key: joined
        onto a scan of ⟨carrier_id | name, country⟩ it pairs every
        carrier with every alliance of its country."""
        baav = BaaVSchema(
            [
                KVSchema("c_by_id", airca.CARRIER, ["carrier_id"], ["name", "country"]),
                KVSchema("c_by_country", airca.CARRIER, ["country"], ["alliance"]),
            ]
        )
        sql = "select A.name, A.alliance from CARRIER A where A.carrier_id = 2"
        plan, decision = self.plan_and_check(db, baav, sql)
        assert not decision.answerable
        assert plan.access == {"A": "taav"}
        with pytest.raises(NotPreservedError):
            self.plan_and_check(db, baav, sql, keep_taav=False)

    def test_attribute_only_available_through_its_term_is_not_covered(self, db):
        """(d) An attribute no fetch holds is never checked against the
        tuple — a constant on it, or an equality copied from a term-mate,
        was reported covered and silently dropped."""
        baav = BaaVSchema(
            [
                KVSchema("d_cause", airca.DELAY, ["delay_id"], ["cause"]),
                KVSchema("d_minutes", airca.DELAY, ["delay_id"], ["minutes"]),
                KVSchema("f_dep", airca.FLIGHT, ["flight_id"], ["dep_delay"]),
            ]
        )
        plan, decision = self.plan_and_check(
            db,
            baav,
            "select A.cause from DELAY A where A.delay_id = 3 "
            "and A.severity = 2",
        )
        assert not decision.answerable and plan.access == {"A": "taav"}
        plan, _ = self.plan_and_check(
            db,
            baav,
            "select A.cause from DELAY A, FLIGHT F where A.delay_id = 3 "
            "and F.flight_id = 7 and A.minutes = F.dep_delay",
        )
        assert "A.minutes" in plan.root.describe()

    def test_secondary_fetch_needs_the_primary_key_fetched(self, db):
        """(e) A first fetch that does not hold the primary key cannot be
        tied to a later one: a constant on the key is not enough."""
        baav = BaaVSchema(
            [
                KVSchema("c_by_id", airca.CARRIER, ["carrier_id"],
                         ["fleet_size", "name"]),
                KVSchema("c_by_name", airca.CARRIER, ["name"], ["alliance"]),
            ]
        )
        plan, decision = self.plan_and_check(
            db,
            baav,
            "select A.alliance, A.fleet_size from CARRIER A "
            "where A.name = 'Carrier 8' and A.carrier_id = 8",
        )
        assert not decision.is_scan_free
        assert not plan.scan_free
