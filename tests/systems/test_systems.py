"""End-to-end system tests: SoX vs SoXZidian on the paper's example."""

import pytest

from repro.errors import ExecutionError
from repro.parallel.engine import BaselineEngine, ZidianEngine
from repro.relational import bag_equal
from repro.sql import execute as ra_execute, plan_sql
from repro.systems import SQLOverNoSQL, ZidianSystem


def reference(db, sql):
    plan, _ = plan_sql(sql, db.schema)
    return ra_execute(plan, db)


class TestSQLOverNoSQL:
    def test_name(self):
        assert SQLOverNoSQL("hbase").name == "SoH"
        assert SQLOverNoSQL("kudu").name == "SoK"
        assert SQLOverNoSQL("cassandra").name == "SoC"

    def test_requires_load(self):
        with pytest.raises(ExecutionError):
            SQLOverNoSQL().execute("select a from R")

    def test_execute(self, paper_db, q1_sql):
        system = SQLOverNoSQL("kudu", workers=4, storage_nodes=2)
        system.load(paper_db)
        result = system.execute(q1_sql)
        assert bag_equal(result.relation, reference(paper_db, q1_sql))
        assert result.metrics.n_get == paper_db.num_tuples()

    def test_counters_reset_between_queries(self, paper_db, q1_sql):
        system = SQLOverNoSQL("kudu", workers=4, storage_nodes=2)
        system.load(paper_db)
        first = system.execute(q1_sql).metrics
        second = system.execute(q1_sql).metrics
        assert first.n_get == second.n_get


class TestZidianSystem:
    def test_name(self):
        assert ZidianSystem("hbase").name == "SoHZidian"

    def test_execute_matches_reference(
        self, paper_db, paper_baav_schema, q1_sql
    ):
        system = ZidianSystem("hbase", workers=4, storage_nodes=2)
        system.load(paper_db, paper_baav_schema)
        result = system.execute(q1_sql)
        assert bag_equal(result.relation, reference(paper_db, q1_sql))
        assert result.decision.is_scan_free

    def test_beats_baseline_on_all_metrics(
        self, paper_db, paper_baav_schema, q1_sql
    ):
        base = SQLOverNoSQL("hbase", workers=4, storage_nodes=2)
        base.load(paper_db)
        zidian = ZidianSystem("hbase", workers=4, storage_nodes=2)
        zidian.load(paper_db, paper_baav_schema)
        m_base = base.execute(q1_sql).metrics
        m_z = zidian.execute(q1_sql).metrics
        assert m_z.n_get < m_base.n_get
        assert m_z.data_values < m_base.data_values
        assert m_z.comm_bytes < m_base.comm_bytes
        assert m_z.sim_time_ms < m_base.sim_time_ms

    @pytest.mark.parametrize("vectorized", [False, True])
    @pytest.mark.parametrize(
        "test, expected",
        [("is null", [(200, 4)]), ("is not null", [(100, 7), (100, 9)])],
    )
    def test_is_null_through_a_kba_plan(
        self, paper_db, paper_baav_schema, test, expected, vectorized
    ):
        """``IS [NOT] NULL`` reaches ``SelectK`` over the ∝ chain (the
        parser and the reference executor were its only coverage)."""
        system = ZidianSystem(
            "hbase", workers=2, storage_nodes=2, vectorized=vectorized
        )
        system.load(paper_db.copy(), paper_baav_schema)
        system.apply_updates(
            "PARTSUPP",
            inserts=[(200, 1, None, 4), (200, 2, None, 1)],
            deletes=[(200, 1, 2.0, 4)],
        )
        sql = (
            "select PS.partkey, PS.availqty from PARTSUPP PS, SUPPLIER S "
            "where PS.suppkey = S.suppkey and S.nationkey = 10 "
            f"and PS.supplycost {test} and PS.availqty > 1"
        )
        result = system.execute(sql)
        assert result.decision.is_scan_free
        assert any(
            "SelectK(" in line and "IS NULL" in line
            for line in system.explain(sql).splitlines()
        )
        assert sorted(result.rows) == expected
        assert bag_equal(result.relation, reference(system.database, sql))

    def test_t2b_route(self, paper_db, q1_sql):
        system = ZidianSystem("kudu", workers=4, storage_nodes=2)
        system.load(paper_db, workload=[q1_sql])
        result = system.execute(q1_sql)
        assert bag_equal(result.relation, reference(paper_db, q1_sql))
        assert result.decision.is_scan_free

    def test_load_requires_schema_or_workload(self, paper_db):
        system = ZidianSystem("kudu")
        with pytest.raises(ExecutionError):
            system.load(paper_db)

    def test_updates_keep_results_fresh(
        self, paper_db, paper_baav_schema, q1_sql
    ):
        system = ZidianSystem("kudu", workers=4, storage_nodes=2)
        system.load(paper_db.copy(), paper_baav_schema)
        system.apply_updates(
            "PARTSUPP", inserts=[(400, 2, 10.0, 6)],
            deletes=[(100, 1, 5.0, 7)],
        )
        result = system.execute(q1_sql)
        assert bag_equal(
            result.relation, reference(system.database, q1_sql)
        )

    def test_no_taav_keeps_working_for_covered_queries(
        self, paper_db, paper_baav_schema, q1_sql
    ):
        """Users may drop D entirely when R̃ is data preserving (§5.1)."""
        system = ZidianSystem(
            "kudu", workers=4, storage_nodes=2, keep_taav=False
        )
        system.load(paper_db, paper_baav_schema)
        result = system.execute(q1_sql)
        assert bag_equal(result.relation, reference(paper_db, q1_sql))

    def test_compression_off_still_correct(
        self, paper_db, paper_baav_schema, q1_sql
    ):
        system = ZidianSystem(
            "kudu", workers=4, storage_nodes=2, compress=False
        )
        system.load(paper_db, paper_baav_schema)
        assert bag_equal(
            system.execute(q1_sql).relation, reference(paper_db, q1_sql)
        )

    def test_split_threshold_still_correct(
        self, paper_db, paper_baav_schema, q1_sql
    ):
        system = ZidianSystem(
            "kudu", workers=4, storage_nodes=2, split_threshold=1
        )
        system.load(paper_db, paper_baav_schema)
        assert bag_equal(
            system.execute(q1_sql).relation, reference(paper_db, q1_sql)
        )


def _baseline(db, baav_schema):
    system = SQLOverNoSQL(
        "kudu", workers=4, storage_nodes=2, indexes=["PARTSUPP.availqty"]
    )
    system.load(db)
    return system


def _zidian(db, baav_schema):
    system = ZidianSystem(
        "kudu", workers=4, storage_nodes=2, indexes=["PARTSUPP.availqty"]
    )
    system.load(db, baav_schema)
    return system


@pytest.mark.parametrize("make", [_baseline, _zidian])
class TestCompoundExplain:
    LEFT = "select S1.suppkey from SUPPLIER S1 where S1.nationkey = 10"
    RIGHT = "select S2.suppkey from SUPPLIER S2 where S2.suppkey = 2"

    @pytest.mark.parametrize("keyword", ["UNION ALL", "EXCEPT ALL"])
    def test_explain_answers_what_execute_answers(
        self, paper_db, paper_baav_schema, make, keyword
    ):
        """EXPLAIN of a compound statement renders each side (it used
        to raise AttributeError on ZidianSystem while execute() ran)."""
        system = make(paper_db, paper_baav_schema)
        sql = f"{self.LEFT} {keyword.lower()} {self.RIGHT}"
        assert bag_equal(system.execute(sql).relation, reference(paper_db, sql))
        explained = system.explain(sql)
        if isinstance(system, ZidianSystem):
            assert explained == (
                f"{system.explain(self.LEFT)}\n{keyword}\n"
                f"{system.explain(self.RIGHT)}"
            )
        else:
            assert explained.splitlines() == [
                "S1 -> SUPPLIER: taav scan (fetch-all)",
                "S2 -> SUPPLIER: taav scan (fetch-all)",
            ]


def _stored_state(system):
    """Everything apply_updates writes: rows, and every KV pair (TaaV
    tuples, BaaV blocks + statistics, index postings)."""
    cluster = system.cluster
    pairs = {
        namespace: sorted(cluster.scan(namespace, count_as_gets=False))
        for namespace in cluster.namespaces()
    }
    rows = {
        name: list(system.database.relation(name).rows)
        for name in ("SUPPLIER", "PARTSUPP", "NATION")
    }
    return rows, pairs


@pytest.mark.parametrize("make", [_baseline, _zidian])
@pytest.mark.parametrize("transactional", [False, True])
class TestDeleteOfAbsentRow:
    PRESENT = (100, 1, 5.0, 7)

    @pytest.mark.parametrize(
        "deletes",
        [
            [PRESENT, (999, 9, 0.0, 0)],  # second row was never there
            [PRESENT, PRESENT],  # one copy held, two deleted
        ],
    )
    def test_rejected_before_anything_is_written(
        self, paper_db, paper_baav_schema, make, transactional, deletes
    ):
        system = make(paper_db.copy(), paper_baav_schema)
        if transactional:
            system.enable_transactions()
        before = _stored_state(system)
        with pytest.raises(ExecutionError, match="cannot delete"):
            system.apply_updates(
                "PARTSUPP", inserts=[(400, 2, 10.0, 6)], deletes=deletes
            )
        assert _stored_state(system) == before
        # and the system still takes the valid part of that Δ
        system.apply_updates("PARTSUPP", deletes=[self.PRESENT])
        assert self.PRESENT not in system.database.relation("PARTSUPP").rows


class TestPlanExecutedTwice:
    """A plan is an engine's input, not its scratch space: executed
    again after an update it reads the new state. (`substitute_table`
    used to put the first result's TableNode into `plan.ra_plan`, so
    the second run of a `ZidianPlan` returned the first answer.)"""

    GROUPED = (
        "select PS.suppkey, count(*) as n from PARTSUPP PS "
        "where PS.suppkey = 2 group by PS.suppkey"
    )
    LEFT = "select PS.partkey, PS.availqty from PARTSUPP PS where PS.suppkey = 2"
    RIGHT = "select PS.partkey, PS.availqty from PARTSUPP PS where PS.suppkey = 1"

    @staticmethod
    def _update(system):
        system.apply_updates(
            "PARTSUPP", inserts=[(400, 2, 10.0, 6)], deletes=[(100, 1, 5.0, 7)]
        )

    @staticmethod
    def _run(system, plans):
        """The rows of ``plans`` through a fresh engine, as ``execute``
        builds one per statement."""
        if isinstance(system, ZidianSystem):
            engine = system._engine(ZidianEngine, system.store)
        else:
            engine = system._engine(BaselineEngine)
        return sorted(
            row for plan in plans for row in engine.execute(plan)[0].rows
        )

    @pytest.mark.parametrize(
        "sql",
        [
            GROUPED,
            GROUPED + " having count(*) > 0 order by n desc limit 3",
            LEFT + " order by PS.partkey",
        ],
    )
    def test_zidian_plan_reads_the_new_state(
        self, paper_db, paper_baav_schema, sql
    ):
        system = _zidian(paper_db.copy(), paper_baav_schema)
        plan, _ = system.middleware.plan(sql)
        described, replace_node = plan.ra_plan.describe(), plan.replace_node
        before = self._run(system, [plan])
        assert before == sorted(system.execute(sql).rows)
        self._update(system)
        after = self._run(system, [plan])
        assert after == sorted(system.execute(sql).rows) != before
        assert plan.ra_plan.describe() == described
        assert plan.replace_node is replace_node

    @pytest.mark.parametrize("make", [_baseline, _zidian])
    def test_compound_statement(self, paper_db, paper_baav_schema, make):
        system = make(paper_db.copy(), paper_baav_schema)
        sql = f"{self.LEFT} union all {self.RIGHT}"
        if isinstance(system, ZidianSystem):
            # each side is planned, and its RA top run, on its own
            plans = [
                system.middleware.plan(side)[0]
                for side in (self.LEFT, self.RIGHT)
            ]
        else:
            plans = [system._plan(sql)]
        before = self._run(system, plans)
        assert before == sorted(system.execute(sql).rows)
        self._update(system)
        after = self._run(system, plans)
        assert after == sorted(system.execute(sql).rows) != before
