"""Planner/engine integration: the IndexProbe → multi_get access path."""

from __future__ import annotations

import pytest

from repro.core.scanfree import is_scan_free as scanfree_check
from repro.errors import ExecutionError
from repro.kba import plan as kp
from repro.sql.minimize import minimize
from repro.sql.parser import parse
from repro.sql.planner import bind
from repro.sql.spc import analyze
from repro.systems import SQLOverNoSQL, ZidianSystem
from repro.workloads.airca import airca_baav_schema, generate_airca


@pytest.fixture(scope="module")
def airca():
    return generate_airca(scale=1.0, seed=13)


def make_baseline(db, indexes=()):
    system = SQLOverNoSQL("hbase", indexes=indexes)
    system.load(db)
    return system


EQ_SQL = (
    "select F.flight_id, F.arr_delay from FLIGHT F where F.tail_id = 7"
)
RANGE_SQL = (
    "select F.flight_id from FLIGHT F where F.arr_delay > 60.0"
)
BETWEEN_SQL = (
    "select F.flight_id from FLIGHT F "
    "where F.dep_delay between 10.0 and 12.0"
)


class TestBaselineIndexPath:
    def test_eq_results_match_scan(self, airca):
        plain = make_baseline(airca)
        indexed = make_baseline(airca, indexes=["FLIGHT.tail_id"])
        r_scan = plain.execute(EQ_SQL)
        r_idx = indexed.execute(EQ_SQL)
        assert sorted(r_idx.rows) == sorted(r_scan.rows)
        assert r_idx.metrics.index_probes > 0
        assert r_idx.metrics.n_get < r_scan.metrics.n_get

    def test_range_results_match_scan(self, airca):
        plain = make_baseline(airca)
        indexed = make_baseline(
            airca, indexes=["FLIGHT.arr_delay:ordered"]
        )
        r_scan = plain.execute(RANGE_SQL)
        r_idx = indexed.execute(RANGE_SQL)
        assert sorted(r_idx.rows) == sorted(r_scan.rows)
        assert r_idx.metrics.index_probes > 0

    def test_between_uses_ordered_index(self, airca):
        indexed = make_baseline(
            airca, indexes=["FLIGHT.dep_delay:ordered"]
        )
        plain = make_baseline(airca)
        r_idx = indexed.execute(BETWEEN_SQL)
        assert sorted(r_idx.rows) == sorted(plain.execute(BETWEEN_SQL).rows)
        assert "index probe" in r_idx.plan_summary

    def test_plan_summary_and_explain(self, airca):
        indexed = make_baseline(airca, indexes=["FLIGHT.tail_id"])
        result = indexed.execute(EQ_SQL)
        assert "index probe (hash on tail_id" in result.plan_summary
        assert "multi_get" in result.plan_summary
        assert indexed.explain(EQ_SQL) == result.plan_summary
        # a non-indexed filter still reports the scan
        other = "select F.flight_id from FLIGHT F where F.distance > 3000"
        assert "taav scan" in indexed.explain(other)
        assert "taav scan" in indexed.execute(other).plan_summary

    def test_residual_conjuncts_still_applied(self, airca):
        indexed = make_baseline(airca, indexes=["FLIGHT.tail_id"])
        plain = make_baseline(airca)
        sql = (
            "select F.flight_id from FLIGHT F "
            "where F.tail_id = 7 and F.distance > 1000"
        )
        assert sorted(indexed.execute(sql).rows) == sorted(
            plain.execute(sql).rows
        )

    def test_join_query_matches(self, airca):
        indexed = make_baseline(airca, indexes=["FLIGHT.tail_id"])
        plain = make_baseline(airca)
        sql = (
            "select F.flight_id, C.name from FLIGHT F, CARRIER C "
            "where F.tail_id = 7 and F.carrier_id = C.carrier_id"
        )
        assert sorted(indexed.execute(sql).rows) == sorted(
            plain.execute(sql).rows
        )

    def test_create_and_drop_online(self, airca):
        system = make_baseline(airca)
        assert "taav scan" in system.explain(EQ_SQL)
        system.create_index("FLIGHT", "tail_id")
        assert "index probe" in system.explain(EQ_SQL)
        baseline_rows = sorted(system.execute(EQ_SQL).rows)
        system.drop_index("FLIGHT", "tail_id")
        assert "taav scan" in system.explain(EQ_SQL)
        assert sorted(system.execute(EQ_SQL).rows) == baseline_rows

    def test_indexes_knob_tuple_specs(self, airca):
        system = SQLOverNoSQL(
            "hbase",
            indexes=[("FLIGHT", "tail_id"), ("FLIGHT", "arr_delay", "ordered")],
        )
        system.load(airca)
        assert system.indexes.equality_attrs("FLIGHT") == {
            "tail_id", "arr_delay",
        }

    def test_bad_index_spec_rejected(self):
        with pytest.raises(ExecutionError):
            SQLOverNoSQL("hbase", indexes=["FLIGHTtail_id"])

    def test_apply_updates_keeps_index_and_scan_agreed(self):
        # each system gets its own (identical) database: apply_updates
        # mutates the loaded Database in place
        indexed = make_baseline(
            generate_airca(scale=1.0, seed=13), indexes=["FLIGHT.tail_id"]
        )
        plain = make_baseline(generate_airca(scale=1.0, seed=13))
        template = indexed.database.relation("FLIGHT").rows[0]
        fresh = (999001,) + template[1:4] + (7,) + template[5:]
        victim = next(
            r for r in indexed.database.relation("FLIGHT").rows
            if r[4] == 7
        )
        for system in (indexed, plain):
            system.apply_updates(
                "FLIGHT", inserts=[fresh], deletes=[victim]
            )
        r_idx = indexed.execute(EQ_SQL)
        r_scan = plain.execute(EQ_SQL)
        assert sorted(r_idx.rows) == sorted(r_scan.rows)
        assert any(row[0] == 999001 for row in r_idx.rows)
        assert all(row[0] != victim[0] for row in r_idx.rows)


class TestSystemRegressions:
    def test_load_is_recallable_with_indexes(self):
        system = SQLOverNoSQL("hbase", indexes=["FLIGHT.tail_id"])
        system.load(generate_airca(scale=1.0, seed=13))
        system.load(generate_airca(scale=1.0, seed=13))  # must not raise
        assert "index probe" in system.explain(EQ_SQL)

    def test_zidian_load_is_recallable_with_indexes(self, airca):
        system = ZidianSystem("hbase", indexes=["FLIGHT.tail_id"])
        system.load(airca, airca_baav_schema())
        system.load(airca, airca_baav_schema())  # must not raise
        assert system.indexes.equality_attrs("FLIGHT") == {"tail_id"}

    def test_cross_type_literal_hits_hash_index(self, airca):
        # dep_delay is FLOAT; an integer literal must still probe right
        indexed = make_baseline(airca, indexes=["FLIGHT.dep_delay"])
        plain = make_baseline(airca)
        sql = (
            "select F.flight_id from FLIGHT F where F.dep_delay = 8"
        )
        r_idx = indexed.execute(sql)
        assert "index probe" in r_idx.plan_summary
        assert sorted(r_idx.rows) == sorted(plain.execute(sql).rows)

    def test_apply_updates_deletes_from_rowid_taav(self):
        from repro.relational import (
            AttrType,
            Attribute,
            Database,
            DatabaseSchema,
        )
        from repro.relational.schema import RelationSchema

        schema = RelationSchema(
            "S",
            [Attribute("a", AttrType.INT), Attribute("b", AttrType.STR)],
        )
        db = Database(DatabaseSchema([schema]))
        db.load("S", [(1, "x"), (2, "y")])
        system = SQLOverNoSQL("hbase")
        system.load(db)
        system.apply_updates("S", deletes=[(1, "x")])
        rows = system.execute("select T.a, T.b from S T").rows
        assert sorted(rows) == [(2, "y")]

    def test_zidian_same_pk_update_keeps_new_tuple(self):
        # delete old + insert new under one pk must leave the NEW tuple
        # in the TaaV store (deletes apply before inserts)
        db = generate_airca(scale=1.0, seed=13)
        system = ZidianSystem("hbase", indexes=["FLIGHT.tail_id"])
        system.load(db, airca_baav_schema())
        old = db.relation("FLIGHT").rows[0]
        new = old[:4] + (7,) + old[5:]
        system.apply_updates("FLIGHT", inserts=[new], deletes=[old])
        assert system.taav.relation("FLIGHT").get((old[0],)) == new
        rows = system.execute(EQ_SQL).rows
        assert any(r[0] == old[0] for r in rows)

    def test_reload_rebuilds_online_created_indexes(self):
        system = SQLOverNoSQL("hbase")
        system.load(generate_airca(scale=1.0, seed=13))
        system.create_index("FLIGHT", "tail_id")
        # a different database: the online-created index must be
        # rebuilt over the new rows, not keep serving stale postings
        other = generate_airca(scale=1.2, seed=99)
        system.load(other)
        plain = SQLOverNoSQL("hbase")
        plain.load(generate_airca(scale=1.2, seed=99))
        r_idx = system.execute(EQ_SQL)
        assert "index probe" in r_idx.plan_summary
        assert sorted(r_idx.rows) == sorted(plain.execute(EQ_SQL).rows)

    def test_no_fallback_middleware_does_not_claim_index_coverage(
        self, airca
    ):
        from repro.core.middleware import Zidian
        from repro.index import IndexManager
        from repro.kv import KVCluster

        manager = IndexManager(KVCluster(2))
        manager.create(airca.relation("FLIGHT"), "distance", "ordered")
        middleware = Zidian(
            airca.schema,
            airca_baav_schema(),
            allow_taav_fallback=False,
            index_catalog=manager,
        )
        decision = middleware.decide(
            "select F.flight_id from FLIGHT F where F.distance > 3900"
        )
        # without the TaaV fallback no IndexProbe can run, so the M1
        # verdict must not claim index-backed scan-freeness either
        assert not decision.is_scan_free
        assert not decision.scan_free.index_covered


class TestZidianIndexPath:
    def make_zidian(self, db, indexes=(), **kwargs):
        system = ZidianSystem("hbase", indexes=indexes, **kwargs)
        system.load(db, airca_baav_schema())
        return system

    def test_index_chosen_over_scan_kv(self, airca):
        sql = (
            "select F.flight_id, F.arr_delay from FLIGHT F "
            "where F.distance > 3900"
        )
        indexed = self.make_zidian(
            airca, indexes=["FLIGHT.distance:ordered"]
        )
        plain = self.make_zidian(airca)
        r_idx = indexed.execute(sql)
        r_scan = plain.execute(sql)
        assert sorted(r_idx.rows) == sorted(r_scan.rows)
        assert "index probe" in r_idx.plan_summary
        assert "scan" in r_scan.plan_summary
        assert r_idx.decision.is_scan_free
        assert not r_scan.decision.is_scan_free
        # scan-free via index, but not constant-bounded
        assert not r_idx.decision.is_bounded

    def test_chain_still_preferred_when_baav_covers(self, airca):
        # flight_by_tail makes tail_id a BaaV key: the ∝ chain wins and
        # the index is not consulted
        indexed = self.make_zidian(airca, indexes=["FLIGHT.tail_id"])
        result = indexed.execute(EQ_SQL)
        assert "key fetch" in result.plan_summary
        assert result.metrics.index_probes == 0

    def test_explain_mentions_index_coverage(self, airca):
        indexed = self.make_zidian(
            airca, indexes=["FLIGHT.distance:ordered"]
        )
        text = indexed.explain(
            "select F.flight_id from FLIGHT F where F.distance > 3900"
        )
        assert "indexes" in text
        assert "IndexProbe" in text

    def test_keep_taav_false_rejects_indexes(self, airca):
        system = ZidianSystem("hbase", keep_taav=False)
        system.load(airca, airca_baav_schema())
        with pytest.raises(ExecutionError):
            system.create_index("FLIGHT", "distance", "ordered")

    def test_a_planned_shape_sees_the_catalog_change(self, airca):
        """Statements of one shape around DDL: "indexes created or
        dropped after construction are seen immediately" holds for a
        shape that is already planned."""
        system = self.make_zidian(airca)
        counters = system.middleware.shape_stats
        manager = system.indexes

        def run(distance):
            result = system.execute(
                f"select F.flight_id from FLIGHT F where F.distance > {distance}"
            )
            return result.plan_summary, result.decision.is_scan_free, result.rows

        first = run(3900)
        assert "scan" in first[0] and not first[1]
        assert run(3800)[:2] == first[:2]
        assert (counters.total().hits, counters.total().misses) == (1, 1)
        assert manager.generation == 0

        system.create_index("FLIGHT", "distance", "ordered")
        assert manager.generation == 1
        probed = run(3900)
        assert "index probe (ordered on distance)" in probed[0] and probed[1]
        assert sorted(probed[2]) == sorted(first[2])
        assert counters.total().invalidations == 2  # the shape, its template
        assert run(3850)[:2] == probed[:2]
        assert counters.total().hits == 2

        assert system.drop_index("FLIGHT", "distance") == 1
        assert manager.generation == 2
        assert run(3900) == first
        assert counters.total().invalidations == 4
        # a drop cascade that only forgets the catalog entry counts too
        manager.forget("FLIGHT")
        assert manager.generation == 3

    def test_updates_flow_to_index_and_taav(self, airca):
        sql = (
            "select F.flight_id from FLIGHT F where F.distance = 9876"
        )
        indexed = self.make_zidian(airca, indexes=["FLIGHT.distance"])
        template = airca.relation("FLIGHT").rows[0]
        fresh = (999002,) + template[1:8] + (9876,) + template[9:]
        indexed.apply_updates("FLIGHT", inserts=[fresh])
        rows = indexed.execute(sql).rows
        assert (999002,) in rows
        indexed.apply_updates("FLIGHT", deletes=[fresh])
        assert indexed.execute(sql).rows == []


class TestScanFreeReport:
    def test_index_covered_reported(self, airca):
        from repro.index import IndexManager
        from repro.kv import KVCluster

        manager = IndexManager(KVCluster(2))
        manager.create(airca.relation("FLIGHT"), "distance", "ordered")
        bound = bind(
            parse("select F.flight_id from FLIGHT F where F.distance > 3900"),
            airca.schema,
        )
        analysis = analyze(bound)
        baav = airca_baav_schema()
        plain = scanfree_check(analysis, baav, minimize(analysis))
        assert not plain.scan_free and plain.missing == ["F"]
        report = scanfree_check(
            analysis, baav, minimize(analysis), index_catalog=manager
        )
        assert report.scan_free
        assert "F" in report.index_covered
        assert report.missing == []

    def test_kba_is_scan_free_accepts_index_probe(self):
        probe = kp.IndexProbe("R", "A", "x", "hash", eq_values=(1,))
        assert kp.is_scan_free(probe)
        assert not kp.is_scan_free(kp.TaaVScan("R", "A"))
