"""Tests for the Zidian middleware facade (M1 + M2 + diagnostics)."""

import pytest

from repro.core import Zidian
from repro.errors import SQLAnalysisError, SQLSyntaxError


@pytest.fixture()
def zidian(paper_db, paper_baav_schema, paper_store):
    return Zidian(paper_db.schema, paper_baav_schema, paper_store)


class TestDecide:
    def test_q1_full_verdict(self, zidian, q1_sql):
        decision = zidian.decide(q1_sql)
        assert decision.answerable
        assert decision.is_scan_free
        assert decision.is_bounded
        assert "answerable=True" in decision.summary()

    def test_accepts_sql_string_or_bound(self, zidian, paper_db, q1_sql):
        from repro.sql import bind, parse

        bound = bind(parse(q1_sql), paper_db.schema)
        assert zidian.decide(bound).is_scan_free
        assert zidian.decide(q1_sql).is_scan_free

    def test_without_store_no_bounded_verdict(
        self, paper_db, paper_baav_schema, q1_sql
    ):
        zidian = Zidian(paper_db.schema, paper_baav_schema)
        decision = zidian.decide(q1_sql)
        assert decision.bounded is None
        assert not decision.is_bounded

    def test_syntax_error_propagates(self, zidian):
        with pytest.raises(SQLSyntaxError):
            zidian.decide("select from where")

    def test_binding_error_propagates(self, zidian):
        with pytest.raises(SQLAnalysisError):
            zidian.decide("select nope from SUPPLIER S")

    def test_data_preserving(self, zidian):
        assert zidian.data_preserving().preserved

    def test_degree_bound_configurable(
        self, paper_db, paper_baav_schema, paper_store, q1_sql
    ):
        strict = Zidian(
            paper_db.schema, paper_baav_schema, paper_store, degree_bound=1
        )
        decision = strict.decide(q1_sql)
        assert decision.is_scan_free and not decision.is_bounded


class TestExplain:
    def test_explain_scan_free_query(self, zidian, q1_sql):
        text = zidian.explain(q1_sql)
        assert "verdict" in text
        assert "scan_free=True" in text
        assert "nation_by_name" in text          # chase step
        assert "Constant" in text                # plan leaf
        assert "X[PS]" in text

    def test_explain_non_scan_free_query(self, zidian):
        text = zidian.explain(
            "select S.suppkey, S.nationkey from SUPPLIER S"
        )
        assert "scan_free=False" in text
        assert "uncovered:" in text
        # the cause is named: no constant, so no chase reaches anything
        assert (
            "  S: cannot reach {S.nationkey, S.suppkey} from the query's "
            "constants"
        ) in text.splitlines()

    def test_explain_names_a_combination_gap(self, paper_db, paper_schemas):
        """GET holds all of X, but over two instances no primary key ties."""
        from repro.baav import BaaVSchema, KVSchema

        supplier, partsupp, nation = paper_schemas
        baav = BaaVSchema(
            [
                KVSchema("ps_cost", partsupp, ["suppkey"], ["supplycost"]),
                KVSchema("ps_qty", partsupp, ["suppkey"], ["availqty"]),
            ]
        )
        text = Zidian(paper_db.schema, baav).explain(
            "select PS.supplycost, PS.availqty from PARTSUPP PS "
            "where PS.suppkey = 1"
        )
        assert "  PS: no single verifiable combination covers X[PS]" in (
            text.splitlines()
        )

    def test_explain_shows_degrees(self, zidian, q1_sql):
        assert "degrees" in zidian.explain(q1_sql)

    def test_explain_shows_min_atoms(self, zidian, paper_db):
        sql = """
        select S1.suppkey from SUPPLIER S1, SUPPLIER S2
        where S1.nationkey = S2.nationkey and S2.nationkey = 10
        and S1.nationkey = 10
        """
        text = zidian.explain(sql)
        assert "min(Q)" in text
        assert "S2" not in text.split("min(Q)")[1].splitlines()[0]
