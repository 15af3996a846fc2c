import sqlite3

import pytest

from repro.errors import SQLAnalysisError
from repro.relational import AttrType, Database, RelationSchema
from repro.sql import execute, plan_sql


@pytest.fixture()
def db():
    r = RelationSchema.of(
        "R", {"a": AttrType.INT, "b": AttrType.STR, "c": AttrType.FLOAT},
        ["a"],
    )
    s = RelationSchema.of(
        "S", {"x": AttrType.INT, "y": AttrType.STR}, ["x"]
    )
    return Database.from_dict(
        [r, s],
        {
            "R": [
                (1, "u", 10.0),
                (2, "v", 20.0),
                (3, "u", 30.0),
                (4, None, 40.0),
            ],
            "S": [(1, "p"), (1, "q"), (3, "r")],
        },
    )


def run(db, sql):
    plan, _ = plan_sql(sql, db.schema)
    return execute(plan, db)


class TestProjectionSelection:
    def test_select_star(self, db):
        out = run(db, "select * from R")
        assert len(out.rows) == 4
        assert len(out.schema.attribute_names) == 3

    def test_projection_order(self, db):
        out = run(db, "select c, a from R where a = 1")
        assert out.rows == [(10.0, 1)]

    def test_computed_projection(self, db):
        out = run(db, "select a * 2 + 1 as d from R where a = 3")
        assert out.rows == [(7,)]

    def test_filter_on_string(self, db):
        out = run(db, "select a from R where b = 'u'")
        assert sorted(out.rows) == [(1,), (3,)]

    def test_null_never_matches(self, db):
        out = run(db, "select a from R where b = 'nope'")
        assert out.rows == []
        out = run(db, "select a from R where b <> 'u'")
        assert sorted(out.rows) == [(2,)]  # NULL row excluded

    def test_is_null(self, db):
        out = run(db, "select a from R where b is null")
        assert out.rows == [(4,)]

    def test_in_and_between(self, db):
        assert sorted(run(db, "select a from R where a in (1, 3)").rows) == [
            (1,), (3,),
        ]
        assert sorted(
            run(db, "select a from R where c between 15.0 and 35.0").rows
        ) == [(2,), (3,)]

    def test_or(self, db):
        out = run(db, "select a from R where a = 1 or a = 4")
        assert sorted(out.rows) == [(1,), (4,)]

    def test_distinct(self, db):
        out = run(db, "select distinct b from R where a < 4")
        assert sorted(out.rows, key=str) == [("u",), ("v",)]


class TestJoins:
    def test_inner_join_bag(self, db):
        out = run(db, "select R.a, S.y from R, S where R.a = S.x")
        assert sorted(out.rows) == [(1, "p"), (1, "q"), (3, "r")]

    def test_join_syntax(self, db):
        out = run(db, "select R.a from R join S on R.a = S.x where S.y = 'r'")
        assert out.rows == [(3,)]

    def test_cross_join(self, db):
        out = run(db, "select R.a, S.x from R, S")
        assert len(out.rows) == 12

    def test_self_join(self, db):
        out = run(
            db,
            "select r1.a, r2.a from R r1, R r2 where r1.b = r2.b "
            "and r1.a < r2.a",
        )
        assert out.rows == [(1, 3)]

    def test_residual_predicate(self, db):
        out = run(
            db, "select R.a, S.x from R, S where R.a < S.x"
        )
        assert sorted(out.rows) == [(1, 3), (2, 3)]


#: flights whose origin and destination sometimes coincide, so an
#: equivalence class with two members in one alias has work to do
_FLIGHTS = [
    (1, "AMS", "AMS"), (2, "AMS", "BER"), (3, "BER", "AMS"),
    (4, "BER", "BER"), (5, "CDG", "AMS"), (6, "AMS", "CDG"),
    (7, "CDG", "CDG"), (8, None, "AMS"), (9, "AMS", None),
]


@pytest.mark.parametrize("where", [
    # two members of one class in A (A.dest = A.origin is implied)
    "A.origin = B.origin and A.dest = B.origin",
    # ... and in B (B.origin = B.dest is implied)
    "A.origin = B.origin and A.origin = B.dest",
    # three aliases, one class spanning four attributes
    "A.origin = B.dest and B.dest = C.origin and C.dest = A.origin",
    # single-alias control: an explicit same-alias equality
    "A.origin = A.dest and A.flight_id = B.flight_id",
])
def test_implied_equalities_match_sqlite(where):
    """Every member of an equality class is equal in the output, as
    in any SQL engine (stdlib sqlite3 is the oracle here)."""
    flight = RelationSchema.of(
        "F",
        {"flight_id": AttrType.INT, "origin": AttrType.STR,
         "dest": AttrType.STR},
        ["flight_id"],
    )
    database = Database.from_dict([flight], {"F": _FLIGHTS})
    aliases = sorted({part.split(".")[0] for part in where.split()
                      if "." in part})
    sql = (
        "select " + ", ".join(f"{a}.flight_id" for a in aliases)
        + " from " + ", ".join(f"F {a}" for a in aliases)
        + " where " + where
    )
    oracle = sqlite3.connect(":memory:")
    oracle.execute("create table F (flight_id int, origin text, dest text)")
    oracle.executemany("insert into F values (?, ?, ?)", _FLIGHTS)
    expected = sorted(oracle.execute(sql).fetchall())
    oracle.close()
    assert expected  # the oracle answer is not vacuous
    assert sorted(run(database, sql).rows) == expected


class TestAggregates:
    def test_group_by_sum_count(self, db):
        out = run(
            db,
            "select b, sum(c) as s, count(*) as n from R "
            "where a < 4 group by b order by b",
        )
        assert out.rows == [("u", 40.0, 2), ("v", 20.0, 1)]

    def test_global_aggregate(self, db):
        out = run(db, "select sum(a) as s, avg(c) as m from R")
        assert out.rows == [(10, 25.0)]

    def test_global_aggregate_empty_input(self, db):
        out = run(db, "select count(*) as n, sum(a) as s from R where a > 99")
        assert out.rows == [(0, None)]

    def test_min_max(self, db):
        out = run(db, "select min(c) as lo, max(c) as hi from R")
        assert out.rows == [(10.0, 40.0)]

    def test_count_column_skips_nulls(self, db):
        out = run(db, "select count(b) as n from R")
        assert out.rows == [(3,)]

    def test_count_distinct(self, db):
        out = run(db, "select count(distinct b) as n from R")
        assert out.rows == [(2,)]

    def test_agg_over_expression(self, db):
        out = run(db, "select sum(c * 2) as s from R where a <= 2")
        assert out.rows == [(60.0,)]

    def test_having(self, db):
        out = run(
            db,
            "select b, count(*) as n from R where a < 4 group by b "
            "having count(*) > 1",
        )
        assert out.rows == [("u", 2)]

    def test_having_on_alias(self, db):
        out = run(
            db,
            "select b, sum(c) as s from R where a < 4 group by b "
            "having s > 25.0",
        )
        assert out.rows == [("u", 40.0)]

    def test_non_key_column_rejected(self, db):
        with pytest.raises(SQLAnalysisError):
            run(db, "select a, sum(c) from R group by b")


class TestOrderLimit:
    def test_order_desc(self, db):
        out = run(db, "select a from R order by a desc")
        assert out.rows == [(4,), (3,), (2,), (1,)]

    def test_order_by_alias(self, db):
        out = run(db, "select a, c * -1 as neg from R order by neg")
        assert [r[0] for r in out.rows] == [4, 3, 2, 1]

    def test_order_by_agg_alias(self, db):
        out = run(
            db,
            "select b, sum(c) as s from R where a < 4 group by b "
            "order by s desc",
        )
        assert out.rows == [("u", 40.0), ("v", 20.0)]

    def test_order_by_agg_expr(self, db):
        out = run(
            db,
            "select b, sum(c) as s from R where a < 4 group by b "
            "order by sum(c)",
        )
        assert out.rows == [("v", 20.0), ("u", 40.0)]

    def test_limit(self, db):
        out = run(db, "select a from R order by a limit 2")
        assert out.rows == [(1,), (2,)]

    def test_order_by_non_projected(self, db):
        out = run(db, "select b from R order by a desc limit 2")
        assert out.rows == [(None,), ("u",)]


class TestBinding:
    def test_ambiguous_column(self, db):
        with pytest.raises(SQLAnalysisError):
            run(db, "select a from R r1, R r2")

    def test_unknown_column(self, db):
        with pytest.raises(SQLAnalysisError):
            run(db, "select nope from R")

    def test_unknown_alias(self, db):
        with pytest.raises(SQLAnalysisError):
            run(db, "select Z.a from R")

    def test_duplicate_alias(self, db):
        with pytest.raises(SQLAnalysisError):
            run(db, "select R.a from R, S as R")

    def test_unqualified_resolution(self, db):
        out = run(db, "select y from R, S where a = x and a = 3")
        assert out.rows == [("r",)]
