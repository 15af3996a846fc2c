"""Tests for clo(R̃, R̃) and Condition (I) — Theorem 1, Example 4."""


from repro.baav import BaaVSchema, KVSchema, kv_schema
from repro.core import Zidian, closure, closures, is_data_preserving
from repro.relational import AttrType, DatabaseSchema, RelationSchema


class TestClosure:
    def test_rule1_own_attributes(self, paper_schemas, paper_baav_schema):
        supplier, partsupp, nation = paper_schemas
        nation_schema = paper_baav_schema.get("nation_by_name")
        clo = closure(nation_schema, paper_baav_schema)
        assert {"NATION.name", "NATION.nationkey"} <= clo

    def test_rule2_pk_chaining(self):
        """R(a,b,c,d) pk=a with <b|a> and <a|c,d>: clo(<b|a>) = all."""
        rel = RelationSchema.of(
            "R",
            {"a": AttrType.INT, "b": AttrType.INT, "c": AttrType.INT,
             "d": AttrType.INT},
            ["a"],
        )
        by_b = KVSchema("by_b", rel, ["b"], ["a"])
        by_a = KVSchema("by_a", rel, ["a"], ["c", "d"])
        baav = BaaVSchema([by_b, by_a])
        clo = closure(by_b, baav)
        assert clo == frozenset({"R.a", "R.b", "R.c", "R.d"})

    def test_no_chaining_without_pk(self):
        """A non-pk key does not trigger rule 2."""
        rel = RelationSchema.of(
            "R",
            {"a": AttrType.INT, "b": AttrType.INT, "c": AttrType.INT},
            ["a"],
        )
        by_b = KVSchema("by_b", rel, ["b"], ["c"])   # no pk coverage
        by_c = KVSchema("by_c", rel, ["c"], ["a"])
        baav = BaaVSchema([by_b, by_c])
        clo = closure(by_b, baav)
        # pk(by_c) defaults to {a} (contained); {a} not in clo(by_b) start
        # {b, c}; so by_c's attrs never join... unless pk(by_c) <= clo.
        assert "R.a" not in clo or {"R.c", "R.a"} <= clo

    def test_transitive_chaining(self):
        rel = RelationSchema.of(
            "R",
            {"a": AttrType.INT, "b": AttrType.INT, "c": AttrType.INT,
             "d": AttrType.INT},
            ["a"],
        )
        s1 = KVSchema("s1", rel, ["d"], ["b"], primary_key=["b"])
        s2 = KVSchema("s2", rel, ["b"], ["a"], primary_key=["b"])
        s3 = KVSchema("s3", rel, ["a"], ["c"], primary_key=["a"])
        baav = BaaVSchema([s1, s2, s3])
        clo = closure(s1, baav)
        assert clo == frozenset({"R.a", "R.b", "R.c", "R.d"})

    def test_closures_computes_all(self, paper_baav_schema):
        clo = closures(paper_baav_schema)
        assert set(clo) == {"nation_by_name", "sup_by_nation", "ps_by_sup"}


class TestInvalidation:
    def test_add_refreshes_closures_on_the_same_schema_object(
        self, paper_db, paper_baav_schema
    ):
        """Stale-closure regression: the verdict follows ``BaaVSchema.add``."""
        baav = BaaVSchema(
            [s for s in paper_baav_schema if s.name != "ps_by_sup"]
        )
        zidian = Zidian(paper_db.schema, baav)
        sql = (
            "select PS.partkey, PS.supplycost from PARTSUPP PS "
            "where PS.suppkey = 1"
        )
        before = zidian.decide(sql)
        assert not before.answerable and not before.is_scan_free
        assert "ps_by_sup" not in closures(baav)
        baav.add(paper_baav_schema.get("ps_by_sup"))
        after = zidian.decide(sql)
        assert after.answerable and after.is_scan_free
        assert closures(baav)["ps_by_sup"] == closure(
            baav.get("ps_by_sup"), baav
        )
        assert zidian.plan(sql)[0].access == {"PS": "chain"}

    def test_closures_are_derived_once_per_schema_state(
        self, paper_baav_schema
    ):
        assert closures(paper_baav_schema) is closures(paper_baav_schema)


class TestConditionI:
    def test_example4_data_preserving(self, paper_db, paper_baav_schema):
        """Example 4: R̃1 is data preserving for R1."""
        report = is_data_preserving(paper_db.schema, paper_baav_schema)
        assert report.preserved
        assert set(report.witnesses) == {"SUPPLIER", "PARTSUPP", "NATION"}

    def test_missing_attribute_breaks_preservation(self, paper_schemas):
        """Example 5's R̃'1 (PARTSUPP without availqty) is not preserving."""
        supplier, partsupp, nation = paper_schemas
        baav = BaaVSchema(
            [
                kv_schema("nation_by_name", nation, ["name"]),
                kv_schema("sup_by_nation", supplier, ["nationkey"]),
                KVSchema(
                    "ps_partial", partsupp, ["suppkey"],
                    ["partkey", "supplycost"],
                ),
            ]
        )
        schema = DatabaseSchema([supplier, partsupp, nation])
        report = is_data_preserving(schema, baav)
        assert not report.preserved
        assert report.missing == ["PARTSUPP"]

    def test_relation_with_no_schema_not_preserved(self, paper_schemas):
        supplier, partsupp, nation = paper_schemas
        baav = BaaVSchema([kv_schema("n", nation, ["name"])])
        schema = DatabaseSchema([supplier, nation])
        report = is_data_preserving(schema, baav)
        assert not report.preserved
        assert "SUPPLIER" in report.missing

    def test_pk_chained_preservation(self):
        """Preservation via the clo chain, not a single full schema."""
        rel = RelationSchema.of(
            "R",
            {"a": AttrType.INT, "b": AttrType.INT, "c": AttrType.INT},
            ["a"],
        )
        baav = BaaVSchema(
            [
                KVSchema("by_b", rel, ["b"], ["a"]),
                KVSchema("by_a", rel, ["a"], ["c"]),
            ]
        )
        report = is_data_preserving(DatabaseSchema([rel]), baav)
        assert report.preserved
        assert report.witnesses["R"] == "by_b"
