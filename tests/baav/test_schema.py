import pytest

from repro.baav import BaaVSchema, KVSchema, kv_schema, taav_equivalent_schema
from repro.errors import SchemaError
from repro.relational import AttrType, RelationSchema


@pytest.fixture()
def rel():
    return RelationSchema.of(
        "R",
        {"a": AttrType.INT, "b": AttrType.STR, "c": AttrType.FLOAT},
        ["a"],
    )


class TestKVSchema:
    def test_basic(self, rel):
        s = KVSchema("r_by_b", rel, ["b"], ["a", "c"])
        assert s.key == ("b",)
        assert s.value == ("a", "c")
        assert s.attributes == ("b", "a", "c")
        assert s.width == 3

    def test_arbitrary_attr_as_key(self, rel):
        """The defining BaaV liberty: non-pk attributes can be keys."""
        s = KVSchema("x", rel, ["c"], ["a"])
        assert s.key == ("c",)

    def test_pk_inherited_when_contained(self, rel):
        s = KVSchema("x", rel, ["b"], ["a", "c"])
        assert s.primary_key == ("a",)

    def test_pk_defaults_to_xy(self, rel):
        s = KVSchema("x", rel, ["b"], ["c"])
        assert set(s.primary_key) == {"b", "c"}

    def test_explicit_pk(self, rel):
        s = KVSchema("x", rel, ["b"], ["a", "c"], primary_key=["a"])
        assert s.primary_key == ("a",)

    def test_explicit_pk_outside_xy_rejected(self, rel):
        with pytest.raises(SchemaError):
            KVSchema("x", rel, ["b"], ["c"], primary_key=["a"])

    def test_unknown_attr_rejected(self, rel):
        with pytest.raises(SchemaError):
            KVSchema("x", rel, ["nope"], ["a"])

    def test_key_value_overlap_rejected(self, rel):
        with pytest.raises(SchemaError):
            KVSchema("x", rel, ["a"], ["a", "b"])

    def test_empty_key_rejected(self, rel):
        with pytest.raises(SchemaError):
            KVSchema("x", rel, [], ["a"])

    def test_covers(self, rel):
        s = KVSchema("x", rel, ["b"], ["a"])
        assert s.covers({"a", "b"})
        assert not s.covers({"c"})

    def test_kv_schema_helper_defaults_value(self, rel):
        s = kv_schema("x", rel, ["b"])
        assert set(s.value) == {"a", "c"}

    def test_taav_equivalent(self, rel):
        s = taav_equivalent_schema(rel)
        assert s.key == ("a",)
        assert set(s.value) == {"b", "c"}


class TestBaaVSchema:
    def test_add_iter(self, rel):
        schema = BaaVSchema([kv_schema("x", rel, ["b"])])
        assert len(schema) == 1
        assert "x" in schema
        assert schema.get("x").key == ("b",)

    def test_duplicate_name_rejected(self, rel):
        schema = BaaVSchema([kv_schema("x", rel, ["b"])])
        with pytest.raises(SchemaError):
            schema.add(kv_schema("x", rel, ["c"]))

    def test_over_relation(self, rel):
        other = RelationSchema.of("S", {"z": AttrType.INT}, ["z"])
        schema = BaaVSchema(
            [
                kv_schema("x", rel, ["b"]),
                kv_schema("y", rel, ["c"]),
            ]
        )
        assert len(schema.over_relation("R")) == 2
        assert schema.over_relation("S") == []

    def test_add_refreshes_the_derived_facts(self, rel):
        other = RelationSchema.of("S", {"z": AttrType.INT, "w": AttrType.INT}, ["z"])
        schema = BaaVSchema([kv_schema("x", rel, ["b"])])
        assert schema.relations() == {"R"}
        assert set(schema.closures()) == {"x"}
        schema.add(kv_schema("s_by_z", other, ["z"]))
        assert [s.name for s in schema.over_relation("S")] == ["s_by_z"]
        assert schema.relations() == {"R", "S"}
        assert schema.closures()["s_by_z"] == {"S.z", "S.w"}

    def test_over_relation_returns_a_private_list(self, rel):
        schema = BaaVSchema([kv_schema("x", rel, ["b"])])
        schema.over_relation("R").clear()
        assert len(schema.over_relation("R")) == 1

    def test_total_attributes(self, rel):
        schema = BaaVSchema([kv_schema("x", rel, ["b"])])
        assert schema.total_attributes() == 3

    def test_unknown_get(self, rel):
        with pytest.raises(SchemaError):
            BaaVSchema().get("nope")
