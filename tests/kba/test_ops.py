"""KBA operator tests, including the paper's Example 2."""

import pytest

from repro.baav import BaaVSchema, BaaVStore, kv_schema
from repro.errors import PlanError
from repro.kba import (
    Constant,
    DifferenceK,
    ExecContext,
    Extend,
    GroupK,
    JoinK,
    ProjectK,
    ScanKV,
    SelectK,
    Shift,
    TaaVScan,
    UnionK,
    execute,
)
from repro.kba.executor import execute_node
from repro.kv import KVCluster
from repro.relational import AttrType, Database, RelationSchema
from repro.sql import ast
from repro.sql.algebra import AggSpec


@pytest.fixture()
def example2():
    """Example 2: R1<A,B>, R2<B,C>, R3<A,C>."""
    r1 = RelationSchema.of("T1", {"A": AttrType.INT, "B": AttrType.INT})
    r2 = RelationSchema.of("T2", {"B": AttrType.INT, "C": AttrType.INT})
    r3 = RelationSchema.of("T3", {"A": AttrType.INT, "C": AttrType.INT})
    db = Database.from_dict(
        [r1, r2, r3],
        {
            "T1": [(1, 2), (2, 1)],
            "T2": [(2, 1), (2, 3), (1, 3)],
            "T3": [(1, 1), (2, 3), (3, 2)],
        },
    )
    baav = BaaVSchema(
        [
            kv_schema("R1", r1, ["A"]),
            kv_schema("R2", r2, ["B"]),
            kv_schema("R3", r3, ["A"]),
        ]
    )
    cluster = KVCluster(2)
    store = BaaVStore.map_database(db, baav, cluster)
    return ExecContext(store), cluster


class TestExtend:
    def test_example2_extension(self, example2):
        """R1 ∝ R2 = mapping of R1 ⋈_B R2 on <AB, C>."""
        ctx, _ = example2
        plan = Extend(
            ScanKV("R1", "r1"), "R2", "r2", (("r1.B", "B"),), ("r2.C",)
        )
        out = execute(plan, ctx)
        assert out.key_attrs == ("r1.A", "r1.B")
        assert out.value_attrs == ("r2.C",)
        got = sorted(out.iter_full())
        assert got == [
            ((1, 2, 1), 1),
            ((1, 2, 3), 1),
            ((2, 1, 3), 1),
        ]

    def test_extend_never_scans_right_operand(self, example2):
        """∝ fetches only probed blocks of its parameter."""
        ctx, cluster = example2
        base = Constant(("r1.B",), ((2,),))
        cluster.reset_counters()
        execute(Extend(base, "R2", "r2", (("r1.B", "B"),), ("r2.C",)), ctx)
        # exactly one probe for key 2; key 1 of R2 untouched
        assert cluster.total_counters().gets == 1

    def test_extend_missing_key_drops_row(self, example2):
        ctx, _ = example2
        base = Constant(("r1.B",), ((99,),))
        out = execute(Extend(base, "R2", "r2", (("r1.B", "B"),), ("r2.C",)), ctx)
        assert out.num_tuples() == 0

    def test_extend_dedupes_probes(self, example2):
        ctx, cluster = example2
        base = Constant(("x",), ((2,),))
        doubled = UnionK(base, Constant(("x",), ((2,),)))
        cluster.reset_counters()
        execute(Extend(doubled, "R2", "r2", (("x", "B"),), ("r2.C",)), ctx)
        assert cluster.total_counters().gets == 1

    def test_extend_multiplicities(self, example2):
        ctx, _ = example2
        base = Constant(("x",), ((2,),))
        chained = Extend(base, "R2", "r2", (("x", "B"),), ("r2.C",))
        out = execute(chained, ctx)
        # key 2 has two C values
        assert out.num_tuples() == 2

    def test_expose_key(self, example2):
        ctx, _ = example2
        base = Constant(("x",), ((2,),))
        plan = Extend(
            base, "R2", "r2", (("x", "B"),), ("r2.C",),
            expose_key=(("B", "r2.B"),),
        )
        out = execute(plan, ctx)
        assert "r2.B" in out.attrs
        assert all(row[out.position("r2.B")] == 2 for row in out.expand())

    def test_value_attrs_name_the_output(self, example2):
        ctx, _ = example2
        base = Constant(("x",), ((2,),))
        plan = Extend(base, "R2", "r2", (("x", "B"),), ("tmp",))
        out = execute(plan, ctx)
        assert out.value_attrs == ("tmp",)

    def test_value_attrs_must_match_the_schema(self, example2):
        ctx, _ = example2
        base = Constant(("x",), ((2,),))
        plan = Extend(base, "R2", "r2", (("x", "B"),), ("r2.C", "r2.D"))
        with pytest.raises(PlanError):
            execute(plan, ctx)


class TestJoinShift:
    def test_example2_shift_then_join(self, example2):
        """(R1 ∝ R2) ↑ A ⋈_{A,C} R3 = {(1,{(1,1)}), (2,{(3,3)})} keys."""
        ctx, _ = example2
        r4 = Extend(ScanKV("R1", "r1"), "R2", "r2", (("r1.B", "B"),), ("r2.C",))
        r5 = Shift(r4, ("r1.A",))
        joined = JoinK(
            r5,
            ScanKV("R3", "r3"),
            (("r1.A", "r3.A"), ("r2.C", "r3.C")),
        )
        out = execute(joined, ctx)
        rows = sorted(out.expand())
        # key (A from r5, A from r3): tuples (1,...,1) and (2,...,3)
        assert len(rows) == 2
        a_pos = out.position("r1.A")
        c_pos = out.position("r2.C")
        assert sorted((r[a_pos], r[c_pos]) for r in rows) == [(1, 1), (2, 3)]

    def test_join_multiplicities_multiply(self):
        left = Constant(("x",), ((1,),))
        from repro.kba.blockset import BlockSet

        # join two block sets with counts 2 and 3 -> 6
        from repro.kba.executor import join_blocksets

        l = BlockSet.from_rows((), ("a",), [((1,), 2)])
        r = BlockSet.from_rows((), ("b",), [((1,), 3)])
        out = join_blocksets(l, r, (("a", "b"),))
        assert out.num_tuples() == 6

    def test_join_residual(self):
        from repro.kba.blockset import BlockSet
        from repro.kba.executor import join_blocksets

        l = BlockSet.from_rows((), ("a",), [((1,), 1), ((2,), 1)])
        r = BlockSet.from_rows((), ("b", "c"), [((1, 5), 1), ((1, 9), 1)])
        residual = ast.Cmp(">", ast.Column("c"), ast.Lit(6))
        out = join_blocksets(l, r, (("a", "b"),), residual)
        assert sorted(out.expand()) == [(1, 1, 9)]


class TestSelectProjectCopy:
    def test_select(self, example2):
        ctx, _ = example2
        pred = ast.Cmp(">", ast.Column("r1.B"), ast.Lit(1))
        out = execute(SelectK(ScanKV("R1", "r1"), pred), ctx)
        assert sorted(out.expand()) == [(1, 2)]

    def test_select_drops_empty_blocks(self, example2):
        ctx, _ = example2
        pred = ast.Cmp("=", ast.Column("r1.B"), ast.Lit(99))
        out = execute(SelectK(ScanKV("R1", "r1"), pred), ctx)
        assert out.num_blocks == 0

    def test_project_merges_counts(self, example2):
        ctx, _ = example2
        out = execute(
            ProjectK(ScanKV("R2", "r2"), ("r2.B",)), ctx
        )
        rows = dict(out.iter_full())
        assert rows[(2,)] == 2 and rows[(1,)] == 1


class TestGroupUnionDifference:
    def test_group(self, example2):
        ctx, _ = example2
        plan = GroupK(
            ScanKV("R2", "r2"),
            ("r2.B",),
            (AggSpec("n", "COUNT", None),),
        )
        out = execute(plan, ctx)
        assert sorted(out.expand()) == [(1, 1), (2, 2)]

    def test_union_bag(self, example2):
        ctx, _ = example2
        out = execute(
            UnionK(ScanKV("R1", "r1"), ScanKV("R1", "r1")), ctx
        )
        assert out.num_tuples() == 4

    def test_difference_bag(self, example2):
        ctx, _ = example2
        doubled = UnionK(ScanKV("R1", "r1"), ScanKV("R1", "r1"))
        out = execute(DifferenceK(doubled, ScanKV("R1", "r1")), ctx)
        assert out.num_tuples() == 2

    @pytest.mark.parametrize("operator", [UnionK, DifferenceK])
    def test_inputs_are_left_unchanged(self, example2, operator):
        """The engine prices an operator's inputs after running it, so
        ∪ / − must not extend their entry lists in place."""
        ctx, _ = example2
        leaf = ScanKV("R1", "r1")
        inputs = [execute(leaf, ctx), execute(leaf, ctx)]
        before = [
            ({key: list(entries) for key, entries in block.data.items()},
             block.size_bytes())
            for block in inputs
        ]
        execute_node(operator(leaf, leaf), ctx, inputs)
        assert [(block.data, block.size_bytes()) for block in inputs] == before

    def test_difference_realigns_keys(self, example2):
        ctx, _ = example2
        shifted = Shift(ScanKV("R1", "r1"), ("r1.B",))
        out = execute(DifferenceK(ScanKV("R1", "r1"), shifted), ctx)
        assert out.num_tuples() == 0


class TestTaaVScanLeaf:
    def test_taav_scan(self, paper_db, paper_taav, paper_store, cluster):
        ctx = ExecContext(paper_store, paper_taav)
        out = execute(TaaVScan("NATION", "N"), ctx)
        assert out.num_tuples() == 3
        assert "N.name" in out.attrs
