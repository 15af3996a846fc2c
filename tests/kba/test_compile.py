"""Compiled kernels ≡ ``Expr.eval`` + fusion + knob plumbing (PR 10)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CompileError, ExecutionError
from repro.kba import (
    BlockSet,
    Constant,
    ExecContext,
    ProjectK,
    SelectK,
    execute,
)
from repro.kba.compile import compile_mask, compile_plan, compile_row
from repro.sql import ast


def col(name):
    return ast.Column(name)


def lit(value):
    return ast.Lit(value)


ATTRS = ("a", "b", "s")
ROWS = [
    (1, 10, "apple"),
    (2, None, "banana"),
    (None, 30, None),
    (4, 4, "avocado"),
]

EXPRS = [
    ast.Cmp(">", col("a"), lit(1)),
    ast.Cmp("=", lit(2), col("a")),
    ast.Cmp("<=", col("a"), col("b")),
    ast.Cmp(">", col("a"), lit(None)),
    ast.And([ast.Cmp(">", col("a"), lit(0)), ast.Cmp("<", col("b"), lit(20))]),
    ast.Or([ast.Cmp("=", col("a"), lit(4)), ast.Cmp("=", col("b"), lit(30))]),
    ast.Not(ast.Cmp(">", col("a"), lit(2))),
    ast.Arith("+", col("a"), col("b")),
    ast.Arith("/", col("a"), lit(0)),
    ast.Arith("*", col("a"), lit(3)),
    ast.Neg(col("a")),
    ast.InList(col("a"), [1, 4]),
    ast.InList(col("s"), ["apple", "pear"]),
    ast.Between(col("a"), lit(1), lit(3)),
    ast.Like(col("s"), "a%"),
    ast.Like(col("s"), "_anana"),
    ast.And([lit(True), ast.Cmp(">", col("a"), lit(1))]),
    ast.Or([lit(False), ast.Cmp(">", col("a"), lit(1))]),
    lit(7),
]


def frame_of(rows):
    bs = BlockSet.constant(ATTRS, rows)
    from repro.baav.frame import BlockSetFrame

    return BlockSetFrame(bs)


class TestCompiledEqualsEval:
    """NULL semantics included: compiled output == eval output, exactly."""

    @pytest.mark.parametrize("expr", EXPRS, ids=str)
    def test_row_closure_matches_eval(self, expr):
        fn = compile_row(expr, ATTRS)
        for row in ROWS:
            expected = expr.eval(dict(zip(ATTRS, row)))
            assert fn(row) == expected, f"{expr} on {row}"

    @pytest.mark.parametrize("expr", EXPRS, ids=str)
    def test_mask_kernel_matches_eval(self, expr):
        fn = compile_mask(expr, ATTRS)
        out = list(fn(frame_of(ROWS)))
        expected = [expr.eval(dict(zip(ATTRS, row))) for row in ROWS]
        assert out == expected, str(expr)

    def test_unbound_column_raises_when_called(self):
        """The row closure raises where ``Expr.eval`` does — per call,
        not at compile time; the columnar kernel refuses to compile."""
        fn = compile_row(col("missing"), ATTRS)
        with pytest.raises(ExecutionError, match="unbound column 'missing'"):
            fn(ROWS[0])
        with pytest.raises(CompileError):
            compile_mask(col("missing"), ATTRS)

    def test_aggregate_call_reads_its_output_column(self):
        agg = ast.AggCall("SUM", col("a"))
        assert compile_row(agg, ("g", str(agg)))((1, 42)) == 42
        with pytest.raises(ExecutionError, match="outside GROUP BY"):
            compile_row(agg, ATTRS)(ROWS[0])


@given(
    st.lists(
        st.tuples(
            st.one_of(st.none(), st.integers(-5, 5)),
            st.one_of(st.none(), st.integers(-5, 5)),
            st.one_of(st.none(), st.sampled_from(["ab", "ba", ""])),
        ),
        max_size=8,
        unique=True,
    ),
    st.sampled_from(EXPRS),
)
def test_compiled_matches_eval_property(rows, expr):
    fn = compile_row(expr, ATTRS)
    mask_fn = compile_mask(expr, ATTRS)
    expected = [expr.eval(dict(zip(ATTRS, row))) for row in rows]
    assert [fn(row) for row in rows] == expected
    assert list(mask_fn(frame_of(rows))) == expected


class TestPlanCompilation:
    def plan(self):
        leaf = Constant(ATTRS, tuple(ROWS))
        return ProjectK(
            SelectK(leaf, ast.Cmp(">", col("a"), lit(1))), ("a", "s")
        )

    def test_fused_select_project_matches_row_path(self):
        plan = self.plan()
        row_out = execute(plan, ExecContext(None, vectorized=False))
        vec_out = execute(plan, ExecContext(None, vectorized=True))
        assert row_out.attrs == vec_out.attrs
        assert row_out.data == vec_out.data

    def test_fusion_survives_uncompilable_predicate(self):
        """CompileError inside the fused pair falls back per-operator."""
        leaf = Constant(ATTRS, tuple(ROWS))
        plan = ProjectK(
            SelectK(leaf, ast.Cmp(">", col("zzz.not_here"), lit(1))),
            ("a",),
        )
        row_ctx = ExecContext(None, vectorized=False)
        vec_ctx = ExecContext(None, vectorized=True)
        with pytest.raises(ExecutionError):
            execute(plan, row_ctx)
        with pytest.raises(ExecutionError):
            execute(plan, vec_ctx)

    def test_compile_plan_is_reusable(self):
        fn = compile_plan(self.plan())
        ctx = ExecContext(None, vectorized=True)
        assert fn(ctx).data == fn(ctx).data


class TestKnobs:
    def test_default_is_off(self):
        assert ExecContext(None).vectorized is False
        assert ExecContext(None, vectorized=True).vectorized is True

    def test_batch_partitions_below_one_rejected(self):
        with pytest.raises(ExecutionError):
            ExecContext(None, batch_partitions=0)
        with pytest.raises(ExecutionError):
            ExecContext(None, batch_partitions=-2)

    def test_batch_size_below_one_rejected(self):
        with pytest.raises(ExecutionError):
            ExecContext(None, batch_size=0)
