"""Unit tests for plan-generation internals: top splitting, the RA top."""


from repro.core.plangen import ZidianPlan, _split_top
from repro.kba import plan as kp
from repro.parallel.engine import Executable
from repro.sql import algebra, plan_sql
from repro.sql.executor import Table


def plan_for(db, sql):
    plan, _ = plan_sql(sql, db.schema)
    return plan


class TestSplitTop:
    def test_plain_spj_core_is_whole_plan_below_project(self, paper_db):
        plan = plan_for(
            paper_db,
            "select S.suppkey from SUPPLIER S, NATION N "
            "where S.nationkey = N.nationkey and N.name = 'GERMANY'",
        )
        core, replace, groupby, having = _split_top(plan)
        assert groupby is None and having is None
        assert replace is core
        assert isinstance(core, (algebra.JoinNode, algebra.SelectNode))

    def test_groupby_detected(self, paper_db, q1_sql):
        plan = plan_for(paper_db, q1_sql)
        core, replace, groupby, having = _split_top(plan)
        assert isinstance(groupby, algebra.GroupByNode)
        assert replace is groupby
        assert having is None

    def test_having_detected(self, paper_db, q1_sql):
        plan = plan_for(
            paper_db, q1_sql + " having SUM(PS.supplycost) > 1.0 "
        )
        core, replace, groupby, having = _split_top(plan)
        assert isinstance(groupby, algebra.GroupByNode)
        assert isinstance(having, algebra.SelectNode)
        assert replace is having

    def test_order_limit_stay_above(self, paper_db, q1_sql):
        plan = plan_for(paper_db, q1_sql + " order by total desc limit 2 ")
        core, replace, groupby, having = _split_top(plan)
        assert isinstance(groupby, algebra.GroupByNode)
        # ordering/limit/projection remain in the RA top above `replace`
        labels = plan.describe()
        assert "OrderBy" in labels and "Limit" in labels


def _top(ra_plan, replace):
    """What the engine runs of ``ra_plan`` above ``replace``."""
    return Executable(ZidianPlan(kp.Constant((), ()), ra_plan, replace, bound=None))


class TestRATop:
    def test_runs_the_operators_above_the_core(self, paper_db, q1_sql):
        plan = plan_for(paper_db, q1_sql + " order by total desc limit 1 ")
        core, replace, groupby, having = _split_top(plan)
        fake = Table(
            tuple(replace.output),
            [(1, 99.0), (2, 3.0)],
        )
        assert _top(plan, replace).top(fake).rows == [(1, 99.0)]

    def test_the_plan_is_left_as_it_was(self, paper_db, q1_sql):
        plan = plan_for(
            paper_db,
            q1_sql + " having SUM(PS.supplycost) > 1.0 order by total desc limit 1 ",
        )
        _, replace, _, _ = _split_top(plan)
        described = plan.describe()
        top = _top(plan, replace)
        fake = Table(tuple(replace.output), [(1, 99.0)])
        final = top.top(fake)
        assert plan.describe() == described  # `replace` is still in it
        assert final.attrs == tuple(plan.output)
        # a second run over the same plan sees its own table
        again = top.top(Table(fake.attrs, [(2, 5.0)]))
        assert again.rows == [(2, 5.0)]
        assert final.rows == [(1, 99.0)]

    def test_a_plan_with_no_top_returns_the_table(self):
        table = Table(("x",), [(1,)])
        node = algebra.TableNode(Table(("x",), []))
        assert _top(node, node).top(table) is table


class TestUniqueNames:
    def test_dedupe(self):
        from repro.sql.executor import unique_names

        assert unique_names(["a", "a", "b", "a"]) == ["a", "a#2", "b", "a#3"]

    def test_identity_when_unique(self):
        from repro.sql.executor import unique_names

        assert unique_names(["x", "y"]) == ["x", "y"]
