"""Unit tests for plan-generation internals: top splitting, substitution."""


from repro.core.plangen import _split_top, substitute_table
from repro.sql import algebra, plan_sql
from repro.sql.executor import Table, run as ra_run


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


class TestSubstituteTable:
    def test_replaces_core_and_executes_top(self, paper_db, q1_sql):
        plan = plan_for(paper_db, q1_sql + " order by total desc limit 1 ")
        core, replace, groupby, having = _split_top(plan)
        fake = Table(
            tuple(replace.output),
            [(1, 99.0), (2, 3.0)],
        )
        final = substitute_table(plan, replace, fake)
        out = ra_run(final, _NoDb())
        assert out.rows == [(1, 99.0)]

    def test_the_plan_is_left_as_it_was(self, paper_db, q1_sql):
        plan = plan_for(
            paper_db,
            q1_sql + " having SUM(PS.supplycost) > 1.0 order by total desc limit 1 ",
        )
        _, replace, _, _ = _split_top(plan)
        described = plan.describe()
        fake = Table(tuple(replace.output), [(1, 99.0)])
        final = substitute_table(plan, replace, fake)
        assert plan.describe() == described  # `replace` is still in it
        assert final is not plan and "Table(2 cols)" in final.describe()
        assert final.output == plan.output
        # a second substitution into the same plan sees its own table
        again = substitute_table(plan, replace, Table(fake.attrs, [(2, 5.0)]))
        assert ra_run(again, _NoDb()).rows == [(2, 5.0)]
        assert ra_run(final, _NoDb()).rows == [(1, 99.0)]

    def test_root_replacement(self):
        table = Table(("x",), [(1,)])
        node = algebra.TableNode(Table(("x",), []))
        replaced = substitute_table(node, node, table)
        assert isinstance(replaced, algebra.TableNode)
        assert replaced.table is table


class _NoDb:
    def relation(self, name):
        raise AssertionError(f"top unexpectedly scanned {name}")


class TestUniqueNames:
    def test_dedupe(self):
        from repro.sql.executor import unique_names

        assert unique_names(["a", "a", "b", "a"]) == ["a", "a#2", "b", "a#3"]

    def test_identity_when_unique(self):
        from repro.sql.executor import unique_names

        assert unique_names(["x", "y"]) == ["x", "y"]
