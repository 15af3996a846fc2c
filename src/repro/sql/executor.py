"""Reference in-memory executor for RA plans.

This executor runs directly on a :class:`repro.relational.Database` with no
KV storage involved. It is the *golden* semantics: every other execution
path (baseline SQL-over-NoSQL, Zidian KBA plans, parallel variants) is
tested for bag-equivalence against it.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.types import AttrType, Row
from repro.sql import algebra, ast
from repro.sql.aggregates import make_accumulator


class Table:
    """An intermediate result: attribute names plus rows."""

    __slots__ = ("attrs", "rows")

    def __init__(self, attrs: Sequence[str], rows: List[Row]) -> None:
        self.attrs = tuple(attrs)
        self.rows = rows

    def env(self, row: Row) -> dict:
        return dict(zip(self.attrs, row))

    def position(self, attr: str) -> int:
        try:
            return self.attrs.index(attr)
        except ValueError:
            raise ExecutionError(
                f"attribute {attr!r} not in {self.attrs}"
            ) from None


def unique_names(names) -> list:
    """Deduplicate output column names ("a", "a" -> "a", "a#2")."""
    seen = {}
    out = []
    for name in names:
        count = seen.get(name, 0) + 1
        seen[name] = count
        out.append(name if count == 1 else f"{name}#{count}")
    return out


def execute(plan: algebra.PlanNode, database: Database) -> Relation:
    """Execute ``plan`` against ``database`` and return a Relation."""
    return to_relation(run(plan, database))


def to_relation(table: Table) -> Relation:
    """A result table as a Relation (duplicate column names suffixed)."""
    schema = RelationSchema(
        "result",
        [Attribute(name, AttrType.STR) for name in unique_names(table.attrs)],
    )
    return Relation(schema, table.rows)


RowFn = Callable[[Row], object]


def eval_row(expr: ast.Expr, attrs: Sequence[str]) -> RowFn:
    """``expr`` as a function of one row laid out as ``attrs``.

    The reference evaluation — ``Expr.eval`` over an ``attr -> value``
    dict — that every compiled form must agree with.
    """
    return lambda row: expr.eval(dict(zip(attrs, row)))


def run(plan: algebra.PlanNode, database: Database) -> Table:
    """Execute ``plan`` and return the raw :class:`Table`.

    The plain recursive driver: scans read ``database``, every other
    operator is :func:`run_node` over its children's tables.
    """
    if isinstance(plan, algebra.ScanNode):
        relation = database.relation(plan.relation)
        attrs = [f"{plan.alias}.{a}" for a in relation.schema.attribute_names]
        return Table(attrs, list(relation.rows))
    return run_node(plan, [run(child, database) for child in plan.children()])


def run_node(
    plan: algebra.PlanNode,
    inputs: Sequence[Table],
    row_fn: Callable[[ast.Expr, Sequence[str]], RowFn] = eval_row,
) -> Table:
    """Execute one operator given its children's tables.

    The baseline engine drives its own recursion through this entry so
    it can fetch scans from the KV store and meter every operator; its
    ``row_fn`` may compile selection and projection expressions (same
    values as :func:`eval_row`, by contract).
    """
    handler = _HANDLERS.get(type(plan))
    if handler is None:
        raise ExecutionError(f"no handler for plan node {type(plan).__name__}")
    return handler(plan, inputs, row_fn)


def _run_select(plan: algebra.SelectNode, inputs, row_fn) -> Table:
    (child,) = inputs
    keep = row_fn(plan.predicate, child.attrs)
    return Table(child.attrs, [row for row in child.rows if keep(row)])


def _run_project(plan: algebra.ProjectNode, inputs, row_fn) -> Table:
    (child,) = inputs
    names = [name for name, _ in plan.items]
    exprs = [expr for _, expr in plan.items]
    # Fast path: pure column projection avoids dict envs.
    if all(isinstance(e, ast.Column) for e in exprs):
        positions = [child.position(e.name) for e in exprs]  # type: ignore[attr-defined]
        rows = [tuple(row[p] for p in positions) for row in child.rows]
        return Table(names, rows)
    fns = [row_fn(expr, child.attrs) for expr in exprs]
    return Table(names, [tuple(fn(row) for fn in fns) for row in child.rows])


def _run_join(plan: algebra.JoinNode, inputs, row_fn) -> Table:
    left, right = inputs
    return join_tables(left, right, plan.equi, plan.residual)


def join_tables(
    left: Table,
    right: Table,
    equi: Sequence[Tuple[str, str]],
    residual: Optional[ast.Expr] = None,
) -> Table:
    """Hash join of two tables on ``equi`` with an optional residual filter."""
    attrs = left.attrs + right.attrs
    if not equi:
        rows = [l + r for l in left.rows for r in right.rows]
    else:
        left_pos = [left.position(l) for l, _ in equi]
        right_pos = [right.position(r) for _, r in equi]
        index: Dict[Row, List[Row]] = defaultdict(list)
        for row in right.rows:
            index[tuple(row[p] for p in right_pos)].append(row)
        rows = []
        for lrow in left.rows:
            key = tuple(lrow[p] for p in left_pos)
            if None in key:
                continue
            for rrow in index.get(key, ()):
                rows.append(lrow + rrow)
    if residual is not None:
        rows = [row for row in rows if residual.eval(dict(zip(attrs, row)))]
    return Table(attrs, rows)


def _run_cross(plan: algebra.CrossNode, inputs, row_fn) -> Table:
    left, right = inputs
    return join_tables(left, right, [])


def _run_groupby(plan: algebra.GroupByNode, inputs, row_fn) -> Table:
    """Group the child by ``keys`` computing ``aggs``; bag semantics."""
    (child,) = inputs
    keys, aggs = plan.keys, plan.aggs
    key_pos = [child.position(k) for k in keys]
    groups: Dict[Row, List] = {}
    attrs = child.attrs
    for row in child.rows:
        key = tuple(row[p] for p in key_pos)
        accs = groups.get(key)
        if accs is None:
            accs = [make_accumulator(a.func, a.distinct) for a in aggs]
            groups[key] = accs
        env = None
        for spec, acc in zip(aggs, accs):
            if spec.arg is None:
                acc.add(True)
            else:
                if env is None:
                    env = dict(zip(attrs, row))
                acc.add(spec.arg.eval(env))
    if not keys and not groups:
        # Global aggregate of an empty input still yields one row.
        groups[()] = [make_accumulator(a.func, a.distinct) for a in aggs]
    rows = [
        key + tuple(acc.result() for acc in accs)
        for key, accs in groups.items()
    ]
    return Table(tuple(plan.key_names) + tuple(a.name for a in aggs), rows)


def _run_distinct(plan: algebra.DistinctNode, inputs, row_fn) -> Table:
    (child,) = inputs
    seen = set()
    rows = []
    for row in child.rows:
        if row not in seen:
            seen.add(row)
            rows.append(row)
    return Table(child.attrs, rows)


def _run_orderby(plan: algebra.OrderByNode, inputs, row_fn) -> Table:
    """Stable multi-key sort honoring ASC/DESC and NULLs-last."""
    (child,) = inputs
    rows = list(child.rows)
    attrs = child.attrs
    for expr, ascending in reversed(list(plan.keys)):
        def sort_key(row: Row):
            value = expr.eval(dict(zip(attrs, row)))
            return (value is None, value)
        rows.sort(key=sort_key, reverse=not ascending)
    return Table(attrs, rows)


def _run_limit(plan: algebra.LimitNode, inputs, row_fn) -> Table:
    (child,) = inputs
    return Table(child.attrs, child.rows[: plan.limit])


def _run_union(plan: algebra.UnionNode, inputs, row_fn) -> Table:
    left, right = inputs
    return Table(left.attrs, left.rows + right.rows)


def _run_difference(plan: algebra.DifferenceNode, inputs, row_fn) -> Table:
    left, right = inputs
    return Table(left.attrs, bag_difference(left.rows, right.rows))


def bag_difference(left: Sequence[Row], right: Sequence[Row]) -> List[Row]:
    """``left`` minus ``right`` under bag semantics (EXCEPT ALL): each
    right row cancels one equal left row; order of the rest is kept."""
    remaining = Counter(right)
    rows = []
    for row in left:
        if remaining.get(row, 0) > 0:
            remaining[row] -= 1
        else:
            rows.append(row)
    return rows


def _run_table(plan: algebra.TableNode, inputs, row_fn) -> Table:
    return plan.table  # type: ignore[return-value]


_HANDLERS = {
    algebra.TableNode: _run_table,
    algebra.SelectNode: _run_select,
    algebra.ProjectNode: _run_project,
    algebra.JoinNode: _run_join,
    algebra.CrossNode: _run_cross,
    algebra.GroupByNode: _run_groupby,
    algebra.DistinctNode: _run_distinct,
    algebra.OrderByNode: _run_orderby,
    algebra.LimitNode: _run_limit,
    algebra.UnionNode: _run_union,
    algebra.DifferenceNode: _run_difference,
}
