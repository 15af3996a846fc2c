"""Name binding and logical plan construction.

``bind`` resolves every column reference of a parsed statement to its
qualified ``alias.attr`` form (rewriting the AST in place) and returns a
:class:`BoundQuery`. ``build_plan`` turns a bound query into an RA plan:
selections pushed below joins, a greedy left-deep join order driven by the
equality graph, then group-by / having / order / limit / projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import SQLAnalysisError, UnsupportedSQLError
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.sql import algebra, ast
from repro.sql.parser import parse


@dataclass
class BoundQuery:
    """A parsed statement with all column references qualified."""

    stmt: ast.SelectStmt
    schema: DatabaseSchema
    aliases: Dict[str, RelationSchema]  # alias -> relation schema

    @property
    def alias_relations(self) -> Dict[str, str]:
        return {a: s.name for a, s in self.aliases.items()}


def bind(stmt: ast.SelectStmt, schema: DatabaseSchema) -> BoundQuery:
    """Resolve names in ``stmt`` against ``schema`` (mutates the AST)."""
    aliases: Dict[str, RelationSchema] = {}
    for table in stmt.tables:
        if table.alias in aliases:
            raise SQLAnalysisError(f"duplicate alias {table.alias!r}")
        aliases[table.alias] = schema.relation(table.relation)

    binder = _Binder(aliases)
    if stmt.star:
        stmt.items = [
            ast.SelectItem(ast.Column(f"{alias}.{attr}"), None)
            for alias, rel in aliases.items()
            for attr in rel.attribute_names
        ]
        stmt.star = False

    for item in stmt.items:
        binder.bind_expr(item.expr)
    if stmt.where is not None:
        binder.bind_expr(stmt.where)
    for column in stmt.group_by:
        binder.bind_expr(column)

    output_names = [item.output_name() for item in stmt.items]
    if stmt.having is not None:
        binder.bind_expr(stmt.having, select_items=stmt.items)
    for order in stmt.order_by:
        binder.bind_expr(order.expr, select_items=stmt.items)

    # Duplicate output names (e.g. "select r1.a, r2.a") are allowed, as in
    # SQL; later clauses resolving such a name bind its first occurrence.
    del output_names
    return BoundQuery(stmt, schema, aliases)


class _Binder:
    def __init__(self, aliases: Dict[str, RelationSchema]) -> None:
        self._aliases = aliases

    def bind_expr(
        self,
        expr: ast.Expr,
        select_items: Optional[List[ast.SelectItem]] = None,
    ) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Column):
                node.name = self._resolve(node.name, select_items)

    def _resolve(
        self,
        name: str,
        select_items: Optional[List[ast.SelectItem]],
    ) -> str:
        if "." in name:
            alias, attr = name.split(".", 1)
            rel = self._aliases.get(alias)
            if rel is None:
                raise SQLAnalysisError(f"unknown alias {alias!r} in {name!r}")
            if attr not in rel:
                raise SQLAnalysisError(
                    f"relation {rel.name!r} has no attribute {attr!r}"
                )
            return name
        # select-list aliases win in HAVING / ORDER BY contexts
        if select_items is not None:
            for item in select_items:
                if item.alias == name:
                    if isinstance(item.expr, ast.Column):
                        return item.expr.name
                    # refer to the computed output column by its alias
                    return name
        candidates = [
            alias for alias, rel in self._aliases.items() if name in rel
        ]
        if len(candidates) == 1:
            return f"{candidates[0]}.{name}"
        if not candidates:
            if select_items is not None and any(
                item.output_name() == name for item in select_items
            ):
                return name
            raise SQLAnalysisError(f"unknown column {name!r}")
        raise SQLAnalysisError(
            f"ambiguous column {name!r} (candidates: {sorted(candidates)})"
        )


@dataclass
class BoundCompound:
    """A bound UNION ALL / EXCEPT ALL chain."""

    op: str  # "union" | "except"
    left: "Union[BoundQuery, BoundCompound]"
    right: BoundQuery


def bind_any(stmt, schema: DatabaseSchema):
    """Bind a SelectStmt or CompoundSelect."""
    if isinstance(stmt, ast.CompoundSelect):
        return BoundCompound(
            stmt.op, bind_any(stmt.left, schema), bind(stmt.right, schema)
        )
    return bind(stmt, schema)


def build_plan_any(bound) -> algebra.PlanNode:
    """Build the RA plan of a bound (possibly compound) query."""
    if isinstance(bound, BoundCompound):
        left = build_plan_any(bound.left)
        right = build_plan(bound.right)
        if bound.op == "union":
            return algebra.UnionNode(left, right)
        return algebra.DifferenceNode(left, right)
    return build_plan(bound)


def plan_sql(sql: str, schema: DatabaseSchema):
    """Parse, bind and plan a SQL string (compound selects included)."""
    bound = bind_any(parse(sql), schema)
    return build_plan_any(bound), bound


# --- plan construction ----------------------------------------------------


def build_plan(bound: BoundQuery) -> algebra.PlanNode:
    stmt = bound.stmt
    conjunct_list = ast.conjuncts(stmt.where)

    per_alias: Dict[str, List[ast.Expr]] = {a: [] for a in bound.aliases}
    join_equalities: List[Tuple[str, str]] = []
    residuals: List[ast.Expr] = []

    for conj in conjunct_list:
        cols = conj.columns()
        involved = {c.split(".", 1)[0] for c in cols}
        if _is_join_equality(conj):
            left, right = conj.left.name, conj.right.name  # type: ignore[attr-defined]
            if left.split(".", 1)[0] != right.split(".", 1)[0]:
                join_equalities.append((left, right))
            else:
                per_alias[left.split(".", 1)[0]].append(conj)
            continue
        if len(involved) == 1:
            per_alias[involved.pop()].append(conj)
        else:
            residuals.append(conj)

    plan = _build_join_tree(bound, per_alias, join_equalities, residuals)
    plan = _apply_late_residuals(plan, residuals)
    return _build_top(bound, plan)


def _is_join_equality(expr: ast.Expr) -> bool:
    return (
        isinstance(expr, ast.Cmp)
        and expr.op == "="
        and isinstance(expr.left, ast.Column)
        and isinstance(expr.right, ast.Column)
    )


def _equivalence_classes(
    aliases: Sequence[str], equalities: Sequence[Tuple[str, str]]
) -> Dict[str, Set[str]]:
    parent: Dict[str, str] = {}

    def find(x: str) -> str:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for left, right in equalities:
        parent.setdefault(left, left)
        parent.setdefault(right, right)
        union(left, right)

    classes: Dict[str, Set[str]] = {}
    for member in parent:
        classes.setdefault(find(member), set()).add(member)
    return classes


def _build_join_tree(
    bound: BoundQuery,
    per_alias: Dict[str, List[ast.Expr]],
    equalities: List[Tuple[str, str]],
    residuals: List[ast.Expr],
) -> algebra.PlanNode:
    aliases = list(bound.aliases)
    classes = _equivalence_classes(aliases, equalities)
    attr_class: Dict[str, Set[str]] = {}
    for members in classes.values():
        for member in members:
            attr_class[member] = members

    def score(alias: str) -> Tuple[int, int, str]:
        preds = per_alias.get(alias, [])
        n_const = sum(1 for p in preds if _binds_constant(p))
        return (n_const, len(preds), alias)

    remaining = sorted(aliases, key=score, reverse=True)
    first = remaining.pop(0)
    plan = _leaf(bound, first, per_alias, classes)
    joined = {first}
    covered_attrs = set(plan.output)

    while remaining:
        chosen = None
        for alias in remaining:
            if _connected(alias, covered_attrs, attr_class, bound):
                chosen = alias
                break
        if chosen is None:
            chosen = remaining[0]
        remaining.remove(chosen)
        right = _leaf(bound, chosen, per_alias, classes)
        equi = _equi_pairs(covered_attrs, set(right.output), attr_class)
        if equi:
            plan = algebra.JoinNode(plan, right, equi)
        else:
            plan = algebra.CrossNode(plan, right)
        joined.add(chosen)
        covered_attrs |= set(right.output)
    return plan


def _binds_constant(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.Cmp) and expr.op == "=":
        sides = (expr.left, expr.right)
        return any(isinstance(s, ast.Column) for s in sides) and any(
            isinstance(s, ast.Lit) for s in sides
        )
    return isinstance(expr, ast.InList) and isinstance(expr.operand, ast.Column)


def _leaf(
    bound: BoundQuery,
    alias: str,
    per_alias: Dict[str, List[ast.Expr]],
    classes: Dict[str, Set[str]],
) -> algebra.PlanNode:
    """Scan ``alias`` under its own predicates, plus the equalities its
    equivalence classes imply between two of its attributes — a join
    then equates one member per class, so every member ends up equal."""
    rel = bound.aliases[alias]
    scan = algebra.ScanNode(rel.name, alias)
    scan.output = tuple(f"{alias}.{a}" for a in rel.attribute_names)
    predicates = list(per_alias.get(alias, []))
    for members in classes.values():
        own = sorted(m for m in members if m.split(".", 1)[0] == alias)
        predicates += [
            ast.Cmp("=", ast.Column(own[0]), ast.Column(other))
            for other in own[1:]
        ]
    predicate = ast.make_and(predicates)
    if predicate is None:
        return scan
    return algebra.SelectNode(scan, predicate)


def _connected(
    alias: str,
    covered: Set[str],
    attr_class: Dict[str, Set[str]],
    bound: BoundQuery,
) -> bool:
    prefix = alias + "."
    for attr, members in attr_class.items():
        if attr.startswith(prefix) and any(m in covered for m in members):
            return True
    return False


def _equi_pairs(
    left_attrs: Set[str],
    right_attrs: Set[str],
    attr_class: Dict[str, Set[str]],
) -> List[Tuple[str, str]]:
    pairs: List[Tuple[str, str]] = []
    seen_classes = set()
    for attr in sorted(right_attrs):
        members = attr_class.get(attr)
        if not members:
            continue
        class_id = id(members)
        if class_id in seen_classes:
            continue
        lefts = sorted(m for m in members if m in left_attrs)
        if lefts:
            pairs.append((lefts[0], attr))
            seen_classes.add(class_id)
    return pairs


def _apply_late_residuals(
    plan: algebra.PlanNode, residuals: List[ast.Expr]
) -> algebra.PlanNode:
    predicate = ast.make_and(residuals)
    if predicate is None:
        return plan
    missing = predicate.columns() - set(plan.output)
    if missing:
        raise SQLAnalysisError(f"residual predicate references {missing}")
    return algebra.SelectNode(plan, predicate)


def _build_top(bound: BoundQuery, plan: algebra.PlanNode) -> algebra.PlanNode:
    stmt = bound.stmt
    has_aggs = bool(stmt.group_by) or any(
        item.expr.contains_aggregate() for item in stmt.items
    )
    if has_aggs:
        return _build_aggregate_top(bound, plan)
    return _build_plain_top(bound, plan)


def _build_plain_top(bound: BoundQuery, plan: algebra.PlanNode) -> algebra.PlanNode:
    stmt = bound.stmt
    items = [(item.output_name(), item.expr) for item in stmt.items]
    output_names = [name for name, _ in items]

    if stmt.order_by and _order_needs_input(stmt, set(plan.output)):
        if stmt.distinct:
            raise UnsupportedSQLError(
                "ORDER BY on non-projected columns with DISTINCT"
            )
        plan = algebra.OrderByNode(
            plan, [(o.expr, o.ascending) for o in stmt.order_by]
        )
        plan = algebra.ProjectNode(plan, items)
        if stmt.limit is not None:
            plan = algebra.LimitNode(plan, stmt.limit)
        return plan

    plan = algebra.ProjectNode(plan, items)
    if stmt.distinct:
        plan = algebra.DistinctNode(plan)
    if stmt.order_by:
        keys = [
            (_rewrite_for_output(o.expr, stmt.items), o.ascending)
            for o in stmt.order_by
        ]
        plan = algebra.OrderByNode(plan, keys)
    if stmt.limit is not None:
        plan = algebra.LimitNode(plan, stmt.limit)
    return plan


def _order_needs_input(stmt: ast.SelectStmt, input_attrs: Set[str]) -> bool:
    """True when some ORDER BY expression is not over the select list."""
    outputs = {item.output_name() for item in stmt.items}
    exprs = {str(item.expr) for item in stmt.items}
    for order in stmt.order_by:
        if str(order.expr) in exprs:
            continue
        if isinstance(order.expr, ast.Column) and (
            order.expr.name in outputs
            or any(
                isinstance(i.expr, ast.Column) and i.expr.name == order.expr.name
                for i in stmt.items
            )
        ):
            continue
        return True
    return False


def _rewrite_for_output(
    expr: ast.Expr, items: List[ast.SelectItem]
) -> ast.Expr:
    """Rewrite an ORDER BY expression to reference output column names."""
    for item in items:
        if str(item.expr) == str(expr):
            return ast.Column(item.output_name())
        if (
            isinstance(expr, ast.Column)
            and isinstance(item.expr, ast.Column)
            and item.expr.name == expr.name
        ):
            return ast.Column(item.output_name())
    if isinstance(expr, ast.Column):
        return ast.Column(expr.name)
    return expr


def _build_aggregate_top(
    bound: BoundQuery, plan: algebra.PlanNode
) -> algebra.PlanNode:
    stmt = bound.stmt
    keys = [c.name for c in stmt.group_by]
    key_set = set(keys)
    alias_map: Dict[str, ast.Expr] = {
        item.alias: item.expr for item in stmt.items if item.alias
    }

    agg_specs: Dict[str, algebra.AggSpec] = {}

    def register(agg: ast.AggCall) -> str:
        internal = str(agg)
        if internal not in agg_specs:
            agg_specs[internal] = algebra.AggSpec(
                internal, agg.func, agg.arg, agg.distinct
            )
        return internal

    final_items: List[Tuple[str, ast.Expr]] = []
    for item in stmt.items:
        name = item.output_name()
        expr = item.expr
        if isinstance(expr, ast.Column):
            if expr.name not in key_set:
                raise SQLAnalysisError(
                    f"column {expr.name} must appear in GROUP BY"
                )
            final_items.append((name, ast.Column(expr.name)))
            continue
        rewritten = _lift_aggregates(expr, register, key_set, alias_map)
        final_items.append((name, rewritten))

    for extra in ast.conjuncts(stmt.having):
        _lift_aggregates(extra, register, key_set, alias_map)
    for order in stmt.order_by:
        _lift_aggregates(order.expr, register, key_set, alias_map)

    plan = algebra.GroupByNode(
        plan, keys, list(keys), list(agg_specs.values())
    )

    if stmt.having is not None:
        having = _lift_aggregates(stmt.having, register, key_set, alias_map)
        plan = algebra.SelectNode(plan, having)

    if stmt.order_by:
        order_keys = []
        for order in stmt.order_by:
            expr = _lift_aggregates(order.expr, register, key_set, alias_map)
            order_keys.append((expr, order.ascending))
        plan = algebra.OrderByNode(plan, order_keys)
    if stmt.limit is not None:
        plan = algebra.LimitNode(plan, stmt.limit)
    plan = algebra.ProjectNode(plan, final_items)
    return plan


def _lift_aggregates(
    expr: ast.Expr,
    register,
    key_set: Set[str],
    alias_map: Optional[Dict[str, ast.Expr]] = None,
) -> ast.Expr:
    """Replace AggCall sub-expressions with columns over group-by output.

    Column references naming a select-list alias (e.g. HAVING/ORDER BY on
    ``SUM(x) AS total``) are expanded to the aliased expression first.
    """
    alias_map = alias_map or {}
    if isinstance(expr, ast.AggCall):
        return ast.Column(register(expr))
    if isinstance(expr, ast.Column):
        if expr.name in key_set:
            return expr
        target = alias_map.get(expr.name)
        if target is not None and str(target) != str(expr):
            return _lift_aggregates(target, register, key_set, alias_map)
        raise SQLAnalysisError(
            f"column {expr.name} used outside aggregate must be a group key"
        )
    if isinstance(expr, ast.Lit):
        return expr
    if isinstance(expr, ast.Arith):
        return ast.Arith(
            expr.op,
            _lift_aggregates(expr.left, register, key_set, alias_map),
            _lift_aggregates(expr.right, register, key_set, alias_map),
        )
    if isinstance(expr, ast.Neg):
        return ast.Neg(
            _lift_aggregates(expr.operand, register, key_set, alias_map)
        )
    if isinstance(expr, ast.Cmp):
        return ast.Cmp(
            expr.op,
            _lift_aggregates(expr.left, register, key_set, alias_map),
            _lift_aggregates(expr.right, register, key_set, alias_map),
        )
    if isinstance(expr, ast.And):
        return ast.And(
            [_lift_aggregates(i, register, key_set, alias_map)
             for i in expr.items]
        )
    if isinstance(expr, ast.Or):
        return ast.Or(
            [_lift_aggregates(i, register, key_set, alias_map)
             for i in expr.items]
        )
    if isinstance(expr, ast.Not):
        return ast.Not(
            _lift_aggregates(expr.operand, register, key_set, alias_map)
        )
    raise UnsupportedSQLError(
        f"unsupported expression over aggregates: {expr}"
    )
