"""AST for the supported SQL subset.

The subset covers what the paper's evaluation needs: select-project-join
queries with conjunctive (and disjunctive) predicates, arithmetic in the
select list, group-by aggregates (SUM/COUNT/AVG/MIN/MAX), HAVING, ORDER BY,
LIMIT, DISTINCT, IN-lists, BETWEEN, LIKE and IS [NOT] NULL.

Column references are created unqualified or ``alias.attr`` by the parser;
the planner *binds* them, rewriting every reference to its qualified
``alias.attr`` form in place of ambiguity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from functools import cache
from operator import is_
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, TypeVar
from typing import Union

from repro.errors import ExecutionError, SQLAnalysisError

Env = dict  # qualified attribute name -> value
_T = TypeVar("_T")


def _param_type(base: type) -> type:
    """A ``base`` that knows which parameter of its statement it is.

    A statement planned as a *shape* (``docs/ARCHITECTURE.md``,
    "Statement shapes and plan reuse") carries its WHERE/ON literals as
    these: equal, ordered, hashed and printed as the plain value, so
    the planner handles them as it handles any constant, while
    :class:`Binder` can find each one in whatever the planner built and
    put another statement's value in its place. The type goes by
    ``base``'s name: a ``TypeError`` over two literals that do not
    compare reads as it did.
    """
    return type(base.__name__, (base,), {"__module__": __name__, "slot": -1})


_PARAM_TYPE = {base: _param_type(base) for base in (int, float, str)}
_PARAM_TYPES = frozenset(_PARAM_TYPE.values())


def param(value: object, slot: int) -> object:
    """``value`` as parameter ``slot`` of its statement."""
    tagged = _PARAM_TYPE[type(value)](value)
    tagged.slot = slot
    return tagged


class Expr:
    """Base class of scalar expressions."""

    def eval(self, env: Env) -> object:
        raise NotImplementedError

    def columns(self) -> Set[str]:
        """Qualified column names referenced by this expression."""
        out: Set[str] = set()
        self._collect(out)
        return out

    def _collect(self, out: Set[str]) -> None:
        raise NotImplementedError

    def contains_aggregate(self) -> bool:
        return any(isinstance(e, AggCall) for e in walk(self))

    def children(self) -> Tuple["Expr", ...]:
        return ()


def walk(expr: Expr) -> Iterable[Expr]:
    """Yield ``expr`` and all its descendants."""
    yield expr
    for child in expr.children():
        yield from walk(child)


@dataclass
class Column(Expr):
    """A column reference; ``name`` is qualified after binding."""

    name: str

    def eval(self, env: Env) -> object:
        try:
            return env[self.name]
        except KeyError:
            raise ExecutionError(f"unbound column {self.name!r}") from None

    def _collect(self, out: Set[str]) -> None:
        out.add(self.name)

    def __str__(self) -> str:
        return self.name


@dataclass
class Lit(Expr):
    """A literal constant."""

    value: object

    def eval(self, env: Env) -> object:
        return self.value

    def _collect(self, out: Set[str]) -> None:
        pass

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return "'" + self.value.replace("'", "''") + "'"
        return str(self.value)


@dataclass
class Arith(Expr):
    """Binary arithmetic: ``+ - * /``. NULL-propagating."""

    op: str
    left: Expr
    right: Expr

    def eval(self, env: Env) -> object:
        left = self.left.eval(env)
        right = self.right.eval(env)
        if left is None or right is None:
            return None
        if self.op == "+":
            return left + right
        if self.op == "-":
            return left - right
        if self.op == "*":
            return left * right
        if self.op == "/":
            if right == 0:
                return None
            return left / right
        raise ExecutionError(f"unknown arithmetic operator {self.op!r}")

    def _collect(self, out: Set[str]) -> None:
        self.left._collect(out)
        self.right._collect(out)

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass
class Neg(Expr):
    """Unary minus."""

    operand: Expr

    def eval(self, env: Env) -> object:
        value = self.operand.eval(env)
        return None if value is None else -value

    def _collect(self, out: Set[str]) -> None:
        self.operand._collect(out)

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"(-{self.operand})"


_CMP_OPS = {"=", "<>", "<", "<=", ">", ">="}


@dataclass
class Cmp(Expr):
    """Comparison; SQL three-valued logic collapsed to False on NULL."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _CMP_OPS:
            raise SQLAnalysisError(f"unknown comparison operator {self.op!r}")

    def eval(self, env: Env) -> object:
        left = self.left.eval(env)
        right = self.right.eval(env)
        if left is None or right is None:
            return False
        if self.op == "=":
            return left == right
        if self.op == "<>":
            return left != right
        if self.op == "<":
            return left < right
        if self.op == "<=":
            return left <= right
        if self.op == ">":
            return left > right
        return left >= right

    def _collect(self, out: Set[str]) -> None:
        self.left._collect(out)
        self.right._collect(out)

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass
class And(Expr):
    items: List[Expr]

    def eval(self, env: Env) -> object:
        return all(item.eval(env) for item in self.items)

    def _collect(self, out: Set[str]) -> None:
        for item in self.items:
            item._collect(out)

    def children(self) -> Tuple[Expr, ...]:
        return tuple(self.items)

    def __str__(self) -> str:
        return " AND ".join(f"({i})" for i in self.items)


@dataclass
class Or(Expr):
    items: List[Expr]

    def eval(self, env: Env) -> object:
        return any(item.eval(env) for item in self.items)

    def _collect(self, out: Set[str]) -> None:
        for item in self.items:
            item._collect(out)

    def children(self) -> Tuple[Expr, ...]:
        return tuple(self.items)

    def __str__(self) -> str:
        return " OR ".join(f"({i})" for i in self.items)


@dataclass
class Not(Expr):
    operand: Expr

    def eval(self, env: Env) -> object:
        return not self.operand.eval(env)

    def _collect(self, out: Set[str]) -> None:
        self.operand._collect(out)

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"NOT ({self.operand})"


@dataclass
class InList(Expr):
    """``expr IN (v1, ..., vn)`` over literal values."""

    operand: Expr
    values: List[object]

    def eval(self, env: Env) -> object:
        value = self.operand.eval(env)
        if value is None:
            return False
        return value in self.values

    def _collect(self, out: Set[str]) -> None:
        self.operand._collect(out)

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        inner = ", ".join(str(Lit(v)) for v in self.values)
        return f"{self.operand} IN ({inner})"


@dataclass
class Between(Expr):
    """``expr BETWEEN lo AND hi`` (inclusive)."""

    operand: Expr
    low: Expr
    high: Expr

    def eval(self, env: Env) -> object:
        value = self.operand.eval(env)
        low = self.low.eval(env)
        high = self.high.eval(env)
        if value is None or low is None or high is None:
            return False
        return low <= value <= high

    def _collect(self, out: Set[str]) -> None:
        self.operand._collect(out)
        self.low._collect(out)
        self.high._collect(out)

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand, self.low, self.high)

    def __str__(self) -> str:
        return f"{self.operand} BETWEEN {self.low} AND {self.high}"


@dataclass
class Like(Expr):
    """``expr LIKE pattern`` with ``%`` and ``_`` wildcards."""

    operand: Expr
    pattern: str
    _regex: Optional[re.Pattern] = field(
        default=None, init=False, repr=False, compare=False
    )

    def _compiled(self) -> re.Pattern:
        if self._regex is None:
            regex = re.escape(self.pattern).replace("%", ".*").replace("_", ".")
            self._regex = re.compile(f"^{regex}$", re.DOTALL)
        return self._regex

    def eval(self, env: Env) -> object:
        value = self.operand.eval(env)
        if value is None:
            return False
        return bool(self._compiled().match(str(value)))

    def _collect(self, out: Set[str]) -> None:
        self.operand._collect(out)

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"{self.operand} LIKE '{self.pattern}'"


@dataclass
class IsNull(Expr):
    """``expr IS NULL`` (``IS NOT NULL`` parses as ``Not(IsNull(expr))``)."""

    operand: Expr

    def eval(self, env: Env) -> object:
        return self.operand.eval(env) is None

    def _collect(self, out: Set[str]) -> None:
        self.operand._collect(out)

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"{self.operand} IS NULL"


AGG_FUNCS = ("SUM", "COUNT", "AVG", "MIN", "MAX")


@dataclass
class AggCall(Expr):
    """An aggregate call; ``arg=None`` means ``COUNT(*)``."""

    func: str
    arg: Optional[Expr]
    distinct: bool = False

    def __post_init__(self) -> None:
        self.func = self.func.upper()
        if self.func not in AGG_FUNCS:
            raise SQLAnalysisError(f"unknown aggregate {self.func!r}")
        if self.arg is None and self.func != "COUNT":
            raise SQLAnalysisError(f"{self.func}(*) is not valid")

    def eval(self, env: Env) -> object:
        # Aggregates are evaluated by the group-by operator, which binds
        # their result under their output name; direct eval looks it up.
        try:
            return env[str(self)]
        except KeyError:
            raise ExecutionError(
                f"aggregate {self} evaluated outside GROUP BY"
            ) from None

    def _collect(self, out: Set[str]) -> None:
        if self.arg is not None:
            self.arg._collect(out)

    def children(self) -> Tuple[Expr, ...]:
        return (self.arg,) if self.arg is not None else ()

    def __str__(self) -> str:
        inner = "*" if self.arg is None else str(self.arg)
        prefix = "DISTINCT " if self.distinct else ""
        return f"{self.func}({prefix}{inner})"


# --- statements ---------------------------------------------------------


@dataclass
class TableRef:
    """``relation [AS] alias`` in the FROM clause."""

    relation: str
    alias: str

    def __str__(self) -> str:
        if self.relation == self.alias:
            return self.relation
        return f"{self.relation} AS {self.alias}"


@dataclass
class SelectItem:
    """One item of the select list."""

    expr: Expr
    alias: Optional[str] = None

    def output_name(self) -> str:
        if self.alias:
            return self.alias
        if isinstance(self.expr, Column):
            return self.expr.name.split(".")[-1]
        return str(self.expr)

    def __str__(self) -> str:
        if self.alias:
            return f"{self.expr} AS {self.alias}"
        return str(self.expr)


@dataclass
class OrderItem:
    expr: Expr
    ascending: bool = True

    def __str__(self) -> str:
        return f"{self.expr} {'ASC' if self.ascending else 'DESC'}"


@dataclass
class SelectStmt:
    """A parsed SELECT statement."""

    items: List[SelectItem]
    tables: List[TableRef]
    where: Optional[Expr] = None
    group_by: List[Column] = field(default_factory=list)
    having: Optional[Expr] = None
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    distinct: bool = False
    star: bool = False

    def __str__(self) -> str:
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        parts.append("*" if self.star else ", ".join(str(i) for i in self.items))
        parts.append("FROM")
        parts.append(", ".join(str(t) for t in self.tables))
        if self.where is not None:
            parts.append(f"WHERE {self.where}")
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(str(c) for c in self.group_by))
        if self.having is not None:
            parts.append(f"HAVING {self.having}")
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(str(o) for o in self.order_by))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        return " ".join(parts)


@dataclass
class CompoundSelect:
    """``left UNION ALL right`` or ``left EXCEPT ALL right``.

    Bag semantics only (ALL is mandatory), matching KBA's ∪ and −.
    """

    op: str  # "union" | "except"
    left: "Union[SelectStmt, CompoundSelect]"
    right: SelectStmt

    def __str__(self) -> str:
        keyword = "UNION ALL" if self.op == "union" else "EXCEPT ALL"
        return f"{self.left} {keyword} {self.right}"


def altered(node: _T, **changes: object) -> _T:
    """A shallow copy of ``node`` with some attributes changed:
    ``dataclasses.replace`` for a node whose ``__init__`` derives
    nothing from them, at a fraction of its cost."""
    clone = object.__new__(type(node))
    clone.__dict__.update(node.__dict__)
    clone.__dict__.update(changes)
    return clone


class Binder:
    """Puts one statement's parameter values into what was planned for
    another statement of its shape.

    Nothing is changed in place: a node that holds a parameter, or has
    a descendant that does, is built again and everything else is
    shared — so what a template holds must never be mutated. A node
    met twice (a residual sits in the statement, its analysis and its
    plan) is rebuilt once.
    """

    def __init__(self, values: Sequence[object]) -> None:
        self.values = values
        self._done: Dict[int, Expr] = {}

    def value(self, value: object) -> object:
        if type(value) in _PARAM_TYPES:
            return self.values[value.slot]  # type: ignore[attr-defined]
        return value

    def row(self, row: Sequence[object]) -> tuple:
        return tuple([self.value(v) for v in row])

    def expr(self, expr: Expr) -> Expr:
        if type(expr) is Column:
            return expr
        if type(expr) is Lit:
            value = self.value(expr.value)
            return expr if value is expr.value else Lit(value)
        bound = self._done.get(id(expr))
        if bound is None:
            bound = self._done[id(expr)] = self._rebuilt(expr)
        return bound

    def _rebuilt(self, expr: Expr) -> Expr:
        args = []
        same = True
        for name in _init_fields(type(expr)):
            old = getattr(expr, name)
            if isinstance(old, Expr):
                new: object = self.expr(old)
            elif type(old) is list:
                new = [
                    self.expr(v) if isinstance(v, Expr) else self.value(v)
                    for v in old
                ]
                if all(map(is_, new, old)):
                    new = old
            else:
                new = self.value(old)
            same = same and new is old
            args.append(new)
        return expr if same else type(expr)(*args)


@cache
def _init_fields(cls: type) -> Tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.init)


def conjuncts(expr: Optional[Expr]) -> List[Expr]:
    """Flatten an expression into its top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, And):
        out: List[Expr] = []
        for item in expr.items:
            out.extend(conjuncts(item))
        return out
    return [expr]


def make_and(items: Sequence[Expr]) -> Optional[Expr]:
    """Combine predicates with AND; None for the empty list."""
    items = [i for i in items if i is not None]
    if not items:
        return None
    if len(items) == 1:
        return items[0]
    return And(list(items))
