"""Conjunctive (SPC) analysis of bound queries.

Zidian's decision procedures (§5.2 result preservability, §6.1 scan-free
checking) reason over the SPC structure of a query: its atoms (relation
occurrences), equality classes (terms), constant bindings, residual
(non-CQ) predicates and output attributes. :func:`analyze` extracts that
structure from a :class:`repro.sql.planner.BoundQuery`.

Terms follow the tableau view of CQs: every qualified attribute maps to a
term; equality conjuncts unify terms; a term may carry a constant. The
paper's ``X_R^Q`` ("attributes of R appearing in selection/join predicates
or the final projection") is exposed per alias via :meth:`SPCAnalysis.x_attrs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.sql import ast
from repro.sql.planner import BoundQuery

_NO_CONST = object()


@dataclass
class Term:
    """An equivalence class of attributes, optionally bound to a constant."""

    term_id: int
    attrs: Set[str] = field(default_factory=set)
    constant: object = _NO_CONST
    # attributes bound to a finite set of constants (IN lists)
    in_values: Optional[Tuple[object, ...]] = None

    @property
    def has_constant(self) -> bool:
        return self.constant is not _NO_CONST

    @property
    def is_bound(self) -> bool:
        """Bound to finitely many constants (= or IN)."""
        return self.has_constant or self.in_values is not None

    def __repr__(self) -> str:
        const = f"={self.constant!r}" if self.has_constant else ""
        if self.in_values is not None:
            const += f" IN {self.in_values!r}"
        return f"Term({sorted(self.attrs)}{const})"


def _bound_term(term: Term, binder: ast.Binder) -> Term:
    constant = binder.value(term.constant)
    in_values = term.in_values and binder.row(term.in_values)
    if constant is term.constant and in_values is term.in_values:
        return term
    return Term(term.term_id, term.attrs, constant, in_values)


class SPCAnalysis:
    """SPC structure of a bound query."""

    def __init__(self, bound: BoundQuery) -> None:
        self.bound = bound
        #: alias -> relation name
        self.atoms: Dict[str, str] = dict(bound.alias_relations)
        self.terms: List[Term] = []
        self._term_of: Dict[str, int] = {}
        #: conjuncts that are not CQ equalities (ranges, LIKE, OR, ...)
        self.residuals: List[ast.Expr] = []
        #: attributes referenced by residual conjuncts
        self.residual_attrs: Set[str] = set()
        #: attributes needed above the SPC core (projection, group keys,
        #: aggregate arguments, HAVING, ORDER BY)
        self.output_attrs: Set[str] = set()
        #: True when the WHERE clause is a pure conjunction of CQ equalities
        #: and simple residuals (no OR / NOT at top level)
        self.conjunctive = True
        #: True when the query is unsatisfiable (term with two constants)
        self.unsatisfiable = False
        self._build()

    # -- construction -----------------------------------------------------

    def _term(self, attr: str) -> Term:
        term_id = self._term_of.get(attr)
        if term_id is None:
            term = Term(len(self.terms), {attr})
            self.terms.append(term)
            self._term_of[attr] = term.term_id
            return term
        return self.terms[term_id]

    def _unify(self, a: str, b: str) -> None:
        term_a = self._term(a)
        term_b = self._term(b)
        if term_a.term_id == term_b.term_id:
            return
        self._merge(term_a, term_b)

    def _merge(self, into: Term, other: Term) -> None:
        if other.has_constant:
            if into.has_constant and into.constant != other.constant:
                self.unsatisfiable = True
            elif not into.has_constant:
                into.constant = other.constant
        if other.in_values is not None and into.in_values is None:
            into.in_values = other.in_values
        into.attrs |= other.attrs
        for attr in other.attrs:
            self._term_of[attr] = into.term_id
        other.attrs = set()

    def _bind_constant(self, attr: str, value: object) -> None:
        term = self._term(attr)
        if term.has_constant and term.constant != value:
            self.unsatisfiable = True
        term.constant = value

    def _bind_in(self, attr: str, values: Sequence[object]) -> None:
        term = self._term(attr)
        if term.in_values is None:
            term.in_values = tuple(values)

    def _build(self) -> None:
        stmt = self.bound.stmt

        for conj in ast.conjuncts(stmt.where):
            self._classify(conj)

        # every attribute mentioned anywhere gets a term
        for item in stmt.items:
            self._note_output(item.expr)
        for column in stmt.group_by:
            self._note_output(column)
        if stmt.having is not None:
            self._note_output(stmt.having)
        for order in stmt.order_by:
            self._note_output(order.expr)

    def _note_output(self, expr: ast.Expr) -> None:
        for attr in expr.columns():
            if "." in attr:  # skip references to derived output columns
                self._term(attr)
                self.output_attrs.add(attr)

    def _classify(self, conj: ast.Expr) -> None:
        if isinstance(conj, ast.Cmp) and conj.op == "=":
            left, right = conj.left, conj.right
            if isinstance(left, ast.Column) and isinstance(right, ast.Column):
                self._unify(left.name, right.name)
                return
            if isinstance(left, ast.Column) and isinstance(right, ast.Lit):
                self._bind_constant(left.name, right.value)
                return
            if isinstance(left, ast.Lit) and isinstance(right, ast.Column):
                self._bind_constant(right.name, left.value)
                return
        if isinstance(conj, ast.InList) and isinstance(conj.operand, ast.Column):
            self._bind_in(conj.operand.name, conj.values)
            self._add_residual(conj)
            return
        if isinstance(conj, (ast.Or, ast.Not)):
            self.conjunctive = False
        self._add_residual(conj)

    def _add_residual(self, conj: ast.Expr) -> None:
        self.residuals.append(conj)
        for attr in conj.columns():
            if "." in attr:
                self._term(attr)
                self.residual_attrs.add(attr)

    def bind(self, bound: BoundQuery, binder: ast.Binder) -> "SPCAnalysis":
        """This analysis as ``bound``'s — the analysed statement over
        ``binder``'s parameter values. Only terms and residuals hold
        literals; the rest is shared with ``self``."""
        return ast.altered(
            self,
            bound=bound,
            terms=[_bound_term(term, binder) for term in self.terms],
            residuals=[binder.expr(r) for r in self.residuals],
        )

    # -- accessors ----------------------------------------------------------

    def term_of(self, attr: str) -> Optional[Term]:
        term_id = self._term_of.get(attr)
        return None if term_id is None else self.terms[term_id]

    def live_terms(self) -> List[Term]:
        return [t for t in self.terms if t.attrs]

    def alias_of(self, attr: str) -> str:
        return attr.split(".", 1)[0]

    def attrs_of_alias(self, alias: str) -> Set[str]:
        prefix = alias + "."
        return {a for a in self._term_of if a.startswith(prefix)}

    def constant_bound_attrs(self) -> Set[str]:
        """The paper's X_C^Q plus IN-bound attributes (finitely many gets)."""
        out: Set[str] = set()
        for term in self.live_terms():
            if term.is_bound:
                out |= term.attrs
        return out

    def x_attrs(self, alias: str) -> Set[str]:
        """The paper's X_R^Q for the atom ``alias``.

        An attribute of the alias is in X when it occurs in the final
        projection (or group keys / aggregate arguments / HAVING / ORDER),
        in a residual predicate, or in an equality with another attribute
        or a constant (i.e. its term has more members or is bound).
        """
        out: Set[str] = set()
        prefix = alias + "."
        for attr in self.attrs_of_alias(alias):
            if not attr.startswith(prefix):
                continue
            if attr in self.output_attrs or attr in self.residual_attrs:
                out.add(attr)
                continue
            term = self.term_of(attr)
            if term is not None and (term.is_bound or len(term.attrs) > 1):
                out.add(attr)
        return out

    def join_edges(self) -> List[Tuple[str, str]]:
        """Pairs of aliases connected by some equality term."""
        edges: Set[Tuple[str, str]] = set()
        for term in self.live_terms():
            aliases = sorted({self.alias_of(a) for a in term.attrs})
            for i, left in enumerate(aliases):
                for right in aliases[i + 1:]:
                    edges.add((left, right))
        return sorted(edges)

    def describe(self) -> str:
        lines = [f"atoms: {self.atoms}"]
        for term in self.live_terms():
            lines.append(f"  {term}")
        if self.residuals:
            lines.append(f"residuals: {[str(r) for r in self.residuals]}")
        lines.append(f"outputs: {sorted(self.output_attrs)}")
        return "\n".join(lines)


def analyze(bound: BoundQuery) -> SPCAnalysis:
    """Extract the SPC structure of a bound query."""
    return SPCAnalysis(bound)
