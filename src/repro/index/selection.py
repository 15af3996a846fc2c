"""Index access-path selection: match query predicates to usable indexes.

Both planners funnel through here so "is there a usable index?" has one
answer everywhere:

* the KBA plan generator (:mod:`repro.core.plangen`) asks per *alias*,
  with predicates already digested into SPC terms and residuals;
* the baseline RA engine (:mod:`repro.parallel.engine`) asks per scan
  leaf, with the raw conjunct list of the selection above it.

A *catalog* is anything exposing ``equality_attrs(relation)`` and
``range_attrs(relation)`` (normally the
:class:`~repro.index.manager.IndexManager`). Equality beats range when
both are available — a point probe touches one posting list, a range
walk a run of buckets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

from repro.sql import ast


def describe_predicate(probe) -> str:
    """Render an index predicate (an :class:`IndexChoice` or a KBA
    ``IndexProbe``) — the one formatter every EXPLAIN surface shares."""
    if probe.eq_values:
        preview = ", ".join(repr(v) for v in probe.eq_values[:3])
        if len(probe.eq_values) > 3:
            preview += ", ..."
        return f"{probe.attr} = [{preview}]"
    lo, hi = probe.lo, probe.hi
    low = "" if lo is None else f"{lo!r} {'<' if probe.lo_strict else '<='} "
    high = "" if hi is None else f" {'<' if probe.hi_strict else '<='} {hi!r}"
    return f"{low}{probe.attr}{high}"


@dataclass(frozen=True)
class IndexChoice:
    """One chosen index access path for a relation occurrence."""

    relation: str
    alias: str
    attr: str            # indexed attribute (unqualified)
    kind: str            # "hash" | "ordered"
    eq_values: Tuple[object, ...] = ()   # equality/IN probe values
    lo: object = None
    hi: object = None
    lo_strict: bool = False
    hi_strict: bool = False

    def bind(self, binder: ast.Binder) -> "IndexChoice":
        """This path over ``binder``'s parameter values."""
        values, value = binder.row(self.eq_values), binder.value
        return replace(self, eq_values=values, lo=value(self.lo), hi=value(self.hi))

    def describe(self) -> str:
        return f"{self.kind} on {describe_predicate(self)}"


@dataclass
class _Bounds:
    lo: object = None
    hi: object = None
    lo_strict: bool = False
    hi_strict: bool = False

    def tighten_lo(self, value: object, strict: bool) -> None:
        if self.lo is None or value > self.lo or (
            value == self.lo and strict
        ):
            self.lo, self.lo_strict = value, strict

    def tighten_hi(self, value: object, strict: bool) -> None:
        if self.hi is None or value < self.hi or (
            value == self.hi and strict
        ):
            self.hi, self.hi_strict = value, strict

    @property
    def bounded(self) -> bool:
        return self.lo is not None or self.hi is not None


_RANGE_OPS = {"<", "<=", ">", ">="}


def _column_lit(expr: ast.Expr) -> Optional[Tuple[str, str, object]]:
    """Decompose ``col op lit`` / ``lit op col`` into (col, op, lit)."""
    if not isinstance(expr, ast.Cmp) or expr.op not in _RANGE_OPS | {"="}:
        return None
    if isinstance(expr.left, ast.Column) and isinstance(expr.right, ast.Lit):
        return expr.left.name, expr.op, expr.right.value
    if isinstance(expr.left, ast.Lit) and isinstance(expr.right, ast.Column):
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}
        return expr.right.name, flipped[expr.op], expr.left.value
    return None


def range_bounds_from_conjuncts(
    conjuncts: Sequence[ast.Expr], alias: str
) -> Dict[str, _Bounds]:
    """Per-attribute range bounds an alias's conjuncts pin down.

    Collects ``<``/``<=``/``>``/``>=`` comparisons against literals and
    ``BETWEEN`` over literals, combining multiple conjuncts on one
    attribute into the tightest window. Keys are unqualified attribute
    names of ``alias``.
    """
    prefix = alias + "."
    out: Dict[str, _Bounds] = {}

    def bounds_of(column: str) -> Optional[_Bounds]:
        if not column.startswith(prefix):
            return None
        return out.setdefault(column[len(prefix):], _Bounds())

    for conj in conjuncts:
        decomposed = _column_lit(conj)
        if decomposed is not None:
            column, op, value = decomposed
            if op == "=" or value is None:
                continue
            bounds = bounds_of(column)
            if bounds is None:
                continue
            if op in ("<", "<="):
                bounds.tighten_hi(value, op == "<")
            else:
                bounds.tighten_lo(value, op == ">")
            continue
        if (
            isinstance(conj, ast.Between)
            and isinstance(conj.operand, ast.Column)
            and isinstance(conj.low, ast.Lit)
            and isinstance(conj.high, ast.Lit)
            and conj.low.value is not None
            and conj.high.value is not None
        ):
            bounds = bounds_of(conj.operand.name)
            if bounds is None:
                continue
            bounds.tighten_lo(conj.low.value, False)
            bounds.tighten_hi(conj.high.value, False)
    return {attr: b for attr, b in out.items() if b.bounded}


def equality_values_from_conjuncts(
    conjuncts: Sequence[ast.Expr], alias: str
) -> Dict[str, Tuple[object, ...]]:
    """Per-attribute finite value sets bound by ``=`` / ``IN`` conjuncts."""
    prefix = alias + "."
    out: Dict[str, Tuple[object, ...]] = {}
    for conj in conjuncts:
        decomposed = _column_lit(conj)
        if decomposed is not None:
            column, op, value = decomposed
            if op == "=" and column.startswith(prefix) and value is not None:
                out[column[len(prefix):]] = (value,)
            continue
        if (
            isinstance(conj, ast.InList)
            and isinstance(conj.operand, ast.Column)
            and conj.operand.name.startswith(prefix)
        ):
            values = tuple(v for v in conj.values if v is not None)
            if values:
                out.setdefault(conj.operand.name[len(prefix):], values)
    return out


def choose_from_conjuncts(
    conjuncts: Sequence[ast.Expr],
    relation: str,
    alias: str,
    catalog,
) -> Optional[IndexChoice]:
    """Pick the best index access path a conjunct list allows (or None)."""
    if catalog is None:
        return None
    eq_attrs = catalog.equality_attrs(relation)
    if eq_attrs:
        equalities = equality_values_from_conjuncts(conjuncts, alias)
        for attr in sorted(eq_attrs):
            values = equalities.get(attr)
            if values:
                kind = _equality_kind(catalog, relation, attr)
                return IndexChoice(
                    relation, alias, attr, kind, eq_values=values
                )
    return _range_choice(conjuncts, relation, alias, catalog)


def _range_choice(
    conjuncts: Sequence[ast.Expr], relation: str, alias: str, catalog
) -> Optional[IndexChoice]:
    """The first ordered index one of ``conjuncts``' range windows fits."""
    range_attrs = catalog.range_attrs(relation)
    if range_attrs:
        bounds = range_bounds_from_conjuncts(conjuncts, alias)
        for attr in sorted(range_attrs):
            window = bounds.get(attr)
            if window is not None:
                return IndexChoice(relation, alias, attr, "ordered", **vars(window))
    return None


def _equality_kind(catalog, relation: str, attr: str) -> str:
    """The kind of index an equality probe on ``attr`` goes through."""
    index_for = getattr(catalog, "index_for", None)
    if index_for is None or index_for(relation, attr, "hash") is not None:
        return "hash"
    return "ordered"


def choose_for_alias(analysis, alias: str, relation: str, catalog):
    """Pick an index path from an SPC analysis (the KBA generator's view).

    Equality bindings come from the analysis's *terms* (``=`` constants
    and IN-lists are digested there, not kept as conjuncts); range
    windows come from its residual conjuncts.
    """
    if catalog is None:
        return None
    eq_attrs = catalog.equality_attrs(relation)
    for attr in sorted(eq_attrs):
        term = analysis.term_of(f"{alias}.{attr}")
        if term is None or not term.is_bound:
            continue
        values = (
            (term.constant,)
            if term.has_constant
            else tuple(v for v in (term.in_values or ()) if v is not None)
        )
        values = tuple(v for v in values if v is not None)
        if not values:
            continue
        kind = _equality_kind(catalog, relation, attr)
        return IndexChoice(relation, alias, attr, kind, eq_values=values)
    return _range_choice(analysis.residuals, relation, alias, catalog)
