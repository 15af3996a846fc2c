"""KBA plan trees (§4.2).

A KBA plan is like an RA plan, except leaves are constants or KV
instances, with two operators unique to BaaV:

* :class:`Extend` (``∝``) — fetch-by-key "join" whose right operand (a KV
  schema, treated as a parameter) is *never scanned*: the child's rows
  supply the keys.
* :class:`Shift` (``↑``) — re-key an intermediate.

Scan-free plans (§4.2) have only :class:`Constant` leaves; the presence of
a :class:`ScanKV` or :class:`TaaVScan` leaf makes a plan non-scan-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.relational.types import Row
from repro.sql import ast
from repro.sql.algebra import AggSpec


class KBANode:
    """Base class of KBA plan nodes."""

    def children(self) -> Tuple["KBANode", ...]:
        return ()

    def describe(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [f"{pad}{self._label()}"]
        for child in self.children():
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)

    def _label(self) -> str:
        return type(self).__name__


@dataclass
class Constant(KBANode):
    """A constant keyed block: the leaf of scan-free plans."""

    attrs: Tuple[str, ...]
    keys: Tuple[Row, ...]

    def _label(self) -> str:
        preview = ", ".join(repr(k) for k in self.keys[:3])
        return f"Constant({', '.join(self.attrs)} = [{preview}])"


@dataclass
class ScanKV(KBANode):
    """Scan a whole KV instance (non-scan-free leaf, still block-local)."""

    kv_name: str
    alias: str

    def _label(self) -> str:
        return f"ScanKV({self.kv_name} AS {self.alias})"


@dataclass
class TaaVScan(KBANode):
    """Scan the TaaV store of a relation (fallback when R̃ has no coverage)."""

    relation: str
    alias: str

    def _label(self) -> str:
        return f"TaaVScan({self.relation} AS {self.alias})"


@dataclass
class IndexProbe(KBANode):
    """Fetch an alias through a secondary index: probe the index for the
    primary keys matching a non-key predicate, then ``multi_get`` the
    matching tuples from the TaaV store.

    Either an equality probe (``eq_values`` non-empty; hash or ordered
    index) or a bounded range walk (``lo``/``hi``; ordered index). The
    probe touches O(result) index entries and tuples, so — like the ∝
    chain — it is a *bounded* access path, not a scan: plans whose only
    leaves are constants and index probes count as scan-free.
    """

    relation: str
    alias: str
    attr: str            # indexed attribute (unqualified)
    kind: str            # "hash" | "ordered"
    eq_values: Tuple[object, ...] = ()
    lo: object = None
    hi: object = None
    lo_strict: bool = False
    hi_strict: bool = False

    def _label(self) -> str:
        from repro.index.selection import describe_predicate

        return (
            f"IndexProbe({self.relation} AS {self.alias} "
            f"via {self.kind} {describe_predicate(self)})"
        )


@dataclass
class Extend(KBANode):
    """``child ∝ R̃``: extend child rows by fetching blocks of ``kv_name``.

    ``on`` maps child attributes onto the KV schema's key attributes (in
    key order). ``value_attrs`` names the fetched value attributes in
    the output, one per value attribute of the KV schema, in its order:
    ``alias.attr``, or a temporary where that name would collide with an
    attribute already materialized (secondary fetches of one alias).
    """

    child: KBANode
    kv_name: str
    alias: str
    on: Tuple[Tuple[str, str], ...]  # (child attr, kv key attr)
    value_attrs: Tuple[str, ...]
    expose_key: Tuple[Tuple[str, str], ...] = ()
    # (kv key attr, exposed qualified name) for key attrs of the alias that
    # downstream operators reference; their values come from the probe.

    def children(self) -> Tuple[KBANode, ...]:
        return (self.child,)

    def _label(self) -> str:
        on = ", ".join(f"{c}->{k}" for c, k in self.on)
        return f"Extend(∝ {self.kv_name} AS {self.alias} on {on})"


@dataclass
class Shift(KBANode):
    """``child ↑ X'``: re-key the intermediate result."""

    child: KBANode
    new_key: Tuple[str, ...]

    def children(self) -> Tuple[KBANode, ...]:
        return (self.child,)

    def _label(self) -> str:
        return f"Shift(↑ {', '.join(self.new_key)})"


@dataclass
class SelectK(KBANode):
    """σ over keyed blocks."""

    child: KBANode
    predicate: ast.Expr

    def children(self) -> Tuple[KBANode, ...]:
        return (self.child,)

    def _label(self) -> str:
        return f"SelectK({self.predicate})"


@dataclass
class ProjectK(KBANode):
    """π over keyed blocks (merges multiplicities)."""

    child: KBANode
    attrs: Tuple[str, ...]

    def children(self) -> Tuple[KBANode, ...]:
        return (self.child,)

    def _label(self) -> str:
        return f"ProjectK({', '.join(self.attrs)})"


@dataclass
class JoinK(KBANode):
    """⋈ of two keyed-block sets on equality pairs."""

    left: KBANode
    right: KBANode
    on: Tuple[Tuple[str, str], ...]
    residual: Optional[ast.Expr] = None

    def children(self) -> Tuple[KBANode, ...]:
        return (self.left, self.right)

    def _label(self) -> str:
        on = ", ".join(f"{l}={r}" for l, r in self.on) or "TRUE"
        return f"JoinK({on})"


@dataclass
class UnionK(KBANode):
    """Bag union of two aligned block sets."""

    left: KBANode
    right: KBANode

    def children(self) -> Tuple[KBANode, ...]:
        return (self.left, self.right)


@dataclass
class DifferenceK(KBANode):
    """Bag difference of two aligned block sets."""

    left: KBANode
    right: KBANode

    def children(self) -> Tuple[KBANode, ...]:
        return (self.left, self.right)


@dataclass
class GroupK(KBANode):
    """group-by aggregate over keyed blocks."""

    child: KBANode
    keys: Tuple[str, ...]
    aggs: Tuple[AggSpec, ...]

    def children(self) -> Tuple[KBANode, ...]:
        return (self.child,)

    def _label(self) -> str:
        aggs = ", ".join(str(a) for a in self.aggs)
        return f"GroupK([{', '.join(self.keys)}]; {aggs})"


@dataclass
class StatsGroup(KBANode):
    """Aggregate a whole KV instance grouped by its key using block stats.

    The fast path of §8.2 feature (2): when a query groups an instance
    ``⟨X, Y⟩`` by exactly ``X`` and aggregates single ``Y`` attributes,
    the per-block statistics answer it without reading any block rows.
    """

    kv_name: str
    alias: str
    aggs: Tuple[AggSpec, ...]

    def _label(self) -> str:
        aggs = ", ".join(str(a) for a in self.aggs)
        return f"StatsGroup({self.kv_name} AS {self.alias}; {aggs})"


def bind(node: KBANode, binder: ast.Binder) -> KBANode:
    """The plan ``node`` is a template of, over ``binder``'s values.

    Four node kinds hold literals — :class:`Constant`,
    :class:`IndexProbe`, :class:`SelectK`, :class:`JoinK` — and are
    built again, as is every node above one; the rest is shared.
    """
    changes: dict[str, Any] = {}
    fields = node.__dict__
    for name in ("child", "left", "right"):
        child = fields.get(name)
        if child is not None:
            bound = bind(child, binder)
            if bound is not child:
                changes[name] = bound
    if isinstance(node, Constant):
        changes["keys"] = tuple([binder.row(key) for key in node.keys])
    elif isinstance(node, IndexProbe):
        changes["eq_values"] = binder.row(node.eq_values)
        changes["lo"] = binder.value(node.lo)
        changes["hi"] = binder.value(node.hi)
    elif isinstance(node, SelectK):
        changes["predicate"] = binder.expr(node.predicate)
    elif isinstance(node, JoinK) and node.residual is not None:
        changes["residual"] = binder.expr(node.residual)
    return ast.altered(node, **changes) if changes else node


def walk(node: KBANode):
    yield node
    for child in node.children():
        yield from walk(child)


def is_scan_free(plan: KBANode) -> bool:
    """A KBA plan is scan-free iff every leaf is bounded (§4.2, extended).

    The paper's leaves are constants; an :class:`IndexProbe` is likewise
    bounded — O(result) index entries plus keyed fetches — so it keeps a
    plan scan-free, while :class:`ScanKV`/:class:`TaaVScan`/
    :class:`StatsGroup` leaves do not.
    """
    return not any(
        isinstance(n, (ScanKV, TaaVScan, StatsGroup)) for n in walk(plan)
    )


def kv_schemas_used(plan: KBANode) -> List[str]:
    names: List[str] = []
    for node in walk(plan):
        if isinstance(node, (Extend, ScanKV, StatsGroup)):
            names.append(node.kv_name)
    return names
