"""Preservation checks — module M1 of Zidian (§5.2).

* Condition (I), Theorem 1: a BaaV schema ``R̃`` is *data preserving* for a
  database schema ``R`` iff for every relation R there is a KV schema whose
  closure covers ``att(R)``.
* Condition (II), Theorem 2: ``R̃`` is *result preserving* for an SPC query
  Q iff for every relation occurrence in ``min(Q)`` some KV schema's
  closure covers ``X_R^{min(Q)}``.
* Theorem 3 extends result preservation to RAaggr via max SPC sub-queries.
  In the supported SQL subset a query is an SPC core plus an optional
  group-by/having/order/limit top, so its unique max SPC sub-query is the
  core with the attributes needed above it treated as projection outputs —
  exactly what :class:`repro.sql.spc.SPCAnalysis` computes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set

from repro.baav.schema import BaaVSchema, KVSchema
from repro.core.closure import closures
from repro.relational.schema import DatabaseSchema
from repro.sql.minimize import minimize
from repro.sql.spc import SPCAnalysis


@dataclass
class PreservationReport:
    """Outcome of a data-preservation check."""

    preserved: bool
    #: relation -> KV schema name whose closure covers it (when preserved)
    witnesses: Dict[str, str] = field(default_factory=dict)
    #: relations with no covering closure
    missing: List[str] = field(default_factory=list)


def is_data_preserving(
    schema: DatabaseSchema, baav: BaaVSchema
) -> PreservationReport:
    """Check Condition (I) for every relation of ``schema``.

    One closure is tested per KV schema of the relation; the closures
    themselves (the O(|R̃|²) fixpoints of Theorem 1) are a derived fact
    of the BaaV schema. Closures are relation-qualified, so only a KV
    schema over the relation itself can cover it.
    """
    report = PreservationReport(preserved=True)
    for relation in schema:
        target = {f"{relation.name}.{a}" for a in relation.attribute_names}
        witness = covering_schema(relation.name, target, baav)
        if witness is None:
            report.preserved = False
            report.missing.append(relation.name)
        else:
            report.witnesses[relation.name] = witness.name
    return report


@dataclass
class ResultPreservationReport:
    """Outcome of a result-preservation check for one query."""

    preserved: bool
    #: alias (of min(Q)) -> witnessing KV schema name
    witnesses: Dict[str, str] = field(default_factory=dict)
    #: aliases of min(Q) whose X-attributes no closure covers
    missing: List[str] = field(default_factory=list)
    #: aliases surviving minimization
    minimal_aliases: FrozenSet[str] = frozenset()


def is_result_preserving(
    analysis: SPCAnalysis,
    baav: BaaVSchema,
    minimized: Optional[SPCAnalysis] = None,
) -> ResultPreservationReport:
    """Check Condition (II) on ``min(Q)``.

    ``minimized`` may be supplied to avoid recomputing ``min(Q)``.
    """
    minimal = minimized if minimized is not None else minimize(analysis)
    report = ResultPreservationReport(
        preserved=True, minimal_aliases=frozenset(minimal.atoms)
    )
    for alias, relation in minimal.atoms.items():
        target = {
            f"{relation}.{attr.split('.', 1)[1]}"
            for attr in minimal.x_attrs(alias)
        }
        witness = covering_schema(relation, target, baav)
        if witness is None:
            report.preserved = False
            report.missing.append(alias)
        else:
            report.witnesses[alias] = witness.name
    return report


def covering_schema(
    relation: str, target: Set[str], baav: BaaVSchema
) -> Optional[KVSchema]:
    """The first KV schema over ``relation`` whose closure covers
    ``target`` (relation-qualified attribute names)."""
    clo = closures(baav)
    for kv_schema in baav.over_relation(relation):
        if target <= clo[kv_schema.name]:
            return kv_schema
    return None
