"""The per-query candidate table shared by M1's chase and M2's chain.

GET/VC (:mod:`repro.core.scanfree`) and the ∝-chain builder
(:mod:`repro.core.plangen`) both enumerate the same thing over and over:
for every relation occurrence (alias) of the query, the KV schemas
declared over its relation, with the schema's attributes spelled as
alias-qualified query attributes (``F.flight_id``). None of that depends
on how far the chase has got, so it is computed once per query, here;
the chase loops only test set membership against it.

The table is sized by the query: only KV schemas over relations the query
mentions enter it, whatever else the BaaV schema holds.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

from repro.baav.schema import BaaVSchema, KVSchema
from repro.sql.spc import SPCAnalysis, Term


class Candidate:
    """One ``(alias, KV schema)`` pair of a query; all names alias-qualified."""

    __slots__ = (
        "alias",
        "schema",
        "attrs",
        "keys",
        "values",
        "attr_set",
        "pk_set",
        "needed",
        "termed",
        "refetch_pk",
    )

    def __init__(
        self,
        alias: str,
        schema: KVSchema,
        terms: Dict[str, Term],
        needed: FrozenSet[str],
    ) -> None:
        prefix = alias + "."
        self.alias = alias
        self.schema = schema
        #: ``att(R̃)``, key first, aligned with ``schema.attributes``
        self.attrs: Tuple[str, ...] = tuple([prefix + a for a in schema.attributes])
        self.keys = self.attrs[: len(schema.key)]
        self.values = self.attrs[len(schema.key) :]
        self.attr_set: FrozenSet[str] = frozenset(self.attrs)
        self.pk_set: FrozenSet[str] = frozenset(
            [prefix + a for a in schema.primary_key]
        )
        #: the attributes a plan must keep materialized, among ``attrs``
        self.needed: FrozenSet[str] = self.attr_set & needed
        #: the attributes the query mentions, each with its equality term,
        #: in ``attrs`` order — the rest of ``attrs`` has no term
        self.termed: Tuple[Tuple[str, Term], ...] = tuple(
            [(a, terms[a]) for a in self.attrs if a in terms]
        )
        #: fetching this schema for an alias that has already fetched
        #: attributes is combination-correct only when the relation's
        #: primary key ties the two fetches: within XY here (else
        #: ``None`` — the schema cannot be re-fetched at all) and among
        #: what the alias has fetched, which the plan generator checks.
        #: The tuple is the key's non-key part: the attributes the ∝'s
        #: ``#dup`` check compares.
        pk = schema.relation.primary_key
        self.refetch_pk: Optional[Tuple[str, ...]] = None
        if pk and schema.attribute_set.issuperset(pk):
            self.refetch_pk = tuple([prefix + a for a in pk if a not in schema.key])


class CandidateTable:
    """Every candidate of one query, plus the per-alias query facts."""

    __slots__ = ("needed", "by_alias", "pairs", "x_attrs")

    def __init__(self, analysis: SPCAnalysis, baav: BaaVSchema) -> None:
        needed = set(analysis.output_attrs) | analysis.residual_attrs
        for term in analysis.live_terms():
            if term.is_bound or len(term.attrs) > 1:
                needed |= term.attrs
        #: attributes some operator above a fetch still reads
        self.needed: FrozenSet[str] = frozenset(needed)
        #: alias (sorted) -> its candidates in BaaV schema order
        self.by_alias: Dict[str, Tuple[Candidate, ...]] = {}
        for alias, relation in sorted(analysis.atoms.items()):
            terms: Dict[str, Term] = {}
            for attr in analysis.attrs_of_alias(alias):
                term = analysis.term_of(attr)
                if term is not None:
                    terms[attr] = term
            self.by_alias[alias] = tuple(
                [
                    Candidate(alias, schema, terms, self.needed)
                    for schema in baav.over_relation(relation)
                ]
            )
        self.pairs: Tuple[Candidate, ...] = tuple(
            [cand for group in self.by_alias.values() for cand in group]
        )
        #: alias -> the paper's ``X_R^Q``
        self.x_attrs: Dict[str, FrozenSet[str]] = {
            alias: frozenset(analysis.x_attrs(alias)) for alias in analysis.atoms
        }
