"""BaaV schemas: KV schemas ``R̃⟨X, Y⟩`` and sets thereof (§4.1).

A KV schema declares how (part of) one relation is stored as keyed blocks:
``X`` are the key attributes, ``Y`` the value attributes; any attributes of
the relation may serve as key — the defining liberty of BaaV over TaaV.

A KV schema may carry a primary key ``W ⊆ XY``: tuples of a block are
distinct on ``W ∩ Y``. When the relation's primary key is contained in
``XY`` it is inherited; otherwise the whole ``XY`` serves as the default.

Everything the query checks and the plan generator ask of a schema that
does not depend on the query is derived here, once: a KV schema's
attribute tuple and (relation-qualified) attribute sets when it is
constructed, a BaaV schema's per-relation lists and closures
``clo(R̃, R̃)`` (§5.2) on first use after the last :meth:`BaaVSchema.add`.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import SchemaError
from repro.relational.schema import RelationSchema


class KVSchema:
    """A KV schema ``R̃⟨X, Y⟩`` over one relation schema."""

    __slots__ = (
        "name",
        "relation",
        "key",
        "value",
        "primary_key",
        "attributes",
        "attribute_set",
        "qualified_attributes",
        "qualified_primary_key",
    )

    def __init__(
        self,
        name: str,
        relation: RelationSchema,
        key: Sequence[str],
        value: Sequence[str],
        primary_key: Optional[Sequence[str]] = None,
    ) -> None:
        if not name:
            raise SchemaError("KV schema name must be non-empty")
        if not key:
            raise SchemaError(f"KV schema {name!r} needs at least one key attribute")
        if not value:
            raise SchemaError(f"KV schema {name!r} needs at least one value attribute")
        for attr in list(key) + list(value):
            if attr not in relation:
                raise SchemaError(
                    f"KV schema {name!r}: {attr!r} is not an attribute of "
                    f"{relation.name!r}"
                )
        overlap = set(key) & set(value)
        if overlap:
            raise SchemaError(
                f"KV schema {name!r}: key and value overlap on {sorted(overlap)}"
            )
        self.name = name
        self.relation = relation
        self.key: Tuple[str, ...] = tuple(key)
        self.value: Tuple[str, ...] = tuple(value)
        attrs = set(self.key) | set(self.value)
        if primary_key is not None:
            if not set(primary_key) <= attrs:
                raise SchemaError(
                    f"KV schema {name!r}: primary key must be within XY"
                )
            self.primary_key: Tuple[str, ...] = tuple(primary_key)
        elif relation.primary_key and set(relation.primary_key) <= attrs:
            self.primary_key = tuple(relation.primary_key)
        else:
            self.primary_key = self.key + self.value
        #: ``att(R̃)`` — all attributes, key first
        self.attributes: Tuple[str, ...] = self.key + self.value
        self.attribute_set: FrozenSet[str] = frozenset(self.attributes)
        #: ``att(R̃)`` / ``pk(R̃)`` as relation-qualified names (``REL.attr``),
        #: the vocabulary of ``clo``
        self.qualified_attributes: FrozenSet[str] = frozenset(
            f"{relation.name}.{a}" for a in self.attributes
        )
        self.qualified_primary_key: FrozenSet[str] = frozenset(
            f"{relation.name}.{a}" for a in self.primary_key
        )

    @property
    def width(self) -> int:
        return len(self.attributes)

    def covers(self, attrs: Iterable[str]) -> bool:
        return self.attribute_set.issuperset(attrs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KVSchema):
            return NotImplemented
        return (
            self.name == other.name
            and self.relation.name == other.relation.name
            and self.key == other.key
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.name, self.relation.name, self.key, self.value))

    def __repr__(self) -> str:
        return (
            f"KVSchema({self.name}: {self.relation.name}"
            f"<{','.join(self.key)} | {','.join(self.value)}>)"
        )


def attribute_closure(
    start: FrozenSet[str],
    pool: Sequence[Tuple[FrozenSet[str], FrozenSet[str]]],
) -> FrozenSet[str]:
    """The ``clo`` fixpoint of §5.2 over ``(att, pk)`` pairs.

    1. ``start ⊆ clo``;
    2. if ``pk ⊆ clo`` for some ``(att, pk)`` of ``pool`` then ``att ⊆ clo``.
    """
    clo: Set[str] = set(start)
    changed = True
    while changed:
        changed = False
        for attrs, primary_key in pool:
            if not attrs <= clo and primary_key <= clo:
                clo |= attrs
                changed = True
    return frozenset(clo)


def closure(start: KVSchema, schemas: Iterable[KVSchema]) -> FrozenSet[str]:
    """``clo(start, schemas)`` over relation-qualified attributes."""
    return attribute_closure(
        start.qualified_attributes,
        [(s.qualified_attributes, s.qualified_primary_key) for s in schemas],
    )


class _Derived:
    """What follows from a fixed set of KV schemas; never mutated."""

    __slots__ = ("size", "by_relation", "closures")

    def __init__(self, schemas: Tuple[KVSchema, ...]) -> None:
        self.size = len(schemas)
        by_relation: Dict[str, List[KVSchema]] = {}
        for schema in schemas:
            by_relation.setdefault(schema.relation.name, []).append(schema)
        self.by_relation: Dict[str, Tuple[KVSchema, ...]] = {
            relation: tuple(group) for relation, group in by_relation.items()
        }
        self.closures: Dict[str, FrozenSet[str]] = {
            schema.name: closure(schema, schemas) for schema in schemas
        }


class BaaVSchema:
    """A set of KV schemas — the paper's ``R̃``."""

    def __init__(self, schemas: Iterable[KVSchema] = ()) -> None:
        self._schemas: Dict[str, KVSchema] = {}
        self._derived: Optional[_Derived] = None
        for schema in schemas:
            self.add(schema)

    def add(self, schema: KVSchema) -> None:
        if schema.name in self._schemas:
            raise SchemaError(f"duplicate KV schema name {schema.name!r}")
        self._schemas[schema.name] = schema
        self._derived = None

    def _facts(self) -> _Derived:
        """The derived facts of the current schema set, built on demand.

        Lock-free: a :class:`_Derived` is immutable and published by one
        assignment, so concurrent planners at worst build equal values
        twice. The size check rejects a value a racing builder published
        from a snapshot older than the last :meth:`add` (schemas are only
        ever added).
        """
        derived = self._derived
        if derived is None or derived.size != len(self._schemas):
            derived = self._derived = _Derived(tuple(self._schemas.values()))
        return derived

    def __iter__(self) -> Iterator[KVSchema]:
        return iter(self._schemas.values())

    def __len__(self) -> int:
        return len(self._schemas)

    def __contains__(self, name: str) -> bool:
        return name in self._schemas

    def get(self, name: str) -> KVSchema:
        try:
            return self._schemas[name]
        except KeyError:
            raise SchemaError(f"unknown KV schema {name!r}") from None

    def over_relation(self, relation: str) -> List[KVSchema]:
        """All KV schemas declared over ``relation``."""
        return list(self._facts().by_relation.get(relation, ()))

    def relations(self) -> Set[str]:
        return {s.relation.name for s in self}

    def closures(self) -> Dict[str, FrozenSet[str]]:
        """``clo(R̃, R̃)`` for every KV schema, by schema name (read-only)."""
        return self._facts().closures

    def total_attributes(self) -> int:
        """The paper's |R̃| (attribute count over all KV schemas)."""
        return sum(s.width for s in self)

    def __repr__(self) -> str:
        return f"BaaVSchema({', '.join(self._schemas)})"


def kv_schema(
    name: str,
    relation: RelationSchema,
    key: Sequence[str],
    value: Optional[Sequence[str]] = None,
    primary_key: Optional[Sequence[str]] = None,
) -> KVSchema:
    """Convenience constructor; ``value=None`` means "all other attributes"."""
    if value is None:
        value = [a for a in relation.attribute_names if a not in set(key)]
    return KVSchema(name, relation, key, value, primary_key)


def taav_equivalent_schema(relation: RelationSchema) -> KVSchema:
    """The KV schema whose instances coincide with the TaaV layout.

    TaaV is the special case of BaaV with singleton blocks (§4.1): key the
    primary key, value everything else.
    """
    if not relation.primary_key:
        raise SchemaError(
            f"relation {relation.name!r} has no primary key for TaaV layout"
        )
    value = [
        a for a in relation.attribute_names if a not in set(relation.primary_key)
    ]
    if not value:
        # degenerate all-key relation: re-expose the last key attr as value
        value = [relation.attribute_names[-1]]
        key = [a for a in relation.primary_key if a != value[0]]
        return KVSchema(f"taav_{relation.name}", relation, key, value)
    return KVSchema(
        f"taav_{relation.name}", relation, relation.primary_key, value
    )
