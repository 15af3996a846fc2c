"""Relational schemas: attributes, relation schemas and database schemas.

This is the paper's schema ``R`` (Table 1): a database schema is a set of
relation schemas ``R(Z)`` with primary keys. BaaV KV schemas (``repro.baav``)
are declared over these relation schemas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Sequence, Tuple

from repro.errors import SchemaError, UnknownAttributeError, UnknownRelationError
from repro.relational.types import AttrType


@dataclass(frozen=True)
class Attribute:
    """A named, typed attribute of a relation schema."""

    name: str
    type: AttrType = AttrType.STR

    def __post_init__(self) -> None:
        # Derived result columns may carry names like "SUM(PS.supplycost)",
        # so only emptiness is rejected here.
        if not self.name:
            raise SchemaError("attribute name must be non-empty")


class RelationSchema:
    """A relation schema ``R(A1, ..., An)`` with an optional primary key.

    Attribute order is significant: tuples of the relation are plain Python
    tuples aligned with the attribute order.
    """

    __slots__ = ("name", "attributes", "attribute_names", "primary_key", "_index")

    def __init__(
        self,
        name: str,
        attributes: Sequence[Attribute],
        primary_key: Sequence[str] = (),
    ) -> None:
        if not name:
            raise SchemaError("relation name must be non-empty")
        if not attributes:
            raise SchemaError(f"relation {name!r} must have attributes")
        names = [a.name for a in attributes]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in {name!r}: {names}")
        self.name = name
        self.attributes: Tuple[Attribute, ...] = tuple(attributes)
        self.attribute_names: Tuple[str, ...] = tuple(names)
        self._index: Dict[str, int] = {a.name: i for i, a in enumerate(self.attributes)}
        for key_attr in primary_key:
            if key_attr not in self._index:
                raise UnknownAttributeError(key_attr, where=name)
        self.primary_key: Tuple[str, ...] = tuple(primary_key)

    @classmethod
    def of(
        cls,
        name: str,
        attrs: Mapping[str, AttrType],
        primary_key: Sequence[str] = (),
    ) -> "RelationSchema":
        """Build a schema from an ordered ``{attr: type}`` mapping."""
        return cls(name, [Attribute(a, t) for a, t in attrs.items()], primary_key)

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def __contains__(self, attr: str) -> bool:
        return attr in self._index

    def index_of(self, attr: str) -> int:
        """Return the tuple position of ``attr``."""
        try:
            return self._index[attr]
        except KeyError:
            raise UnknownAttributeError(attr, where=self.name) from None

    def indexes_of(self, attrs: Iterable[str]) -> Tuple[int, ...]:
        return tuple(self.index_of(a) for a in attrs)

    def type_of(self, attr: str) -> AttrType:
        return self.attributes[self.index_of(attr)].type

    def project_positions(self, attrs: Sequence[str]) -> Tuple[int, ...]:
        """Positions for projecting rows onto ``attrs`` (order preserved)."""
        return self.indexes_of(attrs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationSchema):
            return NotImplemented
        return (
            self.name == other.name
            and self.attributes == other.attributes
            and self.primary_key == other.primary_key
        )

    def __hash__(self) -> int:
        return hash((self.name, self.attributes, self.primary_key))

    def __repr__(self) -> str:
        attrs = ", ".join(a.name for a in self.attributes)
        pk = f", pk={list(self.primary_key)}" if self.primary_key else ""
        return f"RelationSchema({self.name}({attrs}){pk})"


class DatabaseSchema:
    """A set of relation schemas, the paper's ``R``."""

    def __init__(self, relations: Iterable[RelationSchema] = ()) -> None:
        self._relations: Dict[str, RelationSchema] = {}
        for schema in relations:
            self.add(schema)

    def add(self, schema: RelationSchema) -> None:
        if schema.name in self._relations:
            raise SchemaError(f"duplicate relation: {schema.name!r}")
        self._relations[schema.name] = schema

    def relation(self, name: str) -> RelationSchema:
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[RelationSchema]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    def total_attributes(self) -> int:
        """Number of attributes across all relations (the paper's |R|)."""
        return sum(schema.arity for schema in self)

    def __repr__(self) -> str:
        return f"DatabaseSchema({', '.join(self._relations)})"
