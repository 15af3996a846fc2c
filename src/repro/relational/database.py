"""Database instances: named relations under a database schema."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Sequence

from repro.errors import UnknownRelationError
from repro.relational.relation import Relation
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.types import Row


class Database:
    """A database instance ``D`` of a :class:`DatabaseSchema`."""

    def __init__(self, schema: DatabaseSchema) -> None:
        self.schema = schema
        self._relations: Dict[str, Relation] = {
            rs.name: Relation(rs) for rs in schema
        }

    @classmethod
    def from_dict(
        cls,
        schemas: Iterable[RelationSchema],
        data: Mapping[str, Sequence[Row]],
    ) -> "Database":
        """Build a database from schemas and a ``{name: rows}`` mapping."""
        db = cls(DatabaseSchema(schemas))
        for name, rows in data.items():
            db.load(name, rows)
        return db

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(name) from None

    def __getitem__(self, name: str) -> Relation:
        return self.relation(name)

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    def load(self, name: str, rows: Iterable[Row], validate: bool = False) -> None:
        """Replace the contents of relation ``name`` with ``rows``."""
        schema = self.schema.relation(name)
        self._relations[name] = Relation(schema, rows, validate=validate)

    def insert(self, name: str, row: Row) -> None:
        self.relation(name).append(row)

    def num_tuples(self) -> int:
        """The paper's ``|D|``: total number of tuples."""
        return sum(len(r) for r in self)

    def num_values(self) -> int:
        """The paper's ``||D||``: total number of attribute values."""
        return sum(r.num_values() for r in self)

    def size_bytes(self) -> int:
        return sum(r.size_bytes() for r in self)

    def summary(self) -> str:
        lines = [f"Database: {len(self._relations)} relations, "
                 f"{self.num_tuples()} tuples, {self.size_bytes()} bytes"]
        for relation in self:
            lines.append(f"  {relation.schema.name}: {len(relation)} rows")
        return "\n".join(lines)

    def copy(self) -> "Database":
        """Deep-enough copy: new relation row lists, shared schemas."""
        other = Database(self.schema)
        for name, relation in self._relations.items():
            other._relations[name] = Relation(relation.schema, relation.rows)
        return other
