"""Relation instances: bags of tuples under a relation schema."""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, Iterator, List, Sequence

from repro.errors import SchemaError
from repro.relational.schema import RelationSchema
from repro.relational.types import Row, row_size


class Relation:
    """A bag of tuples over a :class:`RelationSchema`.

    SQL has bag semantics, so duplicates are preserved. ``rows`` is a plain
    list of tuples aligned with the schema's attribute order.
    """

    __slots__ = ("schema", "rows")

    def __init__(
        self,
        schema: RelationSchema,
        rows: Iterable[Row] = (),
        validate: bool = False,
    ) -> None:
        self.schema = schema
        self.rows: List[Row] = [tuple(r) for r in rows]
        if validate:
            self.validate()

    def validate(self) -> None:
        """Check arity and attribute types of every row."""
        arity = self.schema.arity
        types = [a.type for a in self.schema.attributes]
        for row in self.rows:
            if len(row) != arity:
                raise SchemaError(
                    f"row arity {len(row)} != schema arity {arity} "
                    f"for {self.schema.name}"
                )
            for attr_type, value in zip(types, row):
                attr_type.validate(value)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def append(self, row: Row) -> None:
        self.rows.append(tuple(row))

    def extend(self, rows: Iterable[Row]) -> None:
        self.rows.extend(tuple(r) for r in rows)

    def project(self, attrs: Sequence[str]) -> List[Row]:
        """Bag projection onto ``attrs`` (duplicates preserved)."""
        positions = self.schema.project_positions(attrs)
        return [tuple(row[p] for p in positions) for row in self.rows]

    def select(self, predicate: Callable[[Row], bool]) -> "Relation":
        """Return a new relation with rows satisfying ``predicate``."""
        return Relation(self.schema, [r for r in self.rows if predicate(r)])

    def column(self, attr: str) -> List[object]:
        position = self.schema.index_of(attr)
        return [row[position] for row in self.rows]

    def distinct_values(self, attr: str) -> set:
        return set(self.column(attr))

    def size_bytes(self) -> int:
        """Modeled size in bytes of the whole relation."""
        return sum(row_size(r) for r in self.rows)

    def num_values(self) -> int:
        """Number of attribute values, the paper's ``||D||`` contribution."""
        return len(self.rows) * self.schema.arity

    def as_multiset(self) -> Counter:
        """The bag of rows as a Counter, for order-insensitive comparison."""
        return Counter(self.rows)

    def __eq__(self, other: object) -> bool:
        """Bag equality: same schema attribute names and same multiset."""
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self.schema.attribute_names == other.schema.attribute_names
            and self.as_multiset() == other.as_multiset()
        )

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("Relation is mutable and unhashable")

    def __repr__(self) -> str:
        return f"Relation({self.schema.name}, {len(self.rows)} rows)"

    def head(self, n: int = 5) -> List[Row]:
        return self.rows[:n]

    def pretty(self, limit: int = 20) -> str:
        """Render the relation as a small fixed-width text table."""
        names = self.schema.attribute_names
        shown = self.rows[:limit]
        cells = [[_fmt(v) for v in row] for row in shown]
        widths = [
            max([len(n)] + [len(row[i]) for row in cells]) if cells else len(n)
            for i, n in enumerate(names)
        ]
        header = " | ".join(n.ljust(w) for n, w in zip(names, widths))
        rule = "-+-".join("-" * w for w in widths)
        body = [
            " | ".join(c.ljust(w) for c, w in zip(row, widths)) for row in cells
        ]
        lines = [header, rule] + body
        if len(self.rows) > limit:
            lines.append(f"... ({len(self.rows) - limit} more rows)")
        return "\n".join(lines)


def _fmt(value: object) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, float):
        return f"{value:.4f}".rstrip("0").rstrip(".")
    return str(value)
