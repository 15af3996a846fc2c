"""In-memory keyed-block intermediates for KBA plan execution.

A :class:`BlockSet` is the runtime value flowing between KBA operators: a
KV instance ``⟨X, Y⟩`` held in memory as ``{key tuple: [(value row,
count), ...]}``. Counts carry bag multiplicities end to end (block
compression, §8.2), so KBA results are bag-equivalent to SQL semantics.
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ExecutionError
from repro.relational.types import Row, RowSizing, row_size

Entry = Tuple[Row, int]

#: the part of a block's row a picker or predicate reads: its key, its
#: value row, or both (key + value)
KEY, VALUE, ROW = "key", "value", "row"


def row_picker(positions: Sequence[int]) -> Callable[[Row], Row]:
    """``row -> tuple(row[p] for p in positions)``, built once per
    operator instead of a generator per row (``itemgetter`` answers a
    bare value for one position and refuses none)."""
    if not positions:
        return lambda row: ()
    if len(positions) == 1:
        (position,) = positions
        return lambda row: (row[position],)
    return itemgetter(*positions)


def block_bytes(
    key: Row, entries: Sequence[Entry], sizing: Optional[RowSizing] = None
) -> int:
    """Modeled bytes of one keyed block on the wire: every entry ships
    its key, its value row and a 4-byte count. The walk over every value
    is the definition; ``sizing`` is the same number for entries whose
    rows were proven to hold exactly their declared kinds."""
    per_entry = row_size(key) + 4
    if sizing is None:
        total = 0
        for row, _count in entries:
            total += per_entry + row_size(row)
        return total
    total = len(entries) * (per_entry + sizing.fixed)
    for position in sizing.strings:
        for row, _count in entries:
            total += len(row[position])
    return total


class BlockSet:
    """An in-memory KV instance over qualified attribute names."""

    __slots__ = ("key_attrs", "value_attrs", "attrs", "data", "sizing")

    def __init__(
        self,
        key_attrs: Sequence[str],
        value_attrs: Sequence[str],
        data: Optional[Dict[Row, List[Entry]]] = None,
        sizing: Optional[RowSizing] = None,
    ) -> None:
        self.key_attrs = tuple(key_attrs)
        self.value_attrs = tuple(value_attrs)
        self.attrs = self.key_attrs + self.value_attrs
        self.data: Dict[Row, List[Entry]] = data if data is not None else {}
        #: the modeled size of every value row, when the operator that
        #: built the set can state it: a scan whose blocks were all born
        #: proven, σ over such a set, ⋈ of two. ``None`` — any other
        #: operator, any hand-built set — means "walk the values"
        self.sizing = sizing

    # -- construction -------------------------------------------------------

    @classmethod
    def constant(cls, attrs: Sequence[str], keys: Iterable[Row]) -> "BlockSet":
        """A constant keyed-block leaf: keys with empty value rows."""
        data: Dict[Row, List[Entry]] = {}
        for key in keys:
            data[tuple(key)] = [((), 1)]
        return cls(attrs, (), data)

    @classmethod
    def from_rows(
        cls,
        key_attrs: Sequence[str],
        value_attrs: Sequence[str],
        rows: Iterable[Entry],
    ) -> "BlockSet":
        """Group full (key+value) rows-with-counts by the key prefix."""
        n_key = len(tuple(key_attrs))
        data: Dict[Row, List[Entry]] = defaultdict(list)
        for row, count in rows:
            data[row[:n_key]].append((row[n_key:], count))
        return cls(key_attrs, value_attrs, dict(data))

    # -- views -------------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        return len(self.data)

    def num_entries(self) -> int:
        return sum(map(len, self.data.values()))

    def num_tuples(self) -> int:
        """Logical (bag) tuple count."""
        return sum(
            count
            for entries in self.data.values()
            for _, count in entries
        )

    def num_values(self) -> int:
        """Stored values (entries × width), the #data / shuffle unit."""
        width = len(self.attrs)
        return self.num_entries() * width

    def size_bytes(self) -> int:
        sizing = self.sizing
        total = 0
        for key, entries in self.data.items():
            total += block_bytes(key, entries, sizing)
        return total

    def degree(self) -> int:
        best = 0
        for entries in self.data.values():
            tuples = sum(count for _, count in entries)
            if tuples > best:
                best = tuples
        return best

    def iter_entries(self) -> Iterator[Tuple[Row, Row, int]]:
        """Yield (key, value row, count)."""
        for key, entries in self.data.items():
            for row, count in entries:
                yield key, row, count

    def iter_full(self) -> Iterator[Entry]:
        """Yield ((key + value) row, count)."""
        for key, entries in self.data.items():
            for row, count in entries:
                yield key + row, count

    def expand(self) -> Iterator[Row]:
        """Yield full rows with multiplicity (bag view)."""
        for row, count in self.iter_full():
            for _ in range(count):
                yield row

    def position(self, attr: str) -> int:
        try:
            return self.attrs.index(attr)
        except ValueError:
            raise ExecutionError(
                f"attribute {attr!r} not among {self.attrs}"
            ) from None

    def picker(self, attrs: Sequence[str]) -> Tuple[str, Callable[[Row], Row]]:
        """``(part, pick)``: ``pick(part of a row)`` is ``attrs`` of the
        row — read off the key (``KEY``) or the value row (``VALUE``)
        when every attribute sits there, else off key + value (``ROW``)."""
        positions = [self.position(a) for a in attrs]
        n_key = len(self.key_attrs)
        if not positions or max(positions) < n_key:
            return KEY, row_picker(positions)
        if min(positions) >= n_key:
            return VALUE, row_picker([p - n_key for p in positions])
        return ROW, row_picker(positions)

    # -- transformation ------------------------------------------------------

    def shift(self, new_key_attrs: Sequence[str]) -> "BlockSet":
        """The ↑ operator (§4.2): re-key with the same relational version."""
        new_key = tuple(new_key_attrs)
        missing = set(new_key) - set(self.attrs)
        if missing:
            raise ExecutionError(f"shift target attrs not present: {missing}")
        new_value = tuple(a for a in self.attrs if a not in set(new_key))
        pick_key = row_picker([self.position(a) for a in new_key])
        pick_value = row_picker([self.position(a) for a in new_value])
        data: Dict[Row, Dict[Row, int]] = defaultdict(dict)
        for full, count in self.iter_full():
            key = pick_key(full)
            value = pick_value(full)
            bucket = data[key]
            bucket[value] = bucket.get(value, 0) + count
        packed = {
            key: list(bucket.items()) for key, bucket in data.items()
        }
        return BlockSet(new_key, new_value, packed)

    def merge_key(self, key: Row, entries: List[Entry]) -> None:
        self.sizing = None  # nobody vouches for the incoming rows
        existing = self.data.get(key)
        if existing is None:
            self.data[key] = list(entries)
        else:
            existing.extend(entries)

    def __repr__(self) -> str:
        return (
            f"BlockSet(<{','.join(self.key_attrs)} | "
            f"{','.join(self.value_attrs)}>, blocks={self.num_blocks}, "
            f"tuples={self.num_tuples()})"
        )
