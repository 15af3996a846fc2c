"""Keyed blocks: the value side of a BaaV pair ``(k, B)``.

A block holds entries ``(row, count)`` over the value attributes ``Y`` of a
KV schema. With compression on (§8.2 feature (1)), rows are deduplicated
and ``count`` records multiplicity; with compression off, each entry has
count 1 and duplicates appear repeatedly. Blocks also carry per-attribute
group-by statistics (§8.2 feature (2)): min/max/sum/count of numeric
attributes, which answer whole-block aggregates without touching rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.kv import codec
from repro.relational.types import Row

if TYPE_CHECKING:
    from repro.baav.frame import ColumnFrame


@dataclass(frozen=True)
class BlockStats:
    """min/max/sum/count of one numeric value attribute over a block."""

    minimum: object
    maximum: object
    total: float
    count: int

    @property
    def average(self) -> Optional[float]:
        if self.count == 0:
            return None
        return self.total / self.count


class Block:
    """A block ``B`` of partial tuples over value attributes ``Y``."""

    __slots__ = ("entries", "proven")

    def __init__(
        self,
        entries: Optional[List[Tuple[Row, int]]] = None,
        proven: bool = False,
    ) -> None:
        self.entries: List[Tuple[Row, int]] = entries if entries is not None else []
        #: stated by the decoder that built the block: every row was
        #: verified NULL-free and of exactly the kinds its KV schema
        #: declares, so its modeled size is a
        #: :class:`~repro.relational.types.RowSizing` away. A block
        #: built or changed any other way makes no such claim
        self.proven = proven

    @classmethod
    def from_rows(cls, rows: Iterable[Row], compress: bool = True) -> "Block":
        """Build a block from value-rows, deduplicating when ``compress``."""
        if not compress:
            return cls([(tuple(r), 1) for r in rows])
        counts: Dict[Row, int] = {}
        order: List[Row] = []
        for row in rows:
            row = tuple(row)
            if row in counts:
                counts[row] += 1
            else:
                counts[row] = 1
                order.append(row)
        return cls([(row, counts[row]) for row in order])

    # -- sizes -------------------------------------------------------------

    @property
    def num_entries(self) -> int:
        """Distinct entries stored (the compressed size)."""
        return len(self.entries)

    @property
    def num_tuples(self) -> int:
        """Logical tuple count — the paper's |B| for the degree."""
        return sum(count for _, count in self.entries)

    def num_values(self) -> int:
        """Logical values held (entries × width), the #data unit."""
        if not self.entries:
            return 0
        width = len(self.entries[0][0])
        return len(self.entries) * width

    # -- access ------------------------------------------------------------

    def expand(self) -> Iterator[Row]:
        """Yield rows with multiplicity (decompressed view)."""
        for row, count in self.entries:
            for _ in range(count):
                yield row

    def add(self, row: Row, count: int = 1, compress: bool = True) -> None:
        row = tuple(row)
        self.proven = False
        if compress:
            for index, (existing, existing_count) in enumerate(self.entries):
                if existing == row:
                    self.entries[index] = (existing, existing_count + count)
                    return
        self.entries.append((row, count))

    def remove(self, row: Row, count: int = 1) -> int:
        """Remove up to ``count`` occurrences of ``row``; return removed."""
        row = tuple(row)
        removed = 0
        for index, (existing, existing_count) in enumerate(self.entries):
            if existing == row:
                take = min(count, existing_count)
                remaining = existing_count - take
                removed = take
                if remaining:
                    self.entries[index] = (existing, remaining)
                else:
                    del self.entries[index]
                break
        return removed

    # -- statistics ----------------------------------------------------------

    def stats(self, value_attrs: Sequence[str]) -> Dict[str, BlockStats]:
        """Per-attribute statistics over numeric value attributes."""
        out: Dict[str, BlockStats] = {}
        for position, attr in enumerate(value_attrs):
            minimum = None
            maximum = None
            total = 0.0
            count = 0
            numeric = True
            for row, multiplicity in self.entries:
                value = row[position]
                if value is None:
                    continue
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    numeric = False
                    break
                if minimum is None or value < minimum:
                    minimum = value
                if maximum is None or value > maximum:
                    maximum = value
                total += value * multiplicity
                count += multiplicity
            if numeric and count:
                out[attr] = BlockStats(minimum, maximum, total, count)
        return out

    # -- codec ----------------------------------------------------------------

    def to_frame(self, attrs: Optional[Sequence[str]] = None) -> "ColumnFrame":
        """Columnar view of this block (PR 10).

        ``attrs`` names the value attributes; positional ``c0..cN``
        names are generated when omitted (a bare block does not know
        its schema).
        """
        from repro.baav.frame import ColumnFrame

        if attrs is None:
            width = len(self.entries[0][0]) if self.entries else 0
            attrs = tuple(f"c{i}" for i in range(width))
        return ColumnFrame.from_entries(tuple(attrs), self.entries)

    @classmethod
    def from_frame(cls, frame: "ColumnFrame") -> "Block":
        """Rebuild a block from a columnar frame (inverse of to_frame)."""
        return cls(frame.to_entries())

    def encode(self) -> bytes:
        return codec.encode_entries(self.entries)

    @classmethod
    def decode(cls, data: bytes) -> "Block":
        entries, _ = codec.decode_entries(data)
        return cls(entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Block):
            return NotImplemented
        return sorted_entries(self) == sorted_entries(other)

    def __repr__(self) -> str:
        return f"Block({self.num_entries} entries, {self.num_tuples} tuples)"


def sorted_entries(block: Block) -> List[Tuple[Row, int]]:
    """Entries in a canonical order for comparison."""
    return sorted(block.entries, key=lambda e: (repr(e[0]),))


def split_block(block: Block, max_tuples: int) -> List[Block]:
    """Split a block into segments of at most ``max_tuples`` logical tuples.

    Implements §8.2: oversized blocks are broken into multiple keyed blocks
    with distinct internal segment ids that "logically appear as one".
    """
    if max_tuples <= 0 or block.num_tuples <= max_tuples:
        return [block]
    segments: List[Block] = []
    current: List[Tuple[Row, int]] = []
    current_tuples = 0
    for row, count in block.entries:
        while count > 0:
            room = max_tuples - current_tuples
            if room == 0:
                segments.append(Block(current))
                current = []
                current_tuples = 0
                room = max_tuples
            take = min(count, room)
            current.append((row, take))
            current_tuples += take
            count -= take
    if current:
        segments.append(Block(current))
    return segments
