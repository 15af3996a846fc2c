"""KV instances and BaaV stores over the KV cluster (§4.1, §8.2).

A :class:`KVInstance` materializes one KV schema ``R̃⟨X, Y⟩`` as keyed
blocks living in the shared :class:`repro.kv.KVCluster`:

* physical key = ``(x1, ..., xn, segment)`` — blocks above the split
  threshold are stored as multiple segments that logically form one block;
* physical value = the encoded block segment, whose first varint records
  the total number of segments of that key (written on segment 0);
* a sidecar ``...#stats`` entry per key holds the per-block group-by
  statistics used by the aggregate fast path.

A :class:`BaaVStore` is the set of KV instances of a BaaV schema —
the paper's ``D̃``, with its degree ``deg(D̃)``.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import closing
from itertools import repeat
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.baav.block import Block, BlockStats, split_block
from repro.baav.schema import BaaVSchema, KVSchema
from repro.errors import BaaVError, CodecError
from repro.kv import codec
from repro.kv.cache import read_through_many, read_waves
from repro.kv.cluster import KeyListing, KVCluster, ListedOn
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.types import AttrType, Row, row_sizing

DEFAULT_SPLIT_THRESHOLD = 10_000


class _SegmentListing(NamedTuple):
    """A KV instance's physical keys as the cluster listed them, sorted
    into logical keys (``keys``; positionally, ``firsts`` lists each
    one's segment 0) and the listing node of every later segment by its
    encoded key."""

    keys: List[Row]
    firsts: KeyListing
    tail_owners: Dict[bytes, int]

    def tails_listed_on(self, tails: Sequence[bytes]) -> Optional[ListedOn]:
        """Where the later segments with these encoded keys were listed."""
        if self.firsts.owners is None:
            return None
        owners: List[int] = []
        for tail in tails:
            owner = self.tail_owners.get(tail)
            if owner is None:
                return None  # a segment written since the listing
            owners.append(owner)
        return self.firsts.generation, owners


class KVInstance:
    """A KV instance ``D̃`` of one KV schema, stored in the cluster."""

    def __init__(
        self,
        schema: KVSchema,
        cluster: KVCluster,
        compress: bool = True,
        split_threshold: int = DEFAULT_SPLIT_THRESHOLD,
        keep_stats: bool = True,
        cache=None,
    ) -> None:
        self.schema = schema
        self.cluster = cluster
        self.compress = compress
        self.split_threshold = split_threshold
        self.keep_stats = keep_stats
        #: optional client-side read-through block cache (repro.kv.cache);
        #: registered with the cluster so writes invalidate stale segments
        self.cache = cache
        cluster.register_cache(cache)
        self.namespace = f"baav:{schema.name}"
        self.stats_namespace = f"baav:{schema.name}#stats"
        #: the schema's row shapes, compiled once: a value row is Y, a
        #: physical key is X plus the segment index. Value rows go to a
        #: speculator, which is how a block is born knowing whether all
        #: its rows are exactly of the declared kinds — and then weigh
        #: what ``value_sizing`` says
        type_of = schema.relation.type_of
        value_kinds = [type_of(attr) for attr in schema.value]
        self._decode_value_row = codec.row_speculator(value_kinds)
        self.value_sizing = row_sizing(value_kinds)
        self._decode_physical_key = codec.row_decoder(
            [type_of(attr) for attr in schema.key] + [AttrType.INT]
        )
        self._degree = 0
        self._num_blocks = 0
        self._num_tuples = 0

    # -- properties ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """``deg(D̃)``: the maximum logical block size."""
        return self._degree

    @property
    def num_blocks(self) -> int:
        return self._num_blocks

    @property
    def num_tuples(self) -> int:
        return self._num_tuples

    # -- bulk load ------------------------------------------------------------

    def build_from(self, relation: Relation) -> None:
        """Map ``relation`` onto this KV schema: project on XY, group by X."""
        if relation.schema.name != self.schema.relation.name:
            raise BaaVError(
                f"instance of {self.schema.relation.name!r} cannot be built "
                f"from {relation.schema.name!r}"
            )
        key_pos = relation.schema.indexes_of(self.schema.key)
        value_pos = relation.schema.indexes_of(self.schema.value)
        grouped: Dict[Row, List[Row]] = defaultdict(list)
        for row in relation.rows:
            key = tuple(row[p] for p in key_pos)
            grouped[key].append(tuple(row[p] for p in value_pos))
        for key, rows in grouped.items():
            block = Block.from_rows(rows, compress=self.compress)
            self._write_block(key, block)

    def _write_block(self, key: Row, block: Block) -> None:
        segments = split_block(block, self.split_threshold)
        n_segments = len(segments)
        for index, segment in enumerate(segments):
            payload = _encode_segment(n_segments if index == 0 else 0, segment)
            self.cluster.put(
                self.namespace,
                codec.encode_key(key + (index,)),
                payload,
                n_values=segment.num_values(),
            )
        if self.keep_stats:
            stats = block.stats(self.schema.value)
            if stats:
                self.cluster.put(
                    self.stats_namespace,
                    codec.encode_key(key),
                    _encode_stats(stats),
                    n_values=len(stats) * 4,
                )
        self._num_blocks += 1
        self._num_tuples += block.num_tuples
        if block.num_tuples > self._degree:
            self._degree = block.num_tuples

    # -- point access -----------------------------------------------------------

    def _segment_values(self, payload: bytes) -> int:
        """A stored segment's logical values (#data), read off its header
        by the node that serves it: the entry count after the segment
        count, × the value width — one at least, like any payload. Both
        counts are one byte each below 128 (the node calls this once a
        payload)."""
        try:
            count = payload[1]
            if count > 0x7F or payload[0] > 0x7F:
                count = codec.entry_count(payload, codec._read_varint(payload, 0)[1])
        except IndexError:
            raise CodecError("truncated segment") from None
        return count * len(self.schema.value) or 1

    def _cached_multi_get(
        self,
        encoded_keys: Sequence[bytes],
        listed_on: Optional[ListedOn] = None,
    ) -> List[Optional[bytes]]:
        """Positional batched segment fetch, read through the cache: a
        hit serves the payload locally — no node counters move, zero
        round trips — and only misses reach the cluster."""
        return read_through_many(
            self.cache,
            self.cluster,
            self.namespace,
            encoded_keys,
            self._segment_values,
            listed_on,
        )

    def get(self, key: Row) -> Optional[Block]:
        """Fetch the whole logical block for ``key`` (1 get per segment)."""
        (first,) = self._cached_multi_get([codec.encode_key(tuple(key) + (0,))])
        if first is None:
            return None
        n_segments, block = self._decode_segment(first)
        for index in range(1, n_segments):
            (data,) = self._cached_multi_get(
                [codec.encode_key(tuple(key) + (index,))]
            )
            self._append_segment(block, key, index, data)
        return block

    def _append_segment(
        self, block: Block, key: Row, index: int, data: Optional[bytes]
    ) -> None:
        """Extend ``block`` with tail segment ``index`` of ``key``."""
        if data is None:
            raise BaaVError(
                f"missing segment {index} of key {key!r} in {self.schema.name}"
            )
        _, segment = self._decode_segment(data)
        block.entries.extend(segment.entries)
        block.proven = block.proven and segment.proven

    def _decode_segment(self, data: bytes) -> Tuple[int, Block]:
        """A stored segment payload as ``(segment count, block)``; the
        count is only meaningful on segment 0. The block is proven when
        the speculator verified the tags of every row."""
        n_segments, pos = codec._read_varint(data, 0)
        # this call's own list: two service threads decode at once
        deviants: List[int] = []
        entries, _ = codec.decode_entries(
            data, pos, self._decode_value_row, deviants
        )
        return n_segments, Block(entries, not deviants)

    def multi_get(self, keys: Sequence[Row]) -> Dict[Row, Optional[Block]]:
        """Fetch many logical blocks with coalesced multi-gets.

        Two batched waves instead of one get per segment: wave 1 fetches
        every key's segment 0 (one round trip per owning node for the
        whole batch), wave 2 fetches all remaining segments of
        multi-segment blocks. Duplicate keys are fetched once. With a
        cache attached, cached segments are served locally and only the
        missing ones are batched to the cluster.
        """
        unique: List[Row] = list(dict.fromkeys(tuple(k) for k in keys))
        wave = self._cached_multi_get(
            [codec.encode_key(key + (0,)) for key in unique]
        )
        return dict(zip(unique, self._decode_wave(unique, wave)))

    def _fetch_tails(
        self,
        pending: Sequence[Tuple[Row, int, Block]],
        listing: Optional[_SegmentListing] = None,
    ) -> None:
        """The tail-segment wave: append to each ``(key, index, block)``
        of ``pending`` its tail segment ``index``. A scan says which
        ``listing`` found the segments."""
        tails = [codec.encode_key(key + (index,)) for key, index, _ in pending]
        listed_on = None if listing is None else listing.tails_listed_on(tails)
        # pending holds each key's tail segments in ascending index
        # order, so extending in zip order reassembles the block
        for (key, index, block), data in zip(
            pending, self._cached_multi_get(tails, listed_on)
        ):
            self._append_segment(block, key, index, data)

    def get_stats(self, key: Row) -> Optional[Dict[str, BlockStats]]:
        """Fetch only the per-block statistics (1 get, tiny payload)."""
        if not self.keep_stats:
            return None
        (data,) = read_through_many(
            self.cache,
            self.cluster,
            self.stats_namespace,
            [codec.encode_key(tuple(key))],
            _stats_values,
        )
        if data is None:
            return None
        return _decode_stats(data)

    # -- scans ---------------------------------------------------------------

    def scan(self, batch_size: int = 1) -> Iterator[Tuple[Row, Block]]:
        """Iterate all logical blocks (gets counted per physical segment).

        ``batch_size=1`` drives the scan the conventional way: keys via
        ``next()``, one get (and round trip) per physical segment. A
        larger batch extracts the key list first and coalesces the gets
        into multi-get rounds — same #get, far fewer round trips.

        Segments of one key may be served by different nodes; we merge them
        by buffering partial blocks.

        The batched waves of segment 0s are :func:`repro.kv.cache.read_waves`
        (shipped ahead over node processes); a scan abandoned midway
        closes that stream, and with it the wave it shipped.
        """
        if batch_size > 1:
            # the segment-0 key bytes go to the fetch as the cluster
            # listed them, not re-encoded from the decoded key, and with
            # the node each was listed on, not hashed onto the ring again
            listing = self._list_segments()
            keys = listing.keys
            with closing(read_waves(
                self.cache, self.cluster, self.namespace, listing.firsts,
                batch_size, self._segment_values,
            )) as waves:
                for start, wave in zip(range(0, len(keys), batch_size), waves):
                    wave_keys = keys[start:start + batch_size]
                    for key, block in zip(
                        wave_keys, self._decode_wave(wave_keys, wave, listing)
                    ):
                        if block is not None:  # None: deleted since the listing
                            yield key, block
            return
        partial: Dict[Row, List[Tuple[int, Block]]] = defaultdict(list)
        for key_bytes, payload in self.cluster.scan(
            self.namespace, count_as_gets=True, values_of=self._segment_values
        ):
            physical_key, _ = self._decode_physical_key(key_bytes, 0)
            key, segment_index = physical_key[:-1], physical_key[-1]
            _, segment = self._decode_segment(payload)
            partial[key].append((segment_index, segment))
        for key, segments in partial.items():
            segments.sort(key=lambda pair: pair[0])
            block = Block([])
            for _, segment in segments:
                block.entries.extend(segment.entries)
            yield key, block

    def _decode_wave(
        self,
        keys: Sequence[Row],
        wave: Sequence[Optional[bytes]],
        listing: Optional[_SegmentListing] = None,
    ) -> List[Optional[Block]]:
        """A wave of ``keys``' segment-0 payloads as blocks (``None``
        where a key has none), their tail segments fetched and appended;
        a scan says which ``listing`` found the segments."""
        decode_value_row = self._decode_value_row
        decode_entries = codec.decode_entries
        blocks: List[Optional[Block]] = []
        pending: List[Tuple[Row, int, Block]] = []
        for key, data in zip(keys, wave):
            if data is None:
                blocks.append(None)
                continue
            try:
                n_segments, pos = data[0], 1
            except IndexError:
                raise CodecError("truncated segment") from None
            if n_segments > 0x7F:
                n_segments, pos = codec._read_varint(data, 0)
            # this segment's own list: two service threads decode at once
            deviants: List[int] = []
            entries, _ = decode_entries(data, pos, decode_value_row, deviants)
            block = Block(entries, not deviants)
            if n_segments > 1:
                pending.extend((key, index, block) for index in range(1, n_segments))
            blocks.append(block)
        if pending:
            self._fetch_tails(pending, listing)
        return blocks

    def keys(self) -> List[Row]:
        """All logical keys (uncounted; planner metadata)."""
        return self._list_segments().keys

    def _list_segments(self) -> _SegmentListing:
        """The cluster's listing of this instance's namespace, decoded
        (uncounted)."""
        listing = self.cluster.list_keys(self.namespace)
        keys: List[Row] = []
        first_segments: List[bytes] = []
        first_owners: List[int] = []
        tail_owners: Dict[bytes, int] = {}
        decode = self._decode_physical_key
        vouched = listing.owners is not None
        # (a listing that vouches for no node: a filler nobody reads)
        for key_bytes, owner in zip(listing.keys, listing.owners or repeat(-1)):
            physical_key, _ = decode(key_bytes, 0)
            if physical_key[-1] == 0:
                keys.append(physical_key[:-1])
                first_segments.append(key_bytes)
                first_owners.append(owner)
            else:
                tail_owners[key_bytes] = owner
        firsts = KeyListing(
            first_segments, first_owners if vouched else None, listing.generation
        )
        return _SegmentListing(keys, firsts, tail_owners)

    # -- conversions -----------------------------------------------------------

    def relational_version(self) -> Relation:
        """Flatten to the relational version over schema ``(X, Y)`` (§4.1)."""
        rel_schema = self.relation_view_schema()
        rows: List[Row] = []
        for key, block in self.scan():
            for row in block.expand():
                rows.append(tuple(key) + tuple(row))
        return Relation(rel_schema, rows)

    def relation_view_schema(self) -> RelationSchema:
        source = self.schema.relation
        attrs = [
            Attribute(a, source.type_of(a))
            for a in self.schema.key + self.schema.value
        ]
        return RelationSchema(f"{self.schema.name}_view", attrs)

    def size_bytes(self) -> int:
        total = 0
        for key_bytes in self.cluster.list_keys(self.namespace).keys:
            payload = self.cluster.peek(self.namespace, key_bytes)
            if payload is not None:
                total += len(key_bytes) + len(payload)
        return total

    def recompute_degree(self) -> int:
        """Recompute the degree by scanning (uncounted); also refresh it."""
        degree = 0
        counts: Dict[Row, int] = defaultdict(int)
        for key_bytes in self.cluster.list_keys(self.namespace).keys:
            payload = self.cluster.peek(self.namespace, key_bytes)
            if payload is None:
                continue
            physical_key, _ = self._decode_physical_key(key_bytes, 0)
            _, segment = self._decode_segment(payload)
            counts[physical_key[:-1]] += segment.num_tuples
        if counts:
            degree = max(counts.values())
        self._degree = degree
        self._num_blocks = len(counts)
        self._num_tuples = sum(counts.values())
        return degree

    def __repr__(self) -> str:
        return (
            f"KVInstance({self.schema.name}, blocks={self._num_blocks}, "
            f"deg={self._degree})"
        )


def _encode_segment(n_segments: int, block: Block) -> bytes:
    head: List[bytes] = []
    codec._write_varint(head, n_segments)
    return b"".join(head) + block.encode()


def _encode_stats(stats: Dict[str, BlockStats]) -> bytes:
    rows = [
        ((attr, s.minimum, s.maximum, s.total, s.count),)
        for attr, s in sorted(stats.items())
    ]
    flat = [row[0] for row in rows]
    return codec.encode_entries([(row, 1) for row in flat])


def _stats_values(data: bytes) -> int:
    """A stats sidecar's logical values (#data), read off its header by
    the node that serves it: four statistics an attribute entry."""
    return 4 * codec.entry_count(data)


def _decode_stats(data: bytes) -> Dict[str, BlockStats]:
    entries, _ = codec.decode_entries(data)
    out: Dict[str, BlockStats] = {}
    for row, _count in entries:
        attr, minimum, maximum, total, count = row
        out[attr] = BlockStats(minimum, maximum, total, count)
    return out


class BaaVStore:
    """A BaaV store ``D̃``: the KV instances of a BaaV schema."""

    def __init__(
        self,
        schema: BaaVSchema,
        cluster: KVCluster,
        compress: bool = True,
        split_threshold: int = DEFAULT_SPLIT_THRESHOLD,
        keep_stats: bool = True,
        cache=None,
    ) -> None:
        self.schema = schema
        self.cluster = cluster
        self.compress = compress
        self.split_threshold = split_threshold
        self.keep_stats = keep_stats
        self.cache = cache
        self.instances: Dict[str, KVInstance] = {}

    @classmethod
    def map_database(
        cls,
        database: Database,
        schema: BaaVSchema,
        cluster: KVCluster,
        compress: bool = True,
        split_threshold: int = DEFAULT_SPLIT_THRESHOLD,
        keep_stats: bool = True,
        cache=None,
    ) -> "BaaVStore":
        """The mapping of ``D`` on ``R̃`` (§4.1): build every KV instance."""
        store = cls(
            schema, cluster, compress, split_threshold, keep_stats, cache
        )
        for kv_schema in schema:
            instance = KVInstance(
                kv_schema,
                cluster,
                compress,
                split_threshold,
                keep_stats,
                cache=cache,
            )
            instance.build_from(database.relation(kv_schema.relation.name))
            store.instances[kv_schema.name] = instance
        return store

    def instance(self, name: str) -> KVInstance:
        try:
            return self.instances[name]
        except KeyError:
            raise BaaVError(f"no KV instance named {name!r}") from None

    def __iter__(self) -> Iterator[KVInstance]:
        return iter(self.instances.values())

    def degree(self) -> int:
        """``deg(D̃)``: max degree over all instances."""
        if not self.instances:
            return 0
        return max(instance.degree for instance in self)

    def instances_over(self, relation: str) -> List[KVInstance]:
        return [
            i for i in self if i.schema.relation.name == relation
        ]

    def size_bytes(self) -> int:
        return sum(instance.size_bytes() for instance in self)

    def __repr__(self) -> str:
        return f"BaaVStore({len(self.instances)} instances, deg={self.degree()})"
