"""KV-backed secondary indexes: hash (equality) and ordered (range).

Both index kinds live *in the same KV cluster* as the data they index —
the HTAP trick of keeping analytical filters off the scan path without a
separate index service. An index over relation ``R`` on attribute ``a``
is a set of KV pairs in a dedicated ``__idx__/R/a`` namespace:

* :class:`HashIndex` — one entry per distinct attribute value,
  ``encode_key((v,)) → posting list of primary keys``. Serves equality
  and IN predicates with one get per probed value.
* :class:`OrderedIndex` — the distinct value domain is cut into buckets
  of roughly equal cardinality at build time; each bucket holds its
  ``(value, pk)`` pairs sorted by value. A range predicate touches only
  the buckets its bounds straddle — a *bounded bucket walk*, O(matching
  buckets) instead of O(relation).

Because index entries are ordinary namespace pairs, they are replicated,
rebalanced, failed over and cache-invalidated exactly like TaaV/BaaV
data: every write goes through :meth:`repro.kv.cluster.KVCluster.put`
(so all R replicas and every registered block cache see it) and reads go
through :func:`repro.kv.cache.read_through_many` when a cache is
attached.

Write-through maintenance (:meth:`SecondaryIndex.apply`) mirrors the
BaaV maintainer: each inserted/deleted tuple read-modify-writes only the
posting list / bucket of its attribute value — ``O(|Δ|)`` work. The puts
are counted on the storage nodes like any other write, and the index
additionally tallies its own :class:`IndexCounters` so benchmarks can
report maintenance write amplification separately from base-table writes.

``NULL`` attribute values are never indexed: no supported predicate
(``=``, ``IN``, ranges) can select them, matching SQL comparison
semantics.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.kv import codec
from repro.kv.cache import read_through_many
from repro.kv.cluster import KVCluster
from repro.relational.schema import RelationSchema
from repro.relational.types import Row
from repro.tally import ShardSet, Tally, tally

#: distinct values per ordered-index bucket (build-time cut target)
DEFAULT_BUCKET_TARGET = 32

#: reserved ordered-index key holding the persisted bucket boundaries
_ORD_META_KEY = codec.encode_key(("__ord_meta__",))

#: largest integer a float64 represents exactly
_EXACT_FLOAT_INT = 2 ** 53


def _canonical(value: object) -> object:
    """Collapse numerically equal values onto one hash-index key.

    SQL (and the scan path's Python ``==``) treat ``10``, ``10.0`` and
    ``TRUE``/``1`` as equal, but their codec encodings differ, so a
    hash entry keyed by the stored value would miss a probe by an
    equal literal of another type. Numbers are canonicalized to float
    when exactly representable, to int otherwise (a float equal to a
    huge int is integral, so both sides land on the int form).
    """
    if not isinstance(value, (bool, int, float)):
        return value
    if isinstance(value, float):
        if value.is_integer() and abs(value) > _EXACT_FLOAT_INT:
            return int(value)
        return value
    if abs(value) <= _EXACT_FLOAT_INT:  # bool included: True == 1
        return float(value)
    return value


@tally
class IndexCounters(Tally):
    """Index accounting (one manager-wide ``ShardSet``, or one per
    standalone index): ``probes``/``postings`` meter the read path
    (index entries fetched / posting entries decoded), the
    ``maintenance_*`` family the write-through path, so write
    amplification is reportable."""

    probes: int = 0
    postings: int = 0
    maintenance_puts: int = 0
    maintenance_deletes: int = 0
    maintenance_bytes: int = 0


def index_namespace(relation: str, attr: str, kind: str) -> str:
    """The dedicated namespace of one index (``__idx__/<rel>/<attr>``)."""
    suffix = "#ord" if kind == "ordered" else ""
    return f"__idx__/{relation}/{attr}{suffix}"


#: namespace prefix of every index dependent on ``relation`` — the
#: cluster's drop cascade enumerates namespaces under this prefix
def dependent_index_prefix(relation: str) -> str:
    return f"__idx__/{relation}/"


def _posting_values(payload: bytes) -> int:
    """A posting list's logical values (#data), read off its header by
    the node that serves it: its entry count, one at least."""
    return max(1, codec.entry_count(payload))


class SecondaryIndex:
    """Shared machinery of both index kinds."""

    kind = "?"

    def __init__(
        self,
        relation: RelationSchema,
        attr: str,
        cluster: KVCluster,
        cache=None,
        stats: Optional[ShardSet[IndexCounters]] = None,
    ) -> None:
        if not relation.primary_key:
            raise ExecutionError(
                f"cannot index {relation.name!r}: secondary indexes post "
                f"primary keys, and the relation has none"
            )
        if attr not in relation:
            raise ExecutionError(
                f"relation {relation.name!r} has no attribute {attr!r}"
            )
        if attr in relation.primary_key:
            raise ExecutionError(
                f"{relation.name}.{attr} is part of the primary key — "
                f"key-bound predicates are already scan-free"
            )
        self.relation = relation
        self.attr = attr
        self.cluster = cluster
        self.cache = cache
        cluster.register_cache(cache)
        self.namespace = index_namespace(relation.name, attr, self.kind)
        self._attr_pos = relation.index_of(attr)
        self._pk_positions = relation.indexes_of(relation.primary_key)
        self.stats = stats if stats is not None else ShardSet(IndexCounters)

    def _project(self, row: Row) -> Tuple[object, Row]:
        return row[self._attr_pos], tuple(
            row[p] for p in self._pk_positions
        )

    def _put_entry(self, key_bytes: bytes, entries: List[Tuple[Row, int]]) -> None:
        payload = codec.encode_entries(entries)
        self.cluster.put(
            self.namespace, key_bytes, payload, n_values=len(entries)
        )
        stats = self.stats.local()
        stats.maintenance_puts += 1
        stats.maintenance_bytes += len(key_bytes) + len(payload)

    def _delete_entry(self, key_bytes: bytes) -> None:
        self.cluster.delete(self.namespace, key_bytes)
        self.stats.local().maintenance_deletes += 1

    def _fetch_entries(
        self, key_bytes_list: Sequence[bytes]
    ) -> List[List[Tuple[Row, int]]]:
        """Read-through fetch of posting payloads; counted as probes, and
        each served payload as its entry count of values on its node."""
        payloads = read_through_many(
            self.cache, self.cluster, self.namespace, key_bytes_list, _posting_values
        )
        out: List[List[Tuple[Row, int]]] = []
        stats = self.stats.local()
        stats.probes += len(key_bytes_list)
        for data in payloads:
            entries = [] if data is None else codec.decode_entries(data)[0]
            stats.postings += len(entries)
            out.append(entries)
        return out

    # -- write-through maintenance ----------------------------------------

    def apply(
        self, inserts: Iterable[Row] = (), deletes: Iterable[Row] = ()
    ) -> None:
        """Apply a Δ of base-table rows to the index (read-modify-write)."""
        by_key_add: Dict[bytes, List[Row]] = defaultdict(list)
        by_key_del: Dict[bytes, List[Row]] = defaultdict(list)
        for row in inserts:
            value, pk = self._project(tuple(row))
            if value is None:
                continue
            by_key_add[self._entry_key(value)].append(self._entry_row(value, pk))
        for row in deletes:
            value, pk = self._project(tuple(row))
            if value is None:
                continue
            by_key_del[self._entry_key(value)].append(self._entry_row(value, pk))
        for key_bytes in sorted(set(by_key_add) | set(by_key_del)):
            payload = self.cluster.peek(self.namespace, key_bytes)
            entries: List[Tuple[Row, int]] = (
                codec.decode_entries(payload)[0] if payload else []
            )
            counts: Dict[Row, int] = {}
            for entry_row, count in entries:
                counts[entry_row] = counts.get(entry_row, 0) + count
            for entry_row in by_key_add[key_bytes]:
                counts[entry_row] = counts.get(entry_row, 0) + 1
            for entry_row in by_key_del[key_bytes]:
                remaining = counts.get(entry_row, 0) - 1
                if remaining > 0:
                    counts[entry_row] = remaining
                else:
                    counts.pop(entry_row, None)
            if counts:
                self._put_entry(
                    key_bytes, [(r, c) for r, c in sorted(counts.items())]
                )
            else:
                self._delete_entry(key_bytes)

    def drop(self) -> int:
        """Remove every entry of this index from the cluster."""
        return self.cluster.drop_namespace(self.namespace)

    # -- per-kind hooks -----------------------------------------------------

    def _entry_key(self, value: object) -> bytes:
        raise NotImplementedError

    def _entry_row(self, value: object, pk: Row) -> Row:
        raise NotImplementedError


class HashIndex(SecondaryIndex):
    """Equality index: ``value → posting list of primary keys``."""

    kind = "hash"

    def _entry_key(self, value: object) -> bytes:
        return codec.encode_key((_canonical(value),))

    def _entry_row(self, value: object, pk: Row) -> Row:
        return pk

    def build(self, rows: Iterable[Row]) -> None:
        """Bulk-build from the current base rows (one put per value)."""
        postings: Dict[object, Dict[Row, int]] = defaultdict(dict)
        for row in rows:
            value, pk = self._project(tuple(row))
            if value is None:
                continue
            bucket = postings[value]
            bucket[pk] = bucket.get(pk, 0) + 1
        for value in postings:
            self._put_entry(
                self._entry_key(value),
                [(pk, c) for pk, c in sorted(postings[value].items())],
            )

    def lookup(self, values: Sequence[object]) -> List[Row]:
        """Primary keys of rows whose attribute equals any of ``values``.

        Deterministic order (sorted per probed value, values in given
        order) and de-duplicated across values, so downstream multi_get
        round trips are reproducible.
        """
        probe_values = [v for v in dict.fromkeys(values) if v is not None]
        if not probe_values:
            return []
        entry_lists = self._fetch_entries(
            [self._entry_key(v) for v in probe_values]
        )
        out: List[Row] = []
        seen = set()
        for entries in entry_lists:
            for pk, _count in entries:
                if pk not in seen:
                    seen.add(pk)
                    out.append(pk)
        return out


class OrderedIndex(SecondaryIndex):
    """Range index: bucketed sorted ``(value, pk)`` segments.

    Bucket boundaries are cut from the distinct value domain at build
    time (every :data:`DEFAULT_BUCKET_TARGET`-th distinct value) and
    persisted under a reserved meta key in the index namespace; values
    inserted later land in the bucket their value bisects into, so
    buckets can grow but the walk stays bounded by the predicate's
    value range.
    """

    kind = "ordered"

    def __init__(
        self,
        relation: RelationSchema,
        attr: str,
        cluster: KVCluster,
        cache=None,
        stats: Optional[ShardSet[IndexCounters]] = None,
        bucket_target: int = DEFAULT_BUCKET_TARGET,
    ) -> None:
        super().__init__(relation, attr, cluster, cache=cache, stats=stats)
        self.bucket_target = max(1, bucket_target)
        #: cut points: bucket ``i`` covers ``[_bounds[i-1], _bounds[i])``;
        #: recovered from the persisted meta entry when this object
        #: attaches to an already-built index namespace
        self._bounds: List[object] = self._load_bounds()

    def _load_bounds(self) -> List[object]:
        payload = self.cluster.peek(self.namespace, _ORD_META_KEY)
        if payload is None:
            return []
        entries, _ = codec.decode_entries(payload)
        return list(entries[0][0])

    @property
    def num_buckets(self) -> int:
        return len(self._bounds) + 1

    def _bucket_of(self, value: object) -> int:
        return bisect_right(self._bounds, value)

    def _entry_key(self, value: object) -> bytes:
        return codec.encode_key((self._bucket_of(value),))

    def _entry_row(self, value: object, pk: Row) -> Row:
        return (value,) + tuple(pk)

    def build(self, rows: Iterable[Row]) -> None:
        """Cut the domain into buckets and bulk-write them."""
        pairs: Dict[object, Dict[Row, int]] = defaultdict(dict)
        for row in rows:
            value, pk = self._project(tuple(row))
            if value is None:
                continue
            entry = self._entry_row(value, pk)
            pairs[value][entry] = pairs[value].get(entry, 0) + 1
        domain = sorted(pairs)
        self._bounds = [
            domain[i]
            for i in range(self.bucket_target, len(domain), self.bucket_target)
        ]
        buckets: Dict[int, List[Tuple[Row, int]]] = defaultdict(list)
        for value in domain:
            buckets[self._bucket_of(value)].extend(
                sorted(pairs[value].items())
            )
        for bucket_id in sorted(buckets):
            self._put_entry(
                codec.encode_key((bucket_id,)), buckets[bucket_id]
            )
        # persist the cut points so the index is self-describing in the
        # cluster (replicated and migrated with its entries)
        meta = codec.encode_entries([(tuple(self._bounds), 1)])
        self.cluster.put(self.namespace, _ORD_META_KEY, meta, n_values=1)

    def lookup_range(
        self,
        lo: object = None,
        hi: object = None,
        lo_strict: bool = False,
        hi_strict: bool = False,
    ) -> List[Row]:
        """Primary keys with ``lo (<|<=) value (<|<=) hi``; bounded walk.

        ``None`` bounds are open ends. Results are ordered by
        ``(value, pk)`` — deterministic for reproducible round trips.
        """
        first = 0 if lo is None else self._bucket_of(lo)
        # an upper bound can never match past its own bucket: bucket
        # lower bounds are exact domain values, so value > hi implies
        # bucket_of(value) >= bucket_of(hi)
        last = self.num_buckets - 1 if hi is None else self._bucket_of(hi)
        if lo is not None and hi is not None and self._cmp(hi, lo) < 0:
            return []
        keys = [
            codec.encode_key((bucket_id,))
            for bucket_id in range(first, last + 1)
        ]
        matched: List[Tuple[object, Row]] = []
        for entries in self._fetch_entries(keys):
            for entry_row, _count in entries:
                value, pk = entry_row[0], entry_row[1:]
                if lo is not None:
                    c = self._cmp(value, lo)
                    if c < 0 or (lo_strict and c == 0):
                        continue
                if hi is not None:
                    c = self._cmp(value, hi)
                    if c > 0 or (hi_strict and c == 0):
                        continue
                matched.append((value, pk))
        matched.sort()
        out: List[Row] = []
        seen = set()
        for _value, pk in matched:
            if pk not in seen:
                seen.add(pk)
                out.append(pk)
        return out

    @staticmethod
    def _cmp(a: object, b: object) -> int:
        return (a > b) - (a < b)
