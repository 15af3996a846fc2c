"""The TaaV (tuple-as-a-value) relation store — the conventional layout.

A relation ``R`` is stored as one KV pair per tuple ``(k, t)`` where ``k``
is the primary key of ``t`` (or a synthetic row id when ``R`` has no
primary key or duplicates occur), and ``t`` is the entire tuple (§3).
Scans iterate all keys and fetch every tuple with a get — the "costly
scan" the paper sets out to remove.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.kv import codec
from repro.kv.cache import read_through_many, read_waves
from repro.kv.cluster import KVCluster
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema
from repro.relational.types import Row


class TaaVRelation:
    """One relation stored tuple-as-a-value in the cluster.

    ``cache`` is an optional client-side read-through block cache
    (:mod:`repro.kv.cache`): point reads consult it first and only
    cache-missing keys reach the cluster; it is registered with the
    cluster so every write invalidates the touched keys. Blind scans
    bypass it.
    """

    def __init__(
        self,
        schema: RelationSchema,
        cluster: KVCluster,
        cache=None,
    ) -> None:
        self.schema = schema
        self.cluster = cluster
        self.cache = cache
        cluster.register_cache(cache)
        self.namespace = f"taav:{schema.name}"
        self._pk_positions: Optional[Tuple[int, ...]] = (
            schema.indexes_of(schema.primary_key) if schema.primary_key else None
        )
        #: the relation's tuple shape, compiled once (codec.row_decoder)
        self._decode_tuple = codec.row_decoder(
            [attribute.type for attribute in schema.attributes]
        )
        self._next_rowid = 0

    def _key_for(self, row: Row) -> Row:
        if self._pk_positions is not None:
            return tuple(row[p] for p in self._pk_positions)
        key = (self._next_rowid,)
        self._next_rowid += 1
        return key

    def load(self, rows: Iterable[Row]) -> None:
        """Bulk-load rows (counts puts on the storage nodes)."""
        arity = self.schema.arity
        for row in rows:
            key = self._key_for(row)
            self.cluster.put(
                self.namespace,
                codec.encode_key(key),
                codec.encode_row(row),
                n_values=arity,
            )

    def insert(self, row: Row) -> None:
        self.load([row])

    def delete_by_key(self, key: Row) -> bool:
        return self.cluster.delete(self.namespace, codec.encode_key(key))

    def delete_row(self, row: Row) -> bool:
        """Delete a full tuple (one occurrence) from the store.

        Keyed relations delete by primary key. Rowid-keyed relations
        cannot recover their synthetic key from the tuple, so they fall
        back to locating one matching pair by an (uncounted) payload
        scan — the delete itself is still counted. Returns whether a
        pair was removed.
        """
        if self._pk_positions is not None:
            return self.delete_by_key(
                tuple(row[p] for p in self._pk_positions)
            )
        encoded = codec.encode_row(tuple(row))
        for key_bytes in self.cluster.list_keys(self.namespace).keys:
            if self.cluster.peek(self.namespace, key_bytes) == encoded:
                return self.cluster.delete(self.namespace, key_bytes)
        return False

    def get(self, key: Row) -> Optional[Row]:
        """Point get by primary key — a :meth:`multi_get` of one
        (read-through the cache when present)."""
        return self.multi_get([key])[0]

    def multi_get(self, keys: Sequence[Row]) -> List[Optional[Row]]:
        """Batched point gets (one round trip per owning node); positional.

        With a cache attached, only the cache-missing keys reach the
        cluster — the batch the nodes see shrinks with the hit rate.
        """
        payloads = read_through_many(
            self.cache,
            self.cluster,
            self.namespace,
            [codec.encode_key(tuple(key)) for key in keys],
            self._tuple_values,
        )
        decode = self._decode_tuple
        return [None if data is None else decode(data, 0)[0] for data in payloads]

    def _tuple_values(self, payload: bytes) -> int:
        """A stored tuple's logical values (#data): its arity."""
        return self.schema.arity

    def scan(self) -> Iterator[Row]:
        """Full scan: one counted get per tuple (the TaaV scan cost).

        Every pair is ``arity`` logical values, charged on its owning
        node — the blind scan's #data, which used to go uncounted.
        """
        for _, value in self.cluster.scan(
            self.namespace, count_as_gets=True, values_of=self._tuple_values
        ):
            yield self._decode_tuple(value, 0)[0]

    def fetch_all(self, batch_size: int = 1) -> Relation:
        """Materialize the full relation, counting gets and values.

        ``batch_size=1`` is the conventional stack: one get invocation
        (and round trip) per tuple, driven by ``next()``. A larger batch
        models a client that extracts keys first and coalesces its gets —
        same #get, far fewer round trips; over node processes the next
        batch is already shipped (:func:`repro.kv.cache.read_waves`).
        """
        if batch_size <= 1:
            return Relation(self.schema, list(self.scan()))
        decode = self._decode_tuple
        waves = read_waves(
            self.cache, self.cluster, self.namespace,
            self.cluster.list_keys(self.namespace), batch_size,
            self._tuple_values,
        )
        return Relation(self.schema, [
            decode(data, 0)[0]
            for wave in waves for data in wave if data is not None
        ])

    def __len__(self) -> int:
        """Tuples stored (as the calling thread's pinned snapshot sees
        them, when it has one)."""
        return len(self.cluster.list_keys(self.namespace).keys)


class TaaVStore:
    """A whole database stored tuple-as-a-value."""

    def __init__(self, cluster: KVCluster, cache=None) -> None:
        self.cluster = cluster
        self.cache = cache
        self.relations: Dict[str, TaaVRelation] = {}

    @classmethod
    def from_database(
        cls, database: Database, cluster: KVCluster, cache=None
    ) -> "TaaVStore":
        store = cls(cluster, cache=cache)
        for relation in database:
            store.add_relation(relation)
        return store

    def add_relation(self, relation: Relation) -> TaaVRelation:
        taav = TaaVRelation(relation.schema, self.cluster, cache=self.cache)
        taav.load(relation.rows)
        self.relations[relation.schema.name] = taav
        return taav

    def relation(self, name: str) -> TaaVRelation:
        return self.relations[name]

    def __contains__(self, name: str) -> bool:
        return name in self.relations
