"""Incremental maintenance of BaaV stores under updates (§8.2).

In response to a batch Δ of tuple insertions/deletions on the relational
database, every affected KV instance is updated with read-modify-write
operations on the touched keys only: ``O(|Δ| · deg(D̃))`` work, independent
of the database size. Degree metadata is maintained along the way.

The read-modify-write is also what makes BaaV *writes* slightly more
expensive than TaaV writes (Exp-4's throughput observation): a put on an
existing key must re-encode the whole (last segment of the) block.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.baav.block import Block
from repro.baav.store import BaaVStore, KVInstance, _encode_segment
from repro.errors import BaaVError
from repro.kv import codec
from repro.relational.types import Row


class Maintainer:
    """Applies relational updates to a BaaV store incrementally."""

    def __init__(self, store: BaaVStore) -> None:
        self.store = store

    def insert(self, relation: str, rows: Iterable[Row]) -> int:
        """Insert tuples of ``relation``; returns the touched block count.

        "Touched" means *distinct* blocks written across the affected KV
        instances: two inserted rows landing in the same block count
        once, not rows × instances.
        """
        rows = list(rows)
        touched = set()
        for instance in self.store.instances_over(relation):
            for row in rows:
                touched.add(
                    (instance.schema.name, self._insert_one(instance, row))
                )
        return len(touched)

    def delete(self, relation: str, rows: Iterable[Row]) -> int:
        """Delete tuples of ``relation`` (one occurrence per given row).

        Returns the number of *distinct* blocks actually modified; rows
        that matched no stored tuple touch nothing.
        """
        rows = list(rows)
        touched = set()
        for instance in self.store.instances_over(relation):
            for row in rows:
                key = self._delete_one(instance, row)
                if key is not None:
                    touched.add((instance.schema.name, key))
        return len(touched)

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _project(instance: KVInstance, row: Row) -> Tuple[Row, Row]:
        rel = instance.schema.relation
        key = tuple(row[rel.index_of(a)] for a in instance.schema.key)
        value = tuple(row[rel.index_of(a)] for a in instance.schema.value)
        return key, value

    def _insert_one(self, instance: KVInstance, row: Row) -> Row:
        """Apply one insert; returns the touched block's key."""
        key, value = self._project(instance, row)
        cluster = instance.cluster
        first_key = codec.encode_key(key + (0,))
        payload = cluster.peek(instance.namespace, first_key)
        if payload is None:
            block = Block.from_rows([value], compress=instance.compress)
            instance._write_block(key, block)
            return key
        # read-modify-write the *last* segment
        n_segments, _ = instance._decode_segment(payload)
        n_segments = max(1, n_segments)
        last_index = n_segments - 1
        last_key = codec.encode_key(key + (last_index,))
        last_payload = cluster.get(instance.namespace, last_key)
        if last_payload is None:
            raise BaaVError(f"missing last segment for key {key!r}")
        head, segment = instance._decode_segment(last_payload)
        segment.add(value, 1, compress=instance.compress)
        if (
            instance.split_threshold > 0
            and segment.num_tuples > instance.split_threshold
            and segment.num_entries > 1
        ):
            overflow = Block([segment.entries.pop()])
            cluster.put(
                instance.namespace,
                last_key,
                _encode_segment(head, segment),
                n_values=segment.num_values(),
            )
            cluster.put(
                instance.namespace,
                codec.encode_key(key + (last_index + 1,)),
                _encode_segment(0, overflow),
                n_values=overflow.num_values(),
            )
            self._bump_segment_count(instance, key, n_segments + 1)
        else:
            cluster.put(
                instance.namespace,
                last_key,
                _encode_segment(head, segment),
                n_values=segment.num_values(),
            )
        self._refresh_meta_on_insert(instance, key)
        self._refresh_stats(instance, key)
        return key

    def _bump_segment_count(
        self, instance: KVInstance, key: Row, n_segments: int
    ) -> None:
        cluster = instance.cluster
        first_key = codec.encode_key(key + (0,))
        payload = cluster.peek(instance.namespace, first_key)
        if payload is None:
            raise BaaVError(f"missing first segment for key {key!r}")
        _, first_block = instance._decode_segment(payload)
        cluster.put(
            instance.namespace,
            first_key,
            _encode_segment(n_segments, first_block),
            n_values=first_block.num_values(),
        )

    def _delete_one(self, instance: KVInstance, row: Row) -> Optional[Row]:
        """Apply one delete; returns the touched block's key, or ``None``
        when the row matched nothing (no block was modified)."""
        key, value = self._project(instance, row)
        cluster = instance.cluster
        block = instance.get(key)
        if block is None:
            return None
        removed = block.remove(value, 1)
        if not removed:
            return None
        # rewrite the whole logical block (segments may shrink)
        first_key = codec.encode_key(key + (0,))
        payload = cluster.peek(instance.namespace, first_key)
        n_segments, _ = instance._decode_segment(payload) if payload else (1, None)
        for index in range(max(1, n_segments)):
            cluster.delete(instance.namespace, codec.encode_key(key + (index,)))
        instance._num_blocks -= 1
        if block.num_tuples == 0:
            if instance.keep_stats:
                cluster.delete(
                    instance.stats_namespace, codec.encode_key(key)
                )
            instance._num_tuples -= 1
            return key
        instance._num_tuples -= block.num_tuples + 1
        instance._write_block(key, block)
        self._refresh_stats(instance, key)
        return key

    def _refresh_meta_on_insert(self, instance: KVInstance, key: Row) -> None:
        instance._num_tuples += 1
        block = _peek_block(instance, key)
        if block is not None and block.num_tuples > instance._degree:
            instance._degree = block.num_tuples

    def _refresh_stats(self, instance: KVInstance, key: Row) -> None:
        if not instance.keep_stats:
            return
        block = _peek_block(instance, key)
        if block is None:
            return
        stats = block.stats(instance.schema.value)
        if stats:
            from repro.baav.store import _encode_stats

            instance.cluster.put(
                instance.stats_namespace,
                codec.encode_key(key),
                _encode_stats(stats),
                n_values=len(stats) * 4,
            )


def _peek_block(instance: KVInstance, key: Row) -> Optional[Block]:
    """Read a logical block without counters (metadata refresh)."""
    cluster = instance.cluster
    payload = cluster.peek(instance.namespace, codec.encode_key(key + (0,)))
    if payload is None:
        return None
    n_segments, block = instance._decode_segment(payload)
    for index in range(1, max(1, n_segments)):
        data = cluster.peek(
            instance.namespace, codec.encode_key(key + (index,))
        )
        if data is None:
            break
        _, segment = instance._decode_segment(data)
        block.entries.extend(segment.entries)
    return block
