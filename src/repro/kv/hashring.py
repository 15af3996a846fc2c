"""Consistent hashing ring used by the DHT to place keys on storage nodes.

KV systems shard data over nodes with a distributed hash table (§3). We use
classic consistent hashing with virtual nodes so that adding a storage node
(the horizontal-scalability experiment, Exp-4) only moves ~1/n of the keys.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterator, List, Sequence, Tuple


#: points each node takes on the ring
VIRTUAL_NODES = 64


def _hash64(data: bytes) -> int:
    return int.from_bytes(hashlib.md5(data).digest()[:8], "big")


class HashRing:
    """Consistent-hash ring mapping byte keys to node ids."""

    def __init__(self, node_ids: Sequence[int] = ()) -> None:
        self._ring: List[Tuple[int, int]] = []  # (hash point, node id)
        self._points: List[int] = []
        self._nodes: Dict[int, bool] = {}
        for node_id in node_ids:
            self.add_node(node_id)

    @property
    def node_ids(self) -> List[int]:
        return sorted(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def add_node(self, node_id: int) -> None:
        if node_id in self._nodes:
            raise ValueError(f"node {node_id} already on the ring")
        self._nodes[node_id] = True
        for replica in range(VIRTUAL_NODES):
            point = _hash64(f"node:{node_id}:{replica}".encode())
            index = bisect.bisect(self._points, point)
            self._points.insert(index, point)
            self._ring.insert(index, (point, node_id))

    def remove_node(self, node_id: int) -> None:
        if node_id not in self._nodes:
            raise ValueError(f"node {node_id} not on the ring")
        del self._nodes[node_id]
        kept = [(p, n) for (p, n) in self._ring if n != node_id]
        self._ring = kept
        self._points = [p for p, _ in kept]

    def node_for(self, key: bytes) -> int:
        """Return the node id owning ``key``."""
        if not self._ring:
            raise ValueError("hash ring is empty")
        point = _hash64(key)
        index = bisect.bisect(self._points, point)
        if index == len(self._points):
            index = 0
        return self._ring[index][1]

    def iter_nodes(self, key: bytes) -> Iterator[int]:
        """Walk the ring clockwise from ``key``, yielding DISTINCT node ids.

        The first id yielded is :meth:`node_for`; subsequent ids are the
        successor nodes in ring order, each yielded once. Replica
        placement and failover both consume this walk: the first ``n``
        live ids are a key's preference list, so losing a node shifts
        ownership to the next distinct successor — never reshuffling
        unrelated keys.
        """
        if not self._ring:
            raise ValueError("hash ring is empty")
        point = _hash64(key)
        start = bisect.bisect(self._points, point)
        seen: set = set()
        total = len(self._nodes)
        for offset in range(len(self._ring)):
            node_id = self._ring[(start + offset) % len(self._ring)][1]
            if node_id not in seen:
                seen.add(node_id)
                yield node_id
                if len(seen) == total:
                    return

    def nodes_for(self, key: bytes, n: int) -> List[int]:
        """The first ``n`` distinct owners of ``key`` in ring-walk order.

        ``nodes_for(key, 1) == [node_for(key)]``. When the ring has
        fewer than ``n`` nodes, every node is returned (a replication
        factor can exceed the momentary cluster size during churn).
        """
        if n <= 0:
            raise ValueError("n must be positive")
        out: List[int] = []
        for node_id in self.iter_nodes(key):
            out.append(node_id)
            if len(out) == n:
                break
        return out
