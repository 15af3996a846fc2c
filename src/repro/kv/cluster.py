"""The KV cluster: a replicated DHT of storage nodes with namespaces.

This is the storage layer of Fig. 1: keys are placed on nodes by
consistent hashing; clients issue ``get``/``put``/``delete`` and drive
scans with ``next()``-style iteration. Every operation is counted on the
serving node so the evaluation can report #get, #data and bytes moved;
a read's #data is what the caller's ``values_of(payload)`` reads off
each payload's header there (one value a payload without it).
Namespaces isolate key spaces of different relations / KV instances: the
stored key is ``encode_value(namespace) + key_bytes``.

With ``replication_factor=R`` every key lives on the first R distinct
**live** nodes of its ring walk (its *preference list*). After every
membership event — ``add_node`` / ``remove_node`` / ``fail_node`` /
``recover_node``, or a dead node process detected — one rebalance sweep
restores the invariant **every live owner of a key holds its current
value, and no live non-owner holds it**, charging what it moved to the
receiving nodes' ``rebalance_*`` counters and summarizing it in
:attr:`KVCluster.last_rebalance`. ``recover_node`` first replays the
namespace drops and deletes the node missed (its tombstones), so no
stale entry resurrects.

One fan-out
-----------

Every operation that talks to the nodes is one placement by the router
(:meth:`KVCluster._route`) and one :meth:`KVCluster._fan_out` — a
``{node id: batch}`` and a per-node call. The placements:

* **reads** (``get`` / ``multi_get`` / ``peek``): one live owner per key
  — its first live owner, the node the scan walk lists it from (or the
  node a current :class:`KeyListing` names), whatever R;
* **writes** (``put`` / ``multi_put`` / ``delete``): all R live owners,
  so write counters honestly show the R× cost;
* **every live node**, for ``scan`` / ``list_keys`` (each key kept only
  from its primary, first live, owner, so a pair is counted once),
  ``namespaces``, ``drop_namespace``, the rebalance sweep and the
  ``wal_stats`` / ``server_stats`` folds; the counter folds and
  ``size_bytes`` ask down nodes too.

Over node processes a read fan-out ships every node's request frame
before it reads the first answer, and :meth:`KVCluster.send_multi_get`
ships a whole wave for a later ``multi_get(..., ahead=)`` to read: the
nodes serve while the client decodes (``docs/ARCHITECTURE.md``, "A
request in two halves").

A dead node process (socket transport) surfaces as
:class:`~repro.errors.NodePeerError` out of the fan-out. The
:meth:`KVCluster._peer_failover` wrapping every operation turns it into
a failover — the peer is failed as ``fail_node(kill=True)`` would, its
ranges re-replicate from the survivors, and the operation reruns, routed
afresh — and raises :class:`~repro.errors.ClusterUnavailableError` only
when no replica is left. Maintenance writes (namespace drops, rebalance
flushes, tombstone replay) are uncounted :meth:`StorageNode.mutate`
calls: the node process's own mutation path, checkpoint included, on
both transports.

Concurrency
-----------

The cluster is safe to share between the query service's worker
threads. A writer-preferring :class:`~repro.locks.RWLock` is held
**shared** by reads, scans, counters and the ordinary write stream
(``put`` / ``multi_put`` / ``delete`` are serialized per key by each
:class:`StorageNode`'s own mutex), and **exclusive** by membership
churn, ``drop_namespace`` and ``register_cache``. Scans materialize
their pairs per node and *then* stream them, so no cluster lock is held
across a ``yield``; counters are thread-sharded (:mod:`repro.kv.node`),
so metering is lock-free and :meth:`KVCluster.get_stats` snapshots hold
their invariants (``hits <= gets``).

``transport="socket"`` (or ``REPRO_KV_TRANSPORT``) runs each node as its
own OS process behind :mod:`repro.kv.wire`; counters stay client-side,
so accounting is identical across transports. ``durability="wal"`` (or
a ``data_dir``, or ``REPRO_KV_DURABILITY``) write-ahead-logs every node
under ``data_dir/node-<id>``; a killed durable node recovers by replay
plus a delta catch-up. ``docs/ARCHITECTURE.md`` has the full models.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import weakref
from dataclasses import dataclass, field
from itertools import islice
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
    cast,
)

from repro.env import env_choice
from repro.errors import ClusterUnavailableError, NodePeerError
from repro.kv import wal as walmod
from repro.kv import wire
from repro.kv.codec import encode_value
from repro.kv.hashring import HashRing
from repro.kv.node import NodeCounters, StorageNode, ValuesOf
from repro.kv.remote import RemoteNode
from repro.locks import RWLock, make_lock
from repro.mvcc.versions import VersionStore

#: environment override for the default transport, so an unmodified test
#: suite can be pointed at real node processes (the CI socket matrix
#: sets ``REPRO_KV_TRANSPORT=socket``)
TRANSPORT_ENV = "REPRO_KV_TRANSPORT"
TRANSPORTS = ("local", "socket")

#: environment override for the default durability mode, so an
#: unmodified test suite runs with write-ahead logging on (the CI
#: ``deployments`` matrix sets ``REPRO_KV_DURABILITY=wal``)
DURABILITY_ENV = "REPRO_KV_DURABILITY"
DURABILITY_MODES = ("off", "wal")

_R = TypeVar("_R")


def _close_all(sent: Dict[int, Any]) -> None:
    """Close every request handle of ``sent`` whose answer is unread."""
    for handle in sent.values():
        handle.close()


def _close_nodes(nodes: Dict[int, StorageNode],
                 owned_dir: Optional[str] = None) -> None:
    """GC/exit safety net: terminate any node processes still running
    when a cluster is dropped without :meth:`KVCluster.close`, and
    remove the cluster-owned scratch data directory (if any)."""
    for node in nodes.values():
        try:
            node.close()
        # repro-lint: disable=broad-except -- GC/exit teardown safety
        # net: a dying node process must not abort the sweep
        except Exception:
            pass
    if owned_dir is not None:
        shutil.rmtree(owned_dir, ignore_errors=True)


@dataclass
class RebalanceReport:
    """What one membership event moved (also charged to node counters)."""

    keys_moved: int = 0
    bytes_moved: int = 0
    round_trips: int = 0
    keys_dropped: int = 0

    def __str__(self) -> str:
        return (
            f"moved {self.keys_moved} keys / {self.bytes_moved}B "
            f"in {self.round_trips} transfers, "
            f"dropped {self.keys_dropped}"
        )


@dataclass
class ClusterStats:
    """A consistent point-in-time snapshot of the cluster's accounting.

    Taken under the cluster lock from the thread-sharded counters, so
    cross-field invariants hold (``hits <= gets``, replica counts match
    membership) — unlike reading live counters mid-write, which could
    observe a torn state. All counter objects are copies; mutating them
    affects nothing.
    """

    totals: NodeCounters = field(default_factory=NodeCounters)
    per_node: Dict[int, NodeCounters] = field(default_factory=dict)
    num_nodes: int = 0
    num_live_nodes: int = 0
    replication_factor: int = 1
    #: ``"local"`` or ``"socket"`` — which transport served the ops
    transport: str = "local"
    #: aggregate of every registered client-side block cache (None when
    #: no cache is registered); snapshot-consistent per cache
    cache: Optional[object] = None


#: ``(placement generation, node id per key)`` — where a listing found
#: the keys of a batch, positional with the batch
ListedOn = Tuple[int, Sequence[int]]


class KeyListing(NamedTuple):
    """The keys of a namespace as one listing walk found them.

    The walk goes node by node, so it knows which node it read each key
    from: the key's first live owner, whatever R — the node a read of
    the key goes to, for as long as membership stands. A fetch that hands
    the owners back (:meth:`KVCluster.multi_get`'s ``listed_on``) is
    routed by them instead of hashing every key onto the ring again.
    """

    #: stripped key bytes, distinct
    keys: List[bytes]
    #: the node each key was listed on, positional with ``keys``; ``None``
    #: when the MVCC overlay rewrote the listing (no node vouches for a
    #: key the overlay put back)
    owners: Optional[List[int]]
    #: :attr:`KVCluster._placement_generation` during the walk
    generation: int

    def listed_on(self, start: int, stop: int) -> Optional[ListedOn]:
        """What ``multi_get`` takes for the batch ``keys[start:stop]``."""
        if self.owners is None:
            return None
        return self.generation, self.owners[start:stop]


class InFlight(NamedTuple):
    """A multi-get wave :meth:`KVCluster.send_multi_get` shipped and
    nobody has read yet: hand it to ``multi_get(..., ahead=)`` for the
    same keys, or :meth:`close` it."""

    #: :attr:`KVCluster._placement_generation` when it was routed
    generation: int
    #: the full keys asked for, positional
    fulls: List[bytes]
    #: node id -> positions of ``fulls``, as the router placed them
    routed: Dict[int, List[int]]
    #: node id -> the request handle holding its unread answer
    sent: Dict[int, Any]

    def close(self) -> None:
        """Drop every unread answer (idempotent)."""
        _close_all(self.sent)


def _send_get(fulls: List[bytes]) -> Callable[[StorageNode, List[int]], Any]:
    """The ``send`` of a multi-get fan-out over ``fulls``: a node's
    group as :meth:`KVCluster.multi_get` asks for it, one ``MULTI_GET``
    of its distinct keys."""
    return lambda node, group: node.send(
        wire.OP_MULTI_GET, list(dict.fromkeys([fulls[i] for i in group]))
    )


class KVCluster:
    """A cluster of :class:`StorageNode` behind a consistent-hash ring."""

    def __init__(
        self,
        num_nodes: int = 4,
        engine: str = "mem",
        replication_factor: int = 1,
        transport: Optional[str] = None,
        data_dir: Optional[str] = None,
        durability: Optional[str] = None,
        fsync_policy: str = "group",
        checkpoint_interval: Optional[int] = None,
    ) -> None:
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if replication_factor <= 0:
            raise ValueError("replication_factor must be positive")
        if replication_factor > num_nodes:
            raise ValueError(
                f"replication_factor {replication_factor} exceeds "
                f"num_nodes {num_nodes}"
            )
        if transport is None:
            transport = env_choice(TRANSPORT_ENV, TRANSPORTS, "local")
        if transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {transport!r}; expected one of "
                f"{list(TRANSPORTS)}"
            )
        if durability is None:
            if data_dir is not None:
                durability = "wal"
            else:
                durability = env_choice(DURABILITY_ENV, DURABILITY_MODES, "off")
        if durability not in DURABILITY_MODES:
            raise ValueError(
                f"unknown durability mode {durability!r}; expected one "
                f"of {list(DURABILITY_MODES)}"
            )
        if durability == "off" and data_dir is not None:
            raise ValueError(
                "data_dir given but durability='off' — a data directory "
                "implies write-ahead logging"
            )
        #: ``"local"`` = in-process node objects; ``"socket"`` = one OS
        #: process per node behind the wire protocol (see repro.kv.wire)
        self.transport = transport
        self.engine = engine
        self.replication_factor = replication_factor
        #: ``"off"`` = volatile nodes (the default); ``"wal"`` = every
        #: node write-ahead-logs + checkpoints under ``data_dir``
        self.durability = durability
        self.fsync_policy = fsync_policy
        self.checkpoint_interval = checkpoint_interval
        self._owns_data_dir = False
        if durability == "wal":
            walmod.validate_fsync_policy(fsync_policy)
            if data_dir is None:
                # scratch durability: crash-consistent for the cluster's
                # lifetime, removed when it closes / is collected
                data_dir = tempfile.mkdtemp(prefix="repro-kv-")
                self._owns_data_dir = True
        self.data_dir = data_dir
        self.nodes: Dict[int, StorageNode] = {}
        self.ring = HashRing()
        #: node ids currently crashed (on the ring, but unreachable)
        self._down: Set[int] = set()
        #: bumped by every membership change (they all end in
        #: :meth:`_rebalance`): the owners a :class:`KeyListing` carries
        #: are only believed while this still reads what the listing saw
        self._placement_generation = 0
        #: per-down-node log of the deletes it missed (namespace prefixes,
        #: full keys), applied on recovery so stale entries cannot
        #: resurrect
        self._tombstones: Dict[int, Tuple[List[bytes], Set[bytes]]] = {}
        #: client-side block caches subscribed to write invalidations
        self._caches: List = []
        #: MVCC version overlay (attached by a transaction-enabled
        #: system): reads pinned at a snapshot epoch are answered from
        #: it, and commit-epoch writes record superseded values into it
        self._versions: Optional[VersionStore] = None
        #: every namespace a write has touched (all writes flow through
        #: this client, so the registry is complete); lets namespace
        #: enumeration avoid decode-scanning the whole cluster
        self._namespaces: Set[str] = set()
        #: summary of the most recent migration (None before any event)
        self.last_rebalance: Optional[RebalanceReport] = None
        #: shared/exclusive lock (see "Concurrency" in the module docs):
        #: reads and ordinary writes share it, membership events and
        #: namespace drops hold it exclusively
        self._lock = RWLock("KVCluster._lock")
        #: guards the namespace registry (touched on the shared path)
        self._meta_lock = make_lock("KVCluster._meta_lock")
        self._closed = False
        #: kills any still-running node processes if the cluster is
        #: garbage-collected without close() — tests create hundreds of
        #: throwaway clusters and must not leak children (or scratch
        #: data directories)
        self._finalizer = weakref.finalize(
            self, _close_nodes, self.nodes,
            self.data_dir if self._owns_data_dir else None,
        )
        for node_id in range(num_nodes):
            self._add_node(node_id)

    # -- cache invalidation bus -------------------------------------------

    def register_cache(self, cache) -> None:
        """Subscribe a client-side block cache to write invalidations.

        Every write that flows through the cluster (``put``,
        ``multi_put``, ``delete``, ``drop_namespace``) invalidates the
        touched ``(namespace, key_bytes)`` in every registered cache, so
        read-through caches can never serve stale payloads. Replica
        migration never changes a key's logical value, so rebalancing
        needs no invalidations — the bus stays write-driven. Idempotent.
        """
        with self._lock.write():
            if cache is not None and all(c is not cache for c in self._caches):
                self._caches.append(cache)

    def _invalidate(self, namespace: str, key_bytes: bytes) -> None:
        for cache in self._caches:
            cache.invalidate(namespace, key_bytes)

    # -- MVCC overlay ------------------------------------------------------

    def attach_versions(self, versions: VersionStore) -> None:
        """Attach the MVCC version overlay (idempotent for the same
        store; attaching a different one is refused — the overlay's
        chains describe *this* cluster's write history)."""
        with self._lock.write():
            if self._versions is versions:
                return
            if self._versions is not None:
                raise ValueError("a version store is already attached")
            self._versions = versions

    @property
    def versions(self) -> Optional[VersionStore]:
        """The attached MVCC overlay (None = versioning off)."""
        return self._versions

    def _as_of_snapshot(
        self,
        namespace: str,
        keys: Sequence[bytes],
        fetch: Callable[[Sequence[int]], List[Optional[bytes]]],
    ) -> List[Optional[bytes]]:
        """``keys``' values as the calling thread's pinned snapshot sees
        them, ``fetch(positions)`` reading base values from the nodes.
        The version chains answer before the fetch — what they hold
        reaches no node: zero #get, like a cache hit — and again after
        it, as a commit racing the fetch records the superseded value
        before overwriting it: no too-new value leaks into the snapshot.
        """
        # repro-lint: holds=_lock -- callers hold the read lock
        results: List[Optional[bytes]] = [None] * len(keys)
        versions = self._versions

        def from_overlay(positions: Sequence[int]) -> Sequence[int]:
            """Answer the positions the chains hold; return the rest."""
            if versions is None or (epoch := versions.overlay_epoch()) is None:
                return positions
            visible = versions.read_visible_many(
                namespace, [keys[i] for i in positions], epoch
            )
            for index, (handled, value) in zip(positions, visible):
                if handled:
                    results[index] = value
            return [i for i, (seen, _) in zip(positions, visible) if not seen]

        pending = from_overlay(range(len(keys)))
        if pending:
            for index, value in zip(pending, fetch(pending)):
                results[index] = value
            from_overlay(pending)
        return results

    def _record_overwrite(
        self, namespace: str, key_bytes: bytes, full: bytes
    ) -> None:
        """Capture a key's superseded value before a commit overwrites
        it. No-op outside a recording (commit) context — loads, WAL
        replay and rebalancing are not versioned. The old value is
        peeked OUTSIDE the version-store lock (node I/O must never run
        under it), which is race-free because the commit mutex admits
        one installing writer at a time."""
        # repro-lint: holds=_lock -- called from the shared write paths
        versions = self._versions
        if versions is None:
            return
        epoch = versions.recording_epoch()
        if epoch is None:
            return
        if not versions.version_needed(namespace, key_bytes, epoch):
            return
        old_value = self.nodes[self._first_live_owner(full)].peek(full)
        versions.record_write(namespace, key_bytes, epoch, old_value)

    # -- topology --------------------------------------------------------

    def _add_node(self, node_id: int, fresh: bool = False) -> StorageNode:
        # repro-lint: holds=_lock -- callers hold the write lock, except
        # __init__, which owns the not-yet-shared cluster exclusively
        node_dir = (
            os.path.join(self.data_dir, f"node-{node_id}")
            if self.data_dir is not None
            else None
        )
        if fresh and node_dir is not None:
            # a NEW member must start empty — node ids can be reused
            # after remove_node, and replaying the removed node's stale
            # generation would resurrect data the cluster migrated away
            shutil.rmtree(node_dir, ignore_errors=True)
        node_cls = RemoteNode if self.transport == "socket" else StorageNode
        node: StorageNode = node_cls(
            node_id, engine=self.engine,
            data_dir=node_dir,
            fsync_policy=self.fsync_policy,
            checkpoint_interval=self.checkpoint_interval,
        )
        self.nodes[node_id] = node
        self.ring.add_node(node_id)
        return node

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut the cluster down, terminating any node processes.

        Idempotent; ``transport="local"`` clusters have nothing to
        reap, so it is always safe to call. Also runs automatically
        when the cluster is garbage-collected.
        """
        with self._lock.write():
            if self._closed:
                return
            self._closed = True
        self._finalizer()

    def __enter__(self) -> "KVCluster":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- peer failure handling ---------------------------------------------

    def _peer_failover(
        self, fn: Callable[[], _R], exclusive: bool = False
    ) -> _R:
        """Run ``fn`` under the cluster lock (its write side when
        ``exclusive``), absorbing dead-peer errors by failing over.

        A :class:`NodePeerError` (socket transport only: the node
        process died or its port vanished) marks the peer down,
        re-replicates its ranges from the survivors, and *retries the
        operation* against the repaired membership. The loop is
        bounded: every iteration removes one node from the live set,
        and with none left the operation raises
        :class:`ClusterUnavailableError` instead.
        """
        while True:
            try:
                with self._lock.write() if exclusive else self._lock.read():
                    return fn()
            except NodePeerError as exc:
                self._note_peer_down(exc.node_id)

    def _note_peer_down(self, node_id: int) -> None:
        """Crash-detect ``node_id``: fail it like ``fail_node(kill=True)``
        (reaping its process). Cascading deaths discovered while
        re-replicating are absorbed in the same sweep."""
        with self._lock.write():
            while node_id in self.nodes and node_id not in self._down:
                try:
                    self.fail_node(node_id, kill=True)
                except NodePeerError as exc:
                    node_id = exc.node_id

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_live_nodes(self) -> int:
        return len(self.nodes) - len(self._down)

    @property
    def live_node_ids(self) -> List[int]:
        return sorted(nid for nid in self.nodes if nid not in self._down)

    @property
    def down_node_ids(self) -> List[int]:
        return sorted(self._down)

    def is_live(self, node_id: int) -> bool:
        return node_id in self.nodes and node_id not in self._down

    def add_node(self) -> StorageNode:
        """Add a storage node and migrate the key ranges it now owns.

        Models horizontal scale-out (Exp-4). Only keys whose preference
        list changed are moved — the consistent-hashing guarantee — and
        the copies are charged to the rebalance counters.
        """
        with self._lock.write():
            new_id = max(self.nodes) + 1
            node = self._add_node(new_id, fresh=True)
            self.last_rebalance = self._rebalance()
            return node

    def remove_node(self, node_id: int) -> None:
        """Decommission a node, migrating its data to the new owners.

        Removing a **down** node discards whatever only it held (a crash
        followed by replacement); removing the last node is refused.
        """
        with self._lock.write():
            if node_id not in self.nodes:
                raise ValueError(f"node {node_id} not in the cluster")
            if len(self.nodes) == 1:
                raise ValueError("cannot remove the last node")
            self.ring.remove_node(node_id)
            if node_id in self._down:
                # crashed node replaced: its disk never comes back
                self._down.discard(node_id)
                self._tombstones.pop(node_id, None)
                self.nodes.pop(node_id).close()
            # a live leaving node is one more source: the sweep copies
            # its ranges to the new owners, then empties it
            self.last_rebalance = self._rebalance()
            if node_id in self.nodes:
                self.nodes.pop(node_id).close()

    def fail_node(self, node_id: int, kill: bool = False) -> None:
        """Crash a node: unreachable, but its disk survives for recovery.

        The surviving replicas eagerly re-replicate every key range that
        lost a copy onto the next live node of its ring walk, so reads
        and writes keep succeeding as long as fewer than
        ``replication_factor`` owners of a key are down.

        The default is **partition** semantics on both transports: the
        cluster stops talking to the node but its store survives (a
        socket node's process keeps running), so local and socket
        failover/recovery behave — and count — identically.
        ``kill=True`` models a real crash instead: the node's volatile
        store is destroyed on *both* transports (a socket node's
        process is terminated, a local node drops its store object).
        Recovery then restarts the node: by WAL replay + delta
        catch-up when the cluster is durable, empty + full re-sync
        otherwise. A node that cannot honor crash semantics (an
        injected store) warns ``RuntimeWarning`` and keeps partition
        semantics.
        """
        with self._lock.write():
            if node_id not in self.nodes:
                raise ValueError(f"node {node_id} not in the cluster")
            if node_id in self._down:
                raise ValueError(f"node {node_id} is already down")
            self._down.add(node_id)
            self._tombstones[node_id] = ([], set())
            if kill:
                self.nodes[node_id].crash()
            self.last_rebalance = self._rebalance()

    def recover_node(self, node_id: int) -> None:
        """Bring a crashed node back and re-sync it with the cluster.

        Recovery first applies the deletes the node missed while down
        (logged per down node — no stale resurrection), then re-syncs
        the ranges it owns again from the replicas that kept serving,
        overwriting any stale values, and drops the failover copies the
        stand-in nodes no longer own.

        A node that was *killed* (``fail_node(kill=True)`` or an
        external ``SIGKILL``) restarts first: a durable node replays
        its checkpoint + WAL tail and then takes the tombstones + delta
        sweep like a partitioned node — only the writes it missed move
        over the wire; a volatile node comes back empty, its tombstones
        are moot, and the sweep re-syncs everything it owns.
        """
        with self._lock.write():
            if node_id not in self.nodes:
                raise ValueError(f"node {node_id} not in the cluster")
            if node_id not in self._down:
                raise ValueError(f"node {node_id} is not down")
            node = self.nodes[node_id]
            crashed = node.is_crashed
            if crashed:
                node.restart()
            prefixes, keys = self._tombstones.pop(node_id, ([], set()))

            def replay(node: StorageNode, _: None) -> None:
                """The namespace drops and deletes the node missed."""
                for prefix in prefixes:
                    node.mutate(wire.OP_DROP_PREFIX, prefix)
                if keys:
                    node.mutate(wire.OP_MULTI_DELETE, sorted(keys))
            if node.durable or not crashed:
                self._fan_out(replay, {node_id: None})
            self._down.discard(node_id)
            self.last_rebalance = self._rebalance(stale_id=node_id)

    # -- placement: the router and the fan-out -----------------------------

    def _live_owner_ids(self, full_key: bytes) -> List[int]:
        """The key's preference list: first R distinct LIVE ring nodes
        (refused when every owner is down)."""
        if self.replication_factor == 1 and not self._down:
            return [self.ring.node_for(full_key)]
        owners: List[int] = []
        for node_id in self.ring.iter_nodes(full_key):
            if node_id not in self._down:
                owners.append(node_id)
                if len(owners) == self.replication_factor:
                    break
        if not owners:
            raise ClusterUnavailableError(
                "no live replica for key (all owners are down)"
            )
        return owners

    def _first_live_owner(self, full_key: bytes) -> int:
        """The node a read of the key goes to: its first live owner,
        whatever R — :meth:`HashRing.node_for` while no node is down
        (the ring walk yields it first), else the walk's first live id
        (refused when every node of the walk is down)."""
        if not self._down:
            return self.ring.node_for(full_key)
        for node_id in self.ring.iter_nodes(full_key):
            if node_id not in self._down:
                return node_id
        raise ClusterUnavailableError(
            "no live replica for key (all owners are down)"
        )

    @staticmethod
    def full_key(namespace: str, key_bytes: bytes) -> bytes:
        return encode_value(namespace) + key_bytes

    def _route(
        self,
        fulls: Sequence[bytes],
        read: bool = False,
        listed_on: Optional[ListedOn] = None,
    ) -> Dict[int, List[int]]:
        """The router: node id -> the positions of ``fulls`` it serves.

        A write goes to every live owner. A read goes to one, whatever
        R: the node a still-current ``listed_on`` names, else the key's
        :meth:`_first_live_owner` — the node :meth:`_primary_walk` lists
        it from. The third policy, every live node, is the fan-out's
        default.
        """
        # repro-lint: holds=_lock -- callers hold the read lock
        if listed_on and listed_on[0] != self._placement_generation:
            listed_on = None
        by_node: Dict[int, List[int]] = {}
        for index, full in enumerate(fulls):
            if listed_on is not None:
                node_id = listed_on[1][index]
            elif read:
                node_id = self._first_live_owner(full)
            else:
                for node_id in self._live_owner_ids(full):
                    by_node.setdefault(node_id, []).append(index)
                continue
            group = by_node.get(node_id)
            if group is None:
                by_node[node_id] = [index]
            else:
                group.append(index)
        return by_node

    def _fan_out(
        self,
        call: Callable[..., _R],
        batches: Optional[Dict[int, Any]] = None,
        send: Optional[Callable[[StorageNode, Any], Any]] = None,
    ) -> Dict[int, _R]:
        """THE per-node fan-out: ``call(node, batch)`` on each node of
        ``batches`` in order (default: every live node, batch ``None``;
        ``self.nodes``: every node, down ones too, with itself as its
        batch); the answers by node id. A dead peer's :class:`NodePeerError`
        goes to the :meth:`_peer_failover` wrapping the operation, which
        reruns it — routed afresh over the repaired membership.

        ``send(node, batch)`` ships the frame of a call that is one read
        RPC: across node processes, every node's frame but the first is
        then sent before the first node's call, and ``call(node, batch,
        sent)`` reads each answer — the nodes serve while the client
        waits on, and decodes, the ones before. One node, or in-process
        nodes, run the plain loop."""
        # repro-lint: holds=_lock -- callers hold the lock
        nodes = self.nodes
        if batches is None:
            batches = {nid: None for nid in nodes if nid not in self._down}
        if send is None or len(batches) < 2 or self.transport == "local":
            answers: Dict[int, _R] = {}
            for node_id, batch in batches.items():
                answers[node_id] = call(nodes[node_id], batch)
            return answers
        sent: Dict[int, Any] = {}
        try:
            for node_id, batch in islice(batches.items(), 1, None):
                sent[node_id] = send(nodes[node_id], batch)
            return self._receive(call, batches, sent)
        finally:
            _close_all(sent)

    def _receive(
        self,
        call: Callable[..., _R],
        batches: Dict[int, Any],
        sent: Dict[int, Any],
    ) -> Dict[int, _R]:
        """Finish a fan-out whose frames ``sent`` holds by node id:
        ``call(node, batch, sent)`` on each node of ``batches``, in order.
        However it ends, no answer is left unread on a connection."""
        # repro-lint: holds=_lock -- callers hold the lock
        nodes = self.nodes
        try:
            return {
                node_id: call(nodes[node_id], batch, sent.get(node_id))
                for node_id, batch in batches.items()
            }
        finally:
            _close_all(sent)

    def _primary_walk(self, prefix: bytes, pairs: bool) -> Dict[int, list]:
        """Every live node's keys under ``prefix`` (``pairs``: with their
        values), each logical key once — under replication, from its
        :meth:`_first_live_owner` only. The per-node reads take the
        node mutex: concurrent puts cannot mutate a store mid-read."""
        # repro-lint: holds=_lock -- callers hold the read lock
        op = wire.OP_SCAN if pairs else wire.OP_KEYS

        def listed(node: StorageNode, _: None, sent: Any = None) -> list:
            found: list = (
                node.snapshot_scan(prefix, sent) if pairs
                else node.snapshot_keys(prefix, sent)
            )
            return found if self.replication_factor == 1 else [
                item for item in found
                if self._first_live_owner(item[0] if pairs else item)
                == node.node_id
            ]
        return self._fan_out(listed, send=lambda node, _: node.send(op, prefix))

    # -- KV API ------------------------------------------------------------

    def get(
        self,
        namespace: str,
        key_bytes: bytes,
        values_of: Optional[ValuesOf] = None,
    ) -> Optional[bytes]:
        """Point get — a :meth:`multi_get` of one: counts one get (and
        one round trip) on the replica that served it."""
        return self.multi_get(namespace, [key_bytes], values_of)[0]

    def multi_get(
        self,
        namespace: str,
        keys: Sequence[bytes],
        values_of: Optional[ValuesOf] = None,
        listed_on: Optional[ListedOn] = None,
        ahead: Optional["InFlight"] = None,
    ) -> List[Optional[bytes]]:
        """Batched get: ONE round trip per serving node for the whole batch.

        Keys are grouped by the replica that serves them — each key's
        first live owner — and each node serves its group with a single
        :meth:`StorageNode.multi_get`. Duplicate keys within the batch
        are fetched once per node and fanned back out.
        Results are positional — ``out[i]`` answers ``keys[i]`` — so
        callers keep their ordering guarantees regardless of placement.

        The serving node counts each payload's ``values_of(payload)``
        logical values (one without it). A key the MVCC overlay answers
        at the calling thread's pin reaches no node and counts nothing.

        ``listed_on`` is where a :class:`KeyListing` found these keys:
        while placement stands as the listing saw it, the batch is
        grouped by those nodes instead of asking the ring.

        ``ahead`` is this batch as :meth:`send_multi_get` already
        shipped it: its answers are read instead of asked for, while
        placement stands as it was routed and the MVCC overlay leaves
        the whole batch to the nodes. Otherwise it is closed unread and
        the batch routed afresh.
        """
        prefix = encode_value(namespace)

        def fetch(positions: Sequence[int]) -> List[Optional[bytes]]:
            nonlocal ahead
            fulls = [prefix + keys[i] for i in positions]
            wave, ahead = ahead, None
            if (
                wave is not None
                and wave.generation == self._placement_generation
                and wave.fulls == fulls
            ):
                routed, sent = wave.routed, wave.sent
            else:
                if wave is not None:  # placement moved, or the overlay took keys
                    wave.close()
                sent = None
                listed = listed_on if len(positions) == len(keys) else (
                    listed_on and (listed_on[0], [listed_on[1][i] for i in positions])
                )
                routed = self._route(fulls, read=True, listed_on=listed)

            def serve(
                node: StorageNode, group: List[int], handle: Any = None
            ) -> List[Optional[bytes]]:
                # a key asked for twice is fetched once per serving
                # node and fanned back out
                wanted = [fulls[i] for i in group]
                distinct = list(dict.fromkeys(wanted))
                values = node.multi_get(distinct, values_of, handle)
                if len(distinct) < len(wanted):
                    value_of = dict(zip(distinct, values))
                    values = [value_of[full] for full in wanted]
                return values

            if sent is not None:
                answers = self._receive(serve, routed, sent)
            elif len(routed) > 1:
                answers = self._fan_out(serve, routed, _send_get(fulls))
            else:
                # one node serves the whole batch, in order
                return self._fan_out(serve, routed).popitem()[1]
            values: List[Optional[bytes]] = [None] * len(fulls)
            for node_id, served in answers.items():
                for index, value in zip(routed[node_id], served):
                    values[index] = value
            return values

        values = self._peer_failover(
            lambda: self._as_of_snapshot(namespace, keys, fetch)
        )
        if ahead is not None:  # the overlay answered every key
            ahead.close()
        return values

    def send_multi_get(
        self,
        namespace: str,
        keys: Sequence[bytes],
        listed_on: Optional[ListedOn] = None,
    ) -> Optional["InFlight"]:
        """Ship a :meth:`multi_get` of ``keys`` to the node processes now
        and read the answers later, through ``multi_get(..., ahead=)``:
        the nodes serve it while the caller works. Routed under the read
        lock, with the placement generation it was routed under.

        ``None`` when there is nothing to send ahead: in-process nodes,
        an empty batch, or a peer found dead — the receive then routes
        afresh and fails over as any read does. A key's node is a
        function of the key and the placement, so a wave goes where,
        and counts as, the same batch routed when it is read. The
        caller closes a wave it will not read.
        """
        if self.transport == "local" or not keys:
            return None
        prefix = encode_value(namespace)
        fulls = [prefix + key for key in keys]
        send = _send_get(fulls)
        with self._lock.read():
            sent: Dict[int, Any] = {}
            try:
                routed = self._route(fulls, read=True, listed_on=listed_on)
                for node_id, group in routed.items():
                    sent[node_id] = send(self.nodes[node_id], group)
            except (NodePeerError, ClusterUnavailableError):
                _close_all(sent)
                return None
            return InFlight(self._placement_generation, fulls, routed, sent)

    def put(self, namespace: str, key_bytes: bytes, value: bytes,
            n_values: int = 1) -> None:
        """Replicated put — a :meth:`multi_put` of one: written to (and
        counted on) every live owner."""
        self.multi_put(namespace, [(key_bytes, value)], n_values)

    def multi_put(
        self,
        namespace: str,
        items: Sequence[Tuple[bytes, bytes]],
        n_values_each: int = 1,
    ) -> None:
        """Batched put: ONE round trip per owning node, fanned out to all
        R replicas. Later duplicates win (items are applied in order
        within each node's batch).

        Shared-path write: placement is stable under the read lock
        (membership events are exclusive) and the per-node mutex
        serializes same-node store mutations.
        """
        prefix = encode_value(namespace)
        fulls = [prefix + key_bytes for key_bytes, _ in items]

        def op() -> None:
            if items:
                with self._meta_lock:
                    self._namespaces.add(namespace)
            for (key_bytes, _), full in zip(items, fulls):
                # overlay BEFORE base write: a snapshot reader either
                # sees the old base value or finds it in the overlay —
                # never a torn in-between
                self._record_overwrite(namespace, key_bytes, full)
                self._invalidate(namespace, key_bytes)
            self._fan_out(
                lambda node, group: node.multi_put(
                    [(fulls[i], items[i][1]) for i in group], n_values_each
                ),
                self._route(fulls),
            )
        self._peer_failover(op)

    def delete(self, namespace: str, key_bytes: bytes) -> bool:
        """Replicated delete; logged as a tombstone for every down node."""
        full = self.full_key(namespace, key_bytes)
        #: every owner's answer, across attempts: one that failed over
        #: midway may have removed the key, leaving the retry nothing
        removed: List[bool] = []

        def op() -> None:
            self._record_overwrite(namespace, key_bytes, full)
            self._invalidate(namespace, key_bytes)
            self._fan_out(
                lambda node, _: removed.append(node.delete(full)),
                self._route([full]),
            )
            for _, keys in self._tombstones.values():
                keys.add(full)
        self._peer_failover(op)
        return any(removed)

    def peek(self, namespace: str, key_bytes: bytes) -> Optional[bytes]:
        """Uncounted read (maintenance bookkeeping)."""
        full = self.full_key(namespace, key_bytes)
        return self._peer_failover(lambda: self._as_of_snapshot(
            namespace, [key_bytes],
            lambda _: [self.nodes[self._first_live_owner(full)].peek(full)],
        )[0])

    def scan(
        self,
        namespace: str,
        count_as_gets: bool = True,
        values_of: Optional[ValuesOf] = None,
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Scan all pairs of a namespace, each yielded exactly once.

        This is the §3 scan: iterate keys via ``next()`` and fetch each
        value with ``get``; with ``count_as_gets`` every pair visited is
        tallied as one get on its node, which is exactly the "blind scan"
        cost TaaV suffers. Under replication each logical pair is served
        (and counted) only by its primary live owner, so #get stays the
        logical pair count, not R× it. Yields (stripped key, value).

        ``values_of`` maps a value to its logical value count, charged
        to the node that served the pair exactly as :meth:`multi_get`
        charges it (a TaaV pair is ``arity`` values, a stats sidecar
        ``4 × attrs``); without it every pair counts as one value. A pair
        the MVCC overlay put back reached no node and counts nothing.
        """
        prefix = encode_value(namespace)
        plen = len(prefix)

        # materialize the snapshot under the read lock, then stream it
        # without holding any lock
        def take_snapshot() -> List[Tuple[StorageNode, bytes, bytes]]:
            walked = self._primary_walk(prefix, True)
            return [
                (self.nodes[node_id], key[plen:], value)
                for node_id, pairs in walked.items() for key, value in pairs
            ]

        snapshot = self._peer_failover(take_snapshot)
        versions = self._versions
        if versions is not None:
            epoch = versions.read_epoch()
            if epoch is not None:
                # rewrite the scan to state-as-of-epoch: overlay values
                # replace too-new ones, keys inserted after the epoch
                # drop out, and keys deleted after it come back as
                # node-less extras (uncounted — no node served them)
                snapshot = versions.adjust_scan(namespace, snapshot, epoch)
        for node, stripped, value in snapshot:
            if count_as_gets and node is not None:
                # the blind scan issues one full get (and thus one
                # round trip) per pair — the cost BaaV removes
                counters = node.counters
                counters.gets += 1
                counters.round_trips += 1
                counters.hits += 1
                counters.bytes_out += len(value)
                counters.values_read += 1 if values_of is None else values_of(value)
            yield stripped, value

    def list_keys(self, namespace: str) -> KeyListing:
        """All (stripped) key bytes of a namespace, uncounted, distinct,
        each with the node it was listed on (see :class:`KeyListing`)."""
        prefix = encode_value(namespace)
        plen = len(prefix)

        def op() -> KeyListing:
            keys: List[bytes] = []
            owners: List[int] = []
            listed = self._primary_walk(prefix, False)
            for node_id, node_keys in listed.items():
                keys += [key[plen:] for key in node_keys]
                owners += [node_id] * len(node_keys)
            generation = self._placement_generation
            versions = self._versions
            if versions is None or (epoch := versions.overlay_epoch()) is None:
                return KeyListing(keys, owners, generation)
            return KeyListing(
                versions.adjust_keys(namespace, keys, epoch), None, generation
            )
        return self._peer_failover(op)

    def namespaces(self) -> List[str]:
        """All namespaces with at least one pair on a live node.

        The write-touched registry narrows the candidates (every write
        flows through this client), and each live node confirms the
        ones it holds with prefix probes that stop at their first pair
        — no whole-cluster scan, and none for a namespace an earlier
        node confirmed.
        """
        def op() -> List[str]:
            with self._meta_lock:
                candidates = sorted(self._namespaces)
            held: Set[str] = set()
            self._fan_out(lambda node, _: held.update([
                namespace for namespace in candidates
                if namespace not in held
                and node.has_prefix(encode_value(namespace))
            ]))
            return sorted(held)
        return self._peer_failover(op)

    def drop_namespace(self, namespace: str) -> int:
        """Delete every pair in ``namespace``; return how many (logical).

        Dropping a relation's TaaV namespace (``taav:<rel>``) cascades
        to its dependent secondary-index namespaces
        (``__idx__/<rel>/...``): index entries post primary keys into
        the dropped data, so leaving them behind would orphan the index.
        The cascaded drops are not counted in the return value.
        """
        prefix = encode_value(namespace)
        #: keys dropped, across attempts: one that failed over midway
        #: dropped some, which the retry no longer finds
        dropped: Set[bytes] = set()

        def op() -> None:
            for cache in self._caches:
                cache.invalidate_namespace(namespace)
            # one bulk RPC per node on the socket transport
            self._fan_out(lambda node, _: dropped.update(
                node.mutate(wire.OP_DROP_PREFIX, prefix)
            ))
            for prefixes, _ in self._tombstones.values():
                prefixes.append(prefix)
            if self._versions is not None:
                # DDL is exclusive: no pinned reader is mid-query on
                # the namespace, so its version state goes with it
                self._versions.forget_namespace(namespace)
            with self._meta_lock:
                self._namespaces.discard(namespace)
                remaining = sorted(self._namespaces)
            if namespace.startswith("taav:"):
                dependent_prefix = f"__idx__/{namespace[len('taav:'):]}/"
                for dependent in remaining:
                    if dependent.startswith(dependent_prefix):
                        self.drop_namespace(dependent)
        self._peer_failover(op, exclusive=True)
        return len(dropped)

    # -- rebalancing -------------------------------------------------------

    def _rebalance(self, stale_id: Optional[int] = None) -> RebalanceReport:
        """Restore the replication invariant after a membership event.

        Collects the authoritative value of every reachable key (a node
        that was down is never authoritative when any other holder
        exists), copies each key to the live owners that lack it, and
        drops it from live nodes that no longer own it. Copies are
        charged to the receiving node: ``rebalance_keys_moved`` /
        ``rebalance_bytes_moved`` per key, plus one bulk round trip per
        distinct source peer it synced from.
        """
        # repro-lint: holds=_lock -- every membership change calls this
        # under the write lock, and may have moved any key's owners
        self._placement_generation += 1
        report = RebalanceReport()
        if not len(self.ring):
            return report
        state: Dict[bytes, bytes] = {}
        holders: Dict[bytes, List[int]] = {}
        #: what the possibly-stale node holds — captured during the
        #: sweep so staleness checks need no per-key store reads (on
        #: the socket transport each would be a round trip)
        stale_contents: Dict[bytes, bytes] = {}
        scans = self._fan_out(lambda node, _: node.snapshot_scan())
        for node_id, pairs in scans.items():
            for key, value in pairs:
                holders.setdefault(key, []).append(node_id)
                if node_id == stale_id:
                    stale_contents[key] = value
                    if key not in state:
                        state[key] = value
                else:
                    state[key] = value
        # (node receiving, node sending) pairs that exchanged a batch
        transfers: Set[Tuple[int, int]] = set()
        # defer the store mutations into per-node batches, flushed with
        # one multi_put / multi_delete each (one frame per node remote)
        pending_puts: Dict[int, List[Tuple[bytes, bytes]]] = {}
        pending_deletes: Dict[int, List[bytes]] = {}
        for key, value in state.items():
            owner_ids = self._live_owner_ids(key)
            holder_ids = holders[key]
            # authoritative source: the lowest-id holder that stayed up
            fresh = [h for h in holder_ids if h != stale_id]
            source_id = min(fresh) if fresh else holder_ids[0]
            for owner_id in owner_ids:
                node = self.nodes[owner_id]
                if owner_id not in holder_ids or (
                    owner_id == stale_id
                    and stale_contents.get(key) != value
                ):
                    pending_puts.setdefault(owner_id, []).append((key, value))
                    moved = len(key) + len(value)
                    node.counters.rebalance_keys_moved += 1
                    node.counters.rebalance_bytes_moved += moved
                    report.keys_moved += 1
                    report.bytes_moved += moved
                    transfers.add((owner_id, source_id))
            owner_set = set(owner_ids)
            for holder_id in holder_ids:
                if holder_id not in owner_set:
                    pending_deletes.setdefault(holder_id, []).append(key)
                    report.keys_dropped += 1
        for op, batches in (
            (wire.OP_MULTI_PUT, pending_puts),
            (wire.OP_MULTI_DELETE, pending_deletes),
        ):
            self._fan_out(lambda node, batch: node.mutate(op, batch), batches)
        for receiver_id, _ in transfers:
            self.nodes[receiver_id].counters.rebalance_round_trips += 1
        report.round_trips = len(transfers)
        return report

    # -- counters ----------------------------------------------------------

    def reset_counters(self) -> None:
        """Zero the node counters of every thread (a query zeroes just
        its own thread's through :meth:`thread_shards`)."""
        with self._lock.read():
            self._fan_out(lambda node, _: node.reset_counters(), self.nodes)

    def total_counters(self) -> NodeCounters:
        """Aggregate counters over all nodes and all serving threads."""
        return self.get_stats().totals

    @property
    def placement_generation(self) -> int:
        """Bumped by every membership change (see :meth:`thread_shards`)."""
        return self._placement_generation

    def thread_shards(
        self, reset: bool = False
    ) -> Tuple[int, List[NodeCounters]]:
        """The CALLING THREAD's live counter shard on every node, down
        ones included (each registered on first use), and the placement
        generation they were gathered at — what a query's probe reads
        its I/O off, under one read-lock acquisition per query.

        ``reset=True`` zeroes the shards in the same pass — a query's
        prologue, so concurrent queries on other threads keep their
        counts. Only the
        calling thread mutates what this returns, so reading it later
        takes no lock; a membership change since (a new
        :attr:`placement_generation`) means a node the list lacks.
        """
        with self._lock.read():
            shards: List[NodeCounters] = []
            for node in self.nodes.values():
                shard = node.counters
                if reset:
                    shard.reset()
                shards.append(shard)
            return self._placement_generation, shards

    def get_stats(self) -> ClusterStats:
        """A snapshot-consistent view of the cluster's accounting.

        Taken under the cluster lock: membership cannot change
        mid-snapshot and every per-node aggregate is a copy, so the
        cross-counter invariants hold (``hits <= gets``, cache
        ``hits + misses == lookups``).
        """
        with self._lock.read():
            per_node = self._fan_out(lambda node, _: node.counters_total(), self.nodes)
            totals = NodeCounters()
            for counters in per_node.values():
                totals.add(counters)
            cache_total = None
            for cache in self._caches:
                stats = cache.stats  # itself a consistent snapshot
                if cache_total is None:
                    cache_total = stats
                else:
                    cache_total.add(stats)
            return ClusterStats(
                totals=totals,
                per_node=per_node,
                num_nodes=len(self.nodes),
                num_live_nodes=len(self.nodes) - len(self._down),
                replication_factor=self.replication_factor,
                transport=self.transport,
                cache=cache_total,
            )

    def wal_stats(self) -> Dict[str, int]:
        """Aggregate WAL counters over every live node (all zeros for a
        volatile cluster). ``fsyncs`` is what the cost model prices;
        ``records``/``bytes`` meter the logging overhead itself."""
        def op() -> Dict[str, int]:
            total = {"records": 0, "bytes": 0, "fsyncs": 0, "rolls": 0}
            for stats in self._fan_out(
                lambda node, _: node.wal_stats()
            ).values():
                for key, value in stats.items():
                    total[key] = total.get(key, 0) + value
            return total
        return self._peer_failover(op)

    def server_stats(self) -> Dict[int, Dict[str, int]]:
        """Per-node server-process counters (socket transport only;
        empty for local clusters). Down nodes are skipped."""
        if self.transport != "socket":
            return {}
        return self._peer_failover(lambda: self._fan_out(
            lambda node, _: cast(RemoteNode, node).server_stats()
        ))

    def size_bytes(self) -> int:
        """Physical bytes across all nodes (replicas counted R times).

        Down nodes count too when their store survives (a partitioned
        node's disk, any local node): that matches the local-transport
        semantics. A *killed* node process has no bytes left to count —
        once detected; one that died unnoticed is asked, and fails over.
        """
        def size(node: StorageNode, _: None) -> int:
            if node.node_id in self._down and node.is_crashed:
                return 0
            return node.size_bytes()
        return self._peer_failover(lambda: sum(
            self._fan_out(size, self.nodes).values()
        ))

    def __repr__(self) -> str:
        down = f", down={sorted(self._down)}" if self._down else ""
        factor = f", R={self.replication_factor}" if self.replication_factor > 1 else ""
        wire_ = f", transport={self.transport}" if self.transport != "local" else ""
        return f"KVCluster(nodes={self.num_nodes}{factor}{wire_}{down})"
