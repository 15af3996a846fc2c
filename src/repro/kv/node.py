"""A storage node: a memstore plus I/O counters.

Counters are the raw material of the evaluation metrics (#get, #data,
comm): every get/put/scan on a node is tallied here and later folded into
:class:`repro.parallel.metrics.ExecutionMetrics`.

Concurrency (PR 5)
------------------

The query service executes many queries at once over one shared cluster,
so a node must stay correct under concurrent callers:

* **stores** (the memstore / LSM engine and its internal bookkeeping:
  sorted-key refresh, flush/compaction, read-path statistics) are
  guarded by a per-node mutex — operations on *different* nodes never
  contend, operations on the same node are serialized;
* **counters** are *thread-sharded* (:mod:`repro.tally`): increments
  go through :attr:`counters`, the calling thread's private
  :class:`NodeCounters` shard; :meth:`counters_total` sums the shards,
  and a query's probe reads its own live shard through :attr:`counters`
  (``KVCluster.thread_shards``).
"""

from __future__ import annotations

import warnings
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.kv import wire
from repro.kv.checkpoint import NodeDurability, RecoveryReport
from repro.kv.lsm import LSMStore
from repro.kv.memstore import MemStore
from repro.locks import make_lock
from repro.tally import ShardSet, Tally, tally


#: a payload's logical value count (the paper's ``#data`` unit), read off
#: the payload by the node that serves it; a read without one counts a
#: payload as one value
ValuesOf = Callable[[bytes], int]

#: engines a node can host, by name (validated *before* any spawn)
ENGINE_FACTORIES = {"mem": MemStore, "lsm": LSMStore}


def make_engine(engine: str, store_args: Optional[dict] = None) -> Any:
    """Build a raw store by engine name; unknown names raise ValueError
    (the same message in-process and, pre-fork, for a node process)."""
    try:
        factory = ENGINE_FACTORIES[engine]
    except KeyError:
        raise ValueError(f"unknown storage engine {engine!r}") from None
    return factory(**(store_args or {}))


def open_engine(
    engine: str,
    store_args: Optional[dict] = None,
    data_dir: Optional[str] = None,
    fsync_policy: str = "group",
    checkpoint_interval: Optional[int] = None,
) -> Tuple[Any, Optional[NodeDurability]]:
    """Build a node's raw store and, with ``data_dir``, its durability
    manager — the one construction path of an in-process node and of a
    node process. A durable store comes back **recovered**: whatever
    checkpoint + WAL tail the directory holds is replayed into it, and
    every later mutation is write-ahead-logged."""
    store = make_engine(engine, store_args)
    if data_dir is None:
        return store, None
    durability = NodeDurability(
        data_dir,
        fsync_policy=fsync_policy,
        checkpoint_interval=checkpoint_interval,
    )
    durability.open(store)
    return store, durability


@tally
class NodeCounters(Tally):
    """Cumulative I/O counters of one storage node.

    ``round_trips`` counts client↔node RPCs: a single get/put is one
    round trip, a coalesced ``multi_get``/``multi_put`` batch of *n* keys
    is one round trip carrying *n* gets/puts. ``gets``/``puts`` stay the
    paper's logical invocation counts, so batching shows up as
    ``round_trips ≪ gets``.

    The ``rebalance_*`` family meters membership churn, not queries:
    every key-range migration (scale-out, decommission, failover
    re-replication, crash recovery) charges the keys and bytes RECEIVED
    by this node plus one bulk-transfer round trip per peer it synced
    from, so Exp-4 can report what elasticity actually costs.
    """

    gets: int = 0
    hits: int = 0
    puts: int = 0
    deletes: int = 0
    values_read: int = 0
    values_written: int = 0
    bytes_out: int = 0
    bytes_in: int = 0
    round_trips: int = 0
    rebalance_keys_moved: int = 0
    rebalance_bytes_moved: int = 0
    rebalance_round_trips: int = 0


class StorageNode:
    """One node of the KV cluster.

    ``engine`` selects the per-node storage engine: ``"mem"`` (sorted
    in-memory map, the default) or ``"lsm"`` (log-structured merge tree,
    the HBase/Cassandra write path — see :mod:`repro.kv.lsm`).

    Durability (PR 8): pass ``data_dir`` and the node becomes
    crash-consistent — construction **recovers** whatever checkpoint +
    WAL tail the directory holds (tolerating a torn final record), and
    every subsequent mutation is write-ahead-logged before it is
    acknowledged. ``fsync_policy`` (``"always"``/``"group"``/
    ``"never"``) prices the machine-crash window, and a checkpoint
    folds the log into a snapshot every ``checkpoint_interval`` records
    so restarts replay a bounded tail. :meth:`crash` /
    :meth:`restart` model process death and recovery-by-replay for the
    local transport (a socket node's real SIGKILL is the same model,
    enforced by the OS).
    """

    __slots__ = (
        "node_id", "engine", "store", "_shards", "_op_lock",
        "_durability", "_owns_store", "_crashed",
    )

    def __init__(self, node_id: int, engine: str = "mem",
                 store: Optional[object] = None,
                 data_dir: Optional[str] = None,
                 fsync_policy: str = "group",
                 checkpoint_interval: Optional[int] = None) -> None:
        self.node_id = node_id
        self.engine = engine
        self._owns_store = store is None
        self._crashed = False
        self._durability: Optional[NodeDurability] = None
        if store is not None:
            # injected engine (e.g. the RemoteStore facade of a node
            # process) — the caller has already validated it, and owns
            # whatever durability it has (a node process logs server-side)
            if data_dir is not None:
                raise ValueError(
                    "data_dir requires an owned engine store, not an "
                    "injected one"
                )
            self.store = store
        else:
            self.store, self._durability = open_engine(
                engine, None, data_dir, fsync_policy, checkpoint_interval
            )
        #: per-thread counter shards; each shard is mutated only by its
        #: owning thread (see module docstring)
        self._shards: ShardSet[NodeCounters] = ShardSet(NodeCounters)
        #: serializes store access (engine internals are not reentrant)
        self._op_lock = make_lock("StorageNode._op_lock")

    # -- durability / crash surface -----------------------------------------

    @property
    def durable(self) -> bool:
        """Does this node write-ahead-log to a data directory?"""
        return self._durability is not None

    @property
    def is_crashed(self) -> bool:
        """Has :meth:`crash` destroyed the volatile store (and not yet
        been undone by :meth:`restart`)?"""
        return self._crashed

    @property
    def last_recovery(self) -> Optional[RecoveryReport]:
        """What the most recent construction/restart replayed (``None``
        for volatile nodes)."""
        if self._durability is None:
            return None
        return self._durability.last_recovery

    def wal_stats(self) -> Dict[str, int]:
        """Cumulative WAL counters (empty dict for volatile nodes)."""
        if self._durability is None:
            return {}
        return self._durability.wal_stats()

    def checkpoint(self) -> None:
        """Force a checkpoint/log-truncate cycle now (durable nodes)."""
        if self._durability is None:
            raise ValueError(
                f"node {self.node_id} has no data_dir to checkpoint to"
            )
        with self._op_lock:
            self._durability.checkpoint(self.store)

    def crash(self) -> bool:
        """Kill the node the way ``SIGKILL`` kills a node process: the
        volatile store dies (WAL handle dropped *without* a final sync
        — exactly the page-cache state a real crash leaves), and only
        :meth:`restart` brings the node back. Returns whether crash
        semantics were honored: a node wrapping an injected store it
        cannot destroy warns and keeps partition semantics instead.
        """
        with self._op_lock:
            if self._crashed:
                return True
            if not self._owns_store:
                warnings.warn(
                    f"StorageNode {self.node_id}: cannot destroy an "
                    "injected store; kill degrades to partition "
                    "semantics",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return False
            if self._durability is not None:
                self._durability.abandon()
            # the store object IS the process memory: drop it
            self.store = make_engine(self.engine)
            self._crashed = True
            return True

    def restart(self) -> None:
        """Bring a crashed node back up: replay checkpoint + WAL tail
        when durable, an empty store otherwise (the caller re-syncs)."""
        with self._op_lock:
            if not self._crashed:
                return
            self.store = make_engine(self.engine)
            if self._durability is not None:
                self._durability.open(self.store)
            self._crashed = False

    def close(self) -> None:
        """Orderly shutdown: sync and close the WAL. Idempotent; a
        volatile node has nothing to do."""
        if self._durability is not None:
            self._durability.close()

    # -- counters ----------------------------------------------------------

    @property
    def counters(self) -> NodeCounters:
        """The calling thread's counter shard (created on first use)."""
        return self._shards.local()

    def counters_total(self) -> NodeCounters:
        """Sum of every thread's shard — the node's aggregate counters."""
        return self._shards.total()

    def reset_counters(self) -> None:
        """Zero every thread's counter shard."""
        for shard in self._shards.all():
            shard.reset()

    # -- KV operations -----------------------------------------------------

    def get(self, key: bytes, values_of: Optional[ValuesOf] = None) -> Optional[bytes]:
        """Serve a get — a :meth:`multi_get` of one."""
        return self.multi_get([key], values_of)[0]

    def send(self, op: int, *args: Any) -> Any:
        """Ship one read request's frame ahead of reading its answer —
        the handle a ``sent=`` argument below finishes. An in-process
        node has nothing to send ahead: ``None``."""
        return None

    def multi_get(
        self,
        keys: Sequence[bytes],
        values_of: Optional[ValuesOf] = None,
        sent: Any = None,
    ) -> List[Optional[bytes]]:
        """Serve a coalesced batch of gets in ONE round trip.

        Counts ``len(keys)`` gets (the paper's invocation unit) but a
        single round trip — the amortization the batched pipeline buys.
        Each payload found counts ``values_of(payload)`` logical values
        (one without it): a block of 40 tuples x 3 attributes is 120
        ``#data``, counted here, on the node that served it.
        Results are positional: ``out[i]`` answers ``keys[i]``. ``sent``
        is this batch's ``MULTI_GET`` already shipped by :meth:`send`.
        """
        with self._op_lock:
            values = self.store.multi_get(keys) if sent is None else sent.receive()
        counters = self.counters
        counters.gets += len(keys)
        if keys:
            counters.round_trips += 1
        found = [value for value in values if value is not None]
        counters.hits += len(found)
        counters.values_read += (
            len(found) if values_of is None else sum(map(values_of, found))
        )
        counters.bytes_out += sum(map(len, found))
        return values

    def put(self, key: bytes, value: bytes, n_values: int = 1) -> None:
        self.multi_put([(key, value)], n_values_each=n_values)

    def mutate(self, op: int, *args: Any) -> Any:
        """Apply one :data:`repro.kv.wire.MUTATING_OPS` request,
        uncounted, as a node process serves it: under the op mutex, then
        a checkpoint if one is due (cluster maintenance writes)."""
        with self._op_lock:
            result = wire.apply_mutation(self.store, op, args)
            if self._durability is not None:
                self._durability.maybe_checkpoint(self.store)
        return result

    def multi_put(
        self, items: Sequence[Tuple[bytes, bytes]], n_values_each: int = 1
    ) -> None:
        """Apply a coalesced batch of puts in ONE round trip."""
        if not items:
            return
        self.mutate(wire.OP_MULTI_PUT, list(items))
        counters = self.counters
        counters.puts += len(items)
        counters.round_trips += 1
        for _, value in items:
            counters.values_written += n_values_each
            counters.bytes_in += len(value)

    def delete(self, key: bytes) -> bool:
        """Serve a delete; the RPC is counted whether or not the key existed.

        ``deletes`` is the logical invocation count (like ``gets``, which
        count misses too) and every delete is one client↔node round trip
        — a miss still crosses the network.
        """
        removed = self.mutate(wire.OP_MULTI_DELETE, [key]) == 1
        counters = self.counters
        counters.deletes += 1
        counters.round_trips += 1
        return removed

    def peek(self, key: bytes) -> Optional[bytes]:
        """Read without counting (used for read-modify-write bookkeeping)."""
        with self._op_lock:
            return self.store.get(key)

    def snapshot_scan(
        self, prefix: bytes = b"", sent: Any = None
    ) -> List[Tuple[bytes, bytes]]:
        """Materialized, mutex-guarded scan — safe vs concurrent writers.

        The cluster's shared-path scans use this so a concurrent put on
        the same node cannot mutate the store (or its sorted-key cache)
        mid-iteration; counting stays with the caller. ``sent``: the
        ``SCAN`` already shipped by :meth:`send`.
        """
        with self._op_lock:
            return list(self.store.scan(prefix)) if sent is None else sent.receive()

    def snapshot_keys(self, prefix: bytes = b"", sent: Any = None) -> List[bytes]:
        """The keys of :meth:`snapshot_scan`, in its order and under the
        same mutex — a listing reads no value (and a node process ships
        none). ``sent``: the ``KEYS`` already shipped by :meth:`send`."""
        with self._op_lock:
            return self.store.keys(prefix) if sent is None else sent.receive()

    def has_prefix(self, prefix: bytes = b"") -> bool:
        """Does any stored key carry ``prefix``? (mutex-guarded probe)"""
        with self._op_lock:
            return self.store.has_prefix(prefix)

    def size_bytes(self) -> int:
        """Stored payload bytes (mutex-guarded vs concurrent writers)."""
        with self._op_lock:
            return self.store.size_bytes()

    def __repr__(self) -> str:
        return f"StorageNode(id={self.node_id}, keys={len(self.store)})"
