"""Project-specific configuration of the repro-lint checkers.

This is the machine-readable form of the locking/accounting contracts
documented in ``docs/ARCHITECTURE.md`` ("Locking strategy per layer")
and :mod:`repro.locks`. Keeping it as one declarative table — instead
of scattering knowledge through the checkers — mirrors the project's
explicit-knob idiom: when a layer's locking story changes, this file
changes in the same commit, and the lint gate enforces the new story
repo-wide.

The registry is keyed by module *suffix* (``kv/cluster.py`` matches
``src/repro/kv/cluster.py``), so the checkers work no matter which
directory the CLI was pointed at.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

#: lock kinds a :class:`GuardSpec` can name — a ``mutex`` guard is
#: satisfied by ``with self.<lock>``; an ``rwlock`` guard requires the
#: write side (``with self.<lock>.write()``) for mutations
MUTEX = "mutex"
RWLOCK = "rwlock"


@dataclass(frozen=True)
class GuardSpec:
    """One lock and the attribute names it guards (mutation-side)."""

    lock: str
    kind: str
    fields: FrozenSet[str]


def _guard(lock: str, kind: str, *fields: str) -> GuardSpec:
    return GuardSpec(lock=lock, kind=kind, fields=frozenset(fields))


#: module suffix → class name (``None`` = module level) → guard specs.
#: A mutation of a listed field outside a ``with`` on its lock (write
#: side for rwlocks) is a ``guarded-field`` finding. ``__init__`` is
#: exempt (the object is not shared until the constructor returns),
#: and a ``# repro-lint: holds=<lock>`` directive inside a helper marks
#: it as called with the lock held.
GUARDED_FIELDS: Dict[str, Dict[Optional[str], Tuple[GuardSpec, ...]]] = {
    "repro/service/service.py": {
        "QueryService": (
            _guard(
                "_gate", MUTEX,
                "_stats", "_sessions", "_draining", "_closed",
                "_next_session_id",
            ),
        ),
    },
    "repro/kv/cluster.py": {
        "KVCluster": (
            _guard(
                "_lock", RWLOCK,
                "nodes", "_down", "_tombstones", "_caches", "_closed",
                "_versions", "_placement_generation",
            ),
            _guard("_meta_lock", MUTEX, "_namespaces"),
        ),
    },
    "repro/mvcc/versions.py": {
        "VersionStore": (
            _guard("_lock", MUTEX, "_birth", "_chains"),
        ),
    },
    "repro/mvcc/epoch.py": {
        "EpochManager": (
            _guard(
                "_lock", MUTEX,
                "_published", "_next_commit", "_pins",
            ),
        ),
    },
    "repro/mvcc/txn.py": {
        "TransactionManager": (
            _guard("_commit_lock", MUTEX, "_commits_since_gc"),
        ),
    },
    "repro/kv/node.py": {
        "StorageNode": (
            # the engine's mutating surface must hold the per-node op
            # mutex; reads are deliberately unchecked (snapshot_scan
            # documents the guarded-read paths). crash/restart swap the
            # store object itself, so the field assignment is guarded
            # too, as is the crash flag readers consult
            _guard("_op_lock", MUTEX, "store", "_crashed"),
        ),
    },
    "repro/kv/wal.py": {
        "WriteAheadLog": (
            _guard(
                "_lock", MUTEX,
                "_file", "_path", "_stats", "_unsynced",
            ),
        ),
    },
    "repro/kv/checkpoint.py": {
        "NodeDurability": (
            _guard(
                "_lock", MUTEX,
                "_wal", "_seq", "_records_at_checkpoint",
                "last_recovery",
            ),
        ),
    },
    "repro/kv/cache.py": {
        "BlockCache": (
            _guard(
                "_lock", MUTEX,
                "_entries", "_epoch", "_floor_epoch",
                "_invalidated_keys", "_invalidated_namespaces",
            ),
        ),
    },
    "repro/kv/server.py": {
        "NodeServer": (
            _guard("_stats_lock", MUTEX, "_stats"),
            _guard("_store_lock", MUTEX, "store"),
        ),
    },
    "repro/kv/remote.py": {
        "NodeClient": (
            _guard("_lock", MUTEX, "_pool", "_closed"),
        ),
        None: (
            _guard("_REGISTRY_LOCK", MUTEX, "_PROCESS_REGISTRY"),
        ),
    },
    "repro/index/manager.py": {
        "IndexManager": (
            _guard("_lock", MUTEX, "_indexes", "generation"),
        ),
    },
    "repro/core/middleware.py": {
        "Zidian": (
            _guard("_shapes_lock", MUTEX, "_shapes", "_shapes_generation"),
        ),
    },
    "repro/tally.py": {
        "ShardSet": (
            _guard("_lock", MUTEX, "_entries", "_retired"),
        ),
    },
    "repro/locks.py": {
        "RWLock": (
            _guard(
                "_mutex", MUTEX,
                "_readers", "_writers_waiting", "_write_owner",
                "_write_depth",
            ),
        ),
    },
}

#: method names that mutate their receiver — a call
#: ``self.<guarded>.<name>(...)`` counts as a mutation of the guarded
#: field (reads like ``.get``/``.keys`` are never checked)
MUTATING_METHODS: FrozenSet[str] = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "add", "discard", "move_to_end",
    # the storage-engine write surface (guarded via the ``store`` field)
    "put", "multi_put", "delete", "multi_delete", "drop_prefix",
})

#: attribute/property names that yield the CALLING THREAD's private
#: counter shard (``StorageNode.counters``) — increments through these
#: are the sanctioned pattern; see counter_accounting.py
SHARD_ACCESSORS: FrozenSet[str] = frozenset({"counters"})

#: ``ShardSet`` / ``Tally`` calls returning what the calling thread may
#: mutate: its own live shard, or a private copy
SHARD_CALLS: FrozenSet[str] = frozenset(
    {"local", "peek", "copy", "thread", "total"}
)

#: blocking calls that must never run while a lock is held: module-level
#: dotted names...
BLOCKING_DOTTED: FrozenSet[str] = frozenset({
    "time.sleep",
    "socket.create_connection",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "os.system",
})

#: ...and method names (socket I/O and the wire-protocol helpers —
#: ubiquitous enough in this codebase to matter, specific enough not to
#: collide with ordinary container methods)
BLOCKING_METHODS: FrozenSet[str] = frozenset({
    "sendall", "recv", "accept", "connect",
    "send_frame", "recv_frame",
})

#: builtin exceptions that must not be raised directly — cross-module
#: failures travel as ``repro.errors`` types so callers can catch one
#: taxonomy (ValueError/TypeError/KeyError/... stay allowed for local
#: argument validation, the stdlib idiom)
FORBIDDEN_RAISES: FrozenSet[str] = frozenset({
    "Exception", "BaseException", "RuntimeError", "StandardError",
    "SystemError", "EnvironmentError", "IOError", "OSError",
})
