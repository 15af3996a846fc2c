"""Shared concurrency primitives for the thread-safe KV stack.

The query service (:mod:`repro.service`) executes many queries at once
over one shared storage stack, so every layer with hot mutable state
needs an explicit locking story (documented per layer in
``docs/ARCHITECTURE.md``). This module holds the two primitives those
layers share:

* :class:`RWLock` — a writer-preferring readers/writer lock. Reads
  (point gets, scans, lookups) run concurrently; structural writes
  (membership churn, namespace drops, relational updates) are exclusive.
  The write side is reentrant, and a thread holding the write lock may
  take the read side as a no-op, so exclusive operations can call the
  shared-path helpers they are composed of.
* :class:`ShardSet` — the machinery behind per-thread *sharded
  counters*: each thread accumulates into a private shard (no lost
  ``+=`` increments, no hot-path locks) and readers sum the shards for a
  consistent aggregate. Counter objects stay plain dataclasses; only
  the shard routing lives here.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Generic,
    Iterator,
    List,
    Optional,
    Tuple,
    TypeVar,
)

from repro import lockdep
from repro.errors import LockError

T = TypeVar("T")

#: latched once at import: instrumenting later would miss early edges
#: and make the wrapper overhead data-dependent mid-run
_LOCKDEP = lockdep.enabled()


def make_lock(name: str) -> Any:
    """A ``threading.Lock``, wrapped for lock-order checking when
    ``REPRO_LOCKDEP=1``. ``name`` should read like the field it guards
    (``"NodeServer._store_lock"``) — it is the node label in reports.
    Typed ``Any``: the instrumented wrapper and the raw lock share the
    acquire/release/context-manager surface, not a nominal base."""
    lock = threading.Lock()
    if _LOCKDEP:
        return lockdep.instrument(lock, name)
    return lock


def make_rlock(name: str) -> Any:
    """Like :func:`make_lock`, for a reentrant lock."""
    lock = threading.RLock()
    if _LOCKDEP:
        return lockdep.instrument(lock, name)
    return lock


def make_condition(name: str) -> threading.Condition:
    """A ``threading.Condition`` whose underlying RLock participates in
    lock-order checking when ``REPRO_LOCKDEP=1`` (every ``with cond:``
    and every re-acquire after ``wait`` feeds the graph)."""
    if _LOCKDEP:
        return lockdep.instrument_condition(name)
    return threading.Condition()


class RWLock:
    """A writer-preferring readers/writer lock.

    * any number of readers may hold the lock together;
    * a writer holds it alone;
    * once a writer is waiting, new readers queue behind it (no writer
      starvation under a steady read load);
    * the write side is reentrant per thread, and read acquisition by
      the thread that holds the write lock is a no-op (an exclusive
      operation may call shared-path code).

    Readers must not nest read acquisitions around blocking calls that
    themselves take the read side — the layers below keep their read
    critical sections flat (snapshot, release, then post-process).
    """

    def __init__(self, name: str = "RWLock") -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writers_waiting = 0
        self._write_owner: int | None = None
        self._write_depth = 0
        #: lock-order node: read and write side map to the SAME node —
        #: a read/write inversion across two RWLocks is still a deadlock
        self._dep_name = (
            lockdep.global_registry.name_for(name) if _LOCKDEP else None
        )

    # -- read side --------------------------------------------------------

    def acquire_read(self) -> None:
        if self._write_owner == threading.get_ident():
            return  # write holder may read (no-op reentry)
        with self._cond:
            while self._write_owner is not None or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        if self._dep_name is not None:
            lockdep.global_registry.note_acquire(self._dep_name)

    def release_read(self) -> None:
        if self._write_owner == threading.get_ident():
            return
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()
        if self._dep_name is not None:
            lockdep.global_registry.note_release(self._dep_name)

    @contextmanager
    def read(self) -> Iterator[None]:
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    # -- write side -------------------------------------------------------

    def acquire_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._write_owner == me:
                self._write_depth += 1
                if self._dep_name is not None:
                    lockdep.global_registry.note_acquire(self._dep_name)
                return
            self._writers_waiting += 1
            try:
                while self._write_owner is not None or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._write_owner = me
            self._write_depth = 1
        if self._dep_name is not None:
            lockdep.global_registry.note_acquire(self._dep_name)

    def release_write(self) -> None:
        with self._cond:
            if self._write_owner != threading.get_ident():
                raise LockError("release_write by a non-owner thread")
            self._write_depth -= 1
            if self._write_depth == 0:
                self._write_owner = None
                self._cond.notify_all()
        if self._dep_name is not None:
            lockdep.global_registry.note_release(self._dep_name)

    @contextmanager
    def write(self) -> Iterator[None]:
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


class ShardSet(Generic[T]):
    """Per-thread shards of a counter set, with a stable registry.

    Each thread gets a private shard on first use (via
    ``threading.local``, NOT the thread ident — idents are recycled
    after a thread dies, and a recycled ident must not let a new
    thread read or reset a dead thread's counts). Shards are only ever
    *mutated* by their owning thread, so hot-path increments need no
    lock and are never lost.

    Dead threads' history is preserved WITHOUT unbounded growth: the
    registry remembers each shard's owning thread, and aggregation /
    registration sweeps fold shards of finished threads into one
    *retired* accumulator (safe — a finished thread can no longer
    mutate its shard), keeping the registry O(live threads) on
    long-lived stacks with thread churn. ``T`` must provide
    ``add(other)``; ``reset()`` is required only by callers that reset.
    """

    __slots__ = ("_factory", "_local", "_entries", "_retired", "_lock")

    def __init__(self, factory: Callable[[], T]) -> None:
        self._factory = factory
        self._local = threading.local()
        #: (owning thread, shard) for every live registration
        self._entries: List[Tuple[threading.Thread, T]] = []
        #: folded history of finished threads (created lazily)
        self._retired: Optional[T] = None
        self._lock = make_lock("ShardSet._lock")

    def _sweep_locked(self) -> None:
        # repro-lint: holds=_lock -- every caller takes self._lock first
        survivors: List[Tuple[threading.Thread, T]] = []
        for thread, shard in self._entries:
            if thread.is_alive():
                survivors.append((thread, shard))
            else:
                if self._retired is None:
                    self._retired = self._factory()
                self._retired.add(shard)  # type: ignore[attr-defined]
        self._entries = survivors

    def local(self) -> T:
        """The calling thread's shard (created and registered on first
        use)."""
        # annotated, not cast(): a call that builds Optional[T] on every
        # counter touch is measurable on the query hot path
        shard: Optional[T] = getattr(self._local, "shard", None)
        if shard is None:
            shard = self._factory()
            with self._lock:
                self._sweep_locked()
                self._entries.append((threading.current_thread(), shard))
            self._local.shard = shard
        return shard

    def peek(self) -> Optional[T]:
        """The calling thread's shard, or ``None`` if it never counted."""
        shard: Optional[T] = getattr(self._local, "shard", None)
        return shard

    def all(self) -> List[T]:
        """Every live shard plus the retired accumulator (aggregation
        and reset sweeps — a reset must reset the retired history too)."""
        with self._lock:
            self._sweep_locked()
            out = [shard for _, shard in self._entries]
            if self._retired is not None:
                out.append(self._retired)
            return out
