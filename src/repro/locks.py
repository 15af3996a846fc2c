"""Shared concurrency primitives for the thread-safe KV stack.

The query service (:mod:`repro.service`) executes many queries at once
over one shared storage stack, so every layer with hot mutable state
needs an explicit locking story (documented per layer in
``docs/ARCHITECTURE.md``). This module holds the lock primitives those
layers share (the thread-sharded counters live in :mod:`repro.tally`):

* :class:`RWLock` — a writer-preferring readers/writer lock. Reads
  (point gets, scans, lookups) run concurrently; structural writes
  (membership churn, namespace drops, relational updates) are exclusive.
  The write side is reentrant, and a thread holding the write lock may
  take the read side as a no-op, so exclusive operations can call the
  shared-path helpers they are composed of.
* :func:`make_lock` / :func:`make_rlock` / :func:`make_condition` —
  the stdlib primitives, instrumented for lock-order checking when
  ``REPRO_LOCKDEP=1``.
"""

from __future__ import annotations

import threading
from typing import Any

from repro import lockdep
from repro.errors import LockError

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

    ``release_read`` with no read side held, and ``release_write`` by a
    thread that does not own the write side, raise
    :class:`~repro.errors.LockError` (a stray ``release_read`` would
    otherwise leave the reader count below zero, and every later writer
    waiting for it to reach zero forever).
    """

    def __init__(self, name: str = "RWLock") -> None:
        #: a plain mutex under the condition: nothing re-enters it, and
        #: ``with self._mutex`` is a C-level enter on the read path
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
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
        with self._mutex:
            while self._write_owner is not None or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        if self._dep_name is not None:
            lockdep.global_registry.note_acquire(self._dep_name)

    def release_read(self) -> None:
        if self._write_owner == threading.get_ident():
            return
        with self._mutex:
            if not self._readers:
                raise LockError("release_read without a held read side")
            self._readers -= 1
            # only a writer waits for the reader count to reach zero
            if not self._readers and self._writers_waiting:
                self._cond.notify_all()
        if self._dep_name is not None:
            lockdep.global_registry.note_release(self._dep_name)

    def read(self) -> _ReadSide:
        """``with lock.read():`` — the shared side for the block."""
        return _ReadSide(self)

    # -- write side -------------------------------------------------------

    def acquire_write(self) -> None:
        me = threading.get_ident()
        with self._mutex:
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
        with self._mutex:
            if self._write_owner != threading.get_ident():
                raise LockError("release_write by a non-owner thread")
            self._write_depth -= 1
            if self._write_depth == 0:
                self._write_owner = None
                self._cond.notify_all()
        if self._dep_name is not None:
            lockdep.global_registry.note_release(self._dep_name)

    def write(self) -> _WriteSide:
        """``with lock.write():`` — the exclusive side for the block."""
        return _WriteSide(self)


class _Side:
    """What ``with lock.read():`` / ``with lock.write():`` enters — one
    side of an :class:`RWLock`, taken on entry and given back on exit.
    A slotted object, not a ``@contextmanager`` generator: the cluster
    takes its read side several times per query."""

    __slots__ = ("_lock",)

    def __init__(self, lock: RWLock) -> None:
        self._lock = lock


class _ReadSide(_Side):
    __slots__ = ()

    def __enter__(self) -> None:
        # repro-lint: disable=raw-acquire -- this IS the with-statement
        # shape: __exit__ below releases however the block ends
        self._lock.acquire_read()

    def __exit__(self, *exc: object) -> None:
        self._lock.release_read()  # repro-lint: disable=raw-acquire -- see __enter__


class _WriteSide(_Side):
    __slots__ = ()

    def __enter__(self) -> None:
        # repro-lint: disable=raw-acquire -- as _ReadSide.__enter__
        self._lock.acquire_write()

    def __exit__(self, *exc: object) -> None:
        self._lock.release_write()  # repro-lint: disable=raw-acquire -- see __enter__
