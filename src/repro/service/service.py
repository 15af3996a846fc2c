"""The concurrent query service: sessions, admission control, deadlines.

:class:`QueryService` turns a single-client system facade
(:class:`~repro.systems.sql_over_nosql.SQLOverNoSQL` or
:class:`~repro.systems.sql_over_nosql.ZidianSystem`) into a multi-client
**service**: many sessions issue queries at once against one shared
storage stack. This is the missing dimension of the paper's claim —
scan-free plans bound *per-query* KV work, and the service is what lets
many such bounded queries proceed together.

Architecture
------------

* **Sessions** (:class:`Session`) are per-client handles opened with
  :meth:`QueryService.open_session`. They carry per-session accounting
  and are the unit the traffic driver paces its closed loop on.
* **Execution** runs on a bounded thread pool of ``max_workers``
  threads. :meth:`Session.submit` is the asynchronous path (returns a
  :class:`QueryTicket`); :meth:`Session.execute` runs synchronously on
  the *calling* thread (the caller is its own worker), which is what
  the virtual-time traffic driver and simple scripts use.
* **Admission control**: at most ``max_workers`` queries run and at
  most ``max_queued`` wait. Beyond that the service *sheds load* —
  :class:`~repro.errors.ServiceOverloadedError` — instead of building
  an unbounded queue; clients back off and retry.
* **Deadlines / cancellation**: a per-query deadline bounds how long a
  query may wait for a worker
  (:class:`~repro.errors.QueryDeadlineError` when it expires first);
  a queued ticket can be cancelled outright.
* **MVCC by default (PR 9)**: when the system has a transaction
  surface (``enable_transactions``) the service runs queries *and*
  updates under the **shared** side of its
  :class:`~repro.locks.RWLock` — readers pin a snapshot epoch and see
  exactly one committed state while writers install the next one
  through the version overlay (:mod:`repro.mvcc`), so the update
  stream no longer stalls the analytic path. The write side is now
  exclusive only for membership/DDL (online index create/drop).
  ``mvcc=False`` restores the PR-5 behavior:
  updates take the write lock and queries wait. Either way no query
  observes a half-applied Δ (the property tests replay the history
  against a single-threaded oracle).
* **Transactions**: :meth:`Session.begin` opens a multi-statement
  :class:`ServiceTransaction` — several ``apply_updates`` across
  several relations commit atomically at one epoch, spanning the
  relational store, the TaaV/BaaV stores and every secondary index.
* **Drain / shutdown**: :meth:`drain` stops admitting and waits for
  the in-flight work; :meth:`close` drains and tears the pool down.
* **Collector sizing (ISSUE 22)**: while a service is open the cyclic
  collector's young generation is sized for a query's rows
  (:data:`GC_THRESHOLD0`); closing the last one puts back what the
  first one found. The query path leaves no cycles, so the collector
  is resized, never disabled, and only by the object that makes a
  process a server.

The layers underneath have their own locking story (cluster membership,
per-node store mutexes, cache LRU, index catalog — see
``docs/ARCHITECTURE.md``), so even the *shared* read path is safe: the
service lock only adds the read/update atomicity queries expect.
"""

from __future__ import annotations

import gc
import threading
import time
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Optional

from repro.errors import (
    QueryDeadlineError,
    ServiceClosedError,
    ServiceOverloadedError,
    TransactionError,
)
from repro.core.middleware import ShapeCounters
from repro.locks import RWLock, make_condition, make_lock
from repro.mvcc import DEFAULT_GC_INTERVAL

#: default bound on queries waiting for a worker before load shedding
DEFAULT_MAX_QUEUED = 16

#: the collector's generation-0 threshold while a service is open. The
#: interpreter's 700 suits a program that makes cycles; the query path
#: makes none (``tests/systems/test_collector.py``), so every young
#: collection it triggers — one per 700 live rows a scan allocates —
#: re-walks those rows to free nothing. The smallest value of the sweep
#: in ``docs/PERFORMANCE.md`` ("ISSUE 22") that reads like no collector
GC_THRESHOLD0 = 20_000


class _YoungGeneration:
    """Sizes the process's collector for serving queries: raised by the
    first :class:`QueryService` to open, put back as found when the last
    one closes. The threshold is the interpreter's, so this is per
    process; a threshold already larger, or 0 (collection off), stays."""

    def __init__(self) -> None:
        self._lock = make_lock("_YoungGeneration._lock")
        self._open = 0
        self._found = gc.get_threshold()

    def open(self) -> None:
        with self._lock:
            if self._open == 0:
                self._found = found = gc.get_threshold()
                if 0 < found[0] < GC_THRESHOLD0:
                    gc.set_threshold(GC_THRESHOLD0, *found[1:])
            self._open += 1

    def close(self) -> None:
        with self._lock:
            self._open -= 1
            if self._open == 0:
                gc.set_threshold(*self._found)


_YOUNG_GENERATION = _YoungGeneration()


@dataclass
class ServiceStats:
    """Point-in-time snapshot of the service's admission accounting.

    Returned by :meth:`QueryService.stats` as a copy taken under the
    admission lock, so the fields are mutually consistent
    (``submitted == completed + failed + expired + cancelled +
    in_flight + queued`` at the moment of the snapshot).
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    shed: int = 0
    expired: int = 0
    cancelled: int = 0
    updates_applied: int = 0
    transactions_committed: int = 0
    transactions_aborted: int = 0
    in_flight: int = 0
    queued: int = 0
    peak_in_flight: int = 0
    peak_queued: int = 0
    sessions_opened: int = 0
    sessions_closed: int = 0
    #: plan reuse of the system's middleware (``None`` for a system
    #: without one), summed after the admission lock is released
    shapes: Optional[ShapeCounters] = None

    def __str__(self) -> str:
        out = (
            f"submitted={self.submitted} completed={self.completed} "
            f"failed={self.failed} shed={self.shed} "
            f"expired={self.expired} cancelled={self.cancelled} "
            f"updates={self.updates_applied} "
            f"peak={self.peak_in_flight}r/{self.peak_queued}q"
        )
        if self.transactions_committed or self.transactions_aborted:
            out += (
                f" txn={self.transactions_committed}c/"
                f"{self.transactions_aborted}a"
            )
        if self.shapes is not None:
            out += f" shapes={self.shapes.hits}h/{self.shapes.misses}m"
        return out


class QueryTicket:
    """A submitted query: a future plus its admission bookkeeping."""

    def __init__(
        self,
        session: "Session",
        sql: str,
        deadline_at: Optional[float],
        bucket: str,
    ) -> None:
        self.session = session
        self.sql = sql
        #: ``time.monotonic()`` instant the queue wait must end by
        self.deadline_at = deadline_at
        #: which admission bucket the ticket currently occupies
        #: ("queued" until a worker picks it up, then "in_flight")
        self.bucket = bucket
        self.future: Optional[Future] = None

    def result(self, timeout: Optional[float] = None):
        """Block for the :class:`QueryResult`; re-raises query errors."""
        assert self.future is not None
        return self.future.result(timeout=timeout)

    def cancel(self) -> bool:
        """Cancel if still queued; running queries are not interrupted."""
        assert self.future is not None
        return self.future.cancel()

    def done(self) -> bool:
        assert self.future is not None
        return self.future.done()


class Session:
    """One client's handle on the service (open → queries → close)."""

    def __init__(
        self, service: "QueryService", session_id: int, client: str
    ) -> None:
        self.service = service
        self.session_id = session_id
        self.client = client
        self.closed = False
        #: per-session tallies (maintained under the service's lock)
        self.queries = 0
        self.updates = 0
        self.errors = 0

    # -- query paths ------------------------------------------------------

    def execute(self, sql: str, deadline_ms: Optional[float] = None):
        """Run ``sql`` synchronously on the calling thread."""
        return self.service.execute(self, sql, deadline_ms=deadline_ms)

    def submit(
        self, sql: str, deadline_ms: Optional[float] = None
    ) -> QueryTicket:
        """Queue ``sql`` on the worker pool; returns a ticket."""
        return self.service.submit(self, sql, deadline_ms=deadline_ms)

    def apply_updates(
        self,
        relation: str,
        inserts: Iterable = (),
        deletes: Iterable = (),
    ) -> None:
        """Apply a relational Δ atomically (no query sees it half-done)."""
        self.service.apply_updates(self, relation, inserts, deletes)

    def begin(self) -> "ServiceTransaction":
        """Open a multi-statement transaction (MVCC services only)."""
        return self.service.begin(self)

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        self.service._close_session(self)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return (
            f"Session(id={self.session_id}, client={self.client!r}, "
            f"{state}, queries={self.queries})"
        )


class ServiceTransaction:
    """A multi-statement transaction bound to one session.

    Statements buffer client-side and install atomically at one commit
    epoch (:meth:`commit`), spanning every touched relation and its
    secondary indexes. The commit runs under the service's **shared**
    lock — concurrent queries keep reading their snapshots; concurrent
    transactions serialize on the system's commit mutex. Usable as a
    context manager: commits on clean exit, aborts when the body
    raised.
    """

    def __init__(self, service: "QueryService", session: Session) -> None:
        self.service = service
        self.session = session
        self._txn = service.system.begin()

    @property
    def state(self) -> str:
        """``"open"``, ``"committed"`` or ``"aborted"``."""
        return self._txn.state

    @property
    def epoch(self) -> Optional[int]:
        """The commit epoch (set by a successful :meth:`commit`)."""
        return self._txn.epoch

    def apply_updates(
        self,
        relation: str,
        inserts: Iterable = (),
        deletes: Iterable = (),
    ) -> None:
        """Buffer one relational Δ; installed atomically at commit."""
        self._txn.apply_updates(relation, inserts, deletes)

    def commit(self) -> int:
        """Install every buffered statement at one commit epoch."""
        return self.service._commit_transaction(self.session, self._txn)

    def abort(self) -> None:
        """Discard the buffered statements (nothing was installed)."""
        self.service._abort_transaction(self.session, self._txn)

    def __enter__(self) -> "ServiceTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._txn.state != "open":
            return
        if exc_type is None:
            self.commit()
        else:
            self.abort()

    def __repr__(self) -> str:
        return (
            f"ServiceTransaction(session={self.session.session_id}, "
            f"{self._txn.state}, statements={self._txn.statements})"
        )


class QueryService:
    """A bounded, admission-controlled, multi-session query service.

    ``system`` is a loaded :class:`SQLOverNoSQL` or
    :class:`ZidianSystem` (anything with ``execute(sql)`` and
    ``apply_updates``). ``max_workers`` defaults to the system's
    intra-query worker knob — one pool thread per modeled worker.

    ``mvcc`` turns snapshot isolation + transactions on (the default
    when the system supports it). ``snapshot_gc_interval`` paces the
    version store's amortized GC (commits between sweeps).
    """

    def __init__(
        self,
        system,
        max_workers: Optional[int] = None,
        max_queued: int = DEFAULT_MAX_QUEUED,
        default_deadline_ms: Optional[float] = None,
        mvcc: bool = True,
        snapshot_gc_interval: int = DEFAULT_GC_INTERVAL,
    ) -> None:
        if max_workers is None:
            max_workers = getattr(system, "workers", 4)
        if max_workers <= 0:
            raise ValueError("max_workers must be positive")
        if max_queued < 0:
            raise ValueError("max_queued must be >= 0")
        self.system = system
        self.max_workers = max_workers
        self.max_queued = max_queued
        self.default_deadline_ms = default_deadline_ms
        #: snapshot reads + transactions on (queries and updates share
        #: the service lock) vs the PR-5 writer-exclusive behavior
        self.mvcc = bool(
            mvcc and hasattr(system, "enable_transactions")
        )
        self.snapshot_gc_interval = snapshot_gc_interval
        if self.mvcc:
            system.enable_transactions(
                snapshot_gc_interval=snapshot_gc_interval
            )
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="query-svc"
        )
        #: reads share / updates exclude (service-level atomicity)
        self._rw = RWLock("QueryService._rw")
        #: admission accounting + drain signaling
        self._gate = make_condition("QueryService._gate")
        self._stats = ServiceStats()
        self._draining = False
        self._closed = False
        self._sessions: Dict[int, Session] = {}
        self._next_session_id = 1
        _YOUNG_GENERATION.open()

    # -- sessions ---------------------------------------------------------

    def open_session(self, client: str = "") -> Session:
        with self._gate:
            if self._closed or self._draining:
                raise ServiceClosedError(
                    "service is draining; no new sessions"
                )
            session = Session(self, self._next_session_id, client)
            self._next_session_id += 1
            self._sessions[session.session_id] = session
            self._stats.sessions_opened += 1
            return session

    def _close_session(self, session: Session) -> None:
        with self._gate:
            if not session.closed:
                session.closed = True
                self._sessions.pop(session.session_id, None)
                self._stats.sessions_closed += 1

    @property
    def active_sessions(self) -> int:
        with self._gate:
            return len(self._sessions)

    # -- admission --------------------------------------------------------

    def _deadline_at(
        self, deadline_ms: Optional[float]
    ) -> Optional[float]:
        if deadline_ms is None:
            deadline_ms = self.default_deadline_ms
        if deadline_ms is None:
            return None
        return time.monotonic() + deadline_ms / 1000.0

    def _check_open(self, session: Session) -> None:
        """Gate must be held."""
        if self._closed:
            raise ServiceClosedError("service is closed")
        if self._draining:
            raise ServiceClosedError("service is draining")
        if session.closed:
            raise ServiceClosedError(
                f"session {session.session_id} is closed"
            )

    def submit(
        self,
        session: Session,
        sql: str,
        deadline_ms: Optional[float] = None,
    ) -> QueryTicket:
        """Asynchronous admission: run on the pool, or shed.

        Admits straight to a worker while fewer than ``max_workers``
        queries are in flight, queues up to ``max_queued`` beyond that,
        sheds (:class:`ServiceOverloadedError`) past both bounds.
        """
        deadline_at = self._deadline_at(deadline_ms)
        with self._gate:
            self._check_open(session)
            if (
                self._stats.in_flight >= self.max_workers
                and self._stats.queued >= self.max_queued
            ):
                self._stats.shed += 1
                raise ServiceOverloadedError(
                    f"{self._stats.in_flight} in flight and "
                    f"{self._stats.queued} queued (bounds: "
                    f"{self.max_workers}+{self.max_queued})"
                )
            if self._stats.in_flight < self.max_workers:
                bucket = "in_flight"
                self._stats.in_flight += 1
            else:
                bucket = "queued"
                self._stats.queued += 1
            self._stats.submitted += 1
            session.queries += 1
            self._note_peaks()
            ticket = QueryTicket(session, sql, deadline_at, bucket)
        try:
            ticket.future = self._pool.submit(self._run, ticket)
        except RuntimeError as exc:
            # the pool shut down between admission and scheduling:
            # reclaim the slot or drain() would wait on it forever
            with self._gate:
                if ticket.bucket == "queued":
                    self._stats.queued -= 1
                else:
                    self._stats.in_flight -= 1
                self._stats.submitted -= 1
                session.queries -= 1
                self._gate.notify_all()
            raise ServiceClosedError("service is closed") from exc
        ticket.future.add_done_callback(
            lambda future: self._on_done(ticket, future)
        )
        return ticket

    def execute(
        self,
        session: Session,
        sql: str,
        deadline_ms: Optional[float] = None,
    ):
        """Synchronous path: the calling thread is its own worker.

        Counted in flight like pooled queries; sheds only past
        ``max_workers + max_queued`` concurrent callers (a synchronous
        caller brings its own thread, so there is nothing to queue).
        """
        deadline_at = self._deadline_at(deadline_ms)
        with self._gate:
            self._check_open(session)
            if self._stats.in_flight >= self.max_workers + self.max_queued:
                self._stats.shed += 1
                raise ServiceOverloadedError(
                    f"{self._stats.in_flight} queries in flight "
                    f"(bound: {self.max_workers}+{self.max_queued})"
                )
            self._stats.in_flight += 1
            self._stats.submitted += 1
            session.queries += 1
            self._note_peaks()
        return self._execute_accounted(session, sql, deadline_at)

    def _note_peaks(self) -> None:
        # repro-lint: holds=_gate -- called from admission paths only
        stats = self._stats
        stats.peak_in_flight = max(stats.peak_in_flight, stats.in_flight)
        stats.peak_queued = max(stats.peak_queued, stats.queued)

    # -- execution --------------------------------------------------------

    def _execute_accounted(
        self, session: Session, sql: str, deadline_at: Optional[float]
    ):
        """Run one admitted query and settle its accounting.

        The single accounting path shared by the synchronous caller
        and the pool workers: the query is already counted in flight;
        this settles it as completed/expired/failed and frees the slot.
        """
        try:
            if deadline_at is not None and time.monotonic() > deadline_at:
                raise QueryDeadlineError(
                    f"deadline expired before execution of {sql!r}"
                )
            with self._rw.read():
                result = self.system.execute(sql)
            with self._gate:
                self._stats.completed += 1
            return result
        except QueryDeadlineError:
            with self._gate:
                self._stats.expired += 1
                session.errors += 1
            raise
        # repro-lint: disable=broad-except -- the worker boundary: settle
        # the accounting for ANY query failure, then re-raise it verbatim
        except Exception:
            with self._gate:
                self._stats.failed += 1
                session.errors += 1
            raise
        finally:
            with self._gate:
                self._stats.in_flight -= 1
                self._gate.notify_all()

    def _run(self, ticket: QueryTicket):
        """Pool-thread body: promote from the queue, then execute."""
        with self._gate:
            if ticket.bucket == "queued":
                self._stats.queued -= 1
                self._stats.in_flight += 1
                ticket.bucket = "in_flight"
        return self._execute_accounted(
            ticket.session, ticket.sql, ticket.deadline_at
        )

    def _on_done(self, ticket: QueryTicket, future: Future) -> None:
        """Reclaim the admission slot of a ticket cancelled in-queue."""
        if not future.cancelled():
            return
        with self._gate:
            if ticket.bucket == "queued":
                self._stats.queued -= 1
            else:
                self._stats.in_flight -= 1
            self._stats.cancelled += 1
            self._gate.notify_all()

    # -- writes -----------------------------------------------------------

    def apply_updates(
        self,
        session: Session,
        relation: str,
        inserts: Iterable = (),
        deletes: Iterable = (),
    ) -> None:
        """Apply a relational Δ atomically with respect to queries.

        With MVCC on (the default) the Δ commits through the version
        overlay under the *shared* lock: snapshot-pinned queries keep
        running and never see it half-applied. Without MVCC it takes
        the write lock and queries wait (the PR-5 behavior). Runs on
        the calling thread: writers are their own workers, and the
        commit mutex (or the exclusive lock) already serializes them,
        so queueing writes behind the pool would only add latency.
        """
        with self._gate:
            self._check_open(session)
        if self.mvcc:
            with self._rw.read():
                self.system.apply_updates(
                    relation, inserts=inserts, deletes=deletes
                )
        else:
            with self._rw.write():
                self.system.apply_updates(
                    relation, inserts=inserts, deletes=deletes
                )
        with self._gate:
            self._stats.updates_applied += 1
            session.updates += 1

    def begin(self, session: Session) -> ServiceTransaction:
        """Open a multi-statement transaction for ``session``."""
        with self._gate:
            self._check_open(session)
        if not self.mvcc:
            raise TransactionError(
                "transactions need MVCC (service constructed with "
                "mvcc=False, or a system without a transaction surface)"
            )
        return ServiceTransaction(self, session)

    def _commit_transaction(self, session: Session, txn) -> int:
        """Commit a session's transaction under the shared lock."""
        with self._gate:
            self._check_open(session)
        statements = txn.statements
        try:
            with self._rw.read():
                epoch = txn.commit()
        # repro-lint: disable=broad-except -- stats bookkeeping only:
        # the abort counter must tick for every failure mode, and the
        # exception is re-raised unchanged
        except BaseException:
            with self._gate:
                self._stats.transactions_aborted += 1
                session.errors += 1
            raise
        with self._gate:
            self._stats.transactions_committed += 1
            self._stats.updates_applied += statements
            session.updates += statements
        return epoch

    def _abort_transaction(self, session: Session, txn) -> None:
        txn.abort()
        with self._gate:
            self._stats.transactions_aborted += 1

    def create_index(
        self, session: Session, relation: str, attr: str,
        kind: str = "hash",
    ):
        """Online index DDL, exclusive like updates."""
        with self._gate:
            self._check_open(session)
        with self._rw.write():
            return self.system.create_index(relation, attr, kind)

    def drop_index(
        self,
        session: Session,
        relation: str,
        attr: Optional[str] = None,
        kind: Optional[str] = None,
    ) -> int:
        with self._gate:
            self._check_open(session)
        with self._rw.write():
            return self.system.drop_index(relation, attr, kind)

    # -- introspection ----------------------------------------------------

    def stats(self) -> ServiceStats:
        """A consistent snapshot of the admission counters, with the
        middleware's plan-reuse counters beside it."""
        with self._gate:
            snapshot = replace(self._stats)
        middleware = getattr(self.system, "middleware", None)
        if middleware is not None:
            snapshot.shapes = middleware.shape_stats.total()
        return snapshot

    # -- lifecycle --------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting and wait for in-flight/queued work to finish.

        Returns ``True`` once the service is idle, ``False`` on
        timeout (work still running). Idempotent.
        """
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        with self._gate:
            self._draining = True
            while self._stats.in_flight or self._stats.queued:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._gate.wait(timeout=remaining)
            return True

    def close(
        self,
        timeout: Optional[float] = None,
        close_system: bool = False,
    ) -> bool:
        """Drain, then shut the pool down. Further queries are refused.

        ``close_system=True`` also closes the underlying system (which
        reaps its cluster's node processes on the socket transport) —
        opt-in because the service does not own a system handed to it,
        and callers may keep querying the system directly after the
        service is gone.
        """
        drained = self.drain(timeout=timeout)
        with self._gate:
            first_close = not self._closed
            self._closed = True
            for session in list(self._sessions.values()):
                session.closed = True
            self._sessions.clear()
        self._pool.shutdown(wait=True, cancel_futures=True)
        if first_close:
            _YOUNG_GENERATION.close()
        if close_system:
            closer = getattr(self.system, "close", None)
            if closer is not None:
                closer()
        return drained

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        with self._gate:
            return (
                f"QueryService(workers={self.max_workers}, "
                f"max_queued={self.max_queued}, "
                f"sessions={len(self._sessions)}, "
                f"in_flight={self._stats.in_flight})"
            )


__all__ = [
    "DEFAULT_MAX_QUEUED",
    "GC_THRESHOLD0",
    "QueryService",
    "QueryTicket",
    "ServiceStats",
    "ServiceTransaction",
    "Session",
    "CancelledError",
]
