"""Concurrent query service over the SQL-over-NoSQL systems (PR 5).

Public surface:

* :class:`QueryService` — multi-session, admission-controlled service
  wrapping a loaded system behind a bounded worker pool;
* :class:`Session` / :class:`QueryTicket` — per-client handles and
  asynchronous query futures;
* :class:`ServiceTransaction` — a session-bound multi-statement
  transaction (PR 9: MVCC snapshot isolation, the ``mvcc=`` knob);
* :class:`ServiceStats` — snapshot-consistent service accounting;
* the service errors live in :mod:`repro.errors`
  (``ServiceOverloadedError``, ``ServiceClosedError``,
  ``QueryDeadlineError``, ``TransactionError``).
"""

from repro.service.service import (
    DEFAULT_MAX_QUEUED,
    QueryService,
    QueryTicket,
    ServiceStats,
    ServiceTransaction,
    Session,
)

__all__ = [
    "DEFAULT_MAX_QUEUED",
    "QueryService",
    "QueryTicket",
    "ServiceStats",
    "ServiceTransaction",
    "Session",
]
