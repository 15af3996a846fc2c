"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class. Sub-hierarchies mirror the subsystems:
relational schema errors, SQL front-end errors, KV storage errors, BaaV
model errors and Zidian planning errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class LockError(ReproError):
    """A concurrency primitive was misused (e.g. ``release_write`` by a
    thread that does not own the write lock). Raised by
    :mod:`repro.locks`; always a caller bug, never a transient state."""


class LockOrderError(LockError):
    """The runtime lock-order sanitizer (``REPRO_LOCKDEP=1``, see
    :mod:`repro.lockdep`) observed acquisition orderings that form a
    cycle — a latent deadlock. The message carries the witness stacks
    of both sides of the inverted ordering."""


class SchemaError(ReproError):
    """Invalid relational or KV schema definition or usage."""


class UnknownRelationError(SchemaError):
    """A relation name was not found in the database schema."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown relation: {name!r}")
        self.name = name


class UnknownAttributeError(SchemaError):
    """An attribute name was not found in a relation or block schema."""

    def __init__(self, attr: str, where: str = "") -> None:
        suffix = f" in {where}" if where else ""
        super().__init__(f"unknown attribute: {attr!r}{suffix}")
        self.attr = attr


class TypeMismatchError(SchemaError):
    """A value did not match the declared attribute type."""


class SQLError(ReproError):
    """Base class for SQL front-end errors."""


class SQLSyntaxError(SQLError):
    """The SQL text could not be tokenized or parsed."""

    def __init__(self, message: str, position: int = -1) -> None:
        if position >= 0:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class SQLAnalysisError(SQLError):
    """The SQL parsed but failed semantic analysis (binding, typing)."""


class UnsupportedSQLError(SQLError):
    """The SQL uses a feature outside the supported subset."""


class KVError(ReproError):
    """Base class for KV storage errors."""


class ClusterUnavailableError(KVError):
    """No live node can serve the request (every cluster node is down).

    Preference lists are recomputed over live nodes, so as long as any
    node is up a request is routed somewhere; with fewer surviving
    replicas than data copies the routed read may simply miss (silent
    degradation), which is the R=1 crash behavior the failover tests
    document.
    """


class CodecError(KVError):
    """A value could not be encoded to or decoded from bytes."""


class WireProtocolError(KVError):
    """A wire frame violates the node protocol (truncated length
    prefix, oversized declared length, unknown opcode, trailing or
    missing payload bytes). Raised by the codec on both sides; a node
    server answers with a protocol-error frame instead of dying."""


class DurabilityError(KVError):
    """On-disk durability state is unusable: a checkpoint file fails its
    magic/CRC validation, a WAL record declares an impossible length
    mid-log, or a data directory cannot be laid out the way recovery
    needs. A *torn final WAL record* is NOT this error — a torn tail is
    expected crash debris and replay discards it cleanly."""


class RemoteOpError(KVError):
    """A node server executed the request and reported an application
    error (the remote exception's message travels back in the frame)."""


class NodePeerError(KVError):
    """A node process is unreachable: connect refused, connection reset
    mid-request, or the peer closed without answering. The cluster maps
    this to failover (mark the peer down, re-replicate, retry) and only
    surfaces :class:`ClusterUnavailableError` when no replica is left."""

    def __init__(self, node_id: int, message: str) -> None:
        super().__init__(f"node {node_id}: {message}")
        self.node_id = node_id


class BaaVError(ReproError):
    """Base class for BaaV model errors."""


class NotPreservedError(BaaVError):
    """A query is not result-preserved by the available BaaV schema."""


class PlanError(ReproError):
    """A KBA or RA plan could not be generated or executed."""


class ExecutionError(ReproError):
    """A plan failed during execution."""


class CompileError(ExecutionError):
    """An expression or plan fragment is outside the vectorizing
    compiler's subset (aggregate calls, unknown operators, unbound
    columns). Internal to :mod:`repro.kba.compile`: handlers catch it
    and fall back to row-at-a-time execution, so it never escapes to
    callers of a vectorized plan."""


class ServiceError(ReproError):
    """Base class for query-service errors."""


class ServiceOverloadedError(ServiceError):
    """Admission control shed the query: pool and queue are both full.

    Load shedding is the service's back-pressure signal — clients are
    expected to back off and retry rather than pile onto an already
    saturated pool (the closed-loop traffic driver does exactly that).
    """


class ServiceClosedError(ServiceError):
    """The service (or the session) is draining or closed."""


class QueryDeadlineError(ServiceError):
    """The query's deadline expired before a worker could start it."""


class TransactionError(ServiceError):
    """A multi-statement transaction was misused: a statement or commit
    after the transaction already committed/aborted, an unpin of an
    epoch that was never pinned, or a transaction surface invoked on a
    system without MVCC enabled. Always a caller bug — a *failed*
    commit surfaces as the underlying storage/execution error, not as
    this type."""
