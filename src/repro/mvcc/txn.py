"""Multi-statement transactions over the version store.

A :class:`Transaction` buffers ``apply_updates`` statements;
:meth:`Transaction.commit` replays them atomically:

1. take the manager's **commit mutex** (one installing writer at a
   time — concurrent writers serialize here, *not* against readers);
2. allocate a commit epoch C (:meth:`EpochManager.begin_commit` —
   never reused, even if this commit fails);
3. replay every statement inside ``versions.recording(C)`` — the
   cluster write path captures each key's superseded value into the
   overlay *before* overwriting it, across every touched relation, its
   TaaV/BaaV stores and its secondary indexes;
4. **publish** C — only now do new snapshots see any of it.

Readers never block: a query pins the published epoch
(:meth:`TransactionManager.snapshot`), reads state-as-of-that-epoch
through the overlay, and unpins when done. The last unpin (and every
``gc_interval``-th commit) runs GC: versions dead at or before the
epoch horizon are reclaimed.

Failure semantics: every buffered statement is **validated** under the
commit mutex before the first mutation and before an epoch is allocated
(unknown relation, delete of a row that is not there once the earlier
statements of the same transaction are applied), so an invalid
transaction leaves no trace. A fault raised *during* a base write still
aborts the transaction with the epoch **unpublished** — no snapshot
ever pins the failed epoch, so its partially-installed base writes stay
invisible to MVCC readers until a later commit supersedes them
(unpinned "latest state" readers may observe them, exactly like a
half-applied ``apply_updates`` before this PR). A transaction object
belongs to one session/thread; it is not itself thread-safe.
"""

from __future__ import annotations

from typing import (
    Callable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import TransactionError
from repro.locks import make_lock
from repro.mvcc.epoch import EpochManager
from repro.mvcc.versions import VersionStore

#: one buffered statement: (relation, inserted rows, deleted rows)
Statement = Tuple[str, List[tuple], List[tuple]]
#: the system hook that applies one statement to every storage layer
ApplyFn = Callable[..., None]
#: the system hook that checks a whole transaction before it installs
ValidateFn = Callable[[Sequence[Statement]], None]

#: commits between amortized GC sweeps (the ``snapshot_gc_interval``
#: knob of the systems/service layer)
DEFAULT_GC_INTERVAL = 32


class TransactionManager:
    """Owns the commit protocol, the snapshot surface, and GC pacing.

    ``apply_fn(relation, inserts, deletes)`` is the system's
    *base* apply hook (relational rows + TaaV/BaaV + indexes), called
    once per buffered statement inside the recording context.
    ``validate_fn(statements)`` is its checking half: it sees the whole
    transaction under the commit mutex, before the first mutation and
    before an epoch is allocated, and raises to refuse it.

    ``gc_interval`` amortizes garbage collection over commits; GC also
    runs when the last snapshot unpins (the horizon just jumped
    forward).
    """

    def __init__(
        self,
        epochs: EpochManager,
        versions: VersionStore,
        apply_fn: ApplyFn,
        gc_interval: int = DEFAULT_GC_INTERVAL,
        validate_fn: Optional[ValidateFn] = None,
    ) -> None:
        if gc_interval <= 0:
            raise ValueError("gc_interval must be positive")
        self.epochs = epochs
        self.versions = versions
        self._apply = apply_fn
        self._validate = validate_fn
        self.gc_interval = gc_interval
        #: serializes installing writers (readers never take this)
        self._commit_lock = make_lock(
            "TransactionManager._commit_lock"
        )
        self._commits_since_gc = 0

    # -- reader surface ----------------------------------------------------

    def snapshot(self) -> "_Snapshot":
        """Pin the published epoch for the calling thread's reads: a
        context manager that yields the epoch."""
        return _Snapshot(self)

    # -- writer surface ----------------------------------------------------

    def begin(self) -> "Transaction":
        return Transaction(self)

    def commit_statements(self, statements: Sequence[Statement]) -> int:
        """Install ``statements`` atomically at one commit epoch."""
        with self._commit_lock:
            if self._validate is not None:
                # an invalid statement anywhere in the transaction
                # refuses all of it: nothing written, no epoch burned
                self._validate(statements)
            epoch = self.epochs.begin_commit()
            with self.versions.recording(epoch):
                for relation, inserts, deletes in statements:
                    self._apply(relation, inserts, deletes)
            self.epochs.publish(epoch)
            self._commits_since_gc += 1
            if self._commits_since_gc >= self.gc_interval:
                self._commits_since_gc = 0
                self.versions.gc(self.epochs.horizon())
        return epoch

    # -- GC ----------------------------------------------------------------

    def gc_now(self) -> int:
        """Sweep versions dead at the current horizon; returns count."""
        return self.versions.gc(self.epochs.horizon())

    def __repr__(self) -> str:
        return (
            f"TransactionManager(published={self.epochs.published}, "
            f"pinned={self.epochs.pinned()}, "
            f"gc_interval={self.gc_interval})"
        )


class Transaction:
    """A buffered multi-statement transaction (begin → apply* → commit).

    Statements accumulate client-side and install at commit; reads
    issued while the transaction is open therefore still see the
    pre-transaction state (snapshot isolation without read-your-own-
    writes — the paper's workloads never read back mid-transaction).
    Usable as a context manager: commits on clean exit, aborts when the
    body raised.
    """

    def __init__(self, manager: TransactionManager) -> None:
        self._manager = manager
        self._statements: List[Statement] = []
        self._state = "open"
        #: the commit epoch, set by a successful commit()
        self.epoch: Optional[int] = None

    @property
    def state(self) -> str:
        """``"open"``, ``"committed"`` or ``"aborted"``."""
        return self._state

    @property
    def statements(self) -> int:
        """Number of buffered statements."""
        return len(self._statements)

    def apply_updates(
        self,
        relation: str,
        inserts: Iterable[tuple] = (),
        deletes: Iterable[tuple] = (),
    ) -> None:
        """Buffer one relational Δ; installed atomically at commit."""
        if self._state != "open":
            raise TransactionError(
                f"cannot apply updates: transaction is {self._state}"
            )
        self._statements.append(
            (
                relation,
                [tuple(row) for row in inserts],
                [tuple(row) for row in deletes],
            )
        )

    def commit(self) -> int:
        """Install every buffered statement at one commit epoch."""
        if self._state != "open":
            raise TransactionError(
                f"cannot commit: transaction is {self._state}"
            )
        if not self._statements:
            # nothing to install: no epoch burned, nothing published
            self._state = "committed"
            self.epoch = self._manager.epochs.published
            return self.epoch
        try:
            self.epoch = self._manager.commit_statements(
                self._statements
            )
        # repro-lint: disable=broad-except -- state bookkeeping only:
        # any failure (including KeyboardInterrupt) marks the txn
        # aborted and is re-raised unchanged
        except BaseException:
            self._state = "aborted"
            raise
        self._state = "committed"
        return self.epoch

    def abort(self) -> None:
        """Discard the buffered statements (nothing was installed)."""
        if self._state == "committed":
            raise TransactionError(
                "cannot abort: transaction already committed"
            )
        self._state = "aborted"
        self._statements.clear()

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._state != "open":
            return
        if exc_type is None:
            self.commit()
        else:
            self.abort()

    def __repr__(self) -> str:
        return (
            f"Transaction({self._state}, "
            f"statements={len(self._statements)}, epoch={self.epoch})"
        )


class _Snapshot:
    """:meth:`TransactionManager.snapshot`, written out rather than a
    generator: every query of an MVCC system enters one."""

    __slots__ = ("manager", "epoch", "previous")

    def __init__(self, manager: TransactionManager) -> None:
        self.manager = manager

    def __enter__(self) -> int:
        self.epoch = self.manager.epochs.pin()
        self.previous = self.manager.versions.read_at(self.epoch)
        return self.epoch

    def __exit__(self, *exc: object) -> None:
        manager = self.manager
        manager.versions.read_at(self.previous)
        if manager.epochs.unpin(self.epoch):
            # the last live snapshot is gone: the horizon advanced to
            # the published epoch, so sweep now
            manager.gc_now()
