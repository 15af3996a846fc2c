"""Service-level transactions: begin/apply/commit/abort, MVCC knobs.

These tests drive the real systems (not the stub): the transaction
surface spans the relational layer, the TaaV/BaaV stores and the
secondary indexes, so a stub would prove nothing about atomicity.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import ExecutionError, TransactionError, UnknownRelationError
from repro.service import QueryService
from repro.systems import SQLOverNoSQL, ZidianSystem

COUNT_SQL = "select count(*) as n from PARTSUPP PS"


@pytest.fixture()
def service(paper_db, paper_baav_schema):
    system = ZidianSystem("hbase", workers=2, storage_nodes=2)
    system.load(paper_db.copy(), paper_baav_schema)
    with QueryService(system, max_workers=2) as svc:
        yield svc


class TestKnobs:
    def test_mvcc_defaults_on_for_capable_systems(self, service):
        assert service.mvcc is True
        assert service.system.transactions is not None

    def test_mvcc_off_via_argument(self, paper_db, paper_baav_schema):
        system = ZidianSystem("hbase", workers=2, storage_nodes=2)
        system.load(paper_db.copy(), paper_baav_schema)
        with QueryService(system, mvcc=False) as svc:
            assert svc.mvcc is False
            with svc.open_session() as session:
                with pytest.raises(TransactionError):
                    session.begin()
                # non-transactional updates still work
                session.apply_updates(
                    "PARTSUPP", inserts=[(900, 1, 9.0, 9)]
                )
                count = session.execute(COUNT_SQL).rows[0][0]
            assert count == len(paper_db.relation("PARTSUPP").rows) + 1

    def test_mvcc_requires_capable_system(self):
        class Bare:
            workers = 1

            def execute(self, sql):
                return sql

            def apply_updates(self, relation, inserts=(), deletes=()):
                pass

        with QueryService(Bare(), max_workers=1, mvcc=True) as svc:
            assert svc.mvcc is False

    def test_gc_interval_forwarded(self, paper_db, paper_baav_schema):
        system = ZidianSystem("hbase", workers=2, storage_nodes=2)
        system.load(paper_db.copy(), paper_baav_schema)
        with QueryService(system, snapshot_gc_interval=7) as svc:
            assert svc.system.transactions.gc_interval == 7


class TestTransactions:
    def test_multi_relation_commit_is_atomic_and_visible(
        self, service, q1_sql
    ):
        with service.open_session() as session:
            before = sorted(session.execute(q1_sql).rows)
            with session.begin() as txn:
                txn.apply_updates("SUPPLIER", inserts=[(5, 10)])
                txn.apply_updates(
                    "PARTSUPP", inserts=[(500, 5, 4.0, 3)]
                )
            assert txn.state == "committed"
            assert txn.epoch == 1
            after = sorted(session.execute(q1_sql).rows)
        assert after != before
        assert (5, 4.0) in after

    def test_commit_epoch_lands_on_metrics(self, service, q1_sql):
        with service.open_session() as session:
            assert session.execute(q1_sql).metrics.snapshot_epoch == 0
            with session.begin() as txn:
                txn.apply_updates(
                    "PARTSUPP", inserts=[(900, 1, 9.0, 9)]
                )
            result = session.execute(q1_sql)
            assert result.metrics.snapshot_epoch == txn.epoch

    def test_abort_installs_nothing(self, service):
        with service.open_session() as session:
            before = session.execute(COUNT_SQL).rows[0][0]
            txn = session.begin()
            txn.apply_updates("PARTSUPP", inserts=[(901, 1, 1.0, 1)])
            txn.abort()
            assert txn.state == "aborted"
            assert session.execute(COUNT_SQL).rows[0][0] == before
        assert service.stats().transactions_aborted == 1
        assert service.stats().transactions_committed == 0

    def test_body_error_aborts(self, service):
        with service.open_session() as session:
            before = session.execute(COUNT_SQL).rows[0][0]
            with pytest.raises(RuntimeError):
                with session.begin() as txn:
                    txn.apply_updates(
                        "PARTSUPP", inserts=[(902, 1, 1.0, 1)]
                    )
                    raise RuntimeError("client bailed")
            assert txn.state == "aborted"
            assert session.execute(COUNT_SQL).rows[0][0] == before

    def test_commit_failure_counts_as_aborted(self, service):
        with service.open_session() as session:
            txn = session.begin()
            txn.apply_updates("NO_SUCH_RELATION", inserts=[(1,)])
            with pytest.raises(Exception):
                txn.commit()
            assert txn.state == "aborted"
        stats = service.stats()
        assert stats.transactions_aborted == 1
        assert stats.transactions_committed == 0
        assert "txn=0c/1a" in str(stats)

    def test_stats_count_commits_and_statements(self, service):
        with service.open_session() as session:
            with session.begin() as txn:
                txn.apply_updates("PARTSUPP", inserts=[(903, 1, 1.0, 1)])
                txn.apply_updates("PARTSUPP", inserts=[(904, 1, 1.0, 1)])
        stats = service.stats()
        assert stats.transactions_committed == 1
        assert stats.updates_applied == 2

    def test_baseline_system_has_transactions_too(
        self, paper_db, q1_sql
    ):
        system = SQLOverNoSQL(workers=2, storage_nodes=2)
        system.load(paper_db.copy())
        with QueryService(system, max_workers=2) as svc:
            with svc.open_session() as session:
                with session.begin() as txn:
                    txn.apply_updates("SUPPLIER", inserts=[(5, 10)])
                    txn.apply_updates(
                        "PARTSUPP", inserts=[(500, 5, 4.0, 3)]
                    )
                assert txn.state == "committed"
                assert (5, 4.0) in session.execute(q1_sql).rows


class TestSnapshotIsolation:
    def test_reader_blocked_mid_query_sees_pre_commit_state(
        self, service
    ):
        """A commit landing while a reader is pinned must be invisible
        to that reader — the overlay serves the superseded values."""
        system = service.system
        manager = system.transactions
        with service.open_session() as session:
            with manager.snapshot() as epoch:
                with session.begin() as txn:
                    txn.apply_updates(
                        "PARTSUPP", inserts=[(905, 1, 1.0, 1)]
                    )
                # the commit published, but this thread is still pinned
                # at the pre-commit epoch
                assert txn.epoch == epoch + 1
                count = system.execute(COUNT_SQL).rows[0][0]
            after = system.execute(COUNT_SQL).rows[0][0]
        assert after == count + 1

    def test_concurrent_reads_during_commit_see_whole_epochs(
        self, service, q1_sql
    ):
        """Readers racing a stream of commits always observe a count
        that equals some prefix of the committed transactions."""
        stop = threading.Event()
        seen = []
        errors = []

        def reader():
            with service.open_session() as session:
                while not stop.is_set():
                    try:
                        result = session.execute(COUNT_SQL)
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)
                        return
                    seen.append(
                        (result.metrics.snapshot_epoch,
                         result.rows[0][0])
                    )

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        base = None
        try:
            with service.open_session() as session:
                base = session.execute(COUNT_SQL).rows[0][0]
                for i in range(10):
                    with session.begin() as txn:
                        txn.apply_updates(
                            "PARTSUPP",
                            inserts=[(910 + i, 1, 1.0, 1)],
                        )
        finally:
            stop.set()
            thread.join(timeout=30.0)
        assert not errors
        # count at epoch E == base + E: every snapshot is a whole
        # number of commits, never a torn half-commit
        for epoch, count in seen:
            assert count == base + epoch, (epoch, count)


class TestWholeTransactionValidation:
    """An invalid statement anywhere in a transaction refuses all of it
    *before* the first write: nothing of the earlier statements may land
    under the burned epoch and be published by the next commit."""

    DELAY_COUNT = "select count(*) as n from DELAY D"

    @staticmethod
    def _delay_row(database, delay_id):
        row = list(database.relation("DELAY").rows[0])
        row[0] = delay_id
        return tuple(row)

    def _check(self, database, begin, count, commit_one):
        before = count()
        txn = begin()
        txn.apply_updates("DELAY", inserts=[self._delay_row(database, 900001)])
        txn.apply_updates("NOPE", inserts=[(1,)])
        with pytest.raises(UnknownRelationError):
            txn.commit()
        assert txn.state == "aborted"
        assert count() == before
        # a delete that only an EARLIER statement of the same
        # transaction makes valid is fine; one nothing provides is not
        fresh = self._delay_row(database, 900002)
        txn = begin()
        txn.apply_updates("DELAY", inserts=[fresh])
        txn.apply_updates("DELAY", deletes=[fresh, fresh])
        with pytest.raises(ExecutionError):
            txn.commit()
        assert count() == before
        with begin() as txn:
            txn.apply_updates("DELAY", inserts=[fresh])
            txn.apply_updates("DELAY", deletes=[fresh])
        assert count() == before
        commit_one(self._delay_row(database, 900003))
        assert count() == before + 1  # the orphaned row would make it +2

    def test_through_system_begin(self, airca_small):
        from repro.workloads.airca import airca_baav_schema

        database = airca_small.copy()
        with ZidianSystem("hbase", workers=2, storage_nodes=2) as system:
            system.load(database, airca_baav_schema())
            published = system.enable_transactions().epochs.published
            self._check(
                database,
                system.begin,
                lambda: system.execute(self.DELAY_COUNT).rows[0][0],
                lambda row: system.apply_updates("DELAY", inserts=[row]),
            )
            # two commits published; the refused ones burned no epoch
            assert system.transactions.epochs.published == published + 2

    def test_through_session_begin(self, airca_small):
        from repro.workloads.airca import airca_baav_schema

        database = airca_small.copy()
        system = ZidianSystem("hbase", workers=2, storage_nodes=2)
        system.load(database, airca_baav_schema())
        with QueryService(system, max_workers=2) as svc:
            with svc.open_session() as session:
                self._check(
                    database,
                    session.begin,
                    lambda: session.execute(self.DELAY_COUNT).rows[0][0],
                    lambda row: session.apply_updates(
                        "DELAY", inserts=[row]
                    ),
                )
            assert svc.stats().transactions_aborted == 2
