"""Unit tests of the transaction manager (commit protocol, GC pacing)."""

from __future__ import annotations

import pytest

from repro.errors import TransactionError
from repro.mvcc import EpochManager, TransactionManager, VersionStore


def make_manager(applied=None, apply_fn=None, **kwargs):
    versions = VersionStore()
    if apply_fn is None:
        def apply_fn(relation, inserts, deletes):
            applied.append((relation, inserts, deletes))
    return TransactionManager(
        EpochManager(), versions, apply_fn, **kwargs
    )


class TestCommitProtocol:
    def test_commit_replays_statements_in_order_and_publishes(self):
        applied = []
        manager = make_manager(applied)
        with manager.begin() as txn:
            txn.apply_updates("A", inserts=[(1,)])
            txn.apply_updates("B", deletes=[(2,)])
        assert txn.state == "committed"
        assert txn.epoch == 1
        assert applied == [("A", [(1,)], []), ("B", [], [(2,)])]
        assert manager.epochs.published == 1

    def test_statements_replay_inside_recording_context(self):
        seen = []
        manager = None

        def apply_fn(relation, inserts, deletes):
            seen.append(manager.versions.recording_epoch())

        manager = make_manager(apply_fn=apply_fn)
        with manager.begin() as txn:
            txn.apply_updates("A", inserts=[(1,)])
        assert seen == [txn.epoch]
        assert manager.versions.recording_epoch() is None

    def test_empty_transaction_burns_no_epoch(self):
        manager = make_manager([])
        with manager.begin() as txn:
            pass
        assert txn.state == "committed"
        assert txn.epoch == 0
        assert manager.epochs.published == 0

    def test_failed_apply_aborts_without_publishing(self):
        def apply_fn(relation, inserts, deletes):
            raise ValueError("node down")

        manager = make_manager(apply_fn=apply_fn)
        txn = manager.begin()
        txn.apply_updates("A", inserts=[(1,)])
        with pytest.raises(ValueError):
            txn.commit()
        assert txn.state == "aborted"
        assert manager.epochs.published == 0
        # the failed epoch is burned, not reused by the next commit
        applied = []
        manager._apply = lambda r, i, d: applied.append(r)
        with manager.begin() as txn2:
            txn2.apply_updates("A", inserts=[(2,)])
        assert txn2.epoch == 2

    def test_context_manager_aborts_on_body_error(self):
        applied = []
        manager = make_manager(applied)
        with pytest.raises(RuntimeError):
            with manager.begin() as txn:
                txn.apply_updates("A", inserts=[(1,)])
                raise RuntimeError("client bailed")
        assert txn.state == "aborted"
        assert applied == []

    def test_closed_transaction_rejects_further_use(self):
        manager = make_manager([])
        txn = manager.begin()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.apply_updates("A", inserts=[(1,)])
        with pytest.raises(TransactionError):
            txn.commit()
        with pytest.raises(TransactionError):
            txn.abort()

    def test_abort_discards_buffered_statements(self):
        applied = []
        manager = make_manager(applied)
        txn = manager.begin()
        txn.apply_updates("A", inserts=[(1,)])
        txn.abort()
        assert txn.state == "aborted"
        assert txn.statements == 0
        txn.abort()  # aborting again is fine
        assert applied == []

    def test_repr(self):
        manager = make_manager([])
        txn = manager.begin()
        assert "open" in repr(txn)
        assert "published=0" in repr(manager)


class TestSnapshots:
    def test_snapshot_pins_published_and_sets_read_epoch(self):
        applied = []
        manager = make_manager(applied)
        with manager.begin() as txn:
            txn.apply_updates("A", inserts=[(1,)])
        with manager.snapshot() as epoch:
            assert epoch == txn.epoch
            assert manager.versions.read_epoch() == epoch
            assert manager.epochs.pinned() == 1
        assert manager.versions.read_epoch() is None
        assert manager.epochs.pinned() == 0

    def test_last_unpin_runs_gc(self):
        applied = []
        manager = make_manager(applied)
        with manager.snapshot():  # pins epoch 0
            # a commit supersedes a key the snapshot can still see
            manager.versions.record_write("A", b"k", 1, b"v0")
            manager.epochs.publish(1)
            assert manager.versions.tracked_versions() == 1
        # snapshot released: horizon jumped to 1, the version is dead
        assert manager.versions.tracked_versions() == 0


class TestGCPacing:
    def test_amortized_gc_every_interval_commits(self):
        versions = VersionStore()

        def apply_fn(relation, inserts, deletes):
            # each commit supersedes the same key once
            epoch = versions.recording_epoch()
            versions.record_write("A", b"k", epoch, b"old")

        manager = TransactionManager(
            EpochManager(), versions, apply_fn, gc_interval=3
        )
        for _ in range(2):
            with manager.begin() as txn:
                txn.apply_updates("A", inserts=[(1,)])
        assert versions.tracked_versions() == 2  # not swept yet
        with manager.begin() as txn:
            txn.apply_updates("A", inserts=[(1,)])
        assert versions.tracked_versions() == 0  # 3rd commit swept

    def test_gc_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            make_manager([], gc_interval=0)
