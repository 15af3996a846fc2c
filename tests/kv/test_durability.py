"""Crash/recovery semantics of durable nodes and clusters (PR 8).

Three layers of the crash story:

* :class:`StorageNode` — ``crash()`` destroys the volatile store (the
  satellite-1 bugfix: before PR 8 a local kill silently degraded to
  partition semantics), ``restart()`` recovers by WAL replay when the
  node is durable and comes back empty otherwise.
* :class:`KVCluster` knobs — durability resolution (``data_dir`` ⇒
  ``"wal"``, env fallback, scratch-dir ownership) and the invalid
  combinations.
* Cluster recovery — kill-and-recover moves **zero** bytes on a durable
  cluster (WAL replay + delta catch-up) versus a full re-sync on a
  volatile one, local and socket transports count identically, and a
  whole-cluster restart from ``data_dir`` serves every acked write
  byte-for-byte.

File-format corruption cases live in ``test_wal.py``; end-to-end query
scenarios in ``tests/integration/test_failure_injection.py``.
"""

import os

import pytest

from repro.kv import checkpoint as ckpt
from repro.kv import wal as walmod
from repro.kv.cluster import DURABILITY_ENV, KVCluster
from repro.kv.memstore import MemStore
from repro.kv.node import StorageNode


def _fill(cluster, n=60, value=b"payload-%d"):
    writes = {}
    for i in range(n):
        key = b"k%04d" % i
        cluster.put("ns", key, value % i)
        writes[key] = value % i
    return writes


def _assert_serves(cluster, writes):
    for key, want in writes.items():
        assert cluster.get("ns", key) == want


# --------------------------------------------------------------------------
# StorageNode crash/restart
# --------------------------------------------------------------------------


class TestStorageNodeCrash:
    def test_volatile_kill_destroys_store(self):
        node = StorageNode(0)
        node.put(b"k", b"v")
        assert node.crash()
        assert node.is_crashed
        assert len(node.store) == 0  # the crash-semantics fix
        node.restart()
        assert not node.is_crashed
        assert node.get(b"k") is None  # volatile: comes back empty

    def test_durable_kill_recovers_by_replay(self, tmp_path):
        node = StorageNode(0, data_dir=str(tmp_path / "n0"))
        assert node.durable
        node.put(b"k", b"v")
        node.multi_put([(b"a", b"1"), (b"b", b"2")])
        node.delete(b"a")
        assert node.crash()
        assert len(node.store) == 0
        node.restart()
        assert node.get(b"k") == b"v"
        assert node.get(b"b") == b"2"
        assert node.get(b"a") is None
        assert node.last_recovery is not None
        assert node.last_recovery.records_replayed == 3
        node.close()

    def test_injected_store_degrades_with_warning(self):
        store = MemStore()
        node = StorageNode(0, store=store)
        node.put(b"k", b"v")
        with pytest.warns(RuntimeWarning, match="injected store"):
            assert not node.crash()
        assert not node.is_crashed
        assert store.get(b"k") == b"v"  # partition semantics kept

    def test_crash_idempotent(self):
        node = StorageNode(0)
        assert node.crash()
        assert node.crash()  # already crashed: still honored

    def test_injected_store_with_data_dir_refused(self, tmp_path):
        with pytest.raises(ValueError):
            StorageNode(0, store=MemStore(), data_dir=str(tmp_path))

    def test_checkpoint_requires_durability(self, tmp_path):
        volatile = StorageNode(0)
        with pytest.raises(ValueError):
            volatile.checkpoint()
        durable = StorageNode(0, data_dir=str(tmp_path / "n0"))
        durable.put(b"k", b"v")
        durable.checkpoint()
        assert os.path.exists(
            ckpt.checkpoint_path(str(tmp_path / "n0"), 1))
        durable.close()

    def test_wal_stats_shape(self, tmp_path):
        assert StorageNode(0).wal_stats() == {}
        node = StorageNode(0, data_dir=str(tmp_path / "n0"),
                           fsync_policy="always")
        node.put(b"k", b"v")
        stats = node.wal_stats()
        assert stats["records"] == 1
        assert stats["fsyncs"] == 1
        node.close()

    def test_automatic_checkpoint_bounds_replay(self, tmp_path):
        node = StorageNode(0, data_dir=str(tmp_path / "n0"),
                           checkpoint_interval=8)
        for i in range(20):
            node.put(b"k%02d" % i, b"v")
        node.crash()
        node.restart()
        report = node.last_recovery
        assert report is not None
        assert report.seq >= 2  # the interval fired while writing
        assert report.records_replayed < 8
        assert report.checkpoint_pairs + report.records_replayed >= 16
        for i in range(20):
            assert node.get(b"k%02d" % i) == b"v"
        node.close()


# --------------------------------------------------------------------------
# KVCluster durability knobs
# --------------------------------------------------------------------------


class TestClusterKnobs:
    def test_data_dir_implies_wal(self, tmp_path):
        cluster = KVCluster(2, data_dir=str(tmp_path / "c"))
        assert cluster.durability == "wal"
        assert all(node.durable for node in cluster.nodes.values())
        cluster.close()

    def test_off_with_data_dir_refused(self, tmp_path):
        with pytest.raises(ValueError):
            KVCluster(2, data_dir=str(tmp_path), durability="off")

    def test_unknown_mode_refused(self):
        with pytest.raises(ValueError):
            KVCluster(2, durability="paranoid")
        with pytest.raises(ValueError):
            KVCluster(2, durability="wal", fsync_policy="nope")

    def test_env_opt_in(self, monkeypatch, tmp_path):
        monkeypatch.setenv(DURABILITY_ENV, "wal")
        cluster = KVCluster(2)
        assert cluster.durability == "wal"
        assert cluster.data_dir is not None  # owned scratch dir
        cluster.close()

    def test_scratch_dir_removed_on_close(self):
        cluster = KVCluster(2, durability="wal")
        scratch = cluster.data_dir
        assert scratch is not None and os.path.isdir(scratch)
        cluster.close()
        assert not os.path.exists(scratch)

    def test_explicit_data_dir_survives_close(self, tmp_path):
        data_dir = str(tmp_path / "c")
        cluster = KVCluster(2, data_dir=data_dir)
        _fill(cluster, n=10)
        cluster.close()
        assert os.path.isdir(data_dir)  # caller's dir, caller's call

    def test_default_is_volatile(self, monkeypatch):
        monkeypatch.delenv(DURABILITY_ENV, raising=False)
        cluster = KVCluster(2)
        assert cluster.durability == "off"
        assert cluster.data_dir is None
        assert cluster.wal_stats() == {
            "records": 0, "bytes": 0, "fsyncs": 0, "rolls": 0}
        cluster.close()

    @pytest.mark.parametrize("transport", ["local", "socket"])
    def test_maintenance_writes_checkpoint_like_any_write(self, transport):
        """Namespace drops and a rebalance's flush log and checkpoint the
        way a node process serves them, on either transport: the same
        records, and a roll wherever ``checkpoint_interval`` falls."""
        def logged(cluster):
            stats = cluster.wal_stats()
            return stats["records"], stats["rolls"]

        with KVCluster(
            1, transport=transport, durability="wal", checkpoint_interval=4
        ) as cluster:
            for i in range(3):
                cluster.put(f"ns{i}", b"k", b"v")
            for i in range(3):
                cluster.drop_namespace(f"ns{i}")
            assert logged(cluster) == (6, 1)
            for i in range(6):
                cluster.put("keep", bytes([i]), b"v")
            cluster.add_node()
            assert logged(cluster) == (12, 3)

    def test_wal_stats_aggregate(self, tmp_path):
        cluster = KVCluster(
            3, data_dir=str(tmp_path / "c"), fsync_policy="always")
        _fill(cluster, n=20)
        stats = cluster.wal_stats()
        assert stats["records"] == 20
        assert stats["fsyncs"] == 20
        assert stats["bytes"] > 0
        cluster.close()


# --------------------------------------------------------------------------
# kill-and-recover: durable replay vs volatile re-sync
# --------------------------------------------------------------------------


class TestKillRecovery:
    def test_durable_recovery_moves_zero_bytes(self, tmp_path):
        cluster = KVCluster(
            3, replication_factor=2, data_dir=str(tmp_path / "c"))
        writes = _fill(cluster)
        cluster.fail_node(1, kill=True)
        _assert_serves(cluster, writes)  # replicas keep serving
        cluster.recover_node(1)
        report = cluster.last_rebalance
        assert report is not None
        assert report.keys_moved == 0  # WAL replay covered everything
        assert report.bytes_moved == 0
        _assert_serves(cluster, writes)
        cluster.close()

    def test_volatile_recovery_pays_full_resync(self):
        cluster = KVCluster(3, replication_factor=2, durability="off")
        writes = _fill(cluster)
        cluster.fail_node(1, kill=True)
        cluster.recover_node(1)
        report = cluster.last_rebalance
        assert report is not None
        assert report.bytes_moved > 0  # empty respawn: everything moves
        _assert_serves(cluster, writes)
        cluster.close()

    def test_durable_beats_volatile_on_rebalance_bytes(self, tmp_path):
        """The PR's acceptance criterion at the unit level: recovery by
        replay + delta catch-up ships strictly fewer bytes than an
        empty respawn of the same node under the same writes."""
        def recovery_bytes(**kwargs):
            cluster = KVCluster(3, replication_factor=2, **kwargs)
            _fill(cluster)
            cluster.fail_node(1, kill=True)
            cluster.recover_node(1)
            moved = cluster.last_rebalance.bytes_moved
            cluster.close()
            return moved

        durable = recovery_bytes(data_dir=str(tmp_path / "c"))
        volatile = recovery_bytes(durability="off")
        assert durable < volatile

    def test_missed_writes_catch_up_by_delta(self, tmp_path):
        cluster = KVCluster(
            3, replication_factor=2, data_dir=str(tmp_path / "c"))
        writes = _fill(cluster)
        cluster.fail_node(1, kill=True)
        # writes + deletes the dead node misses
        for i in range(10):
            key = b"late%02d" % i
            cluster.put("ns", key, b"late")
            writes[key] = b"late"
        cluster.delete("ns", b"k0000")
        writes.pop(b"k0000")
        cluster.recover_node(1)
        report = cluster.last_rebalance
        # only the missed delta moved, not the node's whole key range
        assert 0 < report.keys_moved <= 10
        _assert_serves(cluster, writes)
        assert cluster.get("ns", b"k0000") is None  # tombstone applied
        cluster.close()

    def test_local_and_socket_kill_count_identically(self, tmp_path):
        """Satellite-1 regression: a volatile kill must cost the same
        recovery re-sync on both transports. Before the fix the local
        store silently survived the kill, so local recovery counted
        zero moved keys where socket recovery re-shipped the node."""
        def kill_recover_counters(transport, data_dir=None):
            cluster = KVCluster(
                3, replication_factor=2, transport=transport,
                data_dir=data_dir,
                durability="wal" if data_dir else "off")
            writes = _fill(cluster)
            cluster.fail_node(1, kill=True)
            cluster.recover_node(1)
            report = cluster.last_rebalance
            _assert_serves(cluster, writes)
            cluster.close()
            return (report.keys_moved, report.bytes_moved)

        assert (kill_recover_counters("local")
                == kill_recover_counters("socket"))
        assert (kill_recover_counters(
                    "local", data_dir=str(tmp_path / "dl"))
                == kill_recover_counters(
                    "socket", data_dir=str(tmp_path / "ds"))
                == (0, 0))

    def test_socket_durable_node_sigkill_recovers(self, tmp_path):
        """A real SIGKILLed node process restarts by replay + delta
        sync instead of an empty respawn + full re-sync."""
        cluster = KVCluster(
            3, replication_factor=2, transport="socket",
            data_dir=str(tmp_path / "c"))
        writes = _fill(cluster)
        cluster.fail_node(1, kill=True)  # SIGKILLs the node process
        assert cluster.nodes[1].is_crashed
        cluster.recover_node(1)
        assert cluster.last_rebalance.bytes_moved == 0
        _assert_serves(cluster, writes)
        stats = cluster.wal_stats()
        assert stats["records"] > 0
        cluster.close()


# --------------------------------------------------------------------------
# whole-cluster restart from data_dir
# --------------------------------------------------------------------------


class TestWholeClusterRestart:
    # pinned to the local transport: ``last_recovery`` is the in-process
    # node's report (a socket node recovers inside its child process —
    # the wire-level variant lives in tests/integration)
    @pytest.mark.parametrize("replication_factor", [1, 2])
    def test_restart_serves_every_acked_write(
        self, tmp_path, replication_factor
    ):
        data_dir = str(tmp_path / "c")
        cluster = KVCluster(
            3, replication_factor=replication_factor, data_dir=data_dir,
            transport="local")
        writes = _fill(cluster, n=100)
        for node in cluster.nodes.values():  # SIGKILL-equivalent, no close
            node.crash()
        cluster.close()

        reborn = KVCluster(
            3, replication_factor=replication_factor, data_dir=data_dir,
            transport="local")
        _assert_serves(reborn, writes)
        assert all(
            node.last_recovery is not None
            for node in reborn.nodes.values()
        )
        reborn.close()

    def test_restart_with_torn_tail(self, tmp_path):
        data_dir = str(tmp_path / "c")
        cluster = KVCluster(1, data_dir=data_dir, transport="local")
        writes = _fill(cluster, n=20)
        cluster.nodes[0].crash()
        cluster.close()
        # the crash tore the last record mid-frame
        log_path = ckpt.wal_path(os.path.join(data_dir, "node-0"), 0)
        with open(log_path, "ab") as handle:
            handle.write(b"\x00\x00\x00\x20\xde\xad")

        reborn = KVCluster(1, data_dir=data_dir, transport="local")
        report = reborn.nodes[0].last_recovery
        assert report is not None and report.torn_tail
        _assert_serves(reborn, writes)  # every acked write survived
        reborn.close()

    def test_node_id_reuse_cannot_resurrect(self, tmp_path):
        """remove_node() then add_node() reuses the node id; the fresh
        node must NOT replay the removed node's stale directory."""
        data_dir = str(tmp_path / "c")
        cluster = KVCluster(3, data_dir=data_dir)
        writes = _fill(cluster)
        cluster.remove_node(2)
        # overwrite everything while node 2's old directory still holds
        # its pre-removal values
        for key in writes:
            writes[key] = b"fresh"
            cluster.put("ns", key, b"fresh")
        added = cluster.add_node()
        assert added.node_id == 2  # the id really is reused
        _assert_serves(cluster, writes)
        cluster.close()

    def test_scan_consistent_after_restart(self, tmp_path):
        data_dir = str(tmp_path / "c")
        cluster = KVCluster(2, data_dir=data_dir)
        writes = _fill(cluster, n=30)
        cluster.close()  # orderly shutdown syncs the group-commit tail

        reborn = KVCluster(2, data_dir=data_dir)
        got = dict(reborn.scan("ns"))
        assert got == writes
        reborn.close()


# --------------------------------------------------------------------------
# fsync policy plumbing
# --------------------------------------------------------------------------


class TestFsyncPolicies:
    @pytest.mark.parametrize("policy", walmod.FSYNC_POLICIES)
    def test_policy_reaches_the_nodes(self, tmp_path, policy):
        cluster = KVCluster(
            2, data_dir=str(tmp_path / "c"), fsync_policy=policy)
        writes = _fill(cluster, n=40)
        stats = cluster.wal_stats()
        if policy == "always":
            assert stats["fsyncs"] == stats["records"] == 40
        elif policy == "never":
            assert stats["fsyncs"] == 0
        else:
            assert 0 <= stats["fsyncs"] < 40
        # the crash guarantee is policy-independent (page-cache flush)
        for node in cluster.nodes.values():
            node.crash()
        for node in cluster.nodes.values():
            node.restart()
        _assert_serves(cluster, writes)
        cluster.close()
