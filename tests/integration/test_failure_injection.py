"""Failure injection: node crashes, corrupted storage, missing segments,
bad plans — including REAL process crashes on the socket transport."""

import os
import random
import signal
import time

import pytest

from repro.baav import BaaVStore, KVInstance
from repro.baav.schema import kv_schema
from repro.errors import (
    BaaVError,
    CodecError,
    ExecutionError,
    PlanError,
    ReproError,
)
from repro.kba import Constant, ExecContext, Extend, ScanKV, TaaVScan, execute
from repro.kv import KVCluster, TaaVRelation, codec
from repro.kv.remote import NodeClient
from repro.relational import AttrType, Database, Relation, RelationSchema


@pytest.fixture()
def store(paper_db, paper_baav_schema):
    cluster = KVCluster(3)
    return BaaVStore.map_database(paper_db, paper_baav_schema, cluster)


class TestNodeCrash:
    """Crash/recover storage nodes through the public cluster API and
    assert both query correctness and the failover metrics."""

    def test_query_survives_any_single_crash_with_replication(
        self, paper_db, paper_baav_schema, q1_sql
    ):
        from repro.systems import ZidianSystem

        system = ZidianSystem(
            "kudu", workers=2, storage_nodes=3, replication_factor=2
        )
        system.load(paper_db, paper_baav_schema)
        want = sorted(system.execute(q1_sql).rows)
        for doomed in list(system.cluster.nodes):
            system.cluster.fail_node(doomed)
            result = system.execute(q1_sql)
            assert sorted(result.rows) == want
            # the engine prices the degraded cluster: storage work is
            # spread over the two live nodes, not three
            assert result.metrics.storage_nodes == 2
            system.cluster.recover_node(doomed)

    def test_crash_charges_failover_rebalance_metrics(
        self, paper_db, paper_baav_schema
    ):
        from repro.systems import ZidianSystem

        system = ZidianSystem(
            "kudu", workers=2, storage_nodes=3, replication_factor=2
        )
        system.load(paper_db, paper_baav_schema)
        system.cluster.fail_node(0)
        report = system.cluster.last_rebalance
        assert report is not None
        assert report.keys_moved > 0
        assert report.bytes_moved > 0
        total = system.cluster.total_counters()
        assert total.rebalance_keys_moved == report.keys_moved
        assert total.rebalance_bytes_moved == report.bytes_moved
        assert total.rebalance_round_trips == report.round_trips

    def test_baseline_system_survives_crash_too(self, paper_db, q1_sql):
        from repro.systems import SQLOverNoSQL

        system = SQLOverNoSQL(
            "kudu", workers=2, storage_nodes=3, replication_factor=3
        )
        system.load(paper_db)
        want = sorted(system.execute(q1_sql).rows)
        system.cluster.fail_node(1)
        system.cluster.fail_node(2)  # two of three down, R=3 still serves
        assert sorted(system.execute(q1_sql).rows) == want

    def test_unreplicated_crash_degrades_reads(self, paper_db, q1_sql):
        """R=1 (the paper's cluster) documents the failure the tentpole
        removes: a crashed node's tuples silently leave the scan."""
        from repro.systems import SQLOverNoSQL

        system = SQLOverNoSQL("kudu", workers=2, storage_nodes=3)
        system.load(paper_db)
        want = system.execute(q1_sql).rows
        system.cluster.fail_node(0)
        got = system.execute(q1_sql).rows
        assert len(got) <= len(want)

    def test_kv_workload_through_crash_and_recovery(self, rng):
        """A randomized KV workload interleaved with a crash: every
        acknowledged write stays readable (R=2, one node down)."""
        from repro.kv import KVCluster
        from repro.kv.codec import encode_key

        cluster = KVCluster(4, replication_factor=2)
        oracle = {}
        doomed = None
        for step in range(300):
            key = encode_key((rng.randrange(60),))
            if step == 150:
                doomed = rng.choice(cluster.live_node_ids)
                cluster.fail_node(doomed)
            if rng.random() < 0.7:
                value = f"v{step}".encode()
                cluster.put("wl", key, value)
                oracle[key] = value
            else:
                cluster.delete("wl", key)
                oracle.pop(key, None)
        for key, value in oracle.items():
            assert cluster.get("wl", key) == value
        cluster.recover_node(doomed)
        assert dict(cluster.scan("wl", count_as_gets=False)) == oracle


def _seeded_workload(cluster, inject_at, inject, steps=300, seed=0xFA17):
    """The seeded put/delete stream of the crash tests; both transports
    run it verbatim so their failover behavior is directly comparable.
    Returns the oracle of acknowledged writes."""
    from repro.kv.codec import encode_key

    rng = random.Random(seed)
    oracle = {}
    for step in range(steps):
        key = encode_key((rng.randrange(60),))
        if step == inject_at:
            inject(cluster)
        if rng.random() < 0.7:
            value = f"v{step}".encode()
            cluster.put("wl", key, value)
            oracle[key] = value
        else:
            cluster.delete("wl", key)
            oracle.pop(key, None)
    return oracle


_FANOUT_KEYS = [codec.encode_key((i,)) for i in range(40)]

#: one case per cluster op that fans out to the nodes: cluster -> an
#: answer both transports must give alike
_FANOUT_OPS = {
    "multi_get": lambda c: c.multi_get("wl", _FANOUT_KEYS),
    "multi_put": lambda c: c.multi_put(
        "wl", [(key, b"new") for key in _FANOUT_KEYS]
    ),
    "delete": lambda c: [c.delete("wl", key) for key in _FANOUT_KEYS],
    "scan": lambda c: sorted(c.scan("wl")),
    "list_keys": lambda c: sorted(c.list_keys("wl").keys),
    "namespaces": lambda c: c.namespaces(),
    "drop_namespace": lambda c: c.drop_namespace("wl"),
    "wal_stats": lambda c: c.wal_stats(),
    # a local node has no server process: the socket cluster must
    # answer for exactly the survivors
    "server_stats": lambda c: (
        sorted(c.server_stats()) if c.transport == "socket"
        else c.live_node_ids
    ),
    "size_bytes": lambda c: c.size_bytes(),
}


_CRASH_REL = RelationSchema.of(
    "C", {"k": AttrType.INT, "g": AttrType.INT}, ["k"]
)
#: 20 blocks of 3 tuples: a batched scan of 4 keys a wave takes 5 waves
_CRASH_ROWS = [(k, k % 20) for k in range(60)]
_CRASH_BY_G = kv_schema("c_by_g", _CRASH_REL, ["g"])


def _stop_every_thread(pid: int) -> None:
    """SIGSTOP ``pid`` and wait until every thread of it has stopped.

    A stop signal wakes one thread of a process, which then stops the
    others: until it has, a server thread blocked in ``recv`` can still
    take a frame and answer it."""
    os.kill(pid, signal.SIGSTOP)
    tasks = f"/proc/{pid}/task"
    if not os.path.isdir(tasks):  # no procfs: the signal alone
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        states = []
        for tid in os.listdir(tasks):
            try:
                with open(f"{tasks}/{tid}/stat") as stat:
                    states.append(stat.read().rsplit(")", 1)[1].split()[0])
            except OSError:  # the thread exited meanwhile
                pass
        if all(state in "Tt" for state in states):
            return
        time.sleep(0.0005)
    raise AssertionError(f"process {pid} did not stop")


class TestProcessCrash:
    """SIGKILL real node processes mid-workload (socket transport).

    The in-process ``fail_node`` tests above simulate crashes; these
    kill actual OS processes and prove the cluster's crash *detection*
    (dead peer -> NodePeerError -> mark down, re-replicate, retry the
    op) gives the same guarantees: no acknowledged read or write is
    lost at R=2, and the failover rebalance charges the same counters
    the in-process scenario does.
    """

    DOOMED = 1

    @pytest.mark.parametrize("op", sorted(_FANOUT_OPS))
    def test_fan_out_op_fails_over_a_killed_node(self, op):
        """A node process SIGKILLed just before the op: the op succeeds,
        the dead peer is marked down, and the answer (and the data left
        behind) equals an in-process cluster whose node was killed at
        the same point. Durable, so ``wal_stats`` asks every node."""
        def run(transport, kill):
            with KVCluster(
                3, replication_factor=2, transport=transport,
                durability="wal",
            ) as cluster:
                cluster.multi_put(
                    "wl", [(key, key * 3) for key in _FANOUT_KEYS]
                )
                cluster.put("other", b"k", b"keep")
                # a registered namespace no node holds: namespaces()
                # must ask every live node about it
                cluster.put("gone", b"k", b"v")
                cluster.delete("gone", b"k")
                kill(cluster)
                answer = _FANOUT_OPS[op](cluster)
                assert cluster.down_node_ids == [self.DOOMED]
                left = sorted(cluster.scan("wl", count_as_gets=False))
                return answer, left

        local = run("local", lambda c: c.fail_node(self.DOOMED, kill=True))
        socket_ = run(
            "socket", lambda c: c.nodes[self.DOOMED].process.sigkill()
        )
        assert socket_ == local

    @pytest.mark.parametrize("replication", [1, 2])
    @pytest.mark.parametrize("where", ["fan-out", "scan-ahead", "taav-ahead"])
    def test_sigkill_between_send_and_receive(self, where, replication, monkeypatch):
        """A node process SIGKILLed after a request frame is sent to it
        and before its answer is read: in a multi-node ``multi_get``
        (every node's frame but the first goes out before the first
        call), and in the wave a batched BaaV scan or TaaV ``fetch_all``
        ships ahead of decoding the one before, at either replication
        factor. The op fails over, and the answer and the data left
        behind equal an in-process cluster that ran
        ``fail_node(kill=True)`` at the same point."""
        send = NodeClient.send

        def run(transport, victim=None):
            with KVCluster(
                4, replication_factor=replication, transport=transport
            ) as cluster:
                if where == "taav-ahead":
                    store = TaaVRelation(_CRASH_REL, cluster)
                    store.load(_CRASH_ROWS)

                    def read():
                        return sorted(store.fetch_all(batch_size=4).rows)
                else:
                    store = KVInstance(_CRASH_BY_G, cluster)
                    store.build_from(Relation(_CRASH_REL, _CRASH_ROWS))

                    def read():
                        return sorted(
                            (key, sorted(block.entries))
                            for key, block in store.scan(batch_size=4)
                        )
                armed, killed = [], []

                def send_then_die(client, op, *args):
                    """The first frame sent once armed: its node stops
                    before the frame goes out and dies before it is
                    read, so the frame is never served."""
                    if not armed or killed:
                        return send(client, op, *args)
                    process = cluster.nodes[client.node_id].process
                    _stop_every_thread(process.pid)
                    try:
                        return send(client, op, *args)
                    finally:
                        killed.append(client.node_id)
                        process.sigkill()

                def arm():
                    armed.append(True)
                    if transport == "local":
                        killed.append(victim)
                        cluster.fail_node(victim, kill=True)

                monkeypatch.setattr(NodeClient, "send", send_then_die)
                if where == "fan-out":
                    keys = cluster.list_keys(store.namespace).keys
                    arm()
                    answer = cluster.multi_get(store.namespace, keys)
                else:
                    send_ahead = cluster.send_multi_get

                    def arm_then_send(*args):
                        first = not armed
                        if first:
                            arm()
                        wave = send_ahead(*args)
                        if first and transport == "socket":
                            assert wave is not None
                        return wave

                    cluster.send_multi_get = arm_then_send
                    answer = read()
                assert killed and cluster.down_node_ids == killed
                left = sorted(cluster.scan(store.namespace, count_as_gets=False))
                return killed[0], answer, left

        victim, *socket_ = run("socket")
        _, *local = run("local", victim)
        assert socket_ == local
        if replication == 2:  # no copy was lost: a tuple, or a block of 3
            per_answer = 1 if where == "taav-ahead" else 3
            assert len(socket_[1]) == len(_CRASH_ROWS) // per_answer

    def test_sigkill_mid_workload_loses_nothing(self):
        from repro.kv import KVCluster

        with KVCluster(
            4, replication_factor=2, transport="socket"
        ) as cluster:
            oracle = _seeded_workload(
                cluster,
                inject_at=150,
                inject=lambda c: c.nodes[self.DOOMED].process.sigkill(),
            )
            # the workload itself crossed the crash: every op after the
            # SIGKILL was retried through failover and acknowledged
            assert cluster.down_node_ids == [self.DOOMED]
            for key, value in oracle.items():
                assert cluster.get("wl", key) == value
            # recovery respawns an empty process and re-syncs it
            cluster.recover_node(self.DOOMED)
            assert cluster.down_node_ids == []
            assert cluster.nodes[self.DOOMED].process.alive
            pairs = list(cluster.scan("wl", count_as_gets=False))
            # exactly-once: one pair per acknowledged key, right value
            assert len(pairs) == len(oracle)
            assert dict(pairs) == oracle

    def test_sigkill_failover_counters_match_in_process_scenario(self):
        """The failover-phase rebalance is deterministic: ops between
        the SIGKILL and its detection can only touch keys whose owner
        lists exclude the dead node (touching it IS detection), so the
        re-replicated key set — and with it keys/bytes/round-trips —
        equals the in-process ``fail_node`` run at the same step."""
        from repro.kv import KVCluster

        def counters_after(transport, inject):
            with KVCluster(
                4, replication_factor=2, transport=transport
            ) as cluster:
                _seeded_workload(cluster, inject_at=150, inject=inject)
                # force detection in case the tail of the workload
                # never touched the dead node
                list(cluster.scan("wl", count_as_gets=False))
                assert cluster.down_node_ids == [self.DOOMED]
                total = cluster.total_counters()
                return (
                    total.rebalance_keys_moved,
                    total.rebalance_bytes_moved,
                    total.rebalance_round_trips,
                )

        local = counters_after(
            "local", lambda c: c.fail_node(self.DOOMED)
        )
        socket_ = counters_after(
            "socket", lambda c: c.nodes[self.DOOMED].process.sigkill()
        )
        assert local == socket_
        assert local[0] > 0  # the crash actually moved data

    def test_cascading_process_crashes(self):
        """Sequential SIGKILLs with traffic in between: each failover
        re-replicates before the next crash, so R=2 survives losing
        half the cluster one node at a time."""
        from repro.kv import KVCluster
        from repro.kv.codec import encode_key

        with KVCluster(
            4, replication_factor=2, transport="socket"
        ) as cluster:
            oracle = {}
            for i in range(80):
                key = encode_key((i,))
                value = f"v{i}".encode()
                cluster.put("wl", key, value)
                oracle[key] = value
            for doomed in (0, 2):
                cluster.nodes[doomed].process.sigkill()
                # traffic detects the crash and rides the failover
                for key, value in oracle.items():
                    assert cluster.get("wl", key) == value
                assert doomed in cluster.down_node_ids
            assert cluster.num_live_nodes == 2
            assert (
                dict(cluster.scan("wl", count_as_gets=False)) == oracle
            )

    def test_last_replica_killed_raises_unavailable(self):
        from repro.errors import ClusterUnavailableError
        from repro.kv import KVCluster

        with KVCluster(1, transport="socket") as cluster:
            cluster.put("wl", b"k", b"v")
            cluster.nodes[0].process.sigkill()
            with pytest.raises(ClusterUnavailableError):
                cluster.get("wl", b"k")

    def test_service_queries_survive_node_process_crash(
        self, paper_db, paper_baav_schema, q1_sql
    ):
        """End to end: a query service over a socket-transport system
        keeps answering correctly through a real node-process crash."""
        from repro.service import QueryService
        from repro.systems import ZidianSystem

        system = ZidianSystem(
            "kudu",
            workers=2,
            storage_nodes=3,
            replication_factor=2,
            transport="socket",
        )
        try:
            system.load(paper_db, paper_baav_schema)
            with QueryService(system, max_workers=2) as service:
                session = service.open_session()
                want = sorted(session.execute(q1_sql).rows)
                system.cluster.nodes[0].process.sigkill()
                assert sorted(session.execute(q1_sql).rows) == want
        finally:
            system.close()


class TestClusterKillRestart:
    """Whole-cluster kill-and-restart on a durable cluster (PR 8).

    Unlike the single-node crashes above, nothing survives to
    re-replicate from: every acknowledged write must come back from the
    nodes' own WAL + checkpoint state, byte for byte.
    """

    @pytest.mark.parametrize("replication_factor", [1, 2])
    def test_acked_writes_survive_full_sigkill(
        self, tmp_path, replication_factor
    ):
        from repro.kv import KVCluster
        from repro.kv.codec import encode_key

        data_dir = str(tmp_path / "cluster")
        oracle = {}
        with KVCluster(
            3,
            replication_factor=replication_factor,
            transport="socket",
            data_dir=data_dir,
        ) as cluster:
            for i in range(120):
                key = encode_key((i,))
                value = f"v{i}".encode()
                cluster.put("wl", key, value)
                oracle[key] = value
            cluster.delete("wl", encode_key((0,)))
            oracle.pop(encode_key((0,)))
            for node in cluster.nodes.values():
                node.crash()  # SIGKILL every node process at once

        with KVCluster(
            3,
            replication_factor=replication_factor,
            transport="socket",
            data_dir=data_dir,
        ) as reborn:
            pairs = dict(reborn.scan("wl", count_as_gets=False))
            assert pairs == oracle  # exactly-once, byte for byte

    def test_durable_sigkill_mid_workload_recovers_by_replay(self):
        """The PR's headline scenario over the real wire: a SIGKILLed
        durable node restarts by WAL replay + delta catch-up, so the
        recovery rebalance ships only the writes it missed — not its
        whole key range like the volatile runs above."""
        from repro.kv import KVCluster

        with KVCluster(
            4, replication_factor=2, transport="socket", durability="wal"
        ) as cluster:
            doomed = 1
            oracle = _seeded_workload(
                cluster,
                inject_at=150,
                inject=lambda c: c.nodes[doomed].process.sigkill(),
            )
            list(cluster.scan("wl", count_as_gets=False))
            assert cluster.down_node_ids == [doomed]
            cluster.recover_node(doomed)
            report = cluster.last_rebalance
            # the node's full key range (owner lists include it again)
            full_range = sum(
                1
                for key in oracle
                if doomed in cluster._live_owner_ids(
                    cluster.full_key("wl", key)
                )
            )
            # the replayed node needed at most the post-crash delta —
            # strictly less than re-shipping everything it owns
            assert report.keys_moved < max(1, full_range)
            for key, value in oracle.items():
                assert cluster.get("wl", key) == value

    def test_durable_system_blocks_survive_full_sigkill(
        self, paper_db, paper_baav_schema, q1_sql, tmp_path
    ):
        """End to end: a Zidian system loads onto a durable cluster,
        every node process is SIGKILLed, and a cluster rebuilt from the
        same data_dir holds every BaaV block byte-for-byte — the loaded
        state needs no re-load, it comes back from the WAL."""
        from repro.kv import KVCluster
        from repro.systems import ZidianSystem

        data_dir = str(tmp_path / "system")
        system = ZidianSystem(
            "kudu",
            workers=2,
            storage_nodes=3,
            replication_factor=2,
            data_dir=data_dir,
        )
        try:
            system.load(paper_db, paper_baav_schema)
            assert sorted(system.execute(q1_sql).rows)  # sanity: it runs
            blocks = {
                namespace: dict(
                    system.cluster.scan(namespace, count_as_gets=False)
                )
                for namespace in system.cluster.namespaces()
            }
            for node in system.cluster.nodes.values():
                node.crash()
        finally:
            system.close()

        with KVCluster(
            3, replication_factor=2, data_dir=data_dir
        ) as reborn:
            assert any(blocks.values())  # the system really wrote data
            for namespace, pairs in blocks.items():
                got = dict(reborn.scan(namespace, count_as_gets=False))
                assert got == pairs


class TestCorruptedStorage:
    def test_corrupt_block_payload_raises_codec_error(self, store):
        instance = store.instance("sup_by_nation")
        key_bytes = codec.encode_key((10, 0))
        instance.cluster.put(instance.namespace, key_bytes, b"\xff\xff\xff")
        with pytest.raises(CodecError):
            instance.get((10,))

    @pytest.mark.parametrize("payload", [b"", b"\xff", b"\xff\xff\xff"])
    def test_corrupt_block_payload_under_a_batched_scan(self, store, payload):
        instance = store.instance("sup_by_nation")
        key_bytes = codec.encode_key((10, 0))
        instance.cluster.put(instance.namespace, key_bytes, payload)
        with pytest.raises(CodecError):
            list(instance.scan(batch_size=64))

    def test_missing_segment_detected(self, store):
        instance = store.instance("sup_by_nation")
        # claim 3 segments but store only segment 0
        from repro.baav.store import _encode_segment
        from repro.baav.block import Block

        instance.cluster.put(
            instance.namespace,
            codec.encode_key((77, 0)),
            _encode_segment(3, Block([((1,), 1)])),
        )
        with pytest.raises(BaaVError):
            instance.get((77,))
        with pytest.raises(BaaVError):
            list(instance.scan(batch_size=64))

    def test_errors_are_repro_errors(self):
        assert issubclass(CodecError, ReproError)
        assert issubclass(BaaVError, ReproError)
        assert issubclass(PlanError, ReproError)


class TestBadPlans:
    def test_extend_probe_not_covering_key(self, store):
        plan = Extend(
            Constant(("x",), ((1,),)),
            "ps_by_sup",
            "PS",
            on=(),  # key not covered
            value_attrs=(),
        )
        with pytest.raises(PlanError):
            execute(plan, ExecContext(store))

    def test_extend_unknown_instance(self, store):
        plan = Extend(
            Constant(("x",), ((1,),)), "nope", "PS", (("x", "suppkey"),), ()
        )
        with pytest.raises(ReproError):
            execute(plan, ExecContext(store))

    def test_taav_scan_without_taav_store(self, store):
        with pytest.raises(ExecutionError):
            execute(TaaVScan("SUPPLIER", "S"), ExecContext(store, None))

    def test_scan_unknown_instance(self, store):
        with pytest.raises(ReproError):
            execute(ScanKV("nope", "S"), ExecContext(store))

    def test_stats_group_without_stats(self, paper_db, paper_baav_schema):
        from repro.kba import StatsGroup
        from repro.sql import ast
        from repro.sql.algebra import AggSpec

        cluster = KVCluster(2)
        store = BaaVStore.map_database(
            paper_db, paper_baav_schema, cluster, keep_stats=False
        )
        plan = StatsGroup(
            "ps_by_sup",
            "PS",
            (AggSpec("s", "SUM", ast.Column("PS.supplycost")),),
        )
        with pytest.raises(ExecutionError):
            execute(plan, ExecContext(store))


class TestEmptyData:
    def test_empty_database_scan_free_query(self, paper_schemas, paper_baav_schema):
        supplier, partsupp, nation = paper_schemas
        empty = Database.from_dict(
            [supplier, partsupp, nation],
            {"SUPPLIER": [], "PARTSUPP": [], "NATION": []},
        )
        from repro.systems import ZidianSystem

        system = ZidianSystem("kudu", workers=2, storage_nodes=2)
        system.load(empty, paper_baav_schema)
        result = system.execute(
            "select S.suppkey from SUPPLIER S, NATION N "
            "where S.nationkey = N.nationkey and N.name = 'GERMANY'"
        )
        assert result.rows == []

    def test_empty_relation_aggregate(self, paper_schemas, paper_baav_schema):
        supplier, partsupp, nation = paper_schemas
        empty = Database.from_dict(
            [supplier, partsupp, nation],
            {"SUPPLIER": [], "PARTSUPP": [], "NATION": []},
        )
        from repro.systems import SQLOverNoSQL, ZidianSystem

        base = SQLOverNoSQL("kudu", workers=2, storage_nodes=2)
        base.load(empty)
        zidian = ZidianSystem("kudu", workers=2, storage_nodes=2)
        zidian.load(empty, paper_baav_schema)
        sql = "select count(*) as n, sum(S.suppkey) as s from SUPPLIER S"
        assert base.execute(sql).rows == [(0, None)]
        assert zidian.execute(sql).rows == [(0, None)]

    def test_null_join_keys_never_match(self, paper_schemas, paper_baav_schema):
        supplier, partsupp, nation = paper_schemas
        db = Database.from_dict(
            [supplier, partsupp, nation],
            {
                "SUPPLIER": [(1, None), (2, 10)],
                "PARTSUPP": [],
                "NATION": [(10, "GERMANY"), (None, "NOWHERE")],
            },
        )
        from repro.relational import bag_equal
        from repro.sql import execute as ra_execute, plan_sql
        from repro.systems import ZidianSystem

        sql = (
            "select S.suppkey from SUPPLIER S, NATION N "
            "where S.nationkey = N.nationkey"
        )
        plan, _ = plan_sql(sql, db.schema)
        reference = ra_execute(plan, db)
        assert sorted(reference.rows) == [(2,)]
        system = ZidianSystem("kudu", workers=2, storage_nodes=2)
        system.load(db, paper_baav_schema)
        assert bag_equal(system.execute(sql).relation, reference)


class TestDisjunctiveQueries:
    """OR predicates: conservative decisions, still-correct plans."""

    def test_or_within_alias(self, paper_db, paper_baav_schema):
        from repro.relational import bag_equal
        from repro.sql import execute as ra_execute, plan_sql
        from repro.systems import ZidianSystem

        sql = (
            "select S.suppkey from SUPPLIER S "
            "where S.nationkey = 10 or S.nationkey = 30"
        )
        plan, _ = plan_sql(sql, paper_db.schema)
        reference = ra_execute(plan, paper_db)
        system = ZidianSystem("kudu", workers=2, storage_nodes=2)
        system.load(paper_db, paper_baav_schema)
        result = system.execute(sql)
        assert not result.decision.is_scan_free  # conservative
        assert bag_equal(result.relation, reference)

    def test_or_across_aliases(self, paper_db, paper_baav_schema):
        from repro.relational import bag_equal
        from repro.sql import execute as ra_execute, plan_sql
        from repro.systems import ZidianSystem

        sql = (
            "select S.suppkey, PS.partkey from SUPPLIER S, PARTSUPP PS "
            "where S.suppkey = PS.suppkey "
            "and (S.nationkey = 10 or PS.availqty > 5)"
        )
        plan, _ = plan_sql(sql, paper_db.schema)
        reference = ra_execute(plan, paper_db)
        system = ZidianSystem("kudu", workers=2, storage_nodes=2)
        system.load(paper_db, paper_baav_schema)
        assert bag_equal(system.execute(sql).relation, reference)

    def test_constant_and_or_mix(self, paper_db, paper_baav_schema):
        """A top-level constant conjunct still drives a scan-free chain
        even when another conjunct is disjunctive."""
        from repro.relational import bag_equal
        from repro.sql import execute as ra_execute, plan_sql
        from repro.systems import ZidianSystem

        sql = (
            "select S.suppkey from SUPPLIER S, NATION N "
            "where S.nationkey = N.nationkey and N.name = 'GERMANY' "
            "and (S.suppkey = 1 or S.suppkey = 2)"
        )
        plan, _ = plan_sql(sql, paper_db.schema)
        reference = ra_execute(plan, paper_db)
        system = ZidianSystem("kudu", workers=2, storage_nodes=2)
        system.load(paper_db, paper_baav_schema)
        result = system.execute(sql)
        assert result.decision.is_scan_free
        assert bag_equal(result.relation, reference)


class TestMvccChurn:
    """Cluster churn (fail/recover/add) racing open snapshots must not
    corrupt snapshot reads NOR leak version chains: rebalancing and
    recovery copy base state with raw store ops, so the overlay tracks
    only transactional overwrites, wherever the keys currently live."""

    COUNT_SQL = "select count(*) as n from PARTSUPP PS"

    def _loaded(self, paper_db, paper_baav_schema, **kwargs):
        from repro.systems import ZidianSystem

        system = ZidianSystem(
            "kudu", workers=2, storage_nodes=3,
            replication_factor=2, **kwargs,
        )
        system.load(paper_db.copy(), paper_baav_schema)
        system.enable_transactions()
        return system

    def _commit_row(self, system, key):
        with system.begin() as txn:
            txn.apply_updates(
                "PARTSUPP", inserts=[(key, 1, 1.0, 1)]
            )
        return txn.epoch

    def test_fail_recover_during_open_snapshot(
        self, paper_db, paper_baav_schema
    ):
        system = self._loaded(paper_db, paper_baav_schema)
        manager = system.transactions
        base = system.execute(self.COUNT_SQL).rows[0][0]
        with manager.snapshot() as epoch:
            self._commit_row(system, 900)
            system.cluster.fail_node(0)
            # the pinned reader still sees the pre-commit state, off
            # the surviving replicas
            assert system.execute(self.COUNT_SQL).rows[0][0] == base
            system.cluster.recover_node(0)
            # recovery re-syncs base state with raw ops: the overlay
            # must not have recorded any of it as new versions
            assert system.execute(self.COUNT_SQL).rows[0][0] == base
            assert manager.versions.read_epoch() == epoch
        # snapshot released: nothing retained for it may linger
        assert manager.epochs.pinned() == 0
        assert manager.versions.tracked_versions() == 0
        assert manager.versions.tracked_keys() == 0
        assert system.execute(self.COUNT_SQL).rows[0][0] == base + 1
        system.close()

    def test_add_node_rebalance_during_open_snapshot(
        self, paper_db, paper_baav_schema
    ):
        system = self._loaded(paper_db, paper_baav_schema)
        manager = system.transactions
        base = system.execute(self.COUNT_SQL).rows[0][0]
        with manager.snapshot():
            self._commit_row(system, 901)
            node = system.cluster.add_node()
            # rebalancing migrated blocks between nodes; the snapshot
            # still reads its pinned pre-commit state
            assert system.execute(self.COUNT_SQL).rows[0][0] == base
            assert node.node_id in system.cluster.live_node_ids
        assert manager.versions.tracked_versions() == 0
        assert manager.versions.tracked_keys() == 0
        assert system.execute(self.COUNT_SQL).rows[0][0] == base + 1
        system.close()

    def test_churn_between_commits_leaks_nothing(
        self, paper_db, paper_baav_schema
    ):
        """A churn storm interleaved with commits and snapshots: once
        the last snapshot unpins, the overlay must be empty (the leak
        sweep the PR-9 GC is accountable for)."""
        system = self._loaded(paper_db, paper_baav_schema)
        manager = system.transactions
        base = system.execute(self.COUNT_SQL).rows[0][0]
        for step in range(4):
            with manager.snapshot():
                self._commit_row(system, 910 + step)
                doomed = system.cluster.live_node_ids[0]
                system.cluster.fail_node(doomed)
                system.cluster.recover_node(doomed)
            # every commit epoch was superseded only by the next one;
            # each unpin advances the horizon and sweeps
            assert manager.epochs.pinned() == 0
        assert manager.versions.tracked_versions() == 0
        assert manager.versions.tracked_keys() == 0
        assert (
            system.execute(self.COUNT_SQL).rows[0][0] == base + 4
        )
        system.close()

    def test_socket_transport_churn_leak_sweep(
        self, paper_db, paper_baav_schema
    ):
        """Same sweep over real node processes (socket transport)."""
        system = self._loaded(
            paper_db, paper_baav_schema, transport="socket"
        )
        try:
            manager = system.transactions
            base = system.execute(self.COUNT_SQL).rows[0][0]
            with manager.snapshot():
                self._commit_row(system, 920)
                doomed = system.cluster.live_node_ids[0]
                system.cluster.fail_node(doomed)
                assert (
                    system.execute(self.COUNT_SQL).rows[0][0] == base
                )
                system.cluster.recover_node(doomed)
            assert manager.versions.tracked_versions() == 0
            assert manager.versions.tracked_keys() == 0
            assert (
                system.execute(self.COUNT_SQL).rows[0][0] == base + 1
            )
        finally:
            system.close()
