"""Cross-backend conformance matrix: one contract, every engine.

Every storage engine a :class:`~repro.kv.node.StorageNode` can mount
must behave identically through the node API — get / multi_get / put /
multi_put / delete / scan / counters — and through the raw store
contract (sorted iteration, ``next()`` cursors, prefix scans). This
module runs the whole contract parametrized over the engines, replacing
the ad-hoc per-backend copies that used to live in ``test_memstore.py``
and ``test_lsm.py`` (engine-specific behavior — flushes, compaction,
bloom filters, merged snapshots — stays in ``test_lsm.py``).

Adding an engine = adding one ``ENGINES`` entry; the matrix does the
rest.

The matrix also runs every case against **remote** nodes —
``mem@socket`` / ``lsm@socket`` spawn a real node server process and
speak the wire protocol of :mod:`repro.kv.wire` — so the socket
transport is held to the exact same contract, counters included
(:class:`~repro.kv.remote.RemoteNode` inherits the counting bodies, and
these tests prove the composition stays faithful).

``TestSingleIsBatchOfOne`` states the contract the whole data path
rests on: a single-key ``get`` / ``put`` / ``delete`` **is** the batch
of one — same result, same counters, same WAL records, same overlay
accounting — at store, node and cluster level.
"""

import dataclasses

import pytest

from repro.baav import BaaVStore
from repro.kv import wire
from repro.kv.cluster import KVCluster
from repro.kv.lsm import LSMStore
from repro.kv.memstore import MemStore
from repro.kv.node import StorageNode
from repro.kv.remote import NodeClient, RemoteNode, RemoteStore
from repro.mvcc.versions import VersionStore

#: engine name -> raw-store factory exercising that engine's write paths
#: (the LSM limits force flushes and compactions mid-contract)
ENGINES = {
    "mem": lambda: MemStore(),
    "lsm": lambda: LSMStore(memtable_limit=4, max_runs=2),
}

#: picklable engine configs for the remote variants (the node process
#: builds its store from these; same limits as the local factories)
REMOTE_ENGINES = {
    "mem@socket": ("mem", None),
    "lsm@socket": ("lsm", {"memtable_limit": 4, "max_runs": 2}),
}

#: durable variants (PR 8): the same engines with a WAL attached, so
#: every contract case also proves the logging hook changes nothing
#: observable (and the batch-suspension bookkeeping never leaks)
DURABLE_ENGINES = {
    "mem+wal": "mem",
    "lsm+wal": "lsm",
}

ALL_ENGINES = (
    sorted(ENGINES) + sorted(REMOTE_ENGINES) + sorted(DURABLE_ENGINES)
)


def _make_node(engine, tmp_path=None, name="wal-node"):
    if engine in REMOTE_ENGINES:
        engine_name, store_args = REMOTE_ENGINES[engine]
        return RemoteNode(0, engine=engine_name, store_args=store_args)
    if engine in DURABLE_ENGINES:
        return StorageNode(
            0,
            engine=DURABLE_ENGINES[engine],
            data_dir=str(tmp_path / name),
            fsync_policy="always",
        )
    return StorageNode(0, engine=engine)


@pytest.fixture(params=ALL_ENGINES)
def engine(request):
    return request.param


@pytest.fixture()
def store(engine, tmp_path):
    if engine in REMOTE_ENGINES or engine in DURABLE_ENGINES:
        node = _make_node(engine, tmp_path)
        yield node.store
        node.close()
        return
    yield ENGINES[engine]()


@pytest.fixture()
def node(engine, tmp_path):
    node = _make_node(engine, tmp_path)
    yield node
    node.close()


class TestStoreContract:
    """The raw byte-store contract, identical across engines."""

    def test_put_get(self, store):
        store.put(b"k1", b"v1")
        assert store.get(b"k1") == b"v1"
        assert store.get(b"nope") is None

    def test_overwrite(self, store):
        store.put(b"k", b"v1")
        store.put(b"k", b"v2")
        assert store.get(b"k") == b"v2"
        assert len(store) == 1

    def test_delete(self, store):
        store.put(b"k", b"v")
        assert store.delete(b"k")
        assert not store.delete(b"k")
        assert store.get(b"k") is None
        assert len(store) == 0

    def test_contains(self, store):
        store.put(b"k", b"v")
        assert b"k" in store and b"x" not in store

    def test_keys_sorted(self, store):
        for key in (b"c", b"a", b"e", b"b", b"d"):
            store.put(key, key.upper())
        assert store.keys() == [b"a", b"b", b"c", b"d", b"e"]
        assert [v for _, v in store.scan()] == [b"A", b"B", b"C", b"D", b"E"]

    def test_multi_get_positional(self, store):
        store.multi_put([(b"a", b"1"), (b"b", b"2")])
        assert store.multi_get([b"b", b"x", b"a", b"b"]) == [
            b"2", None, b"1", b"2",
        ]

    def test_multi_put_later_duplicate_wins(self, store):
        store.multi_put([(b"k", b"old"), (b"k", b"new")])
        assert store.get(b"k") == b"new"

    def test_next_key_iteration(self, store):
        for key in (b"b", b"a", b"c", b"d"):
            store.put(key, b"v")
        seen = []
        cursor = store.next_key(None)
        while cursor is not None:
            seen.append(cursor)
            cursor = store.next_key(cursor)
        assert seen == [b"a", b"b", b"c", b"d"]

    def test_next_key_empty(self, store):
        assert store.next_key() is None

    def test_next_key_after_last(self, store):
        store.put(b"a", b"v")
        assert store.next_key(b"a") is None

    def test_next_key_sees_new_writes(self, store):
        store.put(b"a", b"v")
        assert store.next_key(None) == b"a"
        store.put(b"b", b"v")
        assert store.next_key(b"a") == b"b"

    def test_scan_prefix(self, store):
        store.put(b"ns1:a", b"1")
        store.put(b"ns1:b", b"2")
        store.put(b"ns2:a", b"3")
        assert [k for k, _ in store.scan(b"ns1:")] == [b"ns1:a", b"ns1:b"]

    def test_keys_prefix(self, store):
        """``keys(prefix)`` is the key column of ``scan(prefix)`` — the
        same two binary searches, no value read or shipped."""
        pairs = [
            (b"ns1:a", b"1"), (b"ns1:b", b"2"), (b"ns2:a", b"3"),
            (b"\xff", b"4"), (b"\xff\x01", b"5"),
        ]
        store.multi_put(pairs)
        everything = [key for key, _ in pairs]
        assert store.keys() == store.keys(b"") == everything
        assert store.keys(b"ns1:") == [b"ns1:a", b"ns1:b"]
        assert store.keys(b"ns2:a") == [b"ns2:a"]
        # absent: before every key, between two ranges, and the upper
        # bound of the last ``ns`` range itself
        assert store.keys(b"a") == store.keys(b"ns1:c") == []
        assert store.keys(b"ns2;") == []
        # a prefix of 0xff bytes has no upper bound: the range runs to
        # the last key
        assert store.keys(b"\xff") == [b"\xff", b"\xff\x01"]
        assert store.keys(b"\xff\xff") == []
        for prefix in (b"", b"ns", b"ns1:", b"ns2;", b"\xff"):
            assert store.keys(prefix) == [k for k, _ in store.scan(prefix)]

    def test_delete_then_rewrite(self, store):
        for i in range(12):
            store.put(f"k{i:02d}".encode(), b"v1")
        for i in range(0, 12, 2):
            store.delete(f"k{i:02d}".encode())
        for i in range(0, 12, 2):
            store.put(f"k{i:02d}".encode(), b"v2")
        assert len(store) == 12
        for i in range(12):
            want = b"v2" if i % 2 == 0 else b"v1"
            assert store.get(f"k{i:02d}".encode()) == want

    def test_has_prefix(self, store):
        assert not store.has_prefix() and not store.has_prefix(b"a")
        store.multi_put([(b"ns1:a", b"1"), (b"\xff\x01", b"2")])
        assert store.has_prefix() and store.has_prefix(b"")
        assert store.has_prefix(b"ns1:") and store.has_prefix(b"ns1:a")
        assert not store.has_prefix(b"ns1:b") and not store.has_prefix(b"ns2")
        assert store.has_prefix(b"\xff") and not store.has_prefix(b"\xff\xff")
        store.delete(b"ns1:a")
        assert not store.has_prefix(b"ns1:")

    def test_size_bytes(self, store):
        store.put(b"ab", b"xyz")
        assert store.size_bytes() == 5

    def test_clear(self, store):
        for i in range(10):
            store.put(f"k{i}".encode(), b"v")
        store.clear()
        assert len(store) == 0
        assert store.keys() == []


class TestNodeContract:
    """The StorageNode API + counter semantics, identical across engines."""

    def test_get_counts_hit_and_miss(self, node):
        node.put(b"k", b"value", n_values=3)
        assert node.get(b"k", values_of=lambda _: 3) == b"value"
        assert node.get(b"missing") is None
        counters = node.counters
        assert counters.gets == 2
        assert counters.hits == 1
        assert counters.values_read == 3
        assert counters.bytes_out == 5
        assert counters.round_trips == 3  # put + 2 gets

    def test_put_counts(self, node):
        node.put(b"k", b"value", n_values=2)
        counters = node.counters
        assert counters.puts == 1
        assert counters.values_written == 2
        assert counters.bytes_in == 5
        assert counters.round_trips == 1

    def test_multi_get_one_round_trip(self, node):
        node.multi_put([(f"k{i}".encode(), b"v") for i in range(8)])
        node.counters.reset()
        values = node.multi_get(
            [b"k1", b"absent", b"k3"], values_of=lambda _: 2
        )
        assert values == [b"v", None, b"v"]
        counters = node.counters
        assert counters.gets == 3
        assert counters.hits == 2
        assert counters.values_read == 4
        assert counters.round_trips == 1

    def test_multi_put_one_round_trip(self, node):
        node.multi_put(
            [(b"a", b"xx"), (b"b", b"yy")], n_values_each=3
        )
        counters = node.counters
        assert counters.puts == 2
        assert counters.values_written == 6
        assert counters.bytes_in == 4
        assert counters.round_trips == 1

    def test_empty_batches_cost_nothing(self, node):
        assert node.multi_get([]) == []
        node.multi_put([])
        assert node.counters.round_trips == 0

    def test_delete_counted_even_on_miss(self, node):
        node.put(b"k", b"v")
        node.counters.reset()
        assert node.delete(b"k")
        assert not node.delete(b"k")
        assert node.counters.deletes == 2
        assert node.counters.round_trips == 2

    def test_peek_and_scan_uncounted(self, node):
        node.put(b"k", b"v")
        node.counters.reset()
        assert node.peek(b"k") == b"v"
        assert node.snapshot_scan() == [(b"k", b"v")]
        assert node.has_prefix(b"k") and not node.has_prefix(b"x")
        counters = node.counters
        assert counters.gets == 0
        assert counters.round_trips == 0

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            StorageNode(0, engine="papyrus")


class TestRemoteNodeSpecifics:
    """Remote-only contract points (no local analogue)."""

    def test_unknown_engine_rejected_before_spawn(self):
        # validated in the parent, pre-fork: same error, same place
        with pytest.raises(ValueError):
            RemoteNode(0, engine="papyrus")

    def test_store_is_the_wire_facade(self):
        node = RemoteNode(0)
        try:
            assert isinstance(node.store, RemoteStore)
            assert node.process.alive
            assert node.server_stats()["requests"] >= 1
        finally:
            node.close()

    def test_close_is_idempotent_and_reaps(self):
        node = RemoteNode(0)
        pid = node.process.pid
        node.close()
        node.close()
        assert not node.process.alive
        assert pid is not None

    def test_restart_resets_store_but_keeps_counters(self):
        node = RemoteNode(0)
        try:
            node.put(b"k", b"v")
            before = node.counters_total().puts
            node.process.sigkill()
            node.restart()
            assert node.get(b"k") is None  # fresh process, empty store
            assert node.counters_total().puts == before  # client-side
        finally:
            node.close()


def _node_state(node):
    """Everything observable about a node besides its contents."""
    return (
        dataclasses.asdict(node.counters_total()),
        node.wal_stats(),
    )


class TestSingleIsBatchOfOne:
    """``op(key)`` ≡ ``multi_op([key])``: twin fixtures take the same
    script, one through the single-key names and one through the batch
    forms, and must end up indistinguishable."""

    @pytest.fixture()
    def twins(self, engine, tmp_path):
        nodes = [
            _make_node(engine, tmp_path, name=f"twin-{i}") for i in (0, 1)
        ]
        yield nodes
        for node in nodes:
            node.close()

    def test_store_level(self, twins):
        single, batch = twins
        single.store.put(b"k", b"v1")
        batch.store.multi_put([(b"k", b"v1")])
        assert single.store.get(b"k") == batch.store.multi_get([b"k"])[0]
        assert single.store.get(b"miss") is None
        assert batch.store.multi_get([b"miss"]) == [None]
        assert single.store.delete(b"k") is True
        assert batch.store.multi_delete([b"k"]) == 1
        assert single.store.delete(b"k") is False  # a miss is logged too
        assert batch.store.multi_delete([b"k"]) == 0
        assert list(single.store.scan()) == list(batch.store.scan()) == []
        assert single.wal_stats() == batch.wal_stats()
        if single.durable:
            assert single.wal_stats()["records"] == 3

    def test_node_level(self, twins):
        single, batch = twins
        single.put(b"k", b"value", n_values=3)
        batch.multi_put([(b"k", b"value")], n_values_each=3)
        assert _node_state(single) == _node_state(batch)
        assert single.get(b"k", values_of=lambda _: 3) == b"value"
        assert batch.multi_get([b"k"], values_of=lambda _: 3) == [b"value"]
        assert single.get(b"miss", values_of=lambda _: 3) is None
        assert batch.multi_get([b"miss"], values_of=lambda _: 3) == [None]
        state = _node_state(single)
        assert state == _node_state(batch)
        counters, wal_stats = state
        assert (counters["gets"], counters["hits"]) == (2, 1)
        assert counters["round_trips"] == 3
        assert counters["values_read"] == 3
        if single.durable:
            assert (wal_stats["records"], wal_stats["fsyncs"]) == (1, 1)

    def test_empty_batch_is_free(self, twins):
        """An empty batch logs no record, pays no fsync, ships no
        frame — the counters' "0 round trips" is the truth."""
        node = twins[0]
        node.put(b"k", b"v")
        wal_before = node.wal_stats()
        requests = getattr(node, "server_stats", dict)().get("requests")
        assert node.multi_get([]) == []
        node.multi_put([])
        node.store.multi_put([])
        assert node.store.multi_get([]) == []
        assert node.store.multi_delete([]) == 0
        assert node.wal_stats() == wal_before
        if requests is not None:
            # GET_STATS itself is the only request since the snapshot
            assert node.server_stats()["requests"] == requests + 1
        assert node.counters_total().round_trips == 1


def _cluster_state(cluster):
    return (
        {
            node_id: dataclasses.asdict(counters)
            for node_id, counters in cluster.get_stats().per_node.items()
        },
        cluster.wal_stats(),
        dataclasses.asdict(cluster.versions.stats()),
    )


@pytest.mark.parametrize("durability", ["off", "wal"])
@pytest.mark.parametrize("transport", ["local", "socket"])
@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_cluster_single_is_batch_of_one(engine_name, transport, durability):
    """Cluster level, engine × transport × durability, on a replicated
    (R=2) cluster with the MVCC overlay attached: hit, miss, overwrite
    under a commit epoch, and a pinned snapshot read served from the
    overlay."""
    clusters = [
        KVCluster(
            num_nodes=3, engine=engine_name, replication_factor=2,
            transport=transport, durability=durability,
            fsync_policy="always",
        )
        for _ in range(2)
    ]
    try:
        single, batch = clusters
        for cluster in clusters:
            cluster.attach_versions(VersionStore())

        def both(single_call, batch_call):
            got = single_call(single)
            assert got == batch_call(batch)
            assert _cluster_state(single) == _cluster_state(batch)
            return got

        for key in (b"a", b"b"):
            both(
                lambda c: c.put("ns", key, b"old", n_values=2),
                lambda c: c.multi_put("ns", [(key, b"old")], 2),
            )

        def two(_payload):
            return 2

        assert both(
            lambda c: c.get("ns", b"a", values_of=two),
            lambda c: c.multi_get("ns", [b"a"], two)[0],
        ) == b"old"
        assert both(
            lambda c: c.get("ns", b"miss"),
            lambda c: c.multi_get("ns", [b"miss"])[0],
        ) is None

        def overwrite(write):
            def run(cluster):
                with cluster.versions.recording(1):
                    return write(cluster)
            return run

        both(
            overwrite(lambda c: c.put("ns", b"a", b"new", n_values=2)),
            overwrite(lambda c: c.multi_put("ns", [(b"a", b"new")], 2)),
        )

        def pinned(read):
            def run(cluster):
                with cluster.versions.reading(0):
                    return read(cluster)
            return run

        assert both(
            pinned(lambda c: c.get("ns", b"a", values_of=two)),
            pinned(lambda c: c.multi_get("ns", [b"a"], two)[0]),
        ) == b"old"
        assert both(
            pinned(lambda c: c.get("ns", b"b", values_of=two)),  # base visible
            pinned(lambda c: c.multi_get("ns", [b"b"], two)[0]),
        ) == b"old"
        assert single.get("ns", b"a") == b"new"

        counters, wal_stats, versions = _cluster_state(single)
        # R=2: each put lands on two owners, each get on one replica
        assert sum(c["puts"] for c in counters.values()) == 6
        assert sum(c["gets"] for c in counters.values()) == 4
        assert versions["versions_recorded"] == 1
        assert versions["overlay_reads"] == 1
        if durability == "wal":
            assert wal_stats["records"] == wal_stats["fsyncs"] == 6
    finally:
        for cluster in clusters:
            cluster.close()


def test_batched_scan_lists_keys_without_shipping_values(
    paper_db, paper_baav_schema, monkeypatch
):
    """The batched ``KVInstance.scan`` lists the namespace, then fetches
    it with multi-gets; over the socket transport the listing is
    ``OP_KEYS`` with the namespace prefix — never an ``OP_SCAN``, which
    would ship every payload once to be dropped and once more to be
    read."""
    cluster = KVCluster(num_nodes=2, transport="socket")
    try:
        store = BaaVStore.map_database(paper_db, paper_baav_schema, cluster)
        instance = store.instance("ps_by_sup")
        frames = []
        request = NodeClient.request

        def recording(self, op, *args):
            frames.append((op, args))
            return request(self, op, *args)

        monkeypatch.setattr(NodeClient, "request", recording)
        batched = list(instance.scan(batch_size=64))
        ops = [op for op, _ in frames]
        assert wire.OP_SCAN not in ops
        assert wire.OP_MULTI_GET in ops
        listings = [args for op, args in frames if op == wire.OP_KEYS]
        assert len(listings) == 2  # one frame per node
        assert all(prefix for (prefix,) in listings)
        monkeypatch.undo()
        assert sorted(
            (key, block.entries) for key, block in batched
        ) == sorted((key, block.entries) for key, block in instance.scan())
    finally:
        cluster.close()
