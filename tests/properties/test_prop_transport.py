"""Property: the socket transport is observationally identical to local.

For any workload — puts, gets, deletes, batched gets, scans, namespace
ops, drops, and fail/recover churn — a ``transport="socket"`` cluster
(every node its own OS process behind the wire protocol) must produce
byte-identical results, the same final contents, and the SAME counters
as the in-process cluster: the wire format, error mapping and stats
aggregation are pure plumbing, invisible to any observer.

Example counts are modest because every example forks a fresh set of
node processes; the op-space coverage comes from the sequence strategy,
not the example count.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kv import KVCluster

NODES = 3
R = 2

_keys = st.integers(min_value=0, max_value=19).map(
    lambda i: f"k{i:02d}".encode()
)
_namespaces = st.sampled_from(["alpha", "beta"])

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _namespaces, _keys,
                  st.integers(min_value=0, max_value=99)),
        st.tuples(st.just("get"), _namespaces, _keys),
        st.tuples(st.just("delete"), _namespaces, _keys),
        st.tuples(st.just("multi_get"), _namespaces,
                  st.lists(_keys, max_size=6)),
        st.tuples(st.just("scan"), _namespaces),
        st.tuples(st.just("list_keys"), _namespaces),
        st.tuples(st.just("namespaces")),
        st.tuples(st.just("drop"), _namespaces),
        st.tuples(st.just("size_bytes")),
        st.tuples(st.just("fail")),
        st.tuples(st.just("recover")),
    ),
    max_size=40,
)


def _apply(cluster: KVCluster, op) -> object:
    """Run one op; the returned value is the observation we compare."""
    kind = op[0]
    if kind == "put":
        _, ns, key, val = op
        cluster.put(ns, key, b"v%d" % val)
        return None
    if kind == "get":
        return cluster.get(op[1], op[2])
    if kind == "delete":
        return cluster.delete(op[1], op[2])
    if kind == "multi_get":
        return cluster.multi_get(op[1], op[2])
    if kind == "scan":
        return sorted(cluster.scan(op[1]))  # counted: exercises metering
    if kind == "list_keys":
        return sorted(cluster.list_keys(op[1]).keys)
    if kind == "namespaces":
        return cluster.namespaces()
    if kind == "drop":
        return cluster.drop_namespace(op[1])
    if kind == "size_bytes":
        return cluster.size_bytes()
    if kind == "fail":
        # deterministic churn: partition the lowest live node, at most
        # one down at a time (R=2 keeps everything served)
        if not cluster.down_node_ids:
            cluster.fail_node(cluster.live_node_ids[0])
        return sorted(cluster.down_node_ids)
    if kind == "recover":
        if cluster.down_node_ids:
            cluster.recover_node(cluster.down_node_ids[0])
        return sorted(cluster.down_node_ids)
    raise AssertionError(kind)


def _final_state(cluster: KVCluster):
    return {
        ns: sorted(cluster.scan(ns, count_as_gets=False))
        for ns in ("alpha", "beta")
    }


@given(_ops)
@settings(max_examples=12, deadline=None)
def test_socket_transport_is_observationally_identical(ops):
    # transports pinned explicitly: the pairing must hold even when
    # REPRO_KV_TRANSPORT defaults the rest of the suite to sockets
    with KVCluster(
        NODES, replication_factor=R, transport="local"
    ) as local, KVCluster(
        NODES, replication_factor=R, transport="socket"
    ) as remote:
        for op in ops:
            assert _apply(local, op) == _apply(remote, op), op
        assert _final_state(local) == _final_state(remote)
        # counters are client-side on both transports and must agree
        # exactly — gets/puts/hits/bytes AND the rebalance family the
        # churn ops charged
        assert local.total_counters() == remote.total_counters()
        stats_local, stats_remote = local.get_stats(), remote.get_stats()
        assert stats_local.totals == stats_remote.totals
        assert stats_local.per_node == stats_remote.per_node
        assert (stats_local.transport, stats_remote.transport) == (
            "local", "socket",
        )


def test_index_lookups_equivalent_across_transports(paper_db):
    """Secondary-index builds and probes ride the same cluster surface;
    a socket-backed index must return identical postings and charge
    identical counters."""
    from repro.index import IndexManager

    def run(transport):
        with KVCluster(NODES, transport=transport) as cluster:
            manager = IndexManager(cluster)
            manager.create(paper_db.relation("SUPPLIER"), "nationkey")
            manager.create(
                paper_db.relation("PARTSUPP"), "supplycost", "ordered"
            )
            eq = manager.lookup_eq("SUPPLIER", "nationkey", [10, 30, 99])
            rng = manager.lookup_range(
                "PARTSUPP", "supplycost", lo=2.0, hi=6.0
            )
            return eq, rng, cluster.total_counters()

    assert run("local") == run("socket")


def test_query_results_equivalent_across_transports(
    paper_db, paper_baav_schema, q1_sql
):
    """Whole-system check: the same SQL over the same data returns the
    same rows and the same KV metrics on both transports."""
    from repro.systems import ZidianSystem

    def run(transport):
        with ZidianSystem(
            "kudu", workers=2, storage_nodes=NODES, transport=transport
        ) as system:
            system.load(paper_db, paper_baav_schema)
            result = system.execute(q1_sql)
            metrics = result.metrics
            return sorted(result.rows), (
                metrics.n_get, metrics.data_values, metrics.n_round_trips,
                metrics.comm_bytes,
            )

    assert run("local") == run("socket")
