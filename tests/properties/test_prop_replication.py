"""Membership-churn property: the replicated cluster equals a dict oracle.

Hypothesis drives random interleavings of ``put`` / ``delete`` /
``fail_node`` / ``recover_node`` / ``add_node`` / ``remove_node``
against ``replication_factor ∈ {1, 2, 3}``. The generator keeps the
churn inside the failure model's guarantee — strictly fewer than R nodes
down at any moment — and under that constraint the cluster must never
lose or resurrect a key: after every operation, every oracle key reads
back its latest value and every deleted key reads ``None``; at the end,
a full scan equals the oracle exactly.

This is the harness that proves the failover design (eager
re-replication on crash, tombstone logs on recovery, preference-list
migration on scale events) correct, not just plausible.
"""

from hypothesis import given, settings, strategies as st

from repro.kv import KVCluster
from repro.kv.codec import encode_key

MAX_NODES = 7

# op shapes: (kind, a, b) with a/b reinterpreted per kind
_ops = st.tuples(
    st.sampled_from(
        ["put", "put", "put", "delete", "fail", "recover", "add", "remove"]
    ),
    st.integers(0, 15),   # key index
    st.integers(0, 9),    # value index / node selector
)


def _apply(cluster: KVCluster, oracle: dict, op) -> None:
    """Apply one churn op, keeping < R nodes down (the guarantee zone)."""
    kind, a, b = op
    replication = cluster.replication_factor
    if kind == "put":
        key = encode_key((a,))
        value = f"value{b}".encode()
        cluster.put("churn", key, value)
        oracle[key] = value
    elif kind == "delete":
        key = encode_key((a,))
        removed = cluster.delete("churn", key)
        assert removed == (key in oracle)
        oracle.pop(key, None)
    elif kind == "fail":
        live = cluster.live_node_ids
        # stay strictly under R nodes down — the advertised guarantee
        if len(cluster.down_node_ids) + 1 >= replication or len(live) <= 1:
            return
        cluster.fail_node(live[b % len(live)])
    elif kind == "recover":
        down = cluster.down_node_ids
        if down:
            cluster.recover_node(down[b % len(down)])
    elif kind == "add":
        if cluster.num_nodes < MAX_NODES:
            cluster.add_node()
    elif kind == "remove":
        live = cluster.live_node_ids
        # keep enough live nodes for R replicas of every key
        if len(live) > replication:
            cluster.remove_node(live[b % len(live)])


def _check_reads(cluster: KVCluster, oracle: dict) -> None:
    for key, value in oracle.items():
        assert cluster.get("churn", key) == value


@given(
    replication=st.sampled_from([1, 2, 3]),
    num_nodes=st.integers(3, 5),
    ops=st.lists(_ops, max_size=25),
)
@settings(max_examples=250, deadline=None)
def test_churn_matches_dict_oracle(replication, num_nodes, ops):
    cluster = KVCluster(num_nodes, replication_factor=replication)
    oracle: dict = {}
    for op in ops:
        _apply(cluster, oracle, op)
        _check_reads(cluster, oracle)
    # deleted / never-written keys stay absent
    for i in range(16):
        key = encode_key((i,))
        if key not in oracle:
            assert cluster.get("churn", key) is None
    # the full scan is exactly the oracle, each pair exactly once
    assert dict(cluster.scan("churn", count_as_gets=False)) == oracle
    assert sorted(cluster.list_keys("churn").keys) == sorted(oracle)


@given(
    replication=st.sampled_from([2, 3]),
    ops=st.lists(_ops, max_size=20),
    batch=st.lists(st.integers(0, 15), min_size=1, max_size=10),
)
@settings(max_examples=100, deadline=None)
def test_churned_multi_get_stays_positional(replication, ops, batch):
    """Batched reads through churn: positional, oracle-exact answers."""
    cluster = KVCluster(4, replication_factor=replication)
    oracle: dict = {}
    for op in ops:
        _apply(cluster, oracle, op)
    keys = [encode_key((i,)) for i in batch]
    values = cluster.multi_get("churn", keys)
    assert values == [oracle.get(k) for k in keys]
