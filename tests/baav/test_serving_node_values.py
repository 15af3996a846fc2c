"""A read's values (#data) are counted on the node that serves it.

Each payload a node serves counts its logical values there, read off the
payload's header: a BaaV segment its entries × the value width, a stats
sidecar four a statistic, a posting list its entries, a TaaV tuple its
arity — one at least. The expectations below decode every payload a node
holds instead, and keep the ones it serves (its keys' first live owner),
so a count spread over the wrong nodes, or a payload counted off the
wrong header, shows per node. Node counters are client-side, so the
same holds over node processes.
"""

from __future__ import annotations

import threading
from types import SimpleNamespace
from typing import Callable, Dict, Iterable, Optional, Set

import pytest

from repro.baav import BaaVStore, KVInstance
from repro.baav.block import Block
from repro.baav.maintenance import Maintainer
from repro.baav.schema import BaaVSchema, kv_schema
from repro.baav.store import _decode_stats, _encode_segment
from repro.index import IndexManager
from repro.kba import ExecContext, StatsGroup, execute
from repro.kv import KVCluster, TaaVRelation, codec
from repro.mvcc.versions import VersionStore
from repro.relational import AttrType, Database, RelationSchema
from repro.sql import ast
from repro.sql.algebra import AggSpec
from repro.workloads import airca

REL = RelationSchema.of(
    "R",
    {
        "k": AttrType.INT,
        "g": AttrType.INT,
        "v": AttrType.STR,
        "w": AttrType.FLOAT,
    },
    ["k"],
)
#: 12 blocks of 5 tuples: 3 segments each at split_threshold=2
ROWS = [(k, k % 12, f"v{k}", k / 4) for k in range(60)]
BY_G = kv_schema("r_by_g", REL, ["g"])


@pytest.fixture(params=[1, 2], ids=["R1", "R2"])
def loaded(request):
    cluster = KVCluster(4, replication_factor=request.param)
    db = Database.from_dict([REL], {"R": ROWS})
    store = BaaVStore.map_database(db, BaaVSchema([BY_G]), cluster, split_threshold=2)
    taav = TaaVRelation(REL, cluster)
    taav.load(ROWS)
    indexes = IndexManager(cluster)
    yield SimpleNamespace(
        cluster=cluster,
        store=store,
        instance=store.instance("r_by_g"),
        taav=taav,
        indexes=indexes,
        index=indexes.create(db.relation("R"), "g", "hash"),
    )
    cluster.close()


def counted(cluster: KVCluster, read: Callable[[], object]) -> Dict[int, int]:
    """Each node's ``values_read`` for ``read()`` alone."""
    cluster.reset_counters()
    read()
    return {
        node_id: counters.values_read
        for node_id, counters in cluster.get_stats().per_node.items()
    }


def served(
    cluster: KVCluster,
    namespace: str,
    values: Callable[[bytes], int],
    keys: Optional[Iterable[bytes]] = None,
) -> Dict[int, int]:
    """The logical values of the payloads each node serves under
    ``namespace`` (only ``keys``, when given), decoded from its store."""
    prefix = codec.encode_value(namespace)
    wanted: Optional[Set[bytes]] = None if keys is None else set(keys)
    out = {}
    for node_id, node in cluster.nodes.items():
        out[node_id] = sum(
            values(payload)
            for full, payload in node.snapshot_scan(prefix)
            if cluster._first_live_owner(full) == node_id
            and (wanted is None or full[len(prefix):] in wanted)
        )
    return out


def segment_values(instance) -> Callable[[bytes], int]:
    return lambda payload: max(1, instance._decode_segment(payload)[1].num_values())


@pytest.mark.parametrize("n_segments", [0, 1, 200])
@pytest.mark.parametrize("n_entries", [0, 1, 127, 128, 300])
def test_segment_header_count_is_the_decoded_count(n_segments, n_entries):
    """Multi-byte counts included (a varint is one byte below 128)."""
    instance = KVInstance(BY_G, KVCluster(1, transport="local"))
    block = Block([((k, f"v{k}", k / 4), 1) for k in range(n_entries)])
    payload = _encode_segment(n_segments, block)
    assert instance._segment_values(payload) == segment_values(instance)(payload)
    assert instance._segment_values(payload) == max(1, 3 * n_entries)


def test_batched_scan(loaded):
    cluster, instance = loaded.cluster, loaded.instance
    got = counted(cluster, lambda: list(instance.scan(batch_size=4)))
    assert got == served(cluster, instance.namespace, segment_values(instance))
    assert sum(got.values()) == 60 * 3


def test_split_block_multi_get(loaded):
    cluster, instance = loaded.cluster, loaded.instance
    got = counted(cluster, lambda: instance.multi_get([(1,), (2,)]))
    segments = [codec.encode_key((g, i)) for g in (1, 2) for i in range(3)]
    assert got == served(
        cluster, instance.namespace, segment_values(instance), segments
    )
    assert sum(got.values()) == 2 * 5 * 3


def test_taav_fetch_all(loaded):
    cluster, taav = loaded.cluster, loaded.taav
    got = counted(cluster, lambda: taav.fetch_all(batch_size=64))
    assert got == served(cluster, taav.namespace, lambda _: REL.arity)
    assert sum(got.values()) == 60 * REL.arity


def test_index_probe(loaded):
    cluster, index = loaded.cluster, loaded.index
    probed = [1, 2, 5]
    got = counted(cluster, lambda: loaded.indexes.lookup_eq("R", "g", probed))
    assert got == served(
        cluster,
        index.namespace,
        lambda payload: max(1, len(codec.decode_entries(payload)[0])),
        [index._entry_key(value) for value in probed],
    )
    assert sum(got.values()) == 3 * 5  # five keys a posting list


def test_stats_scan(loaded):
    cluster, instance = loaded.cluster, loaded.instance
    plan = StatsGroup("r_by_g", "R", (AggSpec("s", "SUM", ast.Column("R.w")),))
    got = counted(cluster, lambda: execute(plan, ExecContext(loaded.store)))
    assert got == served(
        cluster,
        instance.stats_namespace,
        lambda payload: 4 * len(_decode_stats(payload)),
    )
    assert sum(got.values()) == 12 * 4 * 2  # k and w are numeric


def test_get_stats_counts_four_values_an_attribute(loaded):
    cluster, instance = loaded.cluster, loaded.instance
    got = counted(cluster, lambda: instance.get_stats((1,)))
    assert sorted(instance.get_stats((1,))) == ["k", "w"]
    assert sum(got.values()) == 4 * 2


@pytest.fixture(scope="module")
def pinned_airca():
    """AIRCA whose FLIGHT row 3 a commit deleted after epoch 0."""
    db = airca.generate_airca(scale=0.5, seed=7)
    cluster = KVCluster(4)
    versions = VersionStore()
    cluster.attach_versions(versions)
    store = BaaVStore.map_database(db, airca.airca_baav_schema(), cluster)
    row = db.relation("FLIGHT").rows[3]

    def commit():
        with versions.recording(1):
            Maintainer(store).delete("FLIGHT", [row])

    writer = threading.Thread(target=commit)
    writer.start()
    writer.join(timeout=60)
    assert not writer.is_alive()
    yield cluster, versions, store
    cluster.close()


@pytest.mark.parametrize(
    "name", ["flight_by_id", "flight_by_carrier_date", "flight_by_tail"]
)
def test_per_key_and_batched_scans_under_a_pin_charge_alike(pinned_airca, name):
    """The segments the overlay restored reached no node: neither scan
    counts their values."""
    cluster, versions, store = pinned_airca
    instance = store.instance(name)
    seen = []
    with versions.reading(0):
        for batch_size in (1, 64):
            cluster.reset_counters()
            blocks = sorted(
                (key, sorted(block.entries))
                for key, block in instance.scan(batch_size=batch_size)
            )
            totals = cluster.total_counters()
            seen.append((blocks, totals.gets, totals.values_read))
    assert versions.stats().overlay_reads > 0
    assert seen[0] == seen[1]
