"""Bookkeeping costs a fetch wave and a stage, not a block — count-based
guards (no clocks).

* One batched value charge leaves every node where the same charges
  made one by one leave it, for any node count and down set; a down
  node is charged nothing.
* During an analytic query the cluster is asked to charge values at most
  once per fetch wave (two waves per block fetch), the batched scan
  re-encodes no key it was handed as bytes, and no intermediate is
  byte-walked twice within a stage.

(The simulated costs these feed are pinned by ``test_meter_golden.py``.)
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.parallel.engine as engine
import repro.parallel.partitioner as partitioner
from repro.kba.blockset import BlockSet
from repro.kv import KVCluster, codec
from repro.systems import ZidianSystem
from repro.workloads import airca

BENCH_INDEXES = ("FLIGHT.tail_id", "FLIGHT.arr_delay:ordered")


# -- (i) the batched charge is the sequence of single charges ---------------


def _per_node(cluster: KVCluster) -> Dict[int, int]:
    return {
        node_id: node.counters_total().values_read
        for node_id, node in cluster.nodes.items()
    }


def _charged_one_by_one(
    cluster: KVCluster, extras: List[int]
) -> Dict[int, int]:
    """Where the per-block loop this replaced leaves the nodes: live
    node ``i`` of ``n`` takes ``extra // n``, plus one if
    ``i < extra % n``."""
    node_ids = [
        node_id for node_id in cluster.nodes if cluster.is_live(node_id)
    ]
    charged = {node_id: 0 for node_id in cluster.nodes}
    for extra in extras:
        if extra <= 0:
            continue
        share, remainder = divmod(extra, len(node_ids))
        for index, node_id in enumerate(node_ids):
            charged[node_id] += share + (1 if index < remainder else 0)
    return charged


@st.composite
def charge_cases(draw):
    num_nodes = draw(st.integers(min_value=1, max_value=7))
    down = draw(
        st.sets(st.integers(0, num_nodes - 1), max_size=num_nodes - 1)
    )
    extras = draw(
        st.lists(
            st.one_of(st.integers(-3, 40), st.integers(0, 10**6)), max_size=30
        )
    )
    return num_nodes, sorted(down), extras


@given(charge_cases())
@settings(max_examples=150, deadline=None)
def test_batched_charge_equals_single_charges(case):
    num_nodes, down, extras = case
    batched, singly = (
        # R = n: any down set short of every node leaves each key an owner
        KVCluster(num_nodes, replication_factor=num_nodes, transport="local")
        for _ in range(2)
    )
    for cluster in (batched, singly):
        for node_id in down:
            cluster.fail_node(node_id)
    expected = _charged_one_by_one(batched, extras)
    batched.charge_values_read_many(extras)
    for extra in extras:
        singly.charge_values_read_many([extra])
    assert _per_node(batched) == _per_node(singly) == expected


# -- (ii) the per-block work is gone ------------------------------------------


@pytest.fixture(scope="module")
def system():
    db = airca.generate_airca(scale=0.3, seed=31)
    with ZidianSystem(
        workers=2, storage_nodes=4, indexes=BENCH_INDEXES, vectorized=False
    ) as loaded:
        loaded.load(db, airca.airca_baav_schema())
        yield loaded


def _instance(system: ZidianSystem, template: str) -> str:
    params = airca.sample_params(system.database, random.Random(7))
    return airca.TEMPLATES[template].format(**params).strip()


@pytest.mark.parametrize("template", airca.NON_SCAN_FREE_TEMPLATES)
def test_value_charges_per_fetch_wave_not_per_block(
    system, template, monkeypatch
):
    count = {"charges": 0, "waves": 0}

    def counting(owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)

        def wrapper(self, *args, **kwargs):
            count[name] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    counting(KVCluster, "charge_values_read_many", "charges")
    counting(KVCluster, "multi_get", "waves")
    metrics = system.execute(_instance(system, template)).metrics
    assert 0 < count["charges"] <= count["waves"]
    # a wave is a batch of gets: the charges do not scale with the blocks
    assert count["waves"] <= metrics.n_round_trips < metrics.n_get


def test_batched_scan_encodes_no_key(system, monkeypatch):
    instance = system.store.instance("flight_by_id")
    encode_key = codec.encode_key
    encoded = []
    monkeypatch.setattr(
        codec, "encode_key", lambda key: encoded.append(key) or encode_key(key)
    )
    blocks = list(instance.scan(batch_size=64))
    assert len(blocks) == instance.num_blocks > 64
    assert encoded == []
    # (the keyed path does encode: the counter is live)
    instance.multi_get([blocks[0][0]])
    assert encoded == [blocks[0][0] + (0,)]


@pytest.mark.parametrize("template", airca.NON_SCAN_FREE_TEMPLATES)
def test_no_blockset_is_byte_walked_twice_in_a_stage(
    system, template, monkeypatch
):
    stage = [0]
    walks: List[Tuple[int, int]] = []
    walked: List[BlockSet] = []  # keeps ids from being reused

    def next_stage(*args, **kwargs):
        # the engine meters a node right after executing it, and before
        # it executes the next one
        stage[0] += 1
        return execute_node(*args, **kwargs)

    def recording(walk):
        def wrapper(blockset, *args, **kwargs):
            walks.append((stage[0], id(blockset)))
            walked.append(blockset)
            return walk(blockset, *args, **kwargs)

        return wrapper

    execute_node = engine.execute_node
    monkeypatch.setattr(engine, "execute_node", next_stage)
    partition = recording(partitioner.partition_blockset)
    monkeypatch.setattr(partitioner, "partition_blockset", partition)
    monkeypatch.setattr(engine, "partition_blockset", partition, raising=False)
    monkeypatch.setattr(BlockSet, "size_bytes", recording(BlockSet.size_bytes))
    metrics = system.execute(_instance(system, template)).metrics
    assert any(s.name in ("joink", "groupk") for s in metrics.stages)
    assert walks
    assert len(walks) == len(set(walks))
