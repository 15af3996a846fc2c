"""Bookkeeping costs a stage, not a block — count-based guards (no
clocks): the batched scan re-encodes no key it was handed as bytes, and
no intermediate is byte-walked twice within a stage.

(The simulated costs these feed are pinned by ``test_meter_golden.py``.)
"""

from __future__ import annotations

import random
from typing import List, Tuple

import pytest

import repro.parallel.engine as engine
import repro.parallel.partitioner as partitioner
from repro.kba.blockset import BlockSet
from repro.kv import codec
from repro.systems import ZidianSystem
from repro.workloads import airca

BENCH_INDEXES = ("FLIGHT.tail_id", "FLIGHT.arr_delay:ordered")


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
