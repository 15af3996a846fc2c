"""The per-query I/O probe and the stage fold it feeds.

* The probe gathers the thread's live shards once per query; a
  membership change between two stages gathers them again, so the
  stages still add up to what the thread counted.
* With a per-worker block cache, every partition's shard is read: the
  stages' hits and misses are the partitions' own.
* ``ExecutionMetrics.add_stage`` is generated from ``_STAGE_TOTALS``;
  it adds every pair and nothing else.

(The simulated costs are pinned by ``test_meter_golden.py``.)
"""

from __future__ import annotations

import dataclasses
import random

import repro.parallel.engine as engine
from repro.kba import plan as kp
from repro.kv.cache import PartitionedBlockCache
from repro.parallel.metrics import _STAGE_TOTALS, ExecutionMetrics, StageCost
from repro.systems import ZidianSystem
from repro.workloads import airca


def _statement(system: ZidianSystem, template: str, seed: int) -> str:
    params = airca.sample_params(system.database, random.Random(seed))
    return airca.TEMPLATES[template].format(**params).strip()


def test_a_membership_change_between_stages_is_gathered_again(monkeypatch):
    db = airca.generate_airca(scale=0.2, seed=31)
    with ZidianSystem(workers=2, storage_nodes=4, vectorized=False) as system:
        system.load(db, airca.airca_baav_schema())
        cluster = system.cluster
        execute_node = engine.execute_node
        added = []

        def grow_after_the_first_node(node, ctx, inputs):
            out = execute_node(node, ctx, inputs)
            if not added:
                added.append(cluster.add_node())
            return out

        monkeypatch.setattr(engine, "execute_node", grow_after_the_first_node)
        metrics = system.execute(_statement(system, "q10", 3)).metrics

        # the new node served this query's later stages ...
        assert added[0].counters.gets > 0
        # ... and the stages still sum to the thread's own counters
        _, shards = cluster.thread_shards()
        gets = sum(shard.gets for shard in shards)
        assert sum(stage.gets for stage in metrics.stages) == gets
        assert metrics.n_get == gets
        assert metrics.n_round_trips == sum(shard.round_trips for shard in shards)


def test_every_cache_partition_is_read(monkeypatch):
    db = airca.generate_airca(scale=0.2, seed=31)
    with ZidianSystem(
        workers=2, storage_nodes=4, vectorized=False,
        cache_capacity_bytes=1 << 22,
    ) as system:
        system.load(db, airca.airca_baav_schema())
        partitions = system.cache.partitions
        assert isinstance(system.cache, PartitionedBlockCache)
        assert len(partitions) == 2

        def counted():
            """Hits and misses of this thread, summed over partitions,
            each partition read through its own ``thread_shards()``."""
            stats = [
                shard for cache in partitions for shard in cache.thread_shards()
            ]
            return (
                sum(s.hits for s in stats), sum(s.misses for s in stats),
                [s.hits + s.misses for s in stats],
            )

        execute_node = engine.execute_node
        after_node = []

        def recording(node, ctx, inputs):
            out = execute_node(node, ctx, inputs)
            after_node.append((isinstance(node, kp.Constant), counted()))
            return out

        warm = _statement(system, "q6", 5)
        system.execute(warm)  # the second run of it hits
        monkeypatch.setattr(engine, "execute_node", recording)
        seen_hits = seen_misses = 0
        for sql in (warm, _statement(system, "q6", 6)):
            after_node.clear()
            start = counted()
            metrics = system.execute(sql).metrics
            expected = []
            last = start
            for is_constant, now in after_node:
                if not is_constant:  # a constant leaf makes no stage
                    expected.append((now[0] - last[0], now[1] - last[1]))
                last = now
            # job-overhead first and the RA top last make no I/O
            stages = metrics.stages[1:-1]
            assert [(s.cache_hits, s.cache_misses) for s in stages] == expected
            assert metrics.cache_hits == last[0] - start[0]
            assert metrics.cache_misses == last[1] - start[1]
            seen_hits += metrics.cache_hits
            seen_misses += metrics.cache_misses
        # hits and misses both showed, on both partitions, so a probe
        # reading one partition (or none) would have failed above
        assert seen_hits > 0 and seen_misses > 0
        assert all(lookups > 0 for lookups in counted()[2])


def test_the_stage_fold_adds_every_pair_and_nothing_else():
    stage_fields = {f.name for f in dataclasses.fields(StageCost)}
    sources = [source for _, source in _STAGE_TOTALS]
    # every counter a stage carries has a total (name / skew describe it)
    assert set(sources) == stage_fields - {"name", "skew"}
    assert len(set(sources)) == len(sources)

    stage = StageCost("s", **{s: 3 + 2 * i for i, s in enumerate(sources)})
    totals = {total: 1000 * (i + 1) for i, (total, _) in enumerate(_STAGE_TOTALS)}
    metrics = ExecutionMetrics(**totals)
    untouched = {
        name: value for name, value in vars(metrics).items()
        if name not in totals and name != "stages"
    }
    metrics.add_stage(stage)
    assert metrics.stages == [stage]
    for i, (total, source) in enumerate(_STAGE_TOTALS):
        assert getattr(metrics, total) == totals[total] + 3 + 2 * i, total
    assert {name: vars(metrics)[name] for name in untouched} == untouched

    # a zero leaves the total as it was (the float clock included)
    before = metrics.sim_time_ms
    metrics.add_stage(StageCost("empty"))
    assert metrics.sim_time_ms == before and len(metrics.stages) == 2
