"""Meter golden test: the simulated clock and the storage counters, exactly.

``meter_golden.json`` beside this file was generated from the commit
*before* the analytic path's bookkeeping was made cheap (one byte walk
per intermediate, one value charge per fetch wave, the fused segment
decoder). The test re-runs every query and compares each stage's
simulated cost, the query totals and the per-node counters with the
file, so a change to what the meter *costs* cannot silently become a
change of what it *reads* — the paper's evaluation metric must not move.

The cases are the end-to-end benchmark's deployment shape (``workers=2,
storage_nodes=4``, both secondary indexes, MVCC service on) under the
row and the vectorized executor, plus a replicated cluster (replica
choice follows ``read_load``, which the value charges feed) and a store
whose blocks split into segments (the tail-segment fetch wave).

Regenerate (only when a metering change is intended and reviewed)::

    PYTHONPATH=src python tests/parallel/test_meter_golden.py
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, List, Tuple

import pytest

from repro.service import QueryService
from repro.systems import ZidianSystem
from repro.workloads import airca
from repro.workloads.generator import airca_generator
from repro.workloads.traffic import airca_traffic_mix

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "meter_golden.json")
#: the two secondary indexes of the end-to-end benchmark
BENCH_INDEXES = ("FLIGHT.tail_id", "FLIGHT.arr_delay:ordered")
SEED = 1812

#: case -> ZidianSystem knobs beyond the benchmark's shape
CASES: Dict[str, Dict[str, object]] = {
    "row": {"vectorized": False},
    "vectorized": {"vectorized": True},
    "row+R2": {"vectorized": False, "replication_factor": 2},
    "row+split": {"vectorized": False, "split_threshold": 2},
}


def _num(value) -> object:
    """Floats by ``repr`` — the comparison is exact, not approximate."""
    return repr(value) if isinstance(value, float) else value


def _record(system: ZidianSystem, session, sql: str) -> Dict[str, object]:
    metrics = session.execute(sql).metrics
    nodes = system.cluster.nodes
    return {
        "sql": " ".join(sql.split()),
        "stages": [
            {
                "name": stage.name,
                "time_ms": _num(stage.time_ms),
                "comm_bytes": stage.comm_bytes,
                "gets": stage.gets,
                "values": stage.values,
                "round_trips": stage.round_trips,
                "skew": _num(stage.skew),
            }
            for stage in metrics.stages
        ],
        "totals": {
            "sim_time_ms": _num(metrics.sim_time_ms),
            "n_get": metrics.n_get,
            "n_round_trips": metrics.n_round_trips,
            "data_values": metrics.data_values,
            "comm_bytes": metrics.comm_bytes,
        },
        # the query reset its thread's shards first, so these are the
        # per-node shares of exactly this query
        "per_node": {
            str(node_id): [counters.gets, counters.values_read]
            for node_id, counters in sorted(
                system.cluster.counters_per_node().items()
            )
        },
        "read_load": [nodes[node_id].read_load for node_id in sorted(nodes)],
    }


def _queries(db) -> List[Tuple[str, str]]:
    """Two instances of each of q1-q12, then two of each traffic class
    (the point / index / range / scan reads of the benchmark's mixes —
    the index classes are the only ones that probe a posting list)."""
    out = [
        (f"{q.template}#{i}", q.sql)
        for i, q in enumerate(airca_generator(SEED).generate(db, per_template=2))
    ]
    rng = random.Random(SEED)
    for klass in airca_traffic_mix(db):
        out += [(f"{klass.name}#{i}", klass.make_sql(rng)) for i in range(2)]
    return out


def render() -> str:
    """Every case's records as the golden file's text."""
    db = airca.generate_airca(scale=0.3, seed=31)
    queries = _queries(db)
    out: Dict[str, Dict[str, object]] = {}
    for case, knobs in CASES.items():
        with ZidianSystem(
            workers=2, storage_nodes=4, indexes=BENCH_INDEXES, **knobs
        ) as system:
            system.load(db, airca.airca_baav_schema())
            with QueryService(system, max_workers=2, mvcc=True) as service:
                with service.open_session() as session:
                    out[case] = {
                        label: _record(system, session, sql)
                        for label, sql in queries
                    }
    return json.dumps(out, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def rendered() -> Dict[str, Dict[str, object]]:
    return json.loads(render())


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, object]]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("case", sorted(CASES))
def test_meter_matches_golden(case, rendered, golden):
    assert sorted(rendered[case]) == sorted(golden[case])
    for label, record in golden[case].items():
        assert rendered[case][label] == record, f"{case}/{label}"


def test_golden_file_is_byte_identical(rendered):
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        text = handle.read()
    assert json.dumps(rendered, indent=1, sort_keys=True) + "\n" == text


def test_golden_covers_what_the_meter_prices(golden):
    """The golden set is only a proof if it reaches every metered path."""
    assert sorted(golden) == sorted(CASES)
    assert all(len(records) == 24 + 8 for records in golden.values())
    stages: List[dict] = [
        stage
        for record in golden["row"].values()
        for stage in record["stages"]
    ]
    names = {stage["name"].split()[0] for stage in stages}
    assert {"scan", "extend", "joink", "groupk", "index-probe", "top"} <= names
    # skew is measured (not the 1.0 default) on shuffling stages
    assert any(stage["skew"] != "1.0" for stage in stages)
    # the executors meter alike: same stages, same simulated cost
    assert golden["row"] == golden["vectorized"]
    # replication moves which node serves (read_load-driven choice) ...
    assert any(
        golden["row+R2"][label]["per_node"] != golden["row"][label]["per_node"]
        for label in golden["row+R2"]
    )
    # ... and split blocks cost their tail segments' gets
    assert any(
        golden["row+split"][label]["totals"]["n_get"]
        > golden["row"][label]["totals"]["n_get"]
        for label in golden["row+split"]
    )


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w", encoding="utf-8") as out_file:
        out_file.write(render())
    print(f"wrote {GOLDEN_PATH}")
