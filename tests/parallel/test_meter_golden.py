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
row and the vectorized executor, plus a replicated cluster (a key is
read from its first live owner, so with every node up it counts as the
unreplicated cluster does) and a store whose blocks split into segments
(the tail-segment fetch wave).

The ``overlay`` cases pin what those four never reach — they run with the
MVCC service on but commit nothing between pinned reads, so the overlay
always answers "base is visible". Here a reader pinned at epoch E runs
q7–q12-style scans and keyed extends *after* commits E+1… overwrote a
block (twice: a chain of two), deleted a key and inserted keys in the
scanned instances; every query is recorded pinned at E and at the latest
epoch, with the overlay counters and the answers, at R = 1 and R = 2.
They were generated from the commit *before* the version store learnt
to answer "nothing is newer than your pin" in O(1) and the key listing
stopped reading payloads.

Each record's per-node ``values_read`` was regenerated when a read's
values came to be counted on the node that serves the payload (before,
one value there and the rest spread over the live nodes): every other
entry, and every per-query total, stayed as it was.

Every case is rendered twice (ISSUE 24): *cold* — the plan-template map
is emptied before each statement, so each is planned — and *warm* — every
statement's shape was planned before the first one ran, so each is bound
from a template. Both must be the file: what a statement is charged does
not depend on where its plan came from.

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


#: overlay case -> ZidianSystem knobs beyond the benchmark's shape
OVERLAY_CASES: Dict[str, Dict[str, object]] = {
    "overlay": {"vectorized": False},
    "overlay+R2": {"vectorized": False, "replication_factor": 2},
}

#: what the pinned reader runs: scans over the instances the commits
#: touched (q7, q8, q12, the q9 join), then keyed extends on an
#: untouched key, the deleted key, an inserted key, and the block
#: overwritten twice
OVERLAY_QUERIES: Tuple[Tuple[str, str], ...] = (
    ("q7", airca.TEMPLATES["q7"]),
    ("q8", airca.TEMPLATES["q8"].format(date1="1999-03-01", date2="2000-06-01")),
    ("q9", airca.TEMPLATES["q9"].format(distance=1000)),
    ("q12", airca.TEMPLATES["q12"].format(distance=1000)),
    ("q1-untouched", airca.TEMPLATES["q1"].format(fid=7)),
    ("q6-deleted", airca.TEMPLATES["q6"].format(fid=6)),
    ("point-deleted", "select F.flight_id, F.flight_date, F.arr_delay "
                      "from FLIGHT F where F.flight_id = 6"),
    ("point-inserted", "select F.flight_id, F.flight_date, F.arr_delay "
                       "from FLIGHT F where F.flight_id = 121"),
    ("q2-overwritten", airca.TEMPLATES["q2"].format(carrier=1, date="2000-12-26")),
)


def _num(value) -> object:
    """Floats by ``repr`` — the comparison is exact, not approximate."""
    return repr(value) if isinstance(value, float) else value


def _record(
    system: ZidianSystem, session, sql: str, overlay: bool = False, cold: bool = False
) -> Dict[str, object]:
    if cold:
        system.middleware.clear_shapes()
    result = session.execute(sql)
    metrics = result.metrics
    extra: Dict[str, object] = {}
    if overlay:
        extra = {
            "snapshot_epoch": metrics.snapshot_epoch,
            "overlay": [metrics.overlay_reads, metrics.versions_skipped],
            "stage_overlay": {
                stage.name: [stage.overlay_reads, stage.versions_skipped]
                for stage in metrics.stages
                if stage.overlay_reads or stage.versions_skipped
            },
            "rows": [[_num(value) for value in row] for row in result.rows],
        }
    return {
        **extra,
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
                system.cluster.get_stats().per_node.items()
            )
        },
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


def _overlay_records(system: ZidianSystem, session, db) -> Dict[str, object]:
    """Pin a reader at the loaded epoch E, land four commits, then run
    :data:`OVERLAY_QUERIES` pinned at E and at the latest epoch."""
    manager = system.transactions
    versions = manager.versions
    # flights 4 and 6 (both have DELAY rows; each is alone in its
    # (carrier, date) block)
    flights = db.relation("FLIGHT").rows
    first, second = flights[3], flights[5]
    # held across the commits: the horizon stays at E, nothing is
    # reclaimed, and the reads below ride the thread-local pin the way
    # a running query's does
    pinned = manager.epochs.pin()
    try:
        # E+1: a second flight in flight 4's (carrier, date) and tail
        # blocks — overwrites both, inserts a key in flight_by_id
        session.apply_updates("FLIGHT", inserts=[(121,) + first[1:]])
        # E+2: flight 6 is alone in its (carrier, date) block — deletes
        # that key and flight_by_id's, overwrites its tail block
        session.apply_updates("FLIGHT", deletes=[second])
        # E+3: a (carrier, date) nobody flew — inserts a key
        session.apply_updates(
            "FLIGHT",
            inserts=[(122, 3, first[2], first[3], first[4], "2001-01-01")
                     + first[6:]],
        )
        # E+4: the same blocks as E+1 again — a chain of two
        session.apply_updates("FLIGHT", inserts=[(123,) + first[1:]])
        out: Dict[str, object] = {}
        for label, sql in OVERLAY_QUERIES:
            with versions.reading(pinned):
                out[f"{label}@pinned"] = _record(system, session, sql, True)
            out[f"{label}@latest"] = _record(system, session, sql, True)
    finally:
        manager.epochs.unpin(pinned)
    return out


def render(cold: bool = True) -> str:
    """Every case's records as the golden file's text, each statement
    planned (``cold``) or bound from a template planned beforehand."""
    db = airca.generate_airca(scale=0.3, seed=31)
    queries = _queries(db)
    out: Dict[str, Dict[str, object]] = {}
    for case, knobs in {**CASES, **OVERLAY_CASES}.items():
        if case in OVERLAY_CASES:
            # the commits change the database in place
            db = airca.generate_airca(scale=0.3, seed=31)
        with ZidianSystem(
            workers=2, storage_nodes=4, indexes=BENCH_INDEXES, **knobs
        ) as system:
            system.load(db, airca.airca_baav_schema())
            with QueryService(system, max_workers=2, mvcc=True) as service:
                with service.open_session() as session:
                    if case in OVERLAY_CASES:
                        out[case] = _overlay_records(system, session, db)
                        continue
                    counters = system.middleware.shape_stats
                    if not cold:
                        for _, sql in queries:  # plans; reads no storage
                            system.middleware.planned(sql)
                    planned = counters.total().misses
                    out[case] = {
                        label: _record(system, session, sql, cold=cold)
                        for label, sql in queries
                    }
                    total = counters.total()
                    assert total.misses - planned == (len(queries) if cold else 0)
    return json.dumps(out, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module", params=["cold", "warm"])
def rendered(request) -> Dict[str, Dict[str, object]]:
    return json.loads(render(cold=request.param == "cold"))


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, object]]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("case", sorted({**CASES, **OVERLAY_CASES}))
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
    assert sorted(golden) == sorted({**CASES, **OVERLAY_CASES})
    assert all(len(golden[case]) == 24 + 8 for case in CASES)
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
    # every node is up, so a second copy changes no read: each key is
    # read from its first live owner, the unreplicated cluster's owner ...
    assert golden["row+R2"] == golden["row"]
    assert golden["overlay+R2"] == golden["overlay"]
    # ... and split blocks cost their tail segments' gets
    assert any(
        golden["row+split"][label]["totals"]["n_get"]
        > golden["row"][label]["totals"]["n_get"]
        for label in golden["row+split"]
    )


@pytest.mark.parametrize("case", sorted(OVERLAY_CASES))
def test_overlay_golden_reaches_the_slow_path(case, golden):
    """The overlay cases are only a proof if the chains really answer."""
    records = golden[case]
    assert len(records) == 2 * len(OVERLAY_QUERIES)
    pinned = {k: v for k, v in records.items() if k.endswith("@pinned")}
    latest = {k: v for k, v in records.items() if k.endswith("@latest")}
    # a read at the published epoch never needs the overlay ...
    assert all(r["overlay"] == [0, 0] for r in latest.values())
    assert all(r["snapshot_epoch"] == 4 for r in latest.values())
    # ... the pinned reader does, on scans and on keyed extends, and a
    # chain of two is walked past its newest entry
    assert all(r["snapshot_epoch"] == 0 for r in pinned.values())
    for label in ("q7", "q12", "q9", "point-deleted", "point-inserted",
                  "q2-overwritten"):
        reads, skipped = pinned[f"{label}@pinned"]["overlay"]
        assert reads > 0 and skipped >= reads, label
    reads, skipped = pinned["q2-overwritten@pinned"]["overlay"]
    assert skipped > reads
    assert pinned["q1-untouched@pinned"]["overlay"] == [0, 0]
    # the snapshot's answers are the pre-commit ones
    assert pinned["q7@pinned"]["rows"] != latest["q7@latest"]["rows"]
    assert len(pinned["point-deleted@pinned"]["rows"]) == 1
    assert latest["point-deleted@latest"]["rows"] == []
    assert pinned["point-inserted@pinned"]["rows"] == []
    assert len(latest["point-inserted@latest"]["rows"]) == 1
    # an overlay read costs no get: the deleted key's block never
    # reaches a node at E, the live read does
    assert pinned["point-deleted@pinned"]["totals"]["n_get"] == 0
    assert latest["point-deleted@latest"]["totals"]["n_get"] == 1


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w", encoding="utf-8") as out_file:
        out_file.write(render())
    print(f"wrote {GOLDEN_PATH}")
