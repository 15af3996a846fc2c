"""Plan-identity golden test: M1 verdicts and M2 plans, byte for byte.

``plan_golden.json`` beside this file was generated from the commit
*before* planning was made O(query) (schema facts derived once per BaaV
schema, one candidate table per query). The test re-plans every query
and compares the rendered record with the file, so a change to the cost
of planning cannot silently become a change of one plan. (ISSUE 20
regenerated it for three scan-extension records and one new shape; plan
text is all it pins — ``tests/properties/test_prop_planner.py`` checks
that plans run and are right.)

The same pass replays the file through plan reuse (ISSUE 24): every
statement with a parameter is bound from a template planned for *another
draw* of its shape and must render the golden record all the same.

Regenerate (only when a plan change is intended and reviewed)::

    PYTHONPATH=src python tests/core/test_plan_golden.py
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, Iterator, List, Sequence, Tuple

import pytest

from repro.baav import BaaVSchema, KVSchema
from repro.sql.lexer import literal_value, shape
from repro.sql.parser import parse
from repro.systems import ZidianSystem
from repro.workloads import airca, mot
from repro.workloads.generator import airca_generator, mot_generator
from repro.workloads.tpch import dbgen
from repro.workloads.tpch import queries as tpch_queries
from repro.workloads.traffic import airca_traffic_mix

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "plan_golden.json")
#: the two secondary indexes of the end-to-end benchmark
BENCH_INDEXES = ("FLIGHT.tail_id", "FLIGHT.arr_delay:ordered")
SEED = 1312


def _airca_queries(db) -> List[Tuple[str, str]]:
    out = [
        (f"{q.template}#{i}", q.sql)
        for i, q in enumerate(airca_generator(SEED).generate(db, per_template=2))
    ]
    rng = random.Random(SEED)
    for klass in airca_traffic_mix(db):
        out += [(f"{klass.name}#{i}", klass.make_sql(rng)) for i in range(3)]
    return out


def _mot_queries(db) -> List[Tuple[str, str]]:
    return [
        (f"{q.template}#{i}", q.sql)
        for i, q in enumerate(mot_generator(SEED).generate(db, per_template=2))
    ]


def _tpch_queries(db) -> List[Tuple[str, str]]:
    return [(q, tpch_queries.QUERIES[q]) for q in tpch_queries.query_names()]


def _shapes_baav() -> BaaVSchema:
    """A deliberately partial AIRCA BaaV schema: FLIGHT is split over
    instances that only the clo chain reunites, AIRPORT has no KV schema
    at all (TaaV fallback, ``answerable=False``)."""
    flight, delay = airca.FLIGHT, airca.DELAY
    return BaaVSchema(
        [
            KVSchema("carrier_by_id", airca.CARRIER, ["carrier_id"],
                     ["code", "name", "alliance"]),
            KVSchema("flight_core", flight, ["flight_id"],
                     ["carrier_id", "origin", "dest", "tail_id"]),
            KVSchema("flight_delays", flight, ["flight_id"],
                     ["dep_delay", "arr_delay", "distance"]),
            KVSchema("flight_by_tail", flight, ["tail_id"],
                     ["flight_id", "flight_date"]),
            KVSchema("delay_by_flight", delay, ["flight_id"],
                     ["delay_id", "cause", "minutes"]),
            KVSchema("cstat_by_carrier_month", airca.CSTAT,
                     ["carrier_id", "month"], ["stat_id", "flights", "revenue"]),
        ]
    )


#: hand-written queries over :func:`_shapes_baav`, one per plan shape the
#: generated sets do not reach
SHAPES: Dict[str, str] = {
    "stats": "select C.carrier_id, C.month, sum(C.flights) as f from CSTAT C "
    "group by C.carrier_id, C.month",
    "stats_having": "select C.carrier_id, C.month, max(C.revenue) as r "
    "from CSTAT C group by C.carrier_id, C.month having max(C.revenue) > 10",
    "taav": "select A.iata from AIRPORT A where A.airport_id = 3",
    "taav_join": "select F.flight_id, A.city from FLIGHT F, AIRPORT A "
    "where F.flight_id = 7 and F.origin = A.airport_id",
    "scan_extend": "select F.carrier_id, F.arr_delay from FLIGHT F "
    "where F.distance > 1500",
    "second_fetch": "select F.carrier_id, F.arr_delay, F.origin from FLIGHT F "
    "where F.flight_id = 11",
    "tail_then_both": "select F.flight_id, F.flight_date, F.dest, F.dep_delay "
    "from FLIGHT F where F.tail_id = 5",
    "tail_prunes_probe_key": "select F.flight_date, F.dest, F.dep_delay "
    "from FLIGHT F where F.tail_id = 5",
    "range": "select F.flight_id, F.arr_delay from FLIGHT F "
    "where F.arr_delay >= 50 and F.arr_delay < 55",
    "range_join": "select F.flight_id, C.name from FLIGHT F, CARRIER C "
    "where F.arr_delay > 100 and F.carrier_id = C.carrier_id",
    "in_list": "select F.flight_id, F.dest from FLIGHT F "
    "where F.flight_id in (3, 5, 8)",
    "two_constants": "select F.origin, D.cause from FLIGHT F, DELAY D "
    "where F.flight_id = 4 and D.flight_id = 9",
    "chain_join": "select C.name, D.minutes from FLIGHT F, CARRIER C, DELAY D "
    "where F.flight_id = 12 and F.carrier_id = C.carrier_id "
    "and D.flight_id = F.flight_id and D.minutes > 10",
    "self_join": "select F2.flight_id from FLIGHT F1, FLIGHT F2 "
    "where F1.flight_id = 6 and F1.tail_id = F2.tail_id",
    "copy": "select F.flight_id, D.flight_id, D.cause from FLIGHT F, DELAY D "
    "where F.flight_id = 2 and D.flight_id = F.flight_id",
    "existence": "select C.name from CARRIER C, FLIGHT F where C.carrier_id = 1",
    "unsatisfiable": "select F.dest from FLIGHT F "
    "where F.flight_id = 1 and F.flight_id = 2",
    "no_constant": "select F.flight_id, C.name from FLIGHT F, CARRIER C "
    "where F.carrier_id = C.carrier_id",
    "order_limit": "select F.flight_id, F.arr_delay from FLIGHT F "
    "where F.tail_id = 2 order by F.flight_id limit 3",
    "group_chain": "select D.cause, count(*) as n from DELAY D "
    "where D.flight_id = 10 group by D.cause",
    "mixed_chain_scan": "select F.dest, S.revenue from FLIGHT F, CSTAT S "
    "where F.flight_id = 3 and S.flights > 100",
}


Suite = Tuple[str, object, BaaVSchema, Sequence[str], List[Tuple[str, str]]]


def _suites() -> Iterator[Suite]:
    db = airca.generate_airca(scale=1.0, seed=31)
    queries = _airca_queries(db)
    yield "airca", db, airca.airca_baav_schema(), (), queries
    yield "airca+indexes", db, airca.airca_baav_schema(), BENCH_INDEXES, queries
    shapes = sorted(SHAPES.items())
    yield "shapes", db, _shapes_baav(), (), shapes
    yield "shapes+indexes", db, _shapes_baav(), BENCH_INDEXES, shapes
    db = mot.generate_mot(scale=0.5, seed=2010)
    yield "mot", db, mot.mot_baav_schema(), (), _mot_queries(db)
    db = dbgen.generate_tpch(0.001)
    yield "tpch", db, tpch_queries.tpch_baav_schema(), (), _tpch_queries(db)


def _record(system: ZidianSystem, sql: str, planned=None) -> Dict[str, object]:
    plan, decision = planned or system.middleware.plan(sql)
    return {
        "sql": " ".join(sql.split()),
        "root": plan.root.describe().splitlines(),
        "access": dict(sorted(plan.access.items())),
        "scan_free": plan.scan_free,
        "uses_stats": plan.uses_stats,
        "summary": decision.summary(),
        "witnesses": sorted(decision.scan_free.witnesses),
        "index_covered": sorted(decision.scan_free.index_covered),
    }


def _another_draw(sql: str) -> str:
    """``sql`` with every parameter moved by a map that keeps types and
    the order (ties included) among them — another statement of the same
    shape key; ``sql`` itself when it has no parameter."""
    skeleton, literals = shape(sql)
    params: List[int] = []
    parse(sql, params)
    for position in params:
        value = literal_value(literals[position])
        if isinstance(value, str):
            literals[position] = "'~" + literals[position][1:]
        else:
            literals[position] = repr(value + type(value)(1000))
    return "".join(piece + literal for piece, literal in zip(skeleton, literals + [""]))


def _replayed(system: ZidianSystem, sql: str) -> Dict[str, object]:
    """The record of ``sql`` bound from another draw's template."""
    other = _another_draw(sql)
    if other == sql:
        return {}
    counters = system.middleware.shape_stats
    system.middleware.clear_shapes()
    system.middleware.planned(other)
    hits = counters.total().hits
    planned = system.middleware.planned(sql)
    assert counters.total().hits == hits + 1, sql
    return _record(system, sql, planned)


def _render_all() -> Tuple[Dict[str, Dict[str, object]], ...]:
    fresh: Dict[str, Dict[str, object]] = {}
    replayed: Dict[str, Dict[str, object]] = {}
    for name, db, baav, indexes, queries in _suites():
        with ZidianSystem(workers=2, storage_nodes=2, indexes=indexes) as system:
            system.load(db, baav)
            fresh[name] = {label: _record(system, sql) for label, sql in queries}
            replayed[name] = {label: _replayed(system, sql) for label, sql in queries}
    return fresh, replayed


def render() -> str:
    """Every suite's records as the golden file's text."""
    return json.dumps(_render_all()[0], indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def both() -> Tuple[Dict[str, Dict[str, object]], ...]:
    return json.loads(json.dumps(_render_all()))


@pytest.fixture(scope="module")
def rendered(both) -> Dict[str, Dict[str, object]]:
    return both[0]


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, object]]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize(
    "suite", ["airca", "airca+indexes", "shapes", "shapes+indexes", "mot", "tpch"]
)
def test_plans_match_golden(suite, rendered, golden):
    assert sorted(rendered[suite]) == sorted(golden[suite])
    for label, record in golden[suite].items():
        assert rendered[suite][label] == record, f"{suite}/{label}"


def test_bound_plans_match_golden(both, golden):
    """A template planned for one draw of a shape, bound to the golden
    statement, is the golden plan — for every statement that has a
    parameter (nearly all of them)."""
    replayed = both[1]
    bound = 0
    for suite, records in golden.items():
        for label, record in records.items():
            if replayed[suite][label]:
                bound += 1
                assert replayed[suite][label] == record, f"{suite}/{label}"
    total = sum(len(records) for records in golden.values())
    assert bound > 0.85 * total, (bound, total)


def test_golden_file_is_byte_identical(rendered):
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        text = handle.read()
    assert json.dumps(rendered, indent=1, sort_keys=True) + "\n" == text


def test_golden_covers_every_access_mode(golden):
    """The golden set is only a proof if it exercises every plan shape."""
    modes = {
        mode
        for suite in golden.values()
        for record in suite.values()
        for mode in record["access"].values()
    }
    assert {"chain", "index", "scan_kv", "taav"} <= modes
    assert any(r["uses_stats"] for s in golden.values() for r in s.values())
    summaries = {r["summary"] for r in golden["shapes"].values()}
    assert any(s.startswith("answerable=False") for s in summaries)
    assert len(golden["airca"]) == 24 + 12
    assert golden["airca"] != golden["airca+indexes"]


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w", encoding="utf-8") as out_file:
        out_file.write(render())
    print(f"wrote {GOLDEN_PATH}")
