"""One engine per system, one executable per statement shape.

A system builds its engine once and keeps it until one of the engine's
inputs changes; every statement of a shape runs its template's
executable. This file pins what that must not change:

* **inputs** — between two statements of one shape, a membership change,
  an index created or dropped and a flip of ``vectorized`` each give the
  metrics a freshly built engine gives;
* **no per-query state** — two threads on one baseline system, each on
  its own access path, each see their own ``plan_summary``; two service
  workers and a writer on one executable get the serial run's answers
  and metrics;
* **the trace spans** — the benchmark's tracer still sees one
  ``parallel.execute`` span a statement and one ``kba.operators`` span
  a plan node, as the executable enters through the public callables.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter
from dataclasses import fields

import pytest

from benchmarks.e2e.trace import Tracer
from repro.kba import plan as kp
from repro.parallel.metrics import ExecutionMetrics
from repro.service import QueryService
from repro.systems import SQLOverNoSQL, ZidianSystem
from repro.workloads import airca

#: metrics fields left out of the totals: the wall time differs between
#: two runs of one statement, and the stages are compared by ``repr``
_RUN_FIELDS = ("wall_time_ms", "stages")
TAIL_INDEX = ("FLIGHT.tail_id",)


@pytest.fixture(scope="module")
def db():
    return airca.generate_airca(scale=0.1, seed=31)


def _shown(metrics: ExecutionMetrics):
    """A statement's metrics, but for its wall time: totals, and every
    stage by ``repr``."""
    totals = {
        f.name: getattr(metrics, f.name)
        for f in fields(ExecutionMetrics)
        if f.name not in _RUN_FIELDS
    }
    return totals, [repr(stage) for stage in metrics.stages]


def _as_a_fresh_engine_runs(system, sql):
    """``sql`` on the system's engine, then on one built for it alone
    (what every statement got before engines were kept): the metrics of
    the two runs, and the rows of the first. Returns the first run's
    result and the engine it ran on."""
    result = system.execute(sql)
    kept = system._built[1]
    system._built = None
    fresh = system.execute(sql)
    assert sorted(result.rows) == sorted(fresh.rows), sql
    assert _shown(result.metrics) == _shown(fresh.metrics), sql
    return result, kept


# -- the engine follows its inputs ------------------------------------------------


@pytest.mark.parametrize("kind", [ZidianSystem, SQLOverNoSQL])
def test_the_shared_engine_follows_its_inputs(db, kind):
    # no KV instance is keyed by dest: an index on it is the access path
    sql = "select F.flight_id, F.origin from FLIGHT F where F.dest = '{}'"
    dest = airca.FLIGHT.attribute_names.index("dest")
    dests = iter(row[dest] for row in db.relation("FLIGHT").rows)
    with kind(workers=2, storage_nodes=3, replication_factor=2) as system:
        if kind is ZidianSystem:
            system.load(db, airca.airca_baav_schema())
        else:
            system.load(db)

        def run():
            return _as_a_fresh_engine_runs(system, sql.format(next(dests)))[0]

        assert run().metrics.storage_nodes == 3
        system.cluster.fail_node(1)
        assert run().metrics.storage_nodes == 2  # priced over two nodes
        system.cluster.recover_node(1)
        assert run().metrics.storage_nodes == 3
        system.create_index("FLIGHT", "dest")
        assert run().metrics.index_probes > 0
        system.drop_index("FLIGHT", "dest")
        assert run().metrics.index_probes == 0
        for vectorized in (True, False):
            system.vectorized = vectorized
            # the metrics do not show the mode: the engine that ran does
            _, kept = _as_a_fresh_engine_runs(system, sql.format(next(dests)))
            assert kept.vectorized is vectorized


# -- no per-query state on the engine ---------------------------------------------


def test_two_threads_each_see_their_own_access_path(db):
    """A baseline system's threads share its engine: the access path one
    statement took is its own, not the last statement's."""
    tail = db.relation("FLIGHT").rows[0][airca.FLIGHT.attribute_names.index("tail_id")]
    probe = f"select F.dest from FLIGHT F where F.tail_id = {tail}"
    fetch_all = "select F.dest from FLIGHT F where F.origin = 'XYZ'"
    with SQLOverNoSQL(workers=2, storage_nodes=2, indexes=TAIL_INDEX) as system:
        system.load(db)
        expected = {sql: system.execute(sql).plan_summary for sql in (probe, fetch_all)}
        assert "index probe" in expected[probe]
        assert "fetch-all" in expected[fetch_all]
        seen: Counter = Counter()

        def client(sql):
            for _ in range(60):
                seen[sql, system.execute(sql).plan_summary] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(sql,)) for sql in expected]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert seen == {(sql, summary): 60 for sql, summary in expected.items()}


#: shapes over the first 20 flights and their DELAY rows; the writer
#: only touches DELAY rows of other flights, so every epoch's answer (and
#: the work it takes) is the serial run's
SHAPES = (
    "select F.dest, F.tail_id from FLIGHT F where F.flight_id = {0}",
    "select D.cause, D.minutes from FLIGHT F, DELAY D "
    "where F.flight_id = D.flight_id and F.flight_id = {0}",
    "select F.flight_id, F.dest from FLIGHT F where F.tail_id = {1}",
)


@pytest.mark.stress
def test_two_workers_and_a_writer_on_one_executable(db):
    flights = db.relation("FLIGHT").rows[:20]
    tail = airca.FLIGHT.attribute_names.index("tail_id")
    statements = [
        shape.format(row[0], row[tail]) for row in flights for shape in SHAPES
    ]
    delays = db.relation("DELAY")
    flight_of = delays.schema.attribute_names.index("flight_id")
    reader_flights = {row[0] for row in flights}
    others = [row for row in delays.rows if row[flight_of] not in reader_flights]
    with ZidianSystem(workers=2, storage_nodes=2, indexes=TAIL_INDEX) as system:
        system.load(db, airca.airca_baav_schema())
        system.enable_transactions()
        serial = {}
        for sql in statements:
            result = system.execute(sql)
            serial[sql] = (sorted(result.rows), _shown(result.metrics))
        epochs = []
        wrong = []

        def reader(session, mine):
            for _ in range(3):
                for sql in mine:
                    result = session.execute(sql)
                    epochs.append(result.metrics.snapshot_epoch)
                    rows, (totals, stages) = sorted(result.rows), _shown(result.metrics)
                    want_rows, (want_totals, want_stages) = serial[sql]
                    # the pin and the version GC its release ran are the
                    # snapshot's, not the statement's
                    for name in ("snapshot_epoch", "gc_reclaimed"):
                        totals[name] = want_totals[name]
                    if (rows, totals, stages) != (want_rows, want_totals, want_stages):
                        wrong.append(sql)

        def writer(session):
            for i, row in enumerate(others[:30]):
                moved = (10**6 + i, *row[1:])
                session.apply_updates("DELAY", inserts=[moved])
                session.apply_updates("DELAY", deletes=[moved])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            service = QueryService(system, max_workers=2, max_queued=8, mvcc=True)
            with service:
                threads = [
                    threading.Thread(
                        target=reader,
                        args=(service.open_session(f"r{i}"), statements[i::2]),
                    )
                    for i in range(2)
                ]
                threads.append(
                    threading.Thread(target=writer, args=(service.open_session("w"),))
                )
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                stats = service.stats()
        finally:
            sys.setswitchinterval(interval)
        assert wrong == [] and stats.failed == 0
        assert len(epochs) == 3 * len(statements)
        assert len(set(epochs)) > 1  # the statements were pinned at several epochs
        assert system.middleware.shape_stats.total().misses == len(SHAPES)


# -- the trace spans ------------------------------------------------------------------


def test_the_trace_sees_the_executable_through_its_public_entries(db):
    sql = (
        "select D.cause, D.minutes from FLIGHT F, DELAY D "
        "where F.flight_id = D.flight_id and F.flight_id = {}"
    )
    with ZidianSystem(workers=2, storage_nodes=2) as system:
        system.load(db, airca.airca_baav_schema())
        system.execute(sql.format(1))  # warm: the shape is planned and compiled
        plan, _ = system.middleware.plan(sql.format(2))
        assert plan.scan_free
        nodes = len(list(kp.walk(plan.root)))
        tracer = Tracer()
        with tracer.installed():
            system.execute(sql.format(2))
        names = Counter(span[0] for span in tracer.spans())
        assert names["systems.execute"] == 1
        assert names["parallel.execute"] == 1
        assert names["kba.operators"] == nodes >= 3
        assert names["core.plan"] == 0  # bound, not planned
