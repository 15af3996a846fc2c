"""What the query path promises the cyclic collector (ISSUE 22).

* A statement leaves it **nothing to find**: when the caller drops a
  `QueryResult`, the plan, the metrics and every result row die by
  reference count. (Two self-recursive local closures in the plan
  generator used to keep all of that alive until the next collection:
  27 unreachable objects a statement.)
* That holds whether the statement was planned or bound from a plan
  template (ISSUE 24), and a template keeps nothing of the statement it
  was planned for but the plan: no table, no rows, no candidate table.
* That is what lets a `QueryService` — and nothing else — size the
  collector's young generation for a query's rows while it is open, and
  it puts back what it found.
"""

from __future__ import annotations

import gc
import random
from collections import Counter

import pytest

from repro.errors import QueryDeadlineError, SQLSyntaxError
from repro.service import QueryService
from repro.service.service import GC_THRESHOLD0
from repro.systems import ZidianSystem
from repro.workloads import airca

INDEXES = ("FLIGHT.tail_id", "FLIGHT.arr_delay:ordered")
POINT = "select F.origin, F.dest from FLIGHT F where F.flight_id = 7"
PROBE = "select F.flight_id from FLIGHT F where F.tail_id = 3"


def _system() -> ZidianSystem:
    system = ZidianSystem(
        workers=2, storage_nodes=4, indexes=INDEXES, transport="local"
    )
    system.load(airca.generate_airca(scale=0.1, seed=31), airca.airca_baav_schema())
    return system


@pytest.fixture(scope="module")
def system():
    with _system() as loaded:
        yield loaded


def _statements(system: ZidianSystem):
    params = airca.sample_params(system.database, random.Random(7))
    analytic = [
        airca.TEMPLATES[name].format(**params).strip()
        for name in airca.NON_SCAN_FREE_TEMPLATES
    ]
    other = "select F.origin, F.dest from FLIGHT F where F.flight_id = 8"
    return [
        POINT,
        PROBE,
        *analytic,
        f"{POINT} union all {other}",
        f"{POINT} except all {other}",
    ]


def test_a_statement_leaves_nothing_for_the_collector(system):
    delay = system.database.relation("DELAY").rows[0]
    with QueryService(system, mvcc=True) as service:
        session = service.open_session("collector")
        statements = _statements(system)
        for sql in statements:  # first runs fill caches that outlive them
            session.execute(sql)
        counters = system.middleware.shape_stats
        planned = counters.total().misses
        enabled, flags = gc.isenabled(), gc.get_debug()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for sql in statements:  # each bound from its template
                session.execute(sql)
            assert counters.total().misses == planned
            system.middleware.clear_shapes()
            for sql in statements:  # each planned, its template stored
                session.execute(sql)
            session.apply_updates("DELAY", inserts=[(10**6, *delay[1:])])
            session.execute(statements[2])  # past the overlay's new version
            system.explain(statements[2])
            system.explain(statements[-1])
            for sql, deadline_ms, error in (
                ("select from", None, SQLSyntaxError),
                (POINT, -1.0, QueryDeadlineError),
            ):
                try:
                    session.execute(sql, deadline_ms=deadline_ms)
                except error:
                    pass
                else:
                    raise AssertionError(f"{sql!r} did not raise")
            found = gc.collect()
            kinds = Counter(type(each).__name__ for each in gc.garbage)
        finally:
            gc.garbage.clear()
            gc.set_debug(flags)
            if enabled:
                gc.enable()
        assert found == 0, kinds.most_common(8)


def _held_by(root) -> list:
    """Every ``repro`` object and builtin container reachable from
    ``root`` through instance attributes and container items."""
    seen, stack = {}, [root]
    while stack:
        each = stack.pop()
        module = type(each).__module__
        if id(each) in seen or not (
            module.startswith("repro.")
            or type(each) in (dict, list, tuple, set, frozenset)
            or isinstance(each, dict)
        ):
            continue
        seen[id(each)] = each
        stack.extend(gc.get_referents(each))
    return list(seen.values())


def test_a_template_keeps_the_plan_and_nothing_else(system):
    system.middleware.clear_shapes()
    for sql in _statements(system):
        assert system.execute(sql).rows is not None
    shapes = system.middleware._shapes
    assert len(shapes) >= 10
    held = Counter(type(each).__name__ for each in _held_by(shapes))
    assert held["ZidianPlan"] >= 10 and held["QueryDecision"] >= 10
    for kind in ("Table", "Relation", "BlockSet", "Block", "CandidateTable",
                 "Candidate", "Database", "QueryResult", "ExecutionMetrics"):
        assert held[kind] == 0, (kind, held[kind])
    # the whole map is small: this is what SHAPE_CACHE_SIZE multiplies
    assert sum(held.values()) / len(shapes) < 400


def test_the_service_sizes_the_young_generation_and_puts_it_back(system):
    found = gc.get_threshold()
    assert 0 < found[0] < GC_THRESHOLD0  # nothing else in the suite sets it
    for close_first in (0, 1):
        services = [QueryService(system), QueryService(system)]
        assert gc.get_threshold() == (GC_THRESHOLD0, *found[1:])
        services[close_first].close()
        services[close_first].close()  # a second close gives nothing back
        assert gc.get_threshold() == (GC_THRESHOLD0, *found[1:])
        services[1 - close_first].close()
        assert gc.get_threshold() == found
    # a threshold somebody already raised past ours is theirs to keep
    gc.set_threshold(10 * GC_THRESHOLD0, *found[1:])
    try:
        with QueryService(system):
            assert gc.get_threshold()[0] == 10 * GC_THRESHOLD0
        assert gc.get_threshold()[0] == 10 * GC_THRESHOLD0
    finally:
        gc.set_threshold(*found)


def test_a_bare_system_leaves_the_collector_alone():
    found = gc.get_threshold()
    with _system() as bare:
        assert gc.get_threshold() == found
        bare.execute(POINT)
        bare.apply_updates(
            "DELAY", inserts=[(10**6, *bare.database.relation("DELAY").rows[0][1:])]
        )
        assert gc.get_threshold() == found
    assert gc.get_threshold() == found
