"""Planning costs what the query costs — count-based guards (no clocks).

* Schema facts (closures ``clo(R̃, R̃)``, per-relation KV schema lists)
  are derived when the middleware is built, never inside a statement.
* The candidate work of one query does not grow with KV schemas over
  relations the query does not mention.
* The ∝ chain is walked once: candidates are enumerated once per chosen
  step (plus the round that finds none), not again to emit the plan.
* The index catalog stays live; concurrent planners from a cold schema
  agree. (``BaaVSchema.add`` invalidation: ``test_closure.py`` and
  ``tests/baav/test_schema.py``.)
"""

from __future__ import annotations

import random
import sys
from importlib import import_module

import pytest

import repro.baav.schema as baav_schema
import repro.core.candidates as candidates
from repro.baav import KVSchema
from repro.core import Zidian
from repro.service import QueryService
from repro.systems import ZidianSystem
from repro.workloads import airca
from repro.workloads.generator import airca_generator
from repro.workloads.traffic import airca_traffic_mix


@pytest.fixture(scope="module")
def airca_db():
    return airca.generate_airca(scale=0.3, seed=31)


def _mixed_statements(db, count: int):
    """q1-q12 instances interleaved with the point/index/range/scan mix."""
    rng = random.Random(5)
    out = [q.sql for q in airca_generator(5).generate(db, per_template=2)]
    mix = airca_traffic_mix(db)
    while len(out) < count:
        out.append(mix[len(out) % len(mix)].make_sql(rng))
    return out[:count]


class _Calls:
    """Counts calls of a callable it wraps."""

    def __init__(self, wrapped) -> None:
        self.wrapped = wrapped
        self.count = 0

    def __call__(self, *args, **kwargs):
        self.count += 1
        return self.wrapped(*args, **kwargs)


def test_no_schema_work_per_statement(airca_db, monkeypatch):
    with ZidianSystem(
        workers=2,
        storage_nodes=2,
        indexes=["FLIGHT.tail_id", "FLIGHT.arr_delay:ordered"],
    ) as system:
        system.load(airca_db, airca.airca_baav_schema())
        closure_calls = _Calls(baav_schema.closure)
        rebuilds = _Calls(baav_schema._Derived)
        monkeypatch.setattr(baav_schema, "closure", closure_calls)
        # (the package re-exports the function under the module's name)
        monkeypatch.setattr(
            import_module("repro.core.closure"), "closure", closure_calls
        )
        monkeypatch.setattr(baav_schema, "_Derived", rebuilds)
        statements = _mixed_statements(airca_db, 50)
        assert len(statements) == 50
        for sql in statements:
            assert system.execute(sql).rows is not None
        assert closure_calls.count == 0
        assert rebuilds.count == 0
        # the counters are live: new schema, new facts
        system.middleware.baav_schema.add(
            KVSchema("cstat_by_month", airca.CSTAT, ["month"], ["stat_id"])
        )
        system.execute(statements[0])
        assert rebuilds.count == 1
        assert closure_calls.count == len(system.middleware.baav_schema)


def _padded_schema():
    """AIRCA's BaaV schema plus 40 KV schemas over CSTAT."""
    baav = airca.airca_baav_schema()
    for i in range(1, 41):
        baav.add(
            KVSchema(f"pad_{i:02d}", airca.CSTAT, [f"metric_{i:02d}"], ["stat_id"])
        )
    return baav


@pytest.mark.parametrize(
    "sql",
    [
        "select F.arr_delay, F.distance from FLIGHT F where F.flight_id = 7",
        "select C.name, D.minutes from FLIGHT F, CARRIER C, DELAY D "
        "where F.flight_id = 12 and F.carrier_id = C.carrier_id "
        "and D.flight_id = F.flight_id",
        "select F.flight_id from FLIGHT F where F.distance > 2000",
    ],
)
def test_candidate_work_ignores_unrelated_schemas(sql, monkeypatch):
    counts = []
    plans = []
    for baav in (airca.airca_baav_schema(), _padded_schema()):
        built = _Calls(candidates.Candidate)
        monkeypatch.setattr(candidates, "Candidate", built)
        plan, decision = Zidian(airca.airca_schema(), baav).plan(sql)
        monkeypatch.undo()
        counts.append(built.count)
        plans.append((plan.root.describe(), plan.access, decision.summary()))
    assert counts[0] == counts[1] > 0
    assert plans[0] == plans[1]


@pytest.mark.parametrize(
    "sql",
    [
        "select F.arr_delay, F.distance from FLIGHT F where F.flight_id = 7",
        "select F.flight_date, F.dest, F.dep_delay from FLIGHT F "
        "where F.tail_id = 5",
        "select C.name, D.minutes from FLIGHT F, CARRIER C, DELAY D "
        "where F.flight_id = 12 and F.carrier_id = C.carrier_id "
        "and D.flight_id = F.flight_id",
    ],
)
def test_one_candidate_pass_per_chosen_step(sql, monkeypatch):
    """Selecting the chain enumerates candidates once per step it takes
    and once more to find none left; emitting the plan replays the
    chosen steps without enumerating again."""
    import repro.core.plangen as plangen
    from repro.kba import Extend, walk

    passes = _Calls(plangen._ChainState._candidates)
    monkeypatch.setattr(
        plangen._ChainState,
        "_candidates",
        lambda self, *args: passes(self, *args),
    )
    plan, decision = Zidian(
        airca.airca_schema(), airca.airca_baav_schema()
    ).plan(sql)
    assert decision.is_scan_free and plan.scan_free
    steps = sum(isinstance(node, Extend) for node in walk(plan.root))
    assert steps >= 1
    assert passes.count == steps + 1


def test_index_catalog_stays_live_between_executions(airca_db):
    sql = "select F.flight_id, F.dest from FLIGHT F where F.dest = 3"
    with ZidianSystem(workers=2, storage_nodes=2) as system:
        system.load(airca_db, airca.airca_baav_schema())

        def run():
            access = system.middleware.plan(sql)[0].access
            return access, sorted(system.execute(sql).rows)

        access, rows = run()
        assert access == {"F": "scan_kv"}
        system.create_index("FLIGHT", "dest")
        indexed_access, indexed_rows = run()
        assert indexed_access == {"F": "index"}
        assert indexed_rows == rows
        assert system.drop_index("FLIGHT", "dest") == 1
        assert run() == (access, rows)


def test_concurrent_planners_from_a_cold_schema_agree(airca_db):
    """Two service workers race to derive the schema facts; both plan
    what a warm, single-threaded planner plans."""
    statements = _mixed_statements(airca_db, 24)
    with ZidianSystem(workers=2, storage_nodes=2) as system:
        system.load(airca_db, airca.airca_baav_schema())
        baav = system.middleware.baav_schema
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with QueryService(system, max_workers=2, max_queued=32) as service:
                for round_no in range(3):
                    # `add` drops the derived facts: the schema is cold
                    baav.add(
                        KVSchema(
                            f"cold_{round_no}",
                            airca.CSTAT,
                            [f"metric_{round_no + 1:02d}"],
                            ["stat_id"],
                        )
                    )
                    assert baav._derived is None
                    with service.open_session() as session:
                        tickets = [session.submit(sql) for sql in statements]
                        results = [t.result(timeout=60) for t in tickets]
                    for sql, result in zip(statements, results):
                        plan, decision = system.middleware.plan(sql)
                        assert result.decision.summary() == decision.summary()
                        assert sorted(result.decision.scan_free.witnesses) == sorted(
                            decision.scan_free.witnesses
                        )
                        assert sorted(result.rows) == sorted(system.execute(sql).rows)
                    assert f"cold_{round_no}" in baav.closures()
                assert service.stats().failed == 0
        finally:
            sys.setswitchinterval(interval)
