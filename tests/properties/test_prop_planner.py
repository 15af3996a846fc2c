"""Differential sweep of the plan generator: what M2 plans must run, be
right, and claim no more than M1 allows.

Plan *text* is pinned by ``tests/core/test_plan_golden.py``; this file
pins what a user of the M1/M2 split relies on. Seeded random BaaV
schemas — KV schemas over the first seven attributes of four AIRCA
relations, or the output of T2B for six random queries — each answer 15
random one- and two-alias equality queries over a small AIRCA instance,
with and without the TaaV fallback. For every query × schema:

* **I1** a statement ``Zidian.plan`` returns a plan for executes;
* **I2** its answer bag-equals the reference executor's;
* **I3** M2 never claims more than M1: ``plan.scan_free`` implies
  ``decision.is_scan_free``, and a plan that avoids TaaV implies
  ``decision.answerable``;
* **I4** planning raises only without the TaaV fallback;
* **I5** a plan bound from a stored template is a fresh plan: the query
  with its constants redrawn from other rows, taken through
  ``Zidian.planned`` after the query itself, has the ``describe()``,
  ``access``, ``scan_free``, ``uses_stats``, verdict and literals (in
  the statement, both analyses and the degree report) of a fresh
  ``Zidian.plan`` of its own text, and its answer bag-equals the
  reference executor's. Nine in ten redraws are bound, not planned (a
  redraw that orders two constants differently is another shape).

The converse of I3 does not hold yet; the two known gaps are counted by
the sweep and pinned below as strict ``xfail`` examples, so the fix
flips them:

* **G1** M1 scan-free but M2 scans;
* **G2** M1 answerable but M2 cannot plan without TaaV.

Run the large sweep (150 schemas × 25 queries) and print the counts::

    PYTHONPATH=src python tests/properties/test_prop_planner.py
"""

from __future__ import annotations

import random
import re
import sys
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import pytest

from repro.baav import BaaVSchema, KVSchema
from repro.core import design_schema, extract_workload_qcs
from repro.errors import NotPreservedError, PlanError, ReproError
from repro.relational import Database, bag_equal
from repro.sql import bind, execute as ra_execute, parse, plan_sql
from repro.systems import ZidianSystem
from repro.workloads import airca

RELATIONS = (airca.FLIGHT, airca.DELAY, airca.CARRIER, airca.ROUTE)
N_ATTRS = 7
SOURCES = ("random", "t2b")


def _attrs(relation) -> Tuple[str, ...]:
    return tuple(relation.attribute_names[:N_ATTRS])


def _literal(value: object) -> str:
    return f"'{value}'" if isinstance(value, str) else repr(value)


def _early(rng: random.Random, attrs: Sequence[str]) -> str:
    """An attribute, the earlier ones likelier: query constants and KV
    keys both draw from here, so that a fair share of the queries has a
    constant on some instance's key."""
    return attrs[min(rng.randrange(len(attrs)), rng.randrange(len(attrs)))]


def _constant(
    rng: random.Random, alias: str, relation, attrs, row
) -> Tuple[str, str]:
    """An attribute and the condition binding it to its value in ``row``."""
    x = _early(rng, attrs)
    return x, f"{alias}.{x} = {_literal(row[relation.index_of(x)])}"


def random_query(rng: random.Random, db: Database) -> str:
    """One or two constants on ``A`` (values of the data); half the time
    a second alias joined on one equality of two same-typed attributes,
    with a constant of its own a third of the time. No term gets two
    constants: an unsatisfiable query is not planned as one yet (ROADMAP)."""
    relation = rng.choice(RELATIONS)
    attrs = _attrs(relation)
    rows = db.relation(relation.name).rows
    row = rng.choice(rows)
    x, first = _constant(rng, "A", relation, attrs, row)
    where = [first]
    if rng.random() < 0.3:
        # of the same tuple or of another: a plan that never reads the
        # attribute is only caught by a constant that does not match
        other_row = rng.choice([row, rng.choice(rows)])
        x2, second = _constant(rng, "A", relation, attrs, other_row)
        if x2 != x:
            where.append(second)
    if rng.random() < 0.5:
        out = [f"A.{a}" for a in rng.sample(attrs, rng.randint(1, 3))]
        return (
            f"select {', '.join(out)} from {relation.name} A "
            f"where {' and '.join(where)}"
        )
    other = rng.choice(RELATIONS)
    y, z = rng.choice(
        [
            (y, z)
            for y in attrs
            for z in _attrs(other)
            if relation.type_of(y) == other.type_of(z)
        ]
    )
    where.append(f"A.{y} = B.{z}")
    if rng.random() < 0.3:
        free = [a for a in _attrs(other) if a != z]
        row = rng.choice(db.relation(other.name).rows)
        where.append(_constant(rng, "B", other, free, row)[1])
    return (
        f"select A.{rng.choice(attrs)}, B.{rng.choice(_attrs(other))} "
        f"from {relation.name} A, {other.name} B "
        f"where {' and '.join(where)}"
    )


_FROM = re.compile(r"(\w+) ([AB])(?=,| where)")
#: ``A.x = <literal>`` — not the join ``A.y = B.z``
_CONSTANT = re.compile(r"([AB])\.(\w+) = (?!B\.)('[^']*'|\S+)")


def redrawn(rng: random.Random, db: Database, sql: str) -> str:
    """``sql`` with each alias's constants taken from another of its rows."""
    rows = {}
    for name, alias in _FROM.findall(sql):
        relation = db.relation(name)
        rows[alias] = relation.schema, rng.choice(relation.rows)

    def constant(match: "re.Match[str]") -> str:
        alias, attr, _ = match.groups()
        schema, row = rows[alias]
        return f"{alias}.{attr} = {_literal(row[schema.index_of(attr)])}"

    return _CONSTANT.sub(constant, sql)


def random_baav(rng: random.Random) -> BaaVSchema:
    """1–3 KV schemas per relation over its first seven attributes: one
    key attribute (two, a quarter of the time) and 1–5 value attributes."""
    schemas = []
    for relation in RELATIONS:
        attrs = _attrs(relation)
        for i in range(rng.randint(1, 3)):
            key = {_early(rng, attrs) for _ in range(1 + (rng.random() < 0.25))}
            rest = [a for a in attrs if a not in key]
            schemas.append(
                KVSchema(
                    f"{relation.name.lower()}_{i}",
                    relation,
                    sorted(key),
                    rng.sample(rest, rng.randint(1, len(rest))),
                )
            )
    return BaaVSchema(schemas)


def t2b_baav(rng: random.Random, db: Database) -> BaaVSchema:
    """The paper's own M4 output for six random queries."""
    workload = [
        bind(parse(random_query(rng, db)), db.schema) for _ in range(6)
    ]
    return design_schema(db.schema, extract_workload_qcs(workload), db)[0]


@dataclass
class Counts:
    combinations: int = 0
    scan_free: int = 0  # statements M1 calls scan-free
    g1: int = 0
    g2: int = 0
    #: redraws checked for I5, and how many of them were bound
    redraws: int = 0
    bound: int = 0
    #: (invariant, schema, sql, what happened)
    violations: List[Tuple[str, str, str, str]] = field(default_factory=list)

    def of(self, invariant: str) -> int:
        return sum(1 for v in self.violations if v[0] == invariant)


def shown(plan, decision) -> Tuple[object, ...]:
    """What I5 compares: the plan, the verdict and every literal."""
    return (
        plan.describe(),
        plan.access,
        plan.scan_free,
        plan.uses_stats,
        decision.summary(),
        decision.bounded,
        str(decision.bound.stmt),
        str(plan.bound.stmt),
        decision.analysis.describe(),
        decision.minimized.describe(),
        {a: c.describe() for a, c in decision.scan_free.index_covered.items()},
    )


def check(
    system: ZidianSystem,
    db: Database,
    sql: str,
    counts: Counts,
    redraw: random.Random,
) -> None:
    """One query × schema: update ``counts`` with what it shows."""
    counts.combinations += 1

    def violated(invariant: str, what: str) -> None:
        schema = repr(list(system.middleware.baav_schema))
        counts.violations.append((invariant, schema, sql, what))

    try:
        plan, decision = system.middleware.plan(sql)
    except (PlanError, NotPreservedError) as error:
        if system.keep_taav:
            violated("I4", repr(error))
        elif system.middleware.decide(sql).answerable:
            counts.g2 += 1
        return
    counts.scan_free += decision.is_scan_free
    if decision.is_scan_free and not plan.scan_free:
        counts.g1 += 1
    if plan.scan_free and not decision.is_scan_free:
        violated("I3", f"scan-free plan, M1 says not: {plan.access}")
    if "taav" not in plan.access.values() and not decision.answerable:
        violated("I3", f"plan avoids TaaV, M1 says not answerable: {plan.access}")
    try:
        result = system.execute(sql)
    except ReproError as error:
        violated("I1", repr(error))
        return
    reference = ra_execute(plan_sql(sql, db.schema)[0], db)
    if not bag_equal(reference, result.relation):
        violated("I2", f"{len(result.rows)} rows, reference {len(reference.rows)}")
    # I5: `sql` is planned by now; its redraw is bound from that template
    sql = redrawn(redraw, db, sql)
    counts.redraws += 1
    hits = system.middleware.shape_stats.total().hits
    bound = shown(*system.middleware.planned(sql))
    counts.bound += system.middleware.shape_stats.total().hits - hits
    fresh = shown(*system.middleware.plan(sql))
    if bound != fresh:
        differing = [i for i, (b, f) in enumerate(zip(bound, fresh)) if b != f]
        violated("I5", f"{sql}: items {differing} of {bound} != {fresh}")
    reference = ra_execute(plan_sql(sql, db.schema)[0], db)
    if not bag_equal(reference, system.execute(sql).relation):
        violated("I5", f"{sql}: answer differs from the reference's")


def sweep(
    source: str, keep_taav: bool, n_schemas: int, n_queries: int, seed: int
) -> Counts:
    rng = random.Random(seed)
    redraw = random.Random(seed + 24)  # apart: `rng`'s stream is unchanged
    db = airca.generate_airca(scale=0.1, seed=31)
    counts = Counts()
    for _ in range(n_schemas):
        baav = random_baav(rng) if source == "random" else t2b_baav(rng, db)
        with ZidianSystem(workers=2, storage_nodes=2, keep_taav=keep_taav) as system:
            system.load(db, baav)
            for _ in range(n_queries):
                check(system, db, random_query(rng, db), counts, redraw)
    return counts


@pytest.mark.parametrize("keep_taav", [True, False])
@pytest.mark.parametrize("source", SOURCES)
def test_plans_execute_agree_and_claim_no_more_than_m1(source, keep_taav):
    counts = sweep(source, keep_taav, n_schemas=25, n_queries=15, seed=1)
    assert counts.combinations == 25 * 15
    assert counts.scan_free > 0
    assert counts.violations == []
    assert counts.bound > 0.9 * counts.redraws > 0


# -- the known completeness gaps, pinned ---------------------------------------


def _plan(baav: BaaVSchema, sql: str, keep_taav: bool = True):
    db = airca.generate_airca(scale=0.1, seed=31)
    with ZidianSystem(workers=2, storage_nodes=2, keep_taav=keep_taav) as system:
        system.load(db, baav)
        return system.middleware.plan(sql)


@pytest.mark.xfail(
    strict=True,
    reason="G1: the rank's last tie-break is the schema name, so the "
    "greedy walk fetches delay_b first and then skips delay_a — the only "
    "supplier of the probe key `minutes` — because a secondary fetch that "
    "gains nothing needed is not admitted; swap the two names and the "
    "query is a chain. A usefulness closure moved TPC-H golden plans.",
)
def test_g1_m1_scan_free_implies_m2_scan_free():
    delay = airca.DELAY
    baav = BaaVSchema(
        [
            KVSchema("delay_a", delay, ["delay_id"], ["minutes", "cause"]),
            KVSchema("delay_b", delay, ["delay_id"], ["metric_02", "cause"]),
            KVSchema(
                "delay_by_minutes",
                delay,
                ["minutes"],
                ["metric_01", "severity", "metric_02", "cause", "flight_id",
                 "delay_id"],
            ),
        ]
    )
    plan, decision = _plan(
        baav, "select A.severity from DELAY A where A.delay_id = 20"
    )
    assert decision.is_scan_free
    assert plan.scan_free, plan.access


@pytest.mark.xfail(
    strict=True,
    raises=NotPreservedError,
    reason="G2: the answer needs a scan of one instance joined to a scan "
    "of the other on the primary key route_id; M2 has no such step, so "
    "without TaaV an answerable query is refused.",
)
def test_g2_answerable_implies_plannable_without_taav():
    route = airca.ROUTE
    baav = BaaVSchema(
        [
            KVSchema("route_a", route, ["origin", "carrier_id"],
                     ["distance", "route_id", "frequency"]),
            KVSchema("route_b", route, ["dest"],
                     ["frequency", "metric_01", "route_id", "carrier_id"]),
        ]
    )
    sql = "select A.frequency, A.origin from ROUTE A where A.dest = 12"
    assert _plan(baav, sql)[1].answerable
    _plan(baav, sql, keep_taav=False)


def main(n_schemas: int = 150, n_queries: int = 25) -> int:
    failed = 0
    for seed in (1, 2):
        for source in SOURCES:
            for keep_taav in (True, False):
                counts = sweep(source, keep_taav, n_schemas, n_queries, seed)
                print(
                    f"seed={seed} source={source} keep_taav={keep_taav}: "
                    f"{counts.combinations} combinations, "
                    f"{counts.scan_free} scan-free per M1; violations "
                    + " ".join(
                        f"{i}={counts.of(i)}"
                        for i in ("I1", "I2", "I3", "I4", "I5")
                    )
                    + f" (I5 over {counts.redraws} redraws, {counts.bound} "
                    f"bound); gaps G1={counts.g1} G2={counts.g2}"
                )
                for violation in counts.violations[:5]:
                    print(*violation, sep="\n    ")
                failed += len(counts.violations)
    print("violations:", failed)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
