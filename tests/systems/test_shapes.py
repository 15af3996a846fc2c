"""Statement shapes and plan reuse (ISSUE 24): a plan bound from a
stored template is the plan a fresh planning run returns.

``tests/properties/test_prop_planner.py`` (I5) and the golden replay of
``tests/core/test_plan_golden.py`` hold that over generated and pinned
statements; this file pins what they cannot reach by chance:

* **key completeness** — one case per thing planning reads from a
  statement besides its text: which parameters are equal, how they are
  ordered, their types; and per kind of literal that is *not* a
  parameter (it stays in the key, and names its own output column);
* **live M1** — the degree check of a bound statement reads the store
  as it is now;
* **bounded** — the map holds ``SHAPE_CACHE_SIZE`` entries at most;
* **errors** — a statement that fails, fails the same way every time;
* **two service threads** on one shape and on three: every answer
  right, no template changed.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core import middleware
from repro.errors import ReproError, SQLAnalysisError, SQLSyntaxError
from repro.relational import bag_equal
from repro.service import QueryService
from repro.sql import ast, execute as ra_execute, plan_sql
from repro.sql.lexer import shape
from repro.systems import ZidianSystem
from repro.workloads import airca
from tests.properties.test_prop_planner import shown

INDEXES = ("FLIGHT.tail_id", "FLIGHT.arr_delay:ordered")


@pytest.fixture(scope="module")
def db():
    return airca.generate_airca(scale=0.1, seed=31)


@pytest.fixture()
def system(db):
    with ZidianSystem(workers=2, storage_nodes=2, indexes=INDEXES) as loaded:
        loaded.load(db, airca.airca_baav_schema())
        yield loaded


def _counts(system):
    total = system.middleware.shape_stats.total()
    return total.hits, total.misses


#: statements the *planner* answers wrongly, at the parent commit too: a
#: term with two constants is not planned as the empty query (ROADMAP
#: 3(b)), and a float literal does not find an int key's bytes
NOT_THE_REFERENCE = ("F.flight_id = 1 and F.flight_id = 2", "F.tail_id = 5.0")


def _run(system, sql):
    """Execute ``sql``: what it was planned as is a fresh plan of its own
    text, and its answer that plan's — and the reference executor's."""
    fresh = system.middleware.plan(sql)
    assert shown(*system.middleware.planned(sql)) == shown(*fresh), sql
    result = system.execute(sql)
    assert sorted(result.rows) == sorted(system._execute_plan(*fresh).rows), sql
    if not sql.endswith(NOT_THE_REFERENCE):
        database = system.database
        reference = ra_execute(plan_sql(sql, database.schema)[0], database)
        assert bag_equal(reference, result.relation), sql
    return result


# -- key completeness -----------------------------------------------------------

FLIGHT = "select F.dest, F.tail_id from FLIGHT F where "

#: (first statement, second statement of the same text but for literals,
#: does the second reuse the first's template?)
KEY_CASES = {
    "a redraw shares": (FLIGHT + "F.flight_id = 7", FLIGHT + "F.flight_id = 9", True),
    "equal constants / different: satisfiable or not": (
        FLIGHT + "F.flight_id = 1 and F.flight_id = 1",
        FLIGHT + "F.flight_id = 1 and F.flight_id = 2",
        False,
    ),
    "two lower bounds, the tighter first / last": (
        FLIGHT + "F.arr_delay > 50 and F.arr_delay > 70",
        FLIGHT + "F.arr_delay > 70 and F.arr_delay > 50",
        False,
    ),
    "two lower bounds, same order": (
        FLIGHT + "F.arr_delay > 50 and F.arr_delay > 70",
        FLIGHT + "F.arr_delay > 40 and F.arr_delay > 60",
        True,
    ),
    "a strict and a plain bound, tied / apart": (
        FLIGHT + "F.arr_delay >= 60 and F.arr_delay > 60",
        FLIGHT + "F.arr_delay >= 70 and F.arr_delay > 60",
        False,
    ),
    "between, upward / downward": (
        FLIGHT + "F.arr_delay between 50 and 55",
        FLIGHT + "F.arr_delay between 55 and 50",
        False,
    ),
    "int / float": (FLIGHT + "F.tail_id = 5", FLIGHT + "F.tail_id = 5.0", False),
    "int / string": (FLIGHT + "F.tail_id = 5", FLIGHT + "F.tail_id = '5'", False),
    "self-join, constants equal / different: min(Q) folds or not": (
        "select F2.dest from FLIGHT F1, FLIGHT F2 "
        "where F1.flight_id = 6 and F2.flight_id = 6",
        "select F2.dest from FLIGHT F1, FLIGHT F2 "
        "where F1.flight_id = 6 and F2.flight_id = 8",
        False,
    ),
    "IN list": (
        FLIGHT + "F.flight_id in (3, 5, 8)",
        FLIGHT + "F.flight_id in (4, 6, 9)",
        True,
    ),
    "IN list with a repeat": (
        FLIGHT + "F.flight_id in (3, 5, 8)",
        FLIGHT + "F.flight_id in (4, 4, 9)",
        False,
    ),
    "a negative IN member is not a parameter": (
        FLIGHT + "F.tail_id in (3, -5)",
        FLIGHT + "F.tail_id in (3, -6)",
        False,
    ),
    "LIKE": (
        FLIGHT + "F.flight_id = 3 and F.flight_date like '2001%'",
        FLIGHT + "F.flight_id = 4 and F.flight_date like '%-01-%'",
        True,
    ),
    "arithmetic inside a condition": (
        FLIGHT + "F.flight_id = 3 and F.arr_delay + 5 > -20",
        FLIGHT + "F.flight_id = 4 and F.arr_delay + 6 > -30",
        True,
    ),
    "a condition of JOIN ... ON": (
        "select D.cause from FLIGHT F join DELAY D "
        "on F.flight_id = D.flight_id and F.flight_id = 11",
        "select D.cause from FLIGHT F join DELAY D "
        "on F.flight_id = D.flight_id and F.flight_id = 12",
        True,
    ),
    "NULL is text, not a parameter": (
        FLIGHT + "F.tail_id = 5",
        FLIGHT + "F.tail_id = NULL",
        False,
    ),
    "TRUE / FALSE are text": (
        FLIGHT + "F.flight_id = 3 and F.cancelled = TRUE",
        FLIGHT + "F.flight_id = 3 and F.cancelled = FALSE",
        False,
    ),
    "LIMIT": (
        FLIGHT + "F.tail_id = 5 order by F.dest limit 5",
        FLIGHT + "F.tail_id = 5 order by F.dest limit 6",
        False,
    ),
    "select-list arithmetic names its column": (
        "select F.dep_delay + 10 from FLIGHT F where F.flight_id = 3",
        "select F.dep_delay + 20 from FLIGHT F where F.flight_id = 3",
        False,
    ),
    "HAVING": (
        "select D.cause, count(*) as n from DELAY D where D.minutes > 30 "
        "group by D.cause having count(*) > 1",
        "select D.cause, count(*) as n from DELAY D where D.minutes > 30 "
        "group by D.cause having count(*) > 2",
        False,
    ),
    "ORDER BY": (
        "select F.flight_id from FLIGHT F where F.tail_id = 5 "
        "order by F.dep_delay + 1",
        "select F.flight_id from FLIGHT F where F.tail_id = 5 "
        "order by F.dep_delay * -1",
        False,
    ),
}


@pytest.mark.parametrize("case", sorted(KEY_CASES))
def test_key_holds_what_planning_reads(system, case):
    first, second, shares = KEY_CASES[case]
    one = _run(system, first)
    assert _counts(system) == (1, 1)  # planned by `planned`, bound by `execute`
    two = _run(system, second)
    assert _counts(system) == ((3, 1) if shares else (2, 2)), case
    assert one.relation.schema.attribute_names != () and two.rows is not None
    if "names its column" in case:
        assert one.relation.schema.attribute_names == ("(F.dep_delay + 10)",)
        assert two.relation.schema.attribute_names == ("(F.dep_delay + 20)",)
    # and back again: the first statement's template is as it was
    _run(system, first)


def test_unsatisfiable_flag_follows_the_statement(system):
    """The one flag of the SPC analysis that *is* a comparison among
    literals — and the decision a system returns is its own."""
    same, different = KEY_CASES["equal constants / different: satisfiable or not"][:2]
    assert not system.execute(same).decision.analysis.unsatisfiable
    assert system.execute(different).decision.analysis.unsatisfiable
    assert not system.execute(same).decision.analysis.unsatisfiable


def test_a_decision_shows_its_own_statement(system):
    for fid in (7, 9):
        decision = system.execute(FLIGHT + f"F.flight_id = {fid}").decision
        assert str(decision.bound.stmt).endswith(f"F.flight_id = {fid}")
        assert f"={fid}" in decision.analysis.describe()
        assert f"={fid}" in decision.minimized.describe()
        assert decision.candidates is None
        # plain values: nothing a caller holds remembers a slot
        constants = [t.constant for t in decision.analysis.terms if t.has_constant]
        assert [type(c) for c in constants] == [int]


def test_compound_statements_bind_each_side(system):
    sql = (
        FLIGHT + "F.flight_id = {} union all " + FLIGHT + "F.tail_id = {} "
        "except all " + FLIGHT + "F.flight_id = {}"
    )
    for i, values in enumerate([(7, 3, 7), (9, 4, 8), (9, 5, 9)]):
        result = system.execute(sql.format(*values))
        reference = ra_execute(
            plan_sql(sql.format(*values), system.database.schema)[0], system.database
        )
        assert bag_equal(reference, result.relation)
        assert result.decision is None and len(result.sub_decisions) == 3
        shown_ = [str(d.bound.stmt).rsplit(" = ", 1)[1] for d in result.sub_decisions]
        assert shown_ == [str(v) for v in values]
    # (7,3,7) and (9,5,9) tie the outer constants; (9,4,8) does not
    assert _counts(system) == (1, 2)


def test_a_comment_is_planned_as_it_stands(system):
    sql = FLIGHT + "F.flight_id = 7 -- the 7th"
    for _ in range(2):
        assert _run(system, sql).rows == system.execute(FLIGHT + "F.flight_id = 7").rows
    hits, misses = _counts(system)
    assert misses >= 4 and len(system.middleware._shapes) == 2  # the plain one's


# -- live M1 --------------------------------------------------------------------


def test_degree_check_is_live(db):
    sql = "select D.cause from DELAY D where D.flight_id = {}"
    with ZidianSystem(workers=2, storage_nodes=2, degree_bound=4) as system:
        system.load(db, airca.airca_baav_schema())
        template = db.relation("DELAY").rows[0]
        fid = template[1]
        before = system.execute(sql.format(fid)).decision
        assert before.is_bounded and before.bounded.degrees["delay_by_flight"] <= 4
        grown = [(10**6 + i, fid, *template[2:]) for i in range(5)]
        system.apply_updates("DELAY", inserts=grown)
        try:
            after = system.execute(sql.format(fid + 1)).decision  # bound, not planned
            assert _counts(system) == (1, 1)
            assert not after.is_bounded and after.is_scan_free
            assert after.bounded.degrees["delay_by_flight"] > 4
            fresh = system.middleware.decide(sql.format(fid + 1))
            assert after.summary() == fresh.summary()
            assert before.is_bounded  # a decision handed out does not change
        finally:
            system.apply_updates("DELAY", deletes=grown)
        # a delete leaves the recorded degree where it was until asked
        system.store.instance("delay_by_flight").recompute_degree()
        assert system.execute(sql.format(fid)).decision.is_bounded


# -- bounded ---------------------------------------------------------------------


def test_the_map_is_bounded(system, monkeypatch):
    monkeypatch.setattr(middleware, "SHAPE_CACHE_SIZE", 6)
    shapes = system.middleware._shapes
    attrs = airca.FLIGHT.attribute_names[:7]
    peak = 0
    for i, attr in enumerate(attrs):  # seven shapes, two entries each
        system.execute(f"select F.{attr} from FLIGHT F where F.flight_id = {i + 1}")
        peak = max(peak, len(shapes))
    assert peak == len(shapes) == 6
    assert system.middleware.shape_stats.total().evictions == 2 * 7 - 6
    # the last three shapes are still there, the first is not
    system.execute(f"select F.{attrs[-1]} from FLIGHT F where F.flight_id = 40")
    assert _counts(system) == (1, 7)
    system.execute(f"select F.{attrs[0]} from FLIGHT F where F.flight_id = 40")
    assert _counts(system) == (1, 8)
    assert len(shapes) == 6


def test_the_default_size_holds_the_benchmark_workloads():
    # scanfree_local plans 10 shapes, the other three 4 to 6
    assert middleware.SHAPE_CACHE_SIZE >= 8 * 2 * 10


# -- errors ----------------------------------------------------------------------

ERRORS = [
    # lexing
    ("select F.dest from FLIGHT F where F.flight_date = 'oops", SQLSyntaxError),
    ("select F.dest from FLIGHT F where F.flight_id = 7 @", SQLSyntaxError),
    ("select F.dest, 1e5 from FLIGHT F where F.flight_id = 7", SQLSyntaxError),
    # parsing
    ("select F.dest from FLIGHT F where F.flight_id = 7 limit 1.5", SQLSyntaxError),
    ("select F.dest from FLIGHT F where F.flight_id = 7 extra junk ;", SQLSyntaxError),
    ("select F.dest from FLIGHT F where F.flight_id = 7 'def'", SQLSyntaxError),
    ("select F.dest from FLIGHT F where F.flight_id in (7, -'a')", SQLSyntaxError),
    (
        "select F.dest from FLIGHT F where F.flight_id = 7 "
        "union select F.dest from FLIGHT F where F.flight_id = 8",
        SQLSyntaxError,
    ),
    # binding
    (
        "select flight_id from FLIGHT F1, FLIGHT F2 where F1.tail_id = 7",
        SQLAnalysisError,
    ),
    ("select F.nope from FLIGHT F where F.flight_id = 7", SQLAnalysisError),
    ("select Z.dest from FLIGHT F where F.flight_id = 7", SQLAnalysisError),
    ("select F.dest from FLIGHT F, DELAY F where F.flight_id = 7", SQLAnalysisError),
    ("select F.dest from NOPE F where F.flight_id = 7", ReproError),
    # planning
    (
        "select F.dest, sum(F.distance) from FLIGHT F where F.tail_id = 7 "
        "group by F.origin",
        SQLAnalysisError,
    ),
    (
        "select F.dest from FLIGHT F where F.arr_delay > 5 and F.arr_delay > 'a'",
        TypeError,
    ),
    # execution: the statement plans, and is bound the second time
    ("select F.dest from FLIGHT F where F.arr_delay > 'x'", TypeError),
    (
        "select F.dest from FLIGHT F where F.flight_id = 3 and F.flight_date < 5",
        TypeError,
    ),
    (
        "select F.dest from FLIGHT F where F.flight_id = 7 "
        "union all select F.dest, F.origin from FLIGHT F where F.flight_id = 8",
        ReproError,
    ),
]


@pytest.mark.parametrize("sql, error", ERRORS)
def test_an_error_is_the_same_every_time(system, sql, error):
    """...and names *this* statement's literal and position: nothing of
    a failed statement is kept, and a bound one fails as a planned one."""
    seen = []
    for sql_now in (sql, sql, sql.replace("7", "6"), sql):
        with pytest.raises(error) as caught:
            system.execute(sql_now)
        seen.append((sql_now, type(caught.value), str(caught.value)))
    assert seen[0] == seen[1] == seen[3]
    assert seen[2][1] is seen[0][1]
    if " union " not in sql:  # the uncached planner (of one SELECT) agrees
        try:
            system.middleware.plan(sql)
        except Exception as planning:
            assert (type(planning), str(planning)) == seen[0][1:]
    # a statement of the same shape that is right still runs
    assert system.execute(FLIGHT + "F.flight_id = 7").rows


def test_a_syntax_error_names_its_own_position(system):
    for pad in ("", "   "):
        sql = f"select F.dest from FLIGHT F where {pad}F.flight_id = 7 'def'"
        with pytest.raises(SQLSyntaxError) as caught:
            system.execute(sql)
        assert caught.value.position == sql.index("'def'")


# -- two service threads ------------------------------------------------------------


def _frozen(system):
    """Everything the map holds, rendered — to show nothing changed it."""
    out = {}
    for key, value in list(system.middleware._shapes.items()):
        if isinstance(key[0], str):  # a shape: its parameter positions
            out[key] = value
        else:
            plan, decision = value
            likes = [
                node._regex
                for top in ast.conjuncts(plan.bound.stmt.where)
                for node in ast.walk(top)
                if isinstance(node, ast.Like)
            ]
            out[key] = (shown(plan, decision), likes)
    return out


@pytest.mark.stress
@pytest.mark.parametrize("n_shapes", [1, 3])
def test_two_threads_on_shared_shapes(db, n_shapes):
    templates = [
        FLIGHT + "F.flight_id = {0} and F.flight_date like '{1}%'",
        "select D.cause, D.minutes from FLIGHT F, DELAY D "
        "where F.flight_id = D.flight_id and F.flight_id = {0}",
        "select F.flight_id from FLIGHT F "
        "where F.arr_delay >= {0} and F.arr_delay < {0}.5",
    ][:n_shapes]
    statements = [
        template.format(fid, "2001" if fid % 2 else "200")
        for fid in range(1, 41)
        for template in templates
    ]
    expected = {
        sql: sorted(ra_execute(plan_sql(sql, db.schema)[0], db).rows)
        for sql in statements
    }
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ZidianSystem(workers=2, storage_nodes=2, indexes=INDEXES) as system:
            system.load(db, airca.airca_baav_schema())
            for template in templates:  # plan each shape, single-threaded
                system.execute(template.format(1, "2001"))
            frozen = _frozen(system)
            assert len(frozen) == 2 * n_shapes
            wrong = []

            def client(session, mine):
                for _ in range(3):
                    for sql in mine:
                        rows = sorted(session.execute(sql).rows)
                        if rows != expected[sql]:
                            wrong.append(sql)

            with QueryService(system, max_workers=2, max_queued=8) as service:
                threads = [
                    threading.Thread(
                        target=client,
                        args=(service.open_session(f"c{i}"), statements[i::2]),
                    )
                    for i in range(2)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                stats = service.stats()
            assert wrong == [] and stats.failed == 0
            assert stats.shapes.misses == n_shapes  # the warm-up's
            assert stats.shapes.hits == stats.completed
            assert "shapes=" in str(stats)
            # bind built fresh nodes: no template gained a memoised regex,
            # a literal or anything else
            assert _frozen(system) == frozen
    finally:
        sys.setswitchinterval(interval)


def test_shape_of_a_statement_is_its_text_without_literals():
    assert shape(FLIGHT + "F.flight_id = 7")[0] == shape(FLIGHT + "F.flight_id = 19")[0]
    assert shape(FLIGHT + "F.flight_id = 7")[0] != shape(FLIGHT + "F.tail_id = 7")[0]
