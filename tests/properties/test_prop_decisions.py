"""Property tests for Zidian's decision procedures.

Soundness properties:

* minimization never changes query answers (folded copies are redundant);
* T2B always supports the QCS it was given;
* over one hand-written schema and four query shapes, scan-free
  decisions come with scan-free plans (Theorem 6(2)) and
  result-preserving decisions with correct answers (Theorem 6(1)).

"M1 says scan-free (answerable), so M2 plans scan-free (without TaaV)"
does not hold for *every* schema yet: ``test_prop_planner.py`` sweeps
random and T2B-designed schemas, holds M2 to "never more than M1 says,
always executable, always right", and pins the two known gaps.
"""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baav import BaaVSchema, KVSchema
from repro.core import (
    QCS,
    Zidian,
    design_schema,
    extract_workload_qcs,
)
from repro.kba import is_scan_free as plan_is_scan_free
from repro.relational import AttrType, Database, DatabaseSchema, RelationSchema
from repro.sql import analyze, bind, minimize, parse

R = RelationSchema.of(
    "R",
    {"k": AttrType.INT, "a": AttrType.INT, "b": AttrType.INT},
    ["k"],
)
S = RelationSchema.of(
    "S",
    {"k": AttrType.INT, "c": AttrType.INT},
    ["k"],
)
SCHEMA = DatabaseSchema([R, S])


@st.composite
def redundant_query(draw):
    """A query with a fully-equated copy of one atom (always redundant)."""
    base_alias, copy_alias = "R1", "R2"
    constant = draw(st.integers(0, 3))
    equalities = " and ".join(
        f"{base_alias}.{attr} = {copy_alias}.{attr}"
        for attr in ("k", "a", "b")
    )
    return (
        f"select {base_alias}.a from R {base_alias}, R {copy_alias} "
        f"where {equalities} and {base_alias}.k = {constant}"
    )


@given(redundant_query())
@settings(max_examples=25, deadline=None)
def test_fully_equated_copy_always_folds(sql):
    analysis = analyze(bind(parse(sql), SCHEMA))
    minimal = minimize(analysis)
    assert len(minimal.atoms) == 1


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["R", "S"]),
            st.sets(st.sampled_from(["k", "a", "b", "c"]), min_size=1),
            st.sets(st.sampled_from(["k", "a", "b", "c"]), max_size=2),
        ),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=40, deadline=None)
def test_t2b_always_supports_its_qcs(raw):
    qcs_list = []
    for relation, z, x in raw:
        attrs = set(SCHEMA.relation(relation).attribute_names)
        z = frozenset(z & attrs)
        x = frozenset(x & z)
        if not z:
            continue
        qcs_list.append(QCS(relation, z, x))
    if not qcs_list:
        return
    baav, report = design_schema(SCHEMA, qcs_list)
    assert all(report.supported.values()), report.supported


BAAV = BaaVSchema(
    [
        KVSchema("r_by_k", R, ["k"], ["a", "b"]),
        KVSchema("r_by_a", R, ["a"], ["k", "b"]),
        KVSchema("s_by_k", S, ["k"], ["c"]),
    ]
)


@st.composite
def small_query(draw):
    shape = draw(st.integers(0, 3))
    value = draw(st.integers(0, 4))
    if shape == 0:
        return f"select R.a, R.b from R where R.k = {value}"
    if shape == 1:
        return f"select R.k from R where R.a = {value}"
    if shape == 2:
        return (
            "select R.b, S.c from R, S where R.k = S.k "
            f"and R.a = {value}"
        )
    return f"select R.a from R where R.b > {value}"


@given(small_query())
@settings(max_examples=40, deadline=None)
def test_scan_free_decision_implies_scan_free_plan(sql):
    """Theorem 6(2): the generated plan realizes the decision."""
    zidian = Zidian(SCHEMA, BAAV)
    plan, decision = zidian.plan(sql)
    if decision.is_scan_free:
        assert plan.scan_free
        assert plan_is_scan_free(plan.root)


@given(
    small_query(),
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
        max_size=12,
        unique_by=lambda t: t[0],
    ),
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        max_size=8,
        unique_by=lambda t: t[0],
    ),
)
@settings(max_examples=40, deadline=None)
def test_answerable_decision_implies_correct_answers(sql, r_rows, s_rows):
    """Theorem 6(1): plans answer Q exactly when R̃ preserves it."""
    from repro.relational import bag_equal
    from repro.sql import execute as ra_execute, plan_sql
    from repro.systems import ZidianSystem

    db = Database.from_dict([R, S], {"R": r_rows, "S": s_rows})
    system = ZidianSystem("kudu", workers=2, storage_nodes=2)
    system.load(db, BAAV)
    result = system.execute(sql)
    assert result.decision.answerable
    ra_plan, _ = plan_sql(sql, db.schema)
    assert bag_equal(ra_execute(ra_plan, db), result.relation)
