"""Property tests: KBA operator semantics vs plain relational algebra."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baav import BaaVSchema, BaaVStore, kv_schema
from repro.kba import (
    Constant,
    ExecContext,
    Extend,
    JoinK,
    ScanKV,
    Shift,
    execute,
)
from repro.kv import KVCluster
from repro.relational import AttrType, Database, RelationSchema

R1 = RelationSchema.of("T1", {"A": AttrType.INT, "B": AttrType.INT})
R2 = RelationSchema.of("T2", {"B": AttrType.INT, "C": AttrType.INT})

pairs = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=15
)


def build(rows1, rows2):
    db = Database.from_dict([R1, R2], {"T1": rows1, "T2": rows2})
    baav = BaaVSchema(
        [kv_schema("R1", R1, ["A"]), kv_schema("R2", R2, ["B"])]
    )
    store = BaaVStore.map_database(db, baav, KVCluster(2))
    return db, ExecContext(store)


@given(pairs, pairs)
@settings(max_examples=40, deadline=None)
def test_extension_is_keyed_natural_join(rows1, rows2):
    """D̃1 ∝ D̃2 has the relational version of D1 ⋈_B D2 (§4.2)."""
    db, ctx = build(rows1, rows2)
    plan = Extend(ScanKV("R1", "r1"), "R2", "r2", (("r1.B", "B"),), ("r2.C",))
    out = execute(plan, ctx)
    expected = Counter(
        (a, b, c)
        for a, b in rows1
        for b2, c in rows2
        if b == b2
    )
    got = Counter(out.expand())
    assert got == expected


@given(pairs)
@settings(max_examples=30, deadline=None)
def test_shift_preserves_relational_version(rows1):
    db, ctx = build(rows1, [])
    base = execute(ScanKV("R1", "r1"), ctx)
    shifted = execute(Shift(ScanKV("R1", "r1"), ("r1.B",)), ctx)

    def bag(blockset, order):
        positions = [blockset.attrs.index(a) for a in order]
        return Counter(
            tuple(row[p] for p in positions) for row in blockset.expand()
        )

    order = ("r1.A", "r1.B")
    assert bag(base, order) == bag(shifted, order)


@given(pairs)
@settings(max_examples=30, deadline=None)
def test_double_shift_identity(rows1):
    db, ctx = build(rows1, [])
    once = execute(Shift(ScanKV("R1", "r1"), ("r1.B",)), ctx)
    twice = once.shift(("r1.A",)).shift(("r1.B",))
    assert Counter(once.expand()) == Counter(twice.expand())


@given(pairs, pairs)
@settings(max_examples=40, deadline=None)
def test_joink_matches_relational_join(rows1, rows2):
    db, ctx = build(rows1, rows2)
    plan = JoinK(
        ScanKV("R1", "r1"), ScanKV("R2", "r2"), (("r1.B", "r2.B"),)
    )
    out = execute(plan, ctx)
    expected = Counter(
        (a, b, b2, c)
        for a, b in rows1
        for b2, c in rows2
        if b == b2
    )
    # out attrs: key (r1.A, r2.B), values (r1.B, r2.C)
    positions = [out.attrs.index(x) for x in
                 ("r1.A", "r1.B", "r2.B", "r2.C")]
    got = Counter(
        tuple(row[p] for p in positions) for row in out.expand()
    )
    assert got == expected


@given(pairs, st.lists(st.integers(0, 4), max_size=5))
@settings(max_examples=30, deadline=None)
def test_extend_from_constants_equals_filtered_join(rows1, probes):
    """('c' ∝ R̃): only rows whose key is among the probes survive."""
    db, ctx = build([], rows1)
    constant = Constant(("x",), tuple((p,) for p in probes))
    out = execute(Extend(constant, "R2", "r2", (("x", "B"),), ("r2.C",)), ctx)
    expected = Counter()
    for probe in set(probes):
        for b, c in rows1:
            if b == probe:
                expected[(probe, c)] += 1
    assert Counter(out.expand()) == expected
