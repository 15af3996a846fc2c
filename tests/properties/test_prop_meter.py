"""Property: a *proven* block set weighs what the value walk says.

``BlockSet.size_bytes`` and ``partition_blockset`` price a set whose
``sizing`` is stated as ``entries × constant + Σ len(string)`` instead
of walking every value. The walk is the definition; it is written out
again below, and every intermediate of a small plan zoo — rows written
through a real :class:`KVInstance` and scanned back, pushed through
σ, ⋈ (both orders, with a residual), π, group-by, ∪ and ∝ — must weigh
the same either way. The rows are hostile on purpose: NULLs, a bool in
an INT column, an int in a FLOAT column, an ``IntEnum``, strings whose
UTF-8 length is not their ``len``, empty and multi-segment blocks, and
a relation too wide for the compiled decoder.

Three hand-made mutants of the proof are installed at the end; the same
check must fail under each.

Last, the worker a key shuffles to: ``partitioner._bucket`` remembers
the hash of a key's *text*, and must stay the definition written out
here for keys that are ``==`` but print differently, whichever was
asked first, and after the memo has turned over; a mutant that
remembers by the key itself is killed.
"""

from __future__ import annotations

import enum
import hashlib
from functools import lru_cache
from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kba.blockset as blockset_module
import repro.kba.executor as executor
import repro.parallel.partitioner as partitioner
from repro.baav import BaaVSchema, BaaVStore, KVInstance, kv_schema
from repro.baav.block import Block
from repro.kba import (
    BlockSet,
    ExecContext,
    Extend,
    GroupK,
    JoinK,
    ProjectK,
    ScanKV,
    SelectK,
    UnionK,
    execute,
)
from repro.kv import KVCluster
from repro.parallel.partitioner import partition_blockset
from repro.relational import AttrType, RelationSchema
from repro.sql import ast
from repro.sql.algebra import AggSpec

T = AttrType
LEFT = RelationSchema.of(
    "L", {"a": T.INT, "s": T.STR, "f": T.FLOAT, "b": T.BOOL, "n": T.INT}, ["a"]
)
RIGHT = RelationSchema.of("R", {"n": T.INT, "d": T.DATE, "g": T.FLOAT}, ["n"])
#: 129 value columns: the row count no longer fits the one byte the
#: compiled decoder checks, so every row is decoded by the generic loop
WIDE = RelationSchema.of("W", {f"c{i}": T.INT for i in range(130)}, ["c0"])
SCHEMA = BaaVSchema(
    [
        kv_schema("l_by_a", LEFT, ["a"]),
        kv_schema("l_by_n", LEFT, ["n"]),
        kv_schema("r_by_n", RIGHT, ["n"]),
        kv_schema("w_by_c0", WIDE, ["c0"]),
    ]
)
WORKERS = 3


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 2


# -- the definition, written out ----------------------------------------------


def value_bytes(value) -> int:
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    assert isinstance(value, str)
    return 4 + len(value)  # modeled characters, never UTF-8 bytes


def walked_partitions(blockset: BlockSet, n: int) -> List[int]:
    sizes = [0] * n
    for key, entries in blockset.data.items():
        for row, _count in entries:
            sizes[partitioner._bucket(key, n)] += (
                sum(map(value_bytes, key)) + 4 + sum(map(value_bytes, row))
            )
    return sizes


def check(blockset: BlockSet) -> None:
    walked = walked_partitions(blockset, WORKERS)
    assert partition_blockset(blockset, WORKERS) == walked
    assert blockset.size_bytes() == sum(walked)


# -- hostile rows through a real KV instance ----------------------------------

clean_strings = st.text(alphabet="abé漢🙂", max_size=4)
ints = st.integers(-3, 3)
floats = st.sampled_from([0.0, -1.5, 2.25])


def cell(clean, deviants):
    """Mostly the declared kind; now and then something else that the
    codec still stores (and the meter must still weigh)."""
    return st.one_of(clean, clean, clean, clean, st.sampled_from(deviants))


left_rows = st.lists(
    st.tuples(
        st.integers(0, 5),
        cell(clean_strings, [None]),
        cell(floats, [None, 7, True]),  # an int / a bool in a FLOAT column
        cell(st.booleans(), [None]),
        cell(ints, [None, True, Colour.BLUE]),  # a bool / IntEnum in an INT one
    ),
    max_size=12,
)
right_rows = st.lists(
    st.tuples(
        ints,
        cell(st.sampled_from(["1999-07-04", "2000-01-01"]), [None]),
        cell(floats, [None, 3]),
    ),
    max_size=8,
)
wide_rows = st.lists(
    st.tuples(st.integers(0, 2), cell(ints, [None]), ints).map(
        lambda t: (t[0], t[1]) + (t[2],) * 128
    ),
    max_size=3,
)


def load(left, right, wide=(), split_threshold=2) -> ExecContext:
    """Write the rows block by block (``Relation`` would refuse the
    deviating ones; the codec does not) — small segments, so blocks of
    three tuples and more are multi-segment."""
    cluster = KVCluster(2)
    store = BaaVStore(SCHEMA, cluster, split_threshold=split_threshold)
    rows_of = {"L": left, "R": right, "W": wide}
    for schema in SCHEMA:
        instance = KVInstance(schema, cluster, split_threshold=split_threshold)
        store.instances[schema.name] = instance
        relation = schema.relation
        key_at = relation.indexes_of(schema.key)
        value_at = relation.indexes_of(schema.value)
        blocks: Dict[tuple, list] = {}
        for row in rows_of[relation.name]:
            key = tuple(row[p] for p in key_at)
            if None not in key:
                blocks.setdefault(key, []).append(tuple(row[p] for p in value_at))
        for key, rows in blocks.items():
            instance._write_block(key, Block.from_rows(rows))
    return ExecContext(store, batch_size=4)


def col(name: str) -> ast.Column:
    return ast.Column(name)


def plans():
    """``name -> plan``; every sub-plan is listed too, so each operator's
    own output is weighed, not just the top's."""
    scan_l = ScanKV("l_by_a", "L")
    scan_l2 = ScanKV("l_by_n", "M")
    scan_r = ScanKV("r_by_n", "R")
    select_l = SelectK(scan_l, ast.Cmp(">=", col("L.a"), ast.Lit(1)))
    residual = ast.Cmp("<", col("L.f"), col("R.g"))
    join_lr = JoinK(select_l, scan_r, (("L.n", "R.n"),), residual)
    join_rl = JoinK(scan_r, select_l, (("R.n", "L.n"),), residual)
    return {
        "scan": scan_l,
        "scan-other-key": scan_l2,
        "scan-wide": ScanKV("w_by_c0", "W"),
        "select": select_l,
        "select-none": SelectK(scan_l, ast.Cmp(">", col("L.a"), ast.Lit(99))),
        "join": join_lr,
        "join-flipped": join_rl,
        "join-of-join": JoinK(join_lr, scan_l2, (("L.a", "M.a"),)),
        "select-over-join": SelectK(
            join_lr, ast.Cmp("<=", col("L.a"), ast.Lit(4))
        ),
        "project-reorders": ProjectK(join_lr, ("R.g", "L.s", "L.a")),
        "project-keeps-all": ProjectK(scan_r, ("R.n", "R.d", "R.g")),
        "group": GroupK(
            join_lr,
            ("L.s",),
            (AggSpec("n", "COUNT", None), AggSpec("m", "MAX", col("R.d"))),
        ),
        "union": UnionK(scan_l, select_l),
        "extend": Extend(
            scan_l, "r_by_n", "R", (("L.n", "n"),), ("R.d", "R.g")
        ),
    }


#: the operators that may hand a proof on; every other output is walked
KEEPS_PROOF = {
    "scan", "scan-other-key", "select", "select-none", "join",
    "join-flipped", "join-of-join", "select-over-join",
}


def deviates(row) -> bool:
    """Does this L row come back off the declared kinds? (An ``IntEnum``
    does not: it is stored as the int it is, and scanned back as one.)"""
    return any(
        value is None
        or type(int(value) if isinstance(value, enum.IntEnum) else value)
        is not kind.python_type
        for value, kind in zip(row, [T.INT, T.STR, T.FLOAT, T.BOOL, T.INT])
    )


@given(left_rows, right_rows, wide_rows)
@settings(max_examples=60, deadline=None)
def test_every_intermediate_weighs_what_the_walk_says(left, right, wide):
    ctx = load(left, right, wide)
    results = {name: execute(plan, ctx) for name, plan in plans().items()}
    for name, result in results.items():
        check(result)
        if name not in KEEPS_PROOF and name != "scan-wide":
            assert result.sizing is None, name
    if wide:  # (an empty scan is proven: there is no row to doubt)
        assert results["scan-wide"].sizing is None
    if not any(map(deviates, left)):
        assert results["scan"].sizing is not None
        assert results["select"].sizing is not None
    else:
        # one deviating row anywhere leaves the whole set unproven
        assert results["scan"].sizing is None
        assert results["join-of-join"].sizing is None


def test_clean_rows_are_proven_through_select_and_join():
    left = CLEAN_LEFT * 2
    right = [(n, "1999-07-04", 2.0) for n in range(3)]
    # clean, but too wide for the decoder to verify: walked, not proven
    wide = [(0,) + (1,) * 129]
    ctx = load(left, right, wide)
    results = {name: execute(plan, ctx) for name, plan in plans().items()}
    for name, result in results.items():
        check(result)
        assert (result.sizing is not None) == (name in KEEPS_PROOF), name
    join = results["join-of-join"]
    assert join.num_entries() and join.sizing.strings == (0, 4, 7)


def test_empty_and_multi_segment_blocks():
    ctx = load([(1, "x", 1.0, True, 0)] * 7, [], split_threshold=2)
    instance = ctx.instance("l_by_a")
    instance._write_block((9,), Block([]))
    scan = execute(ScanKV("l_by_a", "L"), ctx)
    # 7 tuples in segments of 2: four segments, reassembled
    assert scan.data[(9,)] == []
    assert scan.data[(1,)] == [(("x", 1.0, True, 0), n) for n in (2, 2, 2, 1)]
    assert scan.sizing is not None
    check(scan)
    # a later segment that deviates takes the proof of the whole block
    instance._write_block(
        (2,), Block([(("x", 1.0, True, 0), 2), (("y", None, True, 0), 1)])
    )
    scan = execute(ScanKV("l_by_a", "L"), ctx)
    assert scan.sizing is None
    check(scan)


# -- mutants: each must be caught by ``check`` --------------------------------

HOSTILE_LEFT = [
    (1, "é漢🙂", 1.5, True, 0),
    (2, "zz", 7, None, True),  # a bool where 8 bytes of INT are declared
    (3, "abc", 2.0, False, 1),
]
HOSTILE_RIGHT = [(0, "1999-07-04", 2.0), (1, "2000-01-01", 9.0)]


CLEAN_LEFT = [(a, "é漢", 1.5, a % 2 == 0, a % 3) for a in range(6)]


def weigh_the_zoo(left=HOSTILE_LEFT) -> None:
    ctx = load(left, HOSTILE_RIGHT)
    for plan in plans().values():
        check(execute(plan, ctx))


def test_the_zoo_is_clean_without_a_mutant():
    weigh_the_zoo()
    weigh_the_zoo(CLEAN_LEFT)


def test_mutant_proof_survives_a_deviating_row(monkeypatch):
    born = Block.__init__

    def always_proven(self, entries=None, proven=False):
        born(self, entries, True)

    monkeypatch.setattr(Block, "__init__", always_proven)
    with pytest.raises(AssertionError):
        weigh_the_zoo()


def test_mutant_proof_survives_a_projection(monkeypatch):
    project = executor._HANDLERS[ProjectK]

    def keeps_the_proof(node, ctx, inputs):
        out = project(node, ctx, inputs)
        out.sizing = inputs[0].sizing
        return out

    monkeypatch.setitem(executor._HANDLERS, ProjectK, keeps_the_proof)
    # the child's string positions read floats off the projected rows
    # (or past their end) before any number can come out wrong
    with pytest.raises((AssertionError, TypeError, IndexError)):
        weigh_the_zoo(CLEAN_LEFT)  # (a set with a deviating row has no proof)


def test_mutant_utf8_length_is_used(monkeypatch):
    stated = blockset_module.block_bytes

    def utf8_block_bytes(key, entries, sizing=None):
        total = stated(key, entries, sizing)
        if sizing is not None:
            for position in sizing.strings:
                for row, _count in entries:
                    chars = row[position]
                    total += len(chars.encode("utf-8")) - len(chars)
        return total

    monkeypatch.setattr(blockset_module, "block_bytes", utf8_block_bytes)
    monkeypatch.setattr(partitioner, "block_bytes", utf8_block_bytes)
    with pytest.raises(AssertionError):
        weigh_the_zoo(CLEAN_LEFT)


# -- the shuffle's hash is remembered by a key's text, never by the key -------


def defined_bucket(key, n: int) -> int:
    """``_bucket``, written out."""
    return int.from_bytes(hashlib.md5(repr(key).encode()).digest()[:8], "big") % n


#: ``==`` and equal-hashing as dict keys, three texts: three hashes
EQUAL_KEYS = [(1,), (1.0,), (True,)], [(0, "é"), (0.0, "é"), (False, "é")]

key_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([0.0, 1.0, -1.5, float("inf")]),
    st.text(alphabet="ab'é漢🙂", max_size=3),
    st.dates().map(lambda day: day.isoformat()),  # how DATE is stored
)
keys = st.lists(key_values, max_size=3).map(tuple)


def check_buckets(asked) -> None:
    for key, n in asked:
        assert partitioner._bucket(key, n) == defined_bucket(key, n), (key, n)


@given(st.lists(st.tuples(keys, st.integers(1, 8)), max_size=30))
@settings(max_examples=100, deadline=None)
def test_bucket_is_its_definition_whatever_was_asked_before(asked):
    check_buckets(asked)
    check_buckets(reversed(asked))


def ask_equal_keys_in_both_orders() -> None:
    for family in EQUAL_KEYS:
        assert len(set(family)) == 1 and len(set(map(repr, family))) == 3
        for order in (family, family[::-1]):
            partitioner._text_hash.cache_clear()
            check_buckets((key, n) for key in order for n in range(1, 9))


def test_equal_keys_with_distinct_texts_keep_their_own_buckets():
    ask_equal_keys_in_both_orders()
    # the three really differ, so the mutant below has something to lose
    assert len({defined_bucket(key, 1 << 30) for key in EQUAL_KEYS[0]}) == 3


def test_more_distinct_keys_than_the_memo_holds(monkeypatch):
    small = lru_cache(maxsize=8)(partitioner._text_hash.__wrapped__)
    monkeypatch.setattr(partitioner, "_text_hash", small)
    asked = [((i, f"k{i % 5}"), 1 + i % 8) for i in range(40)]
    check_buckets(asked + asked[::-1])
    info = small.cache_info()
    assert info.currsize == 8 and info.misses > 40  # evicted, and asked again


def test_mutant_memo_keyed_on_the_key(monkeypatch):
    remembered: Dict[tuple, int] = {}

    def by_key(key, n: int) -> int:
        if key not in remembered:
            remembered[key] = defined_bucket(key, 1 << 64)
        return remembered[key] % n

    monkeypatch.setattr(partitioner, "_bucket", by_key)
    with pytest.raises(AssertionError):
        ask_equal_keys_in_both_orders()
