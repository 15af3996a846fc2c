"""Property: the block-at-a-time operators are the row-at-a-time ones.

``join_blocksets``, σ (``SelectK``) and ``group_blockset`` work a block
at a time: a probe, predicate or group key read off the block key is
evaluated once per block, a right side probed on its key is indexed by
block, and an output key is built once per pair of blocks. The
references below are the row-at-a-time loops they replaced — every
``(key + value row, count)`` in order, an env dict per row — and the
operators must agree with them on random block sets with two key
attributes: the same ``repr`` of ``list(data.items())`` (so the same
dict order, entry order, and float aggregates summed in the same
order), the same attributes and the same ``sizing``. The probes,
predicates and group keys read the key alone, the value row alone or
both; join keys may be NULL, and a join may carry a residual.
"""

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kba import BlockSet, ExecContext, SelectK
from repro.kba import plan as kp
from repro.kba.executor import execute_node, group_blockset, join_blocksets
from repro.relational.types import RowSizing
from repro.sql import ast
from repro.sql.aggregates import make_accumulator
from repro.sql.algebra import AggSpec

# -- references: the row-at-a-time loops ----------------------------------------


def env(attrs, row):
    return dict(zip(attrs, row))


def reference_join(left, right, on, residual):
    left_pos = [left.position(name) for name, _ in on]
    right_pos = [right.position(name) for _, name in on]
    attrs = left.attrs + right.attrs
    n_left_key, n_right_key = len(left.key_attrs), len(right.key_attrs)
    index = defaultdict(list)
    for rfull, rcount in right.iter_full():
        probe = tuple(rfull[p] for p in right_pos)
        if None not in probe:
            index[probe].append((rfull, rcount))
    data = defaultdict(list)
    for lfull, lcount in left.iter_full():
        probe = tuple(lfull[p] for p in left_pos)
        if None in probe:
            continue
        for rfull, rcount in index.get(probe, ()):
            if residual is not None and not residual.eval(env(attrs, lfull + rfull)):
                continue
            key = lfull[:n_left_key] + rfull[:n_right_key]
            value = lfull[n_left_key:] + rfull[n_right_key:]
            data[key].append((value, lcount * rcount))
    sizing = None
    if left.sizing is not None and right.sizing is not None:
        sizing = left.sizing.followed_by(len(left.value_attrs), right.sizing)
    return BlockSet(
        left.key_attrs + right.key_attrs,
        left.value_attrs + right.value_attrs,
        dict(data),
        sizing,
    )


def reference_select(child, predicate):
    data = {}
    for key, entries in child.data.items():
        kept = [
            (row, count)
            for row, count in entries
            if predicate.eval(env(child.attrs, key + row))
        ]
        if kept:
            data[key] = kept
    return BlockSet(child.key_attrs, child.value_attrs, data, child.sizing)


def reference_group(child, keys, aggs):
    key_pos = [child.position(key) for key in keys]
    groups = {}
    for full, count in child.iter_full():
        accs = groups.setdefault(
            tuple(full[p] for p in key_pos),
            [make_accumulator(a.func, a.distinct) for a in aggs],
        )
        row_env = env(child.attrs, full)
        for spec, acc in zip(aggs, accs):
            acc.add(True if spec.arg is None else spec.arg.eval(row_env), count)
    if not keys and not groups:
        groups[()] = [make_accumulator(a.func, a.distinct) for a in aggs]
    data = {
        key: [(tuple(acc.result() for acc in accs), 1)]
        for key, accs in groups.items()
    }
    return BlockSet(keys, tuple(a.name for a in aggs), data)


def same(out, expected):
    assert out.key_attrs == expected.key_attrs
    assert out.value_attrs == expected.value_attrs
    assert repr(list(out.data.items())) == repr(list(expected.data.items()))
    assert out.sizing == expected.sizing


# -- random block sets -------------------------------------------------------------

#: small domains, so probes match and groups repeat; floats whose sums
#: depend on the order they are added in
_keys = st.one_of(st.none(), st.integers(0, 2))
_ints = st.integers(0, 2)
_values = st.one_of(
    _ints, _ints, _ints, st.none(), st.sampled_from([0.1, 1e16, -1e16])
)
_sizings = st.one_of(
    st.none(),
    st.builds(RowSizing, st.integers(0, 40), st.just(())),
)


@st.composite
def blocksets(draw, prefix):
    """Key ⟨p.k0, p.k1⟩, one to three value attributes; blocks of zero
    (rarely) to four entries, multiplicities 1-3."""
    n_values = draw(st.integers(1, 3))
    key_attrs = (f"{prefix}.k0", f"{prefix}.k1")
    value_attrs = tuple(f"{prefix}.v{i}" for i in range(n_values))
    data = {}
    for key in draw(st.lists(st.tuples(_keys, _keys), max_size=6, unique=True)):
        data[key] = draw(
            st.lists(
                st.tuples(
                    st.tuples(*[_values] * n_values), st.integers(1, 3)
                ),
                min_size=draw(st.sampled_from([0] + [1] * 4 + [2] * 5)),
                max_size=4,
            )
        )
    return BlockSet(key_attrs, value_attrs, data, draw(_sizings))


_ops = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])


def comparisons(names):
    column = st.sampled_from(names).map(ast.Column)
    literal = st.one_of(_values, st.just(1)).map(ast.Lit)
    return st.one_of(
        st.builds(ast.Cmp, _ops, column, literal),
        st.builds(ast.Cmp, _ops, column, column),
        st.builds(ast.IsNull, column),
    )


def predicates(names):
    cmp = comparisons(names)
    return st.one_of(
        cmp,
        st.lists(st.builds(ast.Cmp, _ops, st.sampled_from(names).map(ast.Column),
                           _values.map(ast.Lit)), min_size=1, max_size=3).map(ast.And),
        st.lists(cmp, min_size=1, max_size=3).map(ast.And),
        st.lists(cmp, min_size=1, max_size=2).map(ast.Or),
        st.builds(ast.Not, cmp),
    )


def parts(blockset):
    """Attribute lists that read the key alone, the value alone, both."""
    return st.one_of(
        st.lists(st.sampled_from(blockset.key_attrs), min_size=1, max_size=2),
        st.lists(st.sampled_from(blockset.value_attrs), min_size=1, max_size=2),
        st.lists(st.sampled_from(blockset.attrs), min_size=0, max_size=3),
    )


# -- block at a time ≡ row at a time -----------------------------------------------


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_join_equals_the_row_at_a_time_join(data):
    left = data.draw(blocksets("L"))
    right = data.draw(blocksets("R"))
    left_attrs = data.draw(parts(left))
    pool = data.draw(
        st.sampled_from([right.key_attrs, right.value_attrs, right.attrs])
    )
    right_attrs = data.draw(
        st.lists(
            st.sampled_from(pool),
            min_size=len(left_attrs),
            max_size=len(left_attrs),
        )
    )
    on = tuple(zip(left_attrs, right_attrs))
    residual = data.draw(st.one_of(st.none(), predicates(left.attrs + right.attrs)))
    same(
        join_blocksets(left, right, on, residual),
        reference_join(left, right, on, residual),
    )


def test_one_right_block_matching_one_probe_twice():
    """Two entries of one right block share a probe read off their value
    rows: each left entry meets both before the next left entry does."""
    left = BlockSet(
        ("L.k0", "L.k1"), ("L.v0",), {(1, 0): [((5,), 1), ((6,), 1)]}
    )
    right = BlockSet(
        ("R.k0", "R.k1"), ("R.v0",), {(0, 0): [((1,), 1), ((1,), 2)]}
    )
    for on in ((("L.k0", "R.v0"),), (("L.k0", "R.v0"), ("L.k1", "R.k0"))):
        for residual in (None, ast.Cmp(">", ast.Column("L.v0"), ast.Lit(0))):
            out = join_blocksets(left, right, on, residual)
            assert list(out.data.items()) == [
                ((1, 0, 0, 0), [((5, 1), 1), ((5, 1), 2), ((6, 1), 1), ((6, 1), 2)])
            ]
            same(out, reference_join(left, right, on, residual))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_select_equals_the_row_at_a_time_select(data):
    child = data.draw(blocksets("T"))
    names = data.draw(
        st.sampled_from([child.key_attrs, child.value_attrs, child.attrs])
    )
    predicate = data.draw(predicates(names))
    node = SelectK(kp.Constant((), ()), predicate)
    out = execute_node(node, ExecContext(None, vectorized=False), [child])
    same(out, reference_select(child, predicate))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_group_equals_the_row_at_a_time_group(data):
    child = data.draw(blocksets("T"))
    keys = tuple(data.draw(parts(child)))
    column = st.sampled_from(child.attrs).map(ast.Column)
    aggs = data.draw(
        st.lists(
            st.one_of(
                st.just(AggSpec("n", "COUNT", None)),
                st.builds(
                    AggSpec,
                    st.just("x"),
                    st.sampled_from(["SUM", "COUNT", "AVG", "MIN", "MAX"]),
                    st.one_of(
                        column,
                        st.builds(ast.Arith, st.just("+"), column, column),
                    ),
                ),
            ),
            min_size=1,
            max_size=3,
        )
    )
    same(
        group_blockset(child, keys, tuple(aggs)),
        reference_group(child, keys, tuple(aggs)),
    )
