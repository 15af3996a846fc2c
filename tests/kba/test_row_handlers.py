"""The row handlers' compiled closures ≡ ``Expr.eval`` over env dicts.

``SelectK``, the join residual and the group-by aggregate arguments
compile their expression once per operator call
(:func:`repro.kba.compile.compile_row`, total over ``Expr``) and apply
the positional closure per row. The references below are the loops
those handlers used to be — an ``attr -> value`` dict per row,
``Expr.eval`` on it — and the handlers must agree with them on every input: answers, entry order,
NULL collapses, and *which* error is raised when (an unbound column
raises ``ExecutionError`` on the first row that reaches it, and not at
all on empty input).
"""

from collections import defaultdict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.kba import BlockSet, ExecContext, SelectK
from repro.kba import plan as kp
from repro.kba.compile import compile_row
from repro.kba.executor import execute_node, group_blockset, join_blocksets
from repro.sql import ast
from repro.sql.aggregates import make_accumulator
from repro.sql.algebra import AggSpec
from repro.sql.executor import eval_row

# -- references: the env-dict loops ------------------------------------------


def reference_select(child, predicate):
    attrs = child.attrs
    data = {}
    for key, entries in child.data.items():
        kept = [
            (row, count)
            for row, count in entries
            if predicate.eval(dict(zip(attrs, key + row)))
        ]
        if kept:
            data[key] = kept
    return data


def reference_join(left, right, on, residual):
    left_pos = [left.position(name) for name, _ in on]
    right_pos = [right.position(name) for _, name in on]
    all_attrs = left.attrs + right.attrs
    n_left_key, n_right_key = len(left.key_attrs), len(right.key_attrs)
    data = defaultdict(list)
    for lfull, lcount in left.iter_full():
        for rfull, rcount in right.iter_full():
            probe = tuple(lfull[p] for p in left_pos)
            if None in probe or probe != tuple(rfull[p] for p in right_pos):
                continue
            if not residual.eval(dict(zip(all_attrs, lfull + rfull))):
                continue
            key = lfull[:n_left_key] + rfull[:n_right_key]
            value = lfull[n_left_key:] + rfull[n_right_key:]
            data[key].append((value, lcount * rcount))
    return dict(data)


def reference_group(child, keys, aggs):
    attrs = child.attrs
    key_pos = [child.position(key) for key in keys]
    groups = {}
    for full, count in child.iter_full():
        env = dict(zip(attrs, full))
        accs = groups.setdefault(
            tuple(full[p] for p in key_pos),
            [make_accumulator(a.func, a.distinct) for a in aggs],
        )
        for spec, acc in zip(aggs, accs):
            acc.add(True if spec.arg is None else spec.arg.eval(env), count)
    if not keys and not groups:
        groups[()] = [make_accumulator(a.func, a.distinct) for a in aggs]
    return {
        key: [(tuple(acc.result() for acc in accs), 1)]
        for key, accs in groups.items()
    }


def outcome(fn):
    """What ``fn`` produced — entry order included — or the error type."""
    try:
        return [(key, entries) for key, entries in fn().items()]
    except (ExecutionError, TypeError) as exc:
        return type(exc)


def run_select(child, predicate):
    node = SelectK(kp.Constant((), ()), predicate)
    return execute_node(node, ExecContext(None, vectorized=False), [child]).data


# -- random inputs -------------------------------------------------------------

ATTRS = ("k", "a", "b", "s")  # key ⟨k⟩, values ⟨a, b, s⟩

_ints = st.one_of(st.none(), st.integers(-3, 3))
_strs = st.one_of(st.none(), st.sampled_from(["", "ab", "ba", "abc"]))
rows_strategy = st.lists(
    st.tuples(st.tuples(st.integers(0, 2), _ints, _ints, _strs),
              st.integers(1, 3)),
    max_size=10,
)


def blockset(rows, attrs=ATTRS):
    return BlockSet.from_rows(attrs[:1], attrs[1:], rows)


def exprs(names=ATTRS, extra_numbers=()):
    """Expressions over a row laid out as ``names`` (int, int, int, str)
    reaching every ``Expr`` node (``extra_numbers`` adds leaves — the
    aggregate call and the raising ones). Mostly well-typed; ``anything``
    also mixes types, so some examples raise ``TypeError`` — in the
    handler exactly when the reference does."""
    k, a, b, s = (ast.Column(name) for name in names)
    number = st.recursive(
        st.one_of(
            st.sampled_from([k, a, b, *extra_numbers]),
            st.integers(-3, 3).map(ast.Lit),
            st.just(ast.Lit(None)),
        ),
        lambda inner: st.one_of(
            st.builds(ast.Arith, st.sampled_from("+-*/"), inner, inner),
            st.builds(ast.Neg, inner),
        ),
        max_leaves=4,
    )
    text = st.one_of(st.just(s), _strs.map(ast.Lit))
    compare = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])
    boolean = st.recursive(
        st.one_of(
            st.builds(ast.Cmp, compare, number, number),
            st.builds(ast.Cmp, compare, text, text),
            st.builds(ast.InList, number, st.lists(st.integers(-3, 3), max_size=3)),
            st.builds(
                ast.InList, text, st.lists(st.sampled_from(["ab", ""]), max_size=2)
            ),
            st.builds(ast.Between, number, number, number),
            st.builds(ast.Like, text, st.sampled_from(["a%", "_b", "%", "ab"])),
            st.builds(ast.IsNull, st.one_of(number, text)),
            st.booleans().map(ast.Lit),
        ),
        lambda inner: st.one_of(
            st.lists(inner, min_size=1, max_size=3).map(ast.And),
            st.lists(inner, min_size=1, max_size=3).map(ast.Or),
            st.builds(ast.Not, inner),
        ),
        max_leaves=5,
    )
    anything = st.one_of(number, text, boolean)
    mixed = st.one_of(
        st.builds(ast.Cmp, compare, anything, anything),
        st.builds(ast.Arith, st.sampled_from("+-*/"), anything, anything),
    )
    return number, boolean, st.one_of(boolean, boolean, number, mixed)


_NUMBER, _BOOLEAN, _ANY = exprs()


# -- compiled ≡ reference ----------------------------------------------------


@given(rows_strategy, _ANY)
def test_select_equals_reference(rows, predicate):
    child = blockset(rows)
    assert outcome(lambda: run_select(child, predicate)) == outcome(
        lambda: reference_select(child, predicate)
    )


@given(rows_strategy, rows_strategy, exprs(("rk", "a", "rb", "s"))[2])
def test_join_residual_equals_reference(left_rows, right_rows, residual):
    """The residual reads both sides of the concatenated row; the right
    side renames its attributes except ``s`` — which the joined layout
    then holds twice."""
    left = blockset(left_rows)
    right = blockset(right_rows, ("rk", "ra", "rb", "s"))
    on = (("k", "rk"),)
    assert outcome(
        lambda: join_blocksets(left, right, on, residual).data
    ) == outcome(lambda: reference_join(left, right, on, residual))


_agg_specs = st.lists(
    st.one_of(
        st.just(AggSpec("n", "COUNT", None)),
        st.builds(
            AggSpec,
            st.just("x"),
            st.sampled_from(["SUM", "COUNT", "AVG", "MIN", "MAX"]),
            st.one_of(_NUMBER, _BOOLEAN),
            st.booleans(),
        ),
    ),
    min_size=1,
    max_size=3,
)


@given(
    rows_strategy,
    st.sampled_from([(), ("k",), ("s", "k")]),
    _agg_specs,
)
def test_group_equals_reference(rows, keys, aggs):
    child = blockset(rows)
    assert outcome(
        lambda: group_blockset(child, keys, tuple(aggs)).data
    ) == outcome(lambda: reference_group(child, keys, aggs))


# -- compile_row ≡ Expr.eval, row by row, over every node type ---------------

_SUM_A = ast.AggCall("SUM", ast.Column("a"))
#: ⟨k, a, b, s⟩, then ``a`` again and the output column of ``SUM(a)``
LAYOUT = ATTRS + ("a", str(_SUM_A))
#: leaves ``Expr.eval`` raises on: a column and an aggregate the layout
#: does not hold, an operator ``Arith`` does not know
RAISING = (
    ast.Column("nowhere"),
    ast.AggCall("MAX", ast.Column("b")),
    ast.Arith("%", ast.Column("a"), ast.Column("b")),
)
_EVERY_NODE = exprs(extra_numbers=(_SUM_A, *RAISING))[2]


def row_outcome(fn, row):
    """The value, or which error with which message."""
    try:
        return fn(row)
    except (ExecutionError, TypeError) as exc:
        return type(exc), str(exc)


@given(
    st.lists(st.tuples(st.integers(0, 2), _ints, _ints, _strs, _ints, _ints),
             max_size=6),
    _EVERY_NODE,
)
def test_compile_row_equals_eval_on_every_row(rows, expr):
    """Same value or same error on each row — so the same first failing
    row — and never an error at compile time; a short-circuited
    conjunct raises in neither."""
    compiled, reference = compile_row(expr, LAYOUT), eval_row(expr, LAYOUT)
    for row in rows:
        assert row_outcome(compiled, row) == row_outcome(reference, row)


def test_every_expr_node_type_compiles():
    """One expression per ``Expr`` subclass, NULL operands included: a
    node type added to ``sql.ast`` without a ``compile_row`` case fails
    here, not as a silent slow path."""
    a, null = ast.Column("a"), ast.Lit(None)
    examples = [
        ast.Cmp("=", ast.Arith("+", a, null), ast.Neg(null)),
        ast.And([ast.Or([ast.Not(ast.IsNull(a)), ast.IsNull(null)])]),
        ast.InList(null, [1]),
        ast.Between(a, null, ast.Lit(3)),
        ast.Like(null, "a%"),
        _SUM_A,
    ]
    reached = {type(node) for expr in examples for node in ast.walk(expr)}
    assert reached == set(ast.Expr.__subclasses__())
    for expr in examples:
        for row in [(0, 1, 2, "ab", None, 7), (0, None, None, None, 3, None)]:
            assert compile_row(expr, LAYOUT)(row) == expr.eval(
                dict(zip(LAYOUT, row))
            )


# -- what Expr.eval refuses: raised per row, never at compile time -----------

ROWS = [((1, 1, None, "ab"), 1), ((1, 2, 5, None), 2), ((2, 3, 0, "ba"), 1)]
UNBOUND = ast.Cmp(">", ast.Column("nowhere"), ast.Lit(0))


class TestUnboundColumn:
    """The error is ``Expr.eval``'s, raised by the first row that
    reaches the column — no row, no error."""

    def test_select_unknown_operator_fails_on_the_reference_s_row(self):
        """``a % b`` is NULL-propagating before it is unknown: the row
        with ``b`` NULL passes through, the next one raises."""
        predicate = ast.Cmp(">", RAISING[2], ast.Lit(0))
        for rows in (ROWS[:1], ROWS):
            child = blockset(rows)
            assert outcome(lambda: run_select(child, predicate)) == outcome(
                lambda: reference_select(child, predicate)
            )
        assert run_select(blockset(ROWS[:1]), predicate) == {}
        with pytest.raises(ExecutionError, match="unknown arithmetic operator"):
            run_select(blockset(ROWS), predicate)

    def test_select(self):
        assert run_select(blockset([]), UNBOUND) == {}
        with pytest.raises(ExecutionError, match="unbound column 'nowhere'"):
            run_select(blockset(ROWS), UNBOUND)

    def test_select_short_circuits_like_eval(self):
        """``a < 10 OR nowhere > 0`` never reaches the unbound side."""
        predicate = ast.Or(
            [ast.Cmp("<", ast.Column("a"), ast.Lit(10)), UNBOUND]
        )
        child = blockset(ROWS)
        assert run_select(child, predicate) == child.data

    def test_join_residual(self):
        left = blockset(ROWS)
        right = blockset(ROWS, ("rk", "ra", "rb", "rs"))
        on = (("k", "rk"),)
        # nothing joins: the residual is never evaluated
        empty = blockset([], ("rk", "ra", "rb", "rs"))
        assert join_blocksets(left, empty, on, UNBOUND).data == {}
        with pytest.raises(ExecutionError, match="unbound column 'nowhere'"):
            join_blocksets(left, right, on, UNBOUND)

    def test_group_argument(self):
        aggs = (AggSpec("x", "SUM", ast.Column("nowhere")),)
        assert group_blockset(blockset([]), ("k",), aggs).data == {}
        assert group_blockset(blockset([]), (), aggs).data == {(): [((None,), 1)]}
        with pytest.raises(ExecutionError, match="unbound column 'nowhere'"):
            group_blockset(blockset(ROWS), ("k",), aggs)


class TestRepeatedAttributeName:
    """A layout may hold a name twice; the env dict keeps the *last*
    position, and so does the compiled closure."""

    child = BlockSet(("k",), ("x", "x"), {(1,): [((10, 20), 1)], (2,): [((30, 5), 1)]})

    def test_select_reads_the_last_position(self):
        predicate = ast.Cmp(">", ast.Column("x"), ast.Lit(15))
        assert run_select(self.child, predicate) == reference_select(
            self.child, predicate
        ) == {(1,): [((10, 20), 1)]}

    def test_group_reads_the_last_position(self):
        aggs = (AggSpec("total", "SUM", ast.Column("x")),)
        assert group_blockset(self.child, (), aggs).data == reference_group(
            self.child, (), aggs
        ) == {(): [((25,), 1)]}

    def test_join_residual_reads_the_last_position(self):
        right = BlockSet(("rk",), ("x",), {(1,): [((99,), 1)], (2,): [((0,), 1)]})
        residual = ast.Cmp(">", ast.Column("x"), ast.Lit(15))
        on = (("k", "rk"),)
        assert join_blocksets(self.child, right, on, residual).data == (
            reference_join(self.child, right, on, residual)
        ) == {(1, 1): [((10, 20, 99), 1)]}


# -- the positional picker behind join keys, group keys, π and copy -----------


@pytest.mark.parametrize(
    "positions",
    [(), (2,), (0, 3), (3, 0, 1), (1, 1), (2, 0, 2)],
    ids=["arity-0", "arity-1", "arity-2", "arity-3", "repeated", "repeated-apart"],
)
def test_row_picker_is_the_per_row_generator(positions):
    """``itemgetter`` answers a bare value for one position and refuses
    none; the picker is ``tuple(row[p] for p in positions)`` at every
    arity, a repeated position included."""
    from repro.kba.blockset import row_picker

    pick = row_picker(positions)
    for row in [(1, "x", None, 2.5), ((), None, "", 0)]:
        picked = pick(row)
        assert picked == tuple(row[p] for p in positions)
        assert type(picked) is tuple


def test_attrs_are_computed_once():
    block_set = BlockSet(["a", "b"], ["c"])
    assert block_set.attrs == ("a", "b", "c")
    assert block_set.attrs is block_set.attrs
    assert [block_set.position(name) for name in "cab"] == [2, 0, 1]
