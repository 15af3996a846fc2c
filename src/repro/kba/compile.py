"""Compile KBA plans and scalar expressions into vectorized closures (PR 10).

The reference evaluation of an expression — ``Expr.eval`` over an
``attr -> value`` dict built per tuple — is exact but interpreter-bound:
a loop over it spends its time on dict allocation and ``eval`` dispatch.
This module compiles an expression **once** per operator into positional
closures — column references become list indexes, comparisons become
``operator`` calls. The row-at-a-time handlers of
:mod:`repro.kba.executor` call such a closure per row
(:func:`compile_row`); the columnar handlers evaluate them over whole
:class:`~repro.baav.frame.BlockSetFrame` columns, MonetDB/X100 style.

Two compilation targets:

* :func:`compile_row` — a closure over one full row tuple: the row
  handlers' predicates, join residuals and group-by aggregate arguments,
  and the RA baseline engine's filters.
* :func:`compile_mask` / :func:`compile_values` — columnar kernels over a
  frame, returning one result per entry. Common shapes (``column <op>
  literal``, IN-lists, BETWEEN, LIKE on a bare column) specialize into
  single-column loops that skip NULL slots via the validity mask.

Exactness is the contract: every compiled closure returns byte-identical
results to ``Expr.eval`` — the same NULL collapses (comparisons are
``False`` on NULL, arithmetic propagates ``None``, division by zero is
``None``) and the same truthiness composition for AND/OR/NOT.
:func:`compile_row` is total over :class:`~repro.sql.ast.Expr`: what
``Expr.eval`` would refuse (an unbound column, an aggregate outside
GROUP BY, an unknown operator) compiles to a closure that raises the same
error *when called*, so a short-circuited conjunct still never raises.
The columnar kernels raise :class:`~repro.errors.CompileError` for what
they do not understand and the operator falls back to the row-at-a-time
handler, so ``vectorized=True`` never changes results.

Plan compilation (:func:`compile_plan`) additionally fuses adjacent
``ProjectK(SelectK(x))`` pairs into one mask-and-take pass over the
child's frame. Fusion only applies on the uninstrumented
``executor.execute`` path; the parallel engine keeps its per-operator walk
(each stage is metered separately) and vectorizes *within* operators, so
stage structure, simulated cost, and storage counters are identical across
modes — the Extend/IndexProbe handlers reuse the exact probe order,
dedup, and batch chunking of the row path.
"""

from __future__ import annotations

import operator
from collections import Counter, defaultdict
from itertools import compress, repeat
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.baav.block import Block
from repro.baav.frame import BlockSetFrame, Frame, group_fold, hash_probe
from repro.errors import CompileError, ExecutionError
from repro.kba import plan as kp
from repro.kba.blockset import KEY, ROW, VALUE, BlockSet, Entry
from repro.relational.types import Row
from repro.sql import ast
from repro.sql.aggregates import make_accumulator
from repro.sql.algebra import AggSpec

RowFn = Callable[[Row], object]
VecFn = Callable[[Frame], List[object]]

_ARITH_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
}

_CMP_OPS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _position(attrs: Sequence[str], name: str) -> int:
    """Where ``name`` sits in a row laid out as ``attrs`` — the *last*
    position when the layout repeats a name, which is the one the
    reference env ``dict(zip(attrs, row))`` keeps."""
    for pos in range(len(attrs) - 1, -1, -1):
        if attrs[pos] == name:
            return pos
    raise CompileError(f"unbound column {name!r}")


# -- row compilation ----------------------------------------------------------


def _unknown_arith(symbol: str) -> Callable[[object, object], object]:
    def fail(a: object, b: object) -> object:
        raise ExecutionError(f"unknown arithmetic operator {symbol!r}")

    return fail


#: ``column <op> literal`` as one closure per operator: ``False`` on a
#: NULL, else the comparison — what ``Cmp.eval`` answers
_CMP_LITERAL: Dict[str, Callable[[int, object], RowFn]] = {
    "=": lambda pos, lit: lambda row: (v := row[pos]) is not None and v == lit,
    "<>": lambda pos, lit: lambda row: (v := row[pos]) is not None and v != lit,
    "<": lambda pos, lit: lambda row: (v := row[pos]) is not None and v < lit,
    "<=": lambda pos, lit: lambda row: (v := row[pos]) is not None and v <= lit,
    ">": lambda pos, lit: lambda row: (v := row[pos]) is not None and v > lit,
    ">=": lambda pos, lit: lambda row: (v := row[pos]) is not None and v >= lit,
}


def _column_test(
    expr: ast.Expr, attrs: Sequence[str]
) -> Optional[Tuple[int, str, object]]:
    """``(position, operator, literal)`` when ``expr`` compares a column
    bound in ``attrs`` with a non-NULL literal, else ``None``."""
    if not (
        isinstance(expr, ast.Cmp)
        and isinstance(expr.left, ast.Column)
        and isinstance(expr.right, ast.Lit)
        and expr.right.value is not None
    ):
        return None
    try:
        return _position(attrs, expr.left.name), expr.op, expr.right.value
    except CompileError:
        return None


def _conjunction(items: Sequence[ast.Expr], attrs: Sequence[str]) -> RowFn:
    """``AND``: ``all()`` over the items, as one closure — a loop of
    ``operator`` calls when every item is ``column <op> literal``."""
    tests = [_column_test(item, attrs) for item in items]
    if all(test is not None for test in tests):
        checks = [(pos, _CMP_OPS[symbol], lit) for pos, symbol, lit in tests]

        def each_test(row: Row) -> bool:
            for pos, op, lit in checks:
                v = row[pos]
                if v is None or not op(v, lit):
                    return False
            return True

        return each_test
    fns = [compile_row(item, attrs) for item in items]

    def each_item(row: Row) -> bool:
        for fn in fns:
            if not fn(row):
                return False
        return True

    return each_item


def compile_row(expr: ast.Expr, attrs: Sequence[str]) -> RowFn:
    """Compile ``expr`` into a closure over one full row tuple.

    The closure returns exactly what ``expr.eval`` returns for the env
    ``dict(zip(attrs, row))``, without building the dict — and raises
    what and when it raises (see the module docstring). Every node type
    of :mod:`repro.sql.ast` compiles.
    """
    if isinstance(expr, ast.Lit):
        value = expr.value
        return lambda row: value
    if isinstance(expr, (ast.Column, ast.AggCall)):
        # an aggregate's result sits under its output name (the group-by
        # operator binds it there)
        name = expr.name if isinstance(expr, ast.Column) else str(expr)
        try:
            pos = _position(attrs, name)
        except CompileError:
            # not in this layout: raise, per call, exactly what
            # ``Expr.eval`` raises for an env without it
            return lambda row: expr.eval({})
        return lambda row: row[pos]
    if isinstance(expr, ast.Neg):
        fn = compile_row(expr.operand, attrs)
        return lambda row: None if (v := fn(row)) is None else -v
    if isinstance(expr, ast.Arith):
        left = compile_row(expr.left, attrs)
        right = compile_row(expr.right, attrs)
        if expr.op == "/":

            def divide(row: Row) -> object:
                a = left(row)
                b = right(row)
                if a is None or b is None or b == 0:
                    return None
                return a / b

            return divide
        op = _ARITH_OPS.get(expr.op) or _unknown_arith(expr.op)

        def arith(row: Row) -> object:
            a = left(row)
            b = right(row)
            return None if a is None or b is None else op(a, b)

        return arith
    if isinstance(expr, ast.Cmp):
        test = _column_test(expr, attrs)
        if test is not None:
            pos, symbol, literal = test
            return _CMP_LITERAL[symbol](pos, literal)
        op = _CMP_OPS[expr.op]
        left = compile_row(expr.left, attrs)
        right = compile_row(expr.right, attrs)

        def compare(row: Row) -> object:
            a = left(row)
            b = right(row)
            return False if a is None or b is None else op(a, b)

        return compare
    if isinstance(expr, ast.And):
        return _conjunction(expr.items, attrs)
    if isinstance(expr, ast.Or):
        fns = [compile_row(item, attrs) for item in expr.items]
        return lambda row: any(fn(row) for fn in fns)
    if isinstance(expr, ast.Not):
        fn = compile_row(expr.operand, attrs)
        return lambda row: not fn(row)
    if isinstance(expr, ast.IsNull):
        fn = compile_row(expr.operand, attrs)
        return lambda row: fn(row) is None
    if isinstance(expr, ast.InList):
        fn = compile_row(expr.operand, attrs)
        members = tuple(expr.values)
        return lambda row: (
            False if (v := fn(row)) is None else v in members
        )
    if isinstance(expr, ast.Between):
        fn = compile_row(expr.operand, attrs)
        low = compile_row(expr.low, attrs)
        high = compile_row(expr.high, attrs)

        def between(row: Row) -> object:
            v = fn(row)
            lo = low(row)
            hi = high(row)
            if v is None or lo is None or hi is None:
                return False
            return lo <= v <= hi

        return between
    if isinstance(expr, ast.Like):
        fn = compile_row(expr.operand, attrs)
        regex = expr._compiled()
        return lambda row: (
            False if (v := fn(row)) is None else bool(regex.match(str(v)))
        )
    raise ExecutionError(
        f"no row compilation for {type(expr).__name__} expression"
    )


def compile_block(
    expr: ast.Expr, key_attrs: Sequence[str], value_attrs: Sequence[str]
) -> Tuple[str, RowFn]:
    """``expr`` compiled over the part of a block's row it reads:
    ``(KEY, fn of the key)`` when every column it reads sits in the key,
    ``(VALUE, fn of the value row)`` when every one sits in the value,
    else ``(ROW, fn of key + value)`` — equal to ``compile_row(expr,
    key_attrs + value_attrs)`` on the row each reads. A block operator
    calls a ``KEY`` closure once per block; no tuple is concatenated."""
    attrs = tuple(key_attrs) + tuple(value_attrs)
    names: List[str] = []
    _names_read(expr, names)
    try:
        positions = [_position(attrs, name) for name in names]
    except CompileError:
        return ROW, compile_row(expr, attrs)  # raises per call
    n_key = len(key_attrs)
    if not positions or max(positions) < n_key:
        return KEY, compile_row(expr, key_attrs)
    if min(positions) >= n_key:
        return VALUE, compile_row(expr, value_attrs)
    return ROW, compile_row(expr, attrs)


def _names_read(expr: ast.Expr, out: List[str]) -> None:
    """Append the names :func:`compile_row` looks ``expr`` up by: each
    column's, and an aggregate call's output name (not its argument's)."""
    if isinstance(expr, ast.Column):
        out.append(expr.name)
    elif isinstance(expr, ast.AggCall):
        out.append(str(expr))
    else:
        for child in expr.children():
            _names_read(child, out)


# -- columnar compilation -----------------------------------------------------

# a compiled vector is either a per-entry closure or a constant broadcast
_CONST = "const"
_VEC = "vec"
_Compiled = Tuple[str, object]


def _fold(fn: Callable[[], object]) -> object:
    """Constant-fold; an exception means the fold is unsafe to hoist."""
    try:
        return fn()
    except CompileError:
        raise
    except Exception as exc:  # repro-lint: disable=broad-except -- any fold failure (type error, div-by-zero edge) is converted to CompileError so the operator falls back to the exact row path
        raise CompileError(f"constant fold failed: {exc}") from exc


def _column_loop(
    pos: int, item_fn: Callable[[object], object]
) -> VecFn:
    """One-column kernel: NULL slots collapse to False via the mask."""

    def run(frame: Frame) -> List[object]:
        column, mask = frame.dense(pos)
        if mask is None:
            return [item_fn(v) for v in column]
        return [ok and item_fn(v) for v, ok in zip(column, mask)]

    return run


def _compile_vec(expr: ast.Expr, attrs: Tuple[str, ...]) -> _Compiled:
    if isinstance(expr, ast.Lit):
        return (_CONST, expr.value)
    if isinstance(expr, ast.Column):
        pos = _position(attrs, expr.name)
        return (_VEC, lambda frame: frame.values(pos))
    if isinstance(expr, ast.Neg):
        kind, inner = _compile_vec(expr.operand, attrs)
        if kind == _CONST:
            return (
                _CONST,
                None if inner is None else _fold(lambda: -inner),
            )
        return (
            _VEC,
            lambda frame: [
                None if v is None else -v for v in inner(frame)
            ],
        )
    if isinstance(expr, ast.Arith):
        return _compile_arith(expr, attrs)
    if isinstance(expr, ast.Cmp):
        return _compile_cmp(expr, attrs)
    if isinstance(expr, ast.And):
        return _compile_junction(expr.items, attrs, all, True)
    if isinstance(expr, ast.Or):
        return _compile_junction(expr.items, attrs, any, False)
    if isinstance(expr, ast.Not):
        kind, inner = _compile_vec(expr.operand, attrs)
        if kind == _CONST:
            return (_CONST, not inner)
        return (_VEC, lambda frame: [not v for v in inner(frame)])
    if isinstance(expr, ast.InList):
        members = tuple(expr.values)
        if isinstance(expr.operand, ast.Column):
            pos = _position(attrs, expr.operand.name)
            return (
                _VEC,
                _column_loop(pos, lambda v, _m=members: v in _m),
            )
        kind, inner = _compile_vec(expr.operand, attrs)
        if kind == _CONST:
            return (
                _CONST,
                False if inner is None else _fold(lambda: inner in members),
            )
        return (
            _VEC,
            lambda frame: [
                False if v is None else v in members
                for v in inner(frame)
            ],
        )
    if isinstance(expr, ast.Between):
        return _compile_between(expr, attrs)
    if isinstance(expr, ast.Like):
        regex = expr._compiled()
        if isinstance(expr.operand, ast.Column):
            pos = _position(attrs, expr.operand.name)
            return (
                _VEC,
                _column_loop(
                    pos, lambda v, _r=regex: bool(_r.match(str(v)))
                ),
            )
        kind, inner = _compile_vec(expr.operand, attrs)
        if kind == _CONST:
            return (
                _CONST,
                False
                if inner is None
                else bool(regex.match(str(inner))),
            )
        return (
            _VEC,
            lambda frame: [
                False if v is None else bool(regex.match(str(v)))
                for v in inner(frame)
            ],
        )
    raise CompileError(
        f"cannot compile {type(expr).__name__} expression"
    )


def _compile_arith(expr: ast.Arith, attrs: Tuple[str, ...]) -> _Compiled:
    lkind, left = _compile_vec(expr.left, attrs)
    rkind, right = _compile_vec(expr.right, attrs)
    if expr.op == "/":
        if lkind == _CONST and rkind == _CONST:
            if left is None or right is None or right == 0:
                return (_CONST, None)
            return (_CONST, _fold(lambda: left / right))
        if lkind == _CONST:
            if left is None:
                return (_CONST, None)
            return (
                _VEC,
                lambda frame: [
                    None if b is None or b == 0 else left / b
                    for b in right(frame)
                ],
            )
        if rkind == _CONST:
            if right is None or right == 0:
                return (_CONST, None)
            return (
                _VEC,
                lambda frame: [
                    None if a is None else a / right
                    for a in left(frame)
                ],
            )
        return (
            _VEC,
            lambda frame: [
                None if a is None or b is None or b == 0 else a / b
                for a, b in zip(left(frame), right(frame))
            ],
        )
    op = _ARITH_OPS.get(expr.op)
    if op is None:
        raise CompileError(f"unknown arithmetic operator {expr.op!r}")
    if lkind == _CONST and rkind == _CONST:
        if left is None or right is None:
            return (_CONST, None)
        return (_CONST, _fold(lambda: op(left, right)))
    if lkind == _CONST:
        if left is None:
            return (_CONST, None)
        return (
            _VEC,
            lambda frame: [
                None if b is None else op(left, b) for b in right(frame)
            ],
        )
    if rkind == _CONST:
        if right is None:
            return (_CONST, None)
        return (
            _VEC,
            lambda frame: [
                None if a is None else op(a, right) for a in left(frame)
            ],
        )
    return (
        _VEC,
        lambda frame: [
            None if a is None or b is None else op(a, b)
            for a, b in zip(left(frame), right(frame))
        ],
    )


def _cmp_column_lit(pos: int, op: Callable, value: object, flip: bool) -> VecFn:
    """``column <op> literal`` kernel: a single map() pass over the column.

    On NULL-free columns both the loop and the comparison run in C via
    ``map(op, column, repeat(value))``; masked columns fall back to a
    comprehension that collapses NULL slots to ``False``.
    """

    def run(frame: Frame) -> List[object]:
        column, mask = frame.dense(pos)
        if mask is None:
            if flip:
                return list(map(op, repeat(value), column))
            return list(map(op, column, repeat(value)))
        if flip:
            return [ok and op(value, v) for v, ok in zip(column, mask)]
        return [ok and op(v, value) for v, ok in zip(column, mask)]

    return run


def _compile_cmp(expr: ast.Cmp, attrs: Tuple[str, ...]) -> _Compiled:
    op = _CMP_OPS[expr.op]
    # column-vs-literal is the hot shape: a single masked column loop
    if isinstance(expr.left, ast.Column) and isinstance(expr.right, ast.Lit):
        value = expr.right.value
        if value is None:
            return (_CONST, False)
        pos = _position(attrs, expr.left.name)
        return (_VEC, _cmp_column_lit(pos, op, value, flip=False))
    if isinstance(expr.left, ast.Lit) and isinstance(expr.right, ast.Column):
        value = expr.left.value
        if value is None:
            return (_CONST, False)
        pos = _position(attrs, expr.right.name)
        return (_VEC, _cmp_column_lit(pos, op, value, flip=True))
    lkind, left = _compile_vec(expr.left, attrs)
    rkind, right = _compile_vec(expr.right, attrs)
    if lkind == _CONST and rkind == _CONST:
        if left is None or right is None:
            return (_CONST, False)
        return (_CONST, _fold(lambda: op(left, right)))
    if lkind == _CONST:
        if left is None:
            return (_CONST, False)
        return (
            _VEC,
            lambda frame: [
                False if b is None else op(left, b)
                for b in right(frame)
            ],
        )
    if rkind == _CONST:
        if right is None:
            return (_CONST, False)
        return (
            _VEC,
            lambda frame: [
                False if a is None else op(a, right)
                for a in left(frame)
            ],
        )
    return (
        _VEC,
        lambda frame: [
            False if a is None or b is None else op(a, b)
            for a, b in zip(left(frame), right(frame))
        ],
    )


def _compile_junction(
    items: Sequence[ast.Expr],
    attrs: Tuple[str, ...],
    combine: Callable[[Tuple[object, ...]], bool],
    neutral: bool,
) -> _Compiled:
    """AND (``combine=all``) / OR (``combine=any``) over item vectors."""
    fns: List[VecFn] = []
    for item in items:
        kind, compiled = _compile_vec(item, attrs)
        if kind == _CONST:
            if bool(compiled) is not neutral:
                # a falsy AND item / truthy OR item decides the junction
                return (_CONST, not neutral)
            continue
        fns.append(compiled)
    if not fns:
        return (_CONST, neutral)

    def run(frame: Frame) -> List[object]:
        columns = [fn(frame) for fn in fns]
        return [combine(values) for values in zip(*columns)]

    return (_VEC, run)


def _compile_between(expr: ast.Between, attrs: Tuple[str, ...]) -> _Compiled:
    okind, inner = _compile_vec(expr.operand, attrs)
    lkind, low = _compile_vec(expr.low, attrs)
    hkind, high = _compile_vec(expr.high, attrs)
    if lkind == _CONST and hkind == _CONST:
        if low is None or high is None:
            return (_CONST, False)
        if okind == _CONST:
            if inner is None:
                return (_CONST, False)
            return (_CONST, _fold(lambda: low <= inner <= high))
        if isinstance(expr.operand, ast.Column):
            pos = _position(attrs, expr.operand.name)
            return (
                _VEC,
                _column_loop(
                    pos, lambda v, _lo=low, _hi=high: _lo <= v <= _hi
                ),
            )
        return (
            _VEC,
            lambda frame: [
                False if v is None else low <= v <= high
                for v in inner(frame)
            ],
        )
    # non-literal bounds: fall back to three compiled vectors
    operand_fn = _as_vec(okind, inner)
    low_fn = _as_vec(lkind, low)
    high_fn = _as_vec(hkind, high)

    def run(frame: Frame) -> List[object]:
        return [
            False
            if v is None or lo is None or hi is None
            else lo <= v <= hi
            for v, lo, hi in zip(
                operand_fn(frame), low_fn(frame), high_fn(frame)
            )
        ]

    return (_VEC, run)


def _as_vec(kind: str, compiled: object) -> VecFn:
    if kind == _VEC:
        return compiled  # type: ignore[return-value]
    return lambda frame: [compiled] * frame.n


def compile_mask(expr: ast.Expr, attrs: Tuple[str, ...]) -> VecFn:
    """Compile a predicate into a per-entry mask kernel over a frame.

    Mask slots carry the exact ``expr.eval`` result (so truthiness — the
    only thing σ consumes — matches the row-at-a-time path bit for bit).
    """
    kind, compiled = _compile_vec(expr, attrs)
    return _as_vec(kind, compiled)


def compile_values(expr: ast.Expr, attrs: Tuple[str, ...]) -> VecFn:
    """Compile a scalar expression into a per-entry value kernel."""
    kind, compiled = _compile_vec(expr, attrs)
    return _as_vec(kind, compiled)


# -- vectorized operator handlers ---------------------------------------------
#
# Drop-in replacements for the executor's row handlers: identical results,
# identical dict/entry ordering, and — for the storage-touching Extend —
# identical probe order, dedup and batching, so every counter the engines
# meter (gets/values/bytes, cache, index, overlay) is mode-invariant.


def _row_handler(node_type: type) -> Callable:
    from repro.kba import executor

    return executor._HANDLERS[node_type]


def _vec_select(
    node: kp.SelectK, ctx, inputs: List[BlockSet]
) -> BlockSet:
    child = inputs[0]
    try:
        mask_fn = compile_mask(node.predicate, child.attrs)
    except CompileError:
        return _row_handler(kp.SelectK)(node, ctx, inputs)
    frame = BlockSetFrame(child)
    mask = mask_fn(frame)
    data: Dict[Row, List[Entry]] = {}
    # compress() filters at C speed; rejected entries cost no Python work
    for key, value, count in compress(frame.triples, mask):
        bucket = data.get(key)
        if bucket is None:
            data[key] = bucket = []
        bucket.append((value, count))
    return BlockSet(child.key_attrs, child.value_attrs, data)


def _merge_projected(
    keys: Iterable[Row],
    values: Iterable[Row],
    counts: List[int],
) -> Dict[Row, List[Entry]]:
    """Bag-merge projected ``(key, value, count)`` streams into BlockSet
    data, preserving the row handlers' first-encounter ordering of both
    keys and per-key value rows.

    When every multiplicity is 1 (the usual case after a Constant leaf or
    an uncompressed fetch) the merge is a single C-level ``Counter`` pass
    over the zipped pairs; ``Counter`` keeps first-encounter order, so the
    regroup loop below reproduces the exact dict/entry order of the
    general path.
    """
    if len(counts) == counts.count(1):
        merged = Counter(zip(keys, values))
        data: Dict[Row, List[Entry]] = {}
        for (out_key, out_value), count in merged.items():
            bucket = data.get(out_key)
            if bucket is None:
                data[out_key] = bucket = []
            bucket.append((out_value, count))
        return data
    grouped: Dict[Row, Dict[Row, int]] = defaultdict(dict)
    for out_key, out_value, count in zip(keys, values, counts):
        bucket = grouped[out_key]
        bucket[out_value] = bucket.get(out_value, 0) + count
    return {key: list(bucket.items()) for key, bucket in grouped.items()}


def _project_positions(
    child: BlockSet, kept: Tuple[str, ...]
) -> Tuple[Tuple[str, ...], Tuple[str, ...], List[int], List[int]]:
    kept_set = set(kept)
    new_key = tuple(a for a in child.key_attrs if a in kept_set)
    new_value = tuple(a for a in kept if a not in set(new_key))
    positions_key = [child.position(a) for a in new_key]
    positions_value = [child.position(a) for a in new_value]
    return new_key, new_value, positions_key, positions_value


def _vec_project(
    node: kp.ProjectK, ctx, inputs: List[BlockSet]
) -> BlockSet:
    child = inputs[0]
    new_key, new_value, positions_key, positions_value = _project_positions(
        child, tuple(node.attrs)
    )
    frame = BlockSetFrame(child)
    key_cols = [frame.values(p) for p in positions_key]
    value_cols = [frame.values(p) for p in positions_value]
    keys: Iterable[Row] = zip(*key_cols) if key_cols else repeat((), frame.n)
    values: Iterable[Row] = (
        zip(*value_cols) if value_cols else repeat((), frame.n)
    )
    data = _merge_projected(keys, values, frame.counts)
    return BlockSet(new_key, new_value, data)


def _vec_join(node: kp.JoinK, ctx, inputs: List[BlockSet]) -> BlockSet:
    left, right = inputs
    return join_blocksets_vectorized(left, right, node.on, node.residual)


def join_blocksets_vectorized(
    left: BlockSet,
    right: BlockSet,
    on: Tuple[Tuple[str, str], ...],
    residual: Optional[ast.Expr] = None,
) -> BlockSet:
    """Hash-join two block sets via the frame-level hash_probe kernel."""
    residual_fn: Optional[RowFn] = None
    if residual is not None:
        try:
            residual_fn = compile_row(residual, left.attrs + right.attrs)
        except CompileError:
            from repro.kba import executor

            return executor.join_blocksets(left, right, on, residual)
    left_pos = [left.position(name) for name, _ in on]
    right_pos = [right.position(name) for _, name in on]
    left_frame = BlockSetFrame(left)
    right_frame = BlockSetFrame(right)
    matches = hash_probe(right_frame, right_pos, left_frame, left_pos)
    right_fulls = [key + value for key, value, _ in right_frame.triples]
    right_counts = right_frame.counts
    n_left_key = len(left.key_attrs)
    n_right_key = len(right.key_attrs)
    data: Dict[Row, List[Entry]] = defaultdict(list)
    for (lkey, lvalue, lcount), hits in zip(left_frame.triples, matches):
        if not hits:
            continue
        lfull = lkey + lvalue
        for j in hits:
            rfull = right_fulls[j]
            if residual_fn is not None and not residual_fn(lfull + rfull):
                continue
            key = lfull[:n_left_key] + rfull[:n_right_key]
            value = lfull[n_left_key:] + rfull[n_right_key:]
            data[key].append((value, lcount * right_counts[j]))
    return BlockSet(
        left.key_attrs + right.key_attrs,
        left.value_attrs + right.value_attrs,
        dict(data),
    )


def _vec_group(node: kp.GroupK, ctx, inputs: List[BlockSet]) -> BlockSet:
    child = inputs[0]
    return group_blockset_vectorized(child, node.keys, node.aggs)


def group_blockset_vectorized(
    child: BlockSet, keys: Tuple[str, ...], aggs: Tuple[AggSpec, ...]
) -> BlockSet:
    """γ via the frame-level group_fold kernel (compiled agg arguments)."""
    attrs = child.attrs
    try:
        value_fns = [
            None if spec.arg is None else compile_values(spec.arg, attrs)
            for spec in aggs
        ]
    except CompileError:
        from repro.kba import executor

        return executor.group_blockset(child, keys, aggs)
    frame = BlockSetFrame(child)
    key_positions = [child.position(k) for k in keys]
    arg_columns = [
        None if fn is None else fn(frame) for fn in value_fns
    ]

    def fresh() -> List:
        return [make_accumulator(a.func, a.distinct) for a in aggs]

    groups = group_fold(frame, key_positions, arg_columns, fresh)
    if not keys and not groups:
        groups[()] = fresh()
    data = {
        key: [(tuple(acc.result() for acc in accs), 1)]
        for key, accs in groups.items()
    }
    return BlockSet(keys, tuple(a.name for a in aggs), data)


def _vec_extend(node: kp.Extend, ctx, inputs: List[BlockSet]) -> BlockSet:
    """Extend with columnar probe construction.

    Probe collection order, the dedup set, and the batch chunking are
    byte-identical to the row handler, so ``multi_get`` sees the same
    batches and every storage counter matches the row-at-a-time mode.
    """
    from repro.errors import PlanError
    from repro.kba.executor import _probe_batches

    child = inputs[0]
    instance = ctx.instance(node.kv_name)
    schema = instance.schema

    probe_of: Dict[str, str] = {kv: c for c, kv in node.on}
    if set(probe_of) != set(schema.key):
        raise PlanError(
            f"extend on {schema.name}: probe attrs {sorted(probe_of)} "
            f"must cover key {schema.key}"
        )
    if len(node.value_attrs) != len(schema.value):
        raise PlanError(
            f"extend on {schema.name}: value names {node.value_attrs} "
            f"must match value {schema.value}"
        )
    child_attrs = child.attrs
    probe_positions = [
        child_attrs.index(probe_of[kv_attr]) for kv_attr in schema.key
    ]
    exposed_names = tuple(name for _, name in node.expose_key)
    exposed_positions = [
        schema.key.index(kv_attr) for kv_attr, _ in node.expose_key
    ]

    frame = BlockSetFrame(child)
    probe_cols = [frame.values(p) for p in probe_positions]
    probe_tuples: List[Row] = (
        list(zip(*probe_cols)) if probe_cols else [()] * frame.n
    )

    probes: List[Row] = []
    seen = set()
    for probe in probe_tuples:
        if None in probe or probe in seen:
            continue
        seen.add(probe)
        probes.append(probe)

    fetched: Dict[Row, Optional[Block]] = {}
    for batch in _probe_batches(probes, ctx.batch_size, ctx.batch_partitions):
        fetched.update(instance.multi_get(batch))

    data: Dict[Row, List[Entry]] = {}
    for (key, value, count), probe in zip(frame.triples, probe_tuples):
        if None in probe:
            continue
        block = fetched[probe]
        if block is None:
            continue
        out_key = (
            key + value + tuple(probe[p] for p in exposed_positions)
        )
        bucket = data.get(out_key)
        if bucket is None:
            data[out_key] = bucket = []
        for row, block_count in block.entries:
            bucket.append((row, block_count * count))
    return BlockSet(child_attrs + exposed_names, node.value_attrs, data)


#: vectorized replacements; node types not listed here fall back to the
#: row handlers (leaves and set operations, which have no per-row
#: expression work to compile away)
VEC_HANDLERS: Dict[type, Callable] = {
    kp.SelectK: _vec_select,
    kp.ProjectK: _vec_project,
    kp.JoinK: _vec_join,
    kp.GroupK: _vec_group,
    kp.Extend: _vec_extend,
}


# -- plan compilation ---------------------------------------------------------

PlanFn = Callable[..., BlockSet]


def _fused_select_project(
    select: kp.SelectK, project: kp.ProjectK, child: BlockSet, ctx
) -> BlockSet:
    """σ+π as one mask-and-take pass over the child's frame."""
    try:
        mask_fn = compile_mask(select.predicate, child.attrs)
    except CompileError:
        selected = _row_handler(kp.SelectK)(select, ctx, [child])
        return _vec_project(project, ctx, [selected])
    new_key, new_value, positions_key, positions_value = _project_positions(
        child, tuple(project.attrs)
    )
    frame = BlockSetFrame(child)
    mask = mask_fn(frame)
    # Mask-and-take column by column: compress() filters and zip() builds
    # the output tuples at C speed, so the only per-row Python work left
    # is the bag-semantics dict merge.
    counts = list(compress(frame.counts, mask))
    keys: Iterable[Row]
    values: Iterable[Row]
    if positions_key:
        keys = zip(*[compress(frame.values(p), mask) for p in positions_key])
    else:
        keys = repeat((), len(counts))
    if positions_value:
        values = zip(
            *[compress(frame.values(p), mask) for p in positions_value]
        )
    else:
        values = repeat((), len(counts))
    data = _merge_projected(keys, values, counts)
    return BlockSet(new_key, new_value, data)


def compile_plan(node: kp.KBANode) -> PlanFn:
    """Compile a KBA plan into a chain of closures, fusing σ+π pairs.

    The returned callable takes an :class:`ExecContext` and produces the
    plan's BlockSet. Operator dispatch, expression compilation and the
    fusion decision all happen once, here — running the plan re-executes
    only the compiled kernels.
    """
    if isinstance(node, kp.ProjectK) and isinstance(node.child, kp.SelectK):
        select = node.child
        inner = compile_plan(select.child)

        def run_fused(ctx) -> BlockSet:
            return _fused_select_project(select, node, inner(ctx), ctx)

        return run_fused
    children = [compile_plan(child) for child in node.children()]

    def run(ctx) -> BlockSet:
        from repro.kba.executor import execute_node

        inputs = [child(ctx) for child in children]
        return execute_node(node, ctx, inputs)

    return run


def run_compiled(node: kp.KBANode, ctx) -> BlockSet:
    """Compile and run a plan (the ``vectorized=True`` execute path)."""
    return compile_plan(node)(ctx)
