"""Sequential executor for KBA plans over a BaaV (and TaaV) store.

Execution is *logical*: it computes exact results on block sets while the
underlying cluster counts gets / values / bytes. The parallel engine
(:mod:`repro.parallel.engine`) re-walks the same plan to attribute those
costs to workers and stages.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.baav.block import Block
from repro.baav.store import BaaVStore
from repro.errors import ExecutionError, PlanError
from repro.kba import plan as kp
from repro.kba.blockset import KEY, ROW, VALUE, BlockSet, Entry, row_picker
from repro.kba.compile import compile_block, compile_row
from repro.kv.taav import TaaVStore
from repro.relational.types import Row
from repro.sql.aggregates import make_accumulator
from repro.sql.algebra import AggSpec


#: default number of probe keys coalesced into one multi-get batch
DEFAULT_BATCH_SIZE = 64


class ExecContext:
    """Stores available to a KBA plan execution.

    ``batch_size`` is the number of distinct probe keys coalesced into one
    ``multi_get`` round (1 = the per-key baseline: one get, one round trip
    per probe). ``batch_partitions`` models independent batching domains —
    the parallel engine sets it to its worker count so each partition
    coalesces only its own probes, as real workers would. Both knobs must
    be >= 1; out-of-range values raise :class:`ExecutionError`.

    ``vectorized`` selects compiled columnar execution
    (:mod:`repro.kba.compile`): operators evaluate once-compiled
    positional kernels over whole-frame columns instead of per-row
    ``eval`` dicts (default off). Results and storage counters are
    identical across modes — only wall-clock changes.
    """

    def __init__(
        self,
        baav: Optional[BaaVStore],
        taav: Optional[TaaVStore] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        batch_partitions: int = 1,
        indexes=None,
        vectorized: bool = False,
    ) -> None:
        if batch_size < 1:
            raise ExecutionError("batch_size must be >= 1")
        if batch_partitions < 1:
            raise ExecutionError("batch_partitions must be >= 1")
        self.baav = baav
        self.taav = taav
        self.batch_size = batch_size
        self.batch_partitions = batch_partitions
        #: optional repro.index.IndexManager serving IndexProbe leaves
        self.indexes = indexes
        self.vectorized = vectorized

    def instance(self, name: str):
        if self.baav is None:
            raise ExecutionError("no BaaV store available")
        return self.baav.instance(name)


def execute(node: kp.KBANode, ctx: ExecContext) -> BlockSet:
    """Execute a KBA plan and return its BlockSet result.

    With ``ctx.vectorized`` the plan is compiled once into a chain of
    fused closures (:func:`repro.kba.compile.compile_plan`) and run;
    otherwise each operator is interpreted row-at-a-time.
    """
    if ctx.vectorized:
        from repro.kba.compile import run_compiled

        return run_compiled(node, ctx)
    inputs = [execute(child, ctx) for child in node.children()]
    return execute_node(node, ctx, inputs)


def execute_node(
    node: kp.KBANode, ctx: ExecContext, inputs: List[BlockSet]
) -> BlockSet:
    """Execute one operator given its children's results.

    The parallel engine (M3) drives its own recursion through this entry
    so it can meter storage counters and intermediate sizes per operator.
    With ``ctx.vectorized`` the expression-heavy operators dispatch to
    their compiled columnar handlers (same results, same counters); node
    types without a vectorized form use the row handlers either way.
    """
    if ctx.vectorized:
        from repro.kba.compile import VEC_HANDLERS

        vec_handler = VEC_HANDLERS.get(type(node))
        if vec_handler is not None:
            return vec_handler(node, ctx, inputs)
    handler = _HANDLERS.get(type(node))
    if handler is None:
        raise ExecutionError(f"no handler for KBA node {type(node).__name__}")
    return handler(node, ctx, inputs)


# -- leaves -----------------------------------------------------------------


def _run_constant(node: kp.Constant, ctx: ExecContext, inputs: List[BlockSet]) -> BlockSet:
    return BlockSet.constant(node.attrs, node.keys)


def _run_scan_kv(node: kp.ScanKV, ctx: ExecContext, inputs: List[BlockSet]) -> BlockSet:
    instance = ctx.instance(node.kv_name)
    alias = node.alias
    key_attrs = tuple(f"{alias}.{a}" for a in instance.schema.key)
    value_attrs = tuple(f"{alias}.{a}" for a in instance.schema.value)
    data: Dict[Row, List[Entry]] = {}
    proven = True
    # a scan yields each logical key once, in a block decoded for this
    # call alone: its entry list is adopted, not copied
    for key, block in instance.scan(batch_size=ctx.batch_size):
        data[key] = block.entries
        if not block.proven:
            proven = False
    return BlockSet(
        key_attrs, value_attrs, data, instance.value_sizing if proven else None
    )


def _run_taav_scan(node: kp.TaaVScan, ctx: ExecContext, inputs: List[BlockSet]) -> BlockSet:
    if ctx.taav is None or node.relation not in ctx.taav:
        raise ExecutionError(
            f"TaaV store has no relation {node.relation!r}"
        )
    taav = ctx.taav.relation(node.relation)
    relation = taav.fetch_all(batch_size=ctx.batch_size)
    attrs = tuple(
        f"{node.alias}.{a}" for a in relation.schema.attribute_names
    )
    entries = [(row, 1) for row in relation.rows]
    return BlockSet((), attrs, {(): entries} if entries else {})


def _run_index_probe(
    node: kp.IndexProbe, ctx: ExecContext, inputs: List[BlockSet]
) -> BlockSet:
    """Index probe → TaaV multi_get: the scan-free non-key access path.

    The index answers with the matching primary keys (its own gets are
    counted on the cluster like any read); the tuples are then fetched
    with the same coalesced per-partition batches an ∝ extend uses.
    """
    if ctx.indexes is None:
        raise ExecutionError("plan has an IndexProbe but no index manager")
    if ctx.taav is None or node.relation not in ctx.taav:
        raise ExecutionError(
            f"TaaV store has no relation {node.relation!r} to probe"
        )
    pks = ctx.indexes.lookup(node.relation, node)
    taav = ctx.taav.relation(node.relation)
    rows: List[Row] = []
    for batch in _probe_batches(pks, ctx.batch_size, ctx.batch_partitions):
        for row in taav.multi_get(batch):
            if row is not None:
                rows.append(row)
    attrs = tuple(
        f"{node.alias}.{a}" for a in taav.schema.attribute_names
    )
    entries = [(row, 1) for row in rows]
    return BlockSet((), attrs, {(): entries} if entries else {})


# -- BaaV-specific operators ---------------------------------------------------


def _run_extend(node: kp.Extend, ctx: ExecContext, inputs: List[BlockSet]) -> BlockSet:
    child = inputs[0]
    instance = ctx.instance(node.kv_name)
    schema = instance.schema

    # order the probe positions by the KV schema's key order
    probe_of: Dict[str, str] = {kv_attr: c_attr for c_attr, kv_attr in node.on}
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
    pick_probe = row_picker(
        [child_attrs.index(probe_of[kv_attr]) for kv_attr in schema.key]
    )

    exposed_names = tuple(name for _, name in node.expose_key)
    pick_exposed = row_picker(
        [schema.key.index(kv_attr) for kv_attr, _ in node.expose_key]
    )

    # Pass 1 — collect the distinct probe keys of every entry. This is
    # the single probing path of the executor: key lookups (Constant →
    # Extend), fetch-joins and semijoins all arrive here.
    probes: List[Row] = []
    seen = set()
    for key, value, count in child.iter_entries():
        probe = pick_probe(key + value)
        if None in probe or probe in seen:
            continue
        seen.add(probe)
        probes.append(probe)

    # Pass 2 — fetch the deduplicated probe set with coalesced
    # multi-gets: one round trip per owning node per batch, instead of
    # one get invocation (and round trip) per probe.
    fetched: Dict[Row, Optional[Block]] = {}
    for batch in _probe_batches(probes, ctx.batch_size, ctx.batch_partitions):
        fetched.update(instance.multi_get(batch))

    # Pass 3 — the join itself, now purely local on the fetched blocks.
    data: Dict[Row, List[Entry]] = {}
    for key, value, count in child.iter_entries():
        full = key + value
        probe = pick_probe(full)
        if None in probe:
            continue
        block = fetched[probe]
        if block is None:
            continue
        out_key = full + pick_exposed(probe)
        bucket = data.get(out_key)
        if bucket is None:
            bucket = []
            data[out_key] = bucket
        for row, block_count in block.entries:
            bucket.append((row, block_count * count))
    return BlockSet(child_attrs + exposed_names, node.value_attrs, data)


def _probe_batches(
    probes: List[Row], batch_size: int, partitions: int
) -> Iterator[List[Row]]:
    """Split probe keys into per-partition batches of ``batch_size``.

    Partitions model workers that batch independently; keys are dealt
    round-robin (deterministic, unlike string hashing) so round-trip
    counts are reproducible across runs.
    """
    if partitions <= 1:
        groups = [probes]
    else:
        groups = [probes[start::partitions] for start in range(partitions)]
    for group in groups:
        for start in range(0, len(group), batch_size):
            yield group[start:start + batch_size]


def _run_shift(node: kp.Shift, ctx: ExecContext, inputs: List[BlockSet]) -> BlockSet:
    child = inputs[0]
    return child.shift(node.new_key)


# -- relational operators over blocks -------------------------------------------


def _run_select(node: kp.SelectK, ctx: ExecContext, inputs: List[BlockSet]) -> BlockSet:
    child = inputs[0]
    reads, keep = compile_block(node.predicate, child.key_attrs, child.value_attrs)
    data: Dict[Row, List[Entry]] = {}
    if reads is KEY:
        # one verdict per block; a kept block keeps its entry list (no
        # operator extends an input's lists: ∪ copies before merging)
        for key, entries in child.data.items():
            if entries and keep(key):
                data[key] = entries
    else:
        on_value = reads is VALUE
        for key, entries in child.data.items():
            if on_value:
                kept = [entry for entry in entries if keep(entry[0])]
            else:
                kept = [entry for entry in entries if keep(key + entry[0])]
            if kept:
                data[key] = kept
    return BlockSet(child.key_attrs, child.value_attrs, data, child.sizing)


def _run_project(node: kp.ProjectK, ctx: ExecContext, inputs: List[BlockSet]) -> BlockSet:
    child = inputs[0]
    kept = tuple(node.attrs)
    kept_set = set(kept)
    new_key = tuple(a for a in child.key_attrs if a in kept_set)
    new_value = tuple(a for a in kept if a not in set(new_key))
    pick_key = row_picker([child.position(a) for a in new_key])
    pick_value = row_picker([child.position(a) for a in new_value])
    data: Dict[Row, Dict[Row, int]] = defaultdict(dict)
    for full, count in child.iter_full():
        key = pick_key(full)
        value = pick_value(full)
        bucket = data[key]
        bucket[value] = bucket.get(value, 0) + count
    packed = {key: list(bucket.items()) for key, bucket in data.items()}
    return BlockSet(new_key, new_value, packed)


def _run_join(node: kp.JoinK, ctx: ExecContext, inputs: List[BlockSet]) -> BlockSet:
    left, right = inputs
    return join_blocksets(left, right, node.on, node.residual)


def join_blocksets(
    left: BlockSet,
    right: BlockSet,
    on: Tuple[Tuple[str, str], ...],
    residual=None,
) -> BlockSet:
    """Hash-join two block sets; result keyed by X1 ∪ X2 (§4.2).

    Block at a time, in the order of the row-at-a-time join (left
    entries, and per entry its matches in right order): a probe read
    off a key is picked once per block, the right side is indexed by
    block when its probe is, an output key is built once per pair of
    blocks and a value row is ``left row + right row``.
    """
    left_reads, pick_left = left.picker([l for l, _ in on])
    right_reads, pick_right = right.picker([r for _, r in on])

    # probe -> [(right key, its entries with that probe)], in right order
    index: Dict[Row, List[Tuple[Row, Sequence[Entry]]]] = {}
    for rkey, rentries in right.data.items():
        if right_reads is KEY:
            probe = pick_right(rkey)
            if None in probe or not rentries:
                continue
            found = index.get(probe)
            if found is None:
                index[probe] = [(rkey, rentries)]
            else:
                found.append((rkey, rentries))
            continue
        on_value = right_reads is VALUE
        for entry in rentries:
            probe = pick_right(entry[0] if on_value else rkey + entry[0])
            if None in probe:
                continue
            found = index.get(probe)
            if found is None:
                index[probe] = [(rkey, (entry,))]
            else:
                found.append((rkey, (entry,)))

    passes = (
        None
        if residual is None
        else compile_row(residual, left.attrs + right.attrs)
    )
    by_block = left_reads is KEY and right_reads is KEY and passes is None
    data: Dict[Row, List[Entry]] = {}
    for lkey, lentries in left.data.items():
        if left_reads is KEY:
            probe = pick_left(lkey)
            if None in probe or probe not in index:
                continue
            matches = index[probe]
            if by_block:
                # one right block per match: each pair of blocks is
                # one output block of every left x right entry
                for rkey, rentries in matches:
                    produced = [
                        (lrow + rrow, lcount * rcount)
                        for lrow, lcount in lentries
                        for rrow, rcount in rentries
                    ]
                    if produced:
                        data[lkey + rkey] = produced
                continue
        for lrow, lcount in lentries:
            if left_reads is not KEY:
                probe = pick_left(lrow if left_reads is VALUE else lkey + lrow)
                if None in probe or probe not in index:
                    continue
                matches = index[probe]
            if passes is not None:
                head = lkey + lrow
            for rkey, rentries in matches:
                if passes is None:
                    produced = [
                        (lrow + rrow, lcount * rcount) for rrow, rcount in rentries
                    ]
                else:
                    row_head = head + rkey
                    produced = [
                        (lrow + rrow, lcount * rcount)
                        for rrow, rcount in rentries
                        if passes(row_head + rrow)
                    ]
                    if not produced:
                        continue
                key = lkey + rkey
                bucket = data.get(key)
                if bucket is None:
                    data[key] = produced
                else:
                    bucket += produced
    # value rows are a left one then a right one: proven when both are
    sizing = None
    if left.sizing is not None and right.sizing is not None:
        sizing = left.sizing.followed_by(len(left.value_attrs), right.sizing)
    return BlockSet(
        left.key_attrs + right.key_attrs,
        left.value_attrs + right.value_attrs,
        data,
        sizing,
    )


def _run_union(node: kp.UnionK, ctx: ExecContext, inputs: List[BlockSet]) -> BlockSet:
    left, right = inputs
    if left.attrs != right.attrs:
        right = right.shift(left.key_attrs)
        if left.attrs != right.attrs:
            raise ExecutionError(
                f"union operands misaligned: {left.attrs} vs {right.attrs}"
            )
    # fresh entry lists: merge_key extends them in place, and the engine
    # prices the operator's inputs after it ran
    data = {key: list(entries) for key, entries in left.data.items()}
    out = BlockSet(left.key_attrs, left.value_attrs, data)
    for key, entries in right.data.items():
        out.merge_key(key, entries)
    return out


def _run_difference(node: kp.DifferenceK, ctx: ExecContext, inputs: List[BlockSet]) -> BlockSet:
    left, right = inputs
    if left.attrs != right.attrs:
        right = right.shift(left.key_attrs)
        if left.attrs != right.attrs:
            raise ExecutionError(
                f"difference operands misaligned: {left.attrs} vs {right.attrs}"
            )
    data: Dict[Row, List[Entry]] = {}
    for key, entries in left.data.items():
        minus: Dict[Row, int] = defaultdict(int)
        for row, count in right.data.get(key, ()):
            minus[row] += count
        kept: Dict[Row, int] = {}
        for row, count in entries:
            kept[row] = kept.get(row, 0) + count
        out_entries: List[Entry] = []
        for row, count in kept.items():
            remaining = count - minus.get(row, 0)
            if remaining > 0:
                out_entries.append((row, remaining))
        if out_entries:
            data[key] = out_entries
    return BlockSet(left.key_attrs, left.value_attrs, data)


def _run_group(node: kp.GroupK, ctx: ExecContext, inputs: List[BlockSet]) -> BlockSet:
    child = inputs[0]
    return group_blockset(child, node.keys, node.aggs)


def group_blockset(
    child: BlockSet, keys: Tuple[str, ...], aggs: Tuple[AggSpec, ...]
) -> BlockSet:
    """γ in the order of the row-at-a-time loop: groups in order of
    first row, each accumulator fed its rows in order. The group key is
    picked once per block when it is read off the block key, and the
    arguments read the value row alone when they can."""
    reads, pick_key = child.picker(keys)
    # COUNT(*) has no argument: every row counts
    compiled = [
        None
        if spec.arg is None
        else compile_block(spec.arg, child.key_attrs, child.value_attrs)
        for spec in aggs
    ]
    on_value = reads is not ROW and all(
        arg is None or arg[0] is VALUE for arg in compiled
    )
    if on_value:
        arg_fns = [None if arg is None else arg[1] for arg in compiled]
    else:
        attrs = child.attrs
        arg_fns = [
            None if spec.arg is None else compile_row(spec.arg, attrs)
            for spec in aggs
        ]
        if reads is VALUE:
            reads, pick_key = ROW, row_picker([child.position(k) for k in keys])
    by_block = reads is KEY
    groups: Dict[Row, List] = {}
    for key, entries in child.data.items():
        if by_block and entries:
            group_key = pick_key(key)
            accs = groups.get(group_key)
            if accs is None:
                accs = [make_accumulator(a.func, a.distinct) for a in aggs]
                groups[group_key] = accs
        for row, count in entries:
            values = row if on_value else key + row
            if not by_block:
                group_key = pick_key(values)
                accs = groups.get(group_key)
                if accs is None:
                    accs = [make_accumulator(a.func, a.distinct) for a in aggs]
                    groups[group_key] = accs
            for arg_fn, acc in zip(arg_fns, accs):
                acc.add(True if arg_fn is None else arg_fn(values), count)
    if not keys and not groups:
        groups[()] = [make_accumulator(a.func, a.distinct) for a in aggs]
    data = {
        key: [(tuple(acc.result() for acc in accs), 1)]
        for key, accs in groups.items()
    }
    return BlockSet(keys, tuple(a.name for a in aggs), data)


def _run_stats_group(node: kp.StatsGroup, ctx: ExecContext, inputs: List[BlockSet]) -> BlockSet:
    instance = ctx.instance(node.kv_name)
    if not instance.keep_stats:
        raise ExecutionError(
            f"instance {node.kv_name} has no block statistics"
        )
    alias = node.alias
    key_attrs = tuple(f"{alias}.{a}" for a in instance.schema.key)
    data: Dict[Row, List[Entry]] = {}
    from repro.baav.store import _decode_stats, _stats_values
    from repro.kv import codec

    for key_bytes, payload in instance.cluster.scan(
        instance.stats_namespace,
        count_as_gets=True,
        values_of=_stats_values,
    ):
        key = codec.decode_key(key_bytes)
        stats = _decode_stats(payload)
        out: List[object] = []
        for spec in node.aggs:
            attr = _agg_attr(spec, alias)
            stat = stats.get(attr)
            if stat is None:
                out.append(None)
            elif spec.func == "SUM":
                out.append(stat.total)
            elif spec.func == "COUNT":
                out.append(stat.count)
            elif spec.func == "MIN":
                out.append(stat.minimum)
            elif spec.func == "MAX":
                out.append(stat.maximum)
            elif spec.func == "AVG":
                out.append(stat.average)
            else:
                raise ExecutionError(f"stats path cannot compute {spec.func}")
        data[key] = [(tuple(out), 1)]
    return BlockSet(key_attrs, tuple(a.name for a in node.aggs), data)


def _agg_attr(spec: AggSpec, alias: str) -> str:
    from repro.sql import ast

    if not isinstance(spec.arg, ast.Column):
        raise ExecutionError("stats path needs plain column aggregates")
    name = spec.arg.name
    prefix = alias + "."
    if not name.startswith(prefix):
        raise ExecutionError(f"aggregate {name} is not over alias {alias}")
    return name[len(prefix):]


_HANDLERS = {
    kp.Constant: _run_constant,
    kp.ScanKV: _run_scan_kv,
    kp.TaaVScan: _run_taav_scan,
    kp.IndexProbe: _run_index_probe,
    kp.Extend: _run_extend,
    kp.Shift: _run_shift,
    kp.SelectK: _run_select,
    kp.ProjectK: _run_project,
    kp.JoinK: _run_join,
    kp.UnionK: _run_union,
    kp.DifferenceK: _run_difference,
    kp.GroupK: _run_group,
    kp.StatsGroup: _run_stats_group,
}
