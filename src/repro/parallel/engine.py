"""Parallel execution engines (§7).

Two strategies over the same storage substrate:

* :class:`BaselineEngine` — the conventional SQL-over-NoSQL strategy of
  §7.1: retrieve *entire relations* from the TaaV store (one get per
  tuple), ship them to the SQL layer, then evaluate the RA plan with
  parallel hash joins (each join shuffles both inputs).
* :class:`ZidianEngine` — the interleaved parallelization of §7.2: walk
  the KBA plan operator by operator; an ``∝`` repartitions the current
  intermediate by the target's key distribution (shuffle of the
  intermediate only), then fetches just the needed blocks; scans touch KV
  instances (block-local, fewer gets); joins and group-bys shuffle like
  the baseline but on the much smaller intermediates.

Both engines execute *for real* (results are exact and compared against
the reference executor in tests) while counting gets / values / bytes and
converting them into simulated time with :class:`CostModel`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.baav.store import BaaVStore
from repro.core.plangen import ZidianPlan, substitute_table
from repro.errors import CompileError, ExecutionError
from repro.kba import plan as kp
from repro.kba.blockset import BlockSet
from repro.kba.compile import compile_row
from repro.kba.executor import (
    DEFAULT_BATCH_SIZE,
    ExecContext,
    execute_node,
    resolve_vectorized,
)
from repro.kv.backends import BackendProfile
from repro.kv.cluster import KVCluster
from repro.kv.node import NodeCounters
from repro.kv.taav import TaaVStore
from repro.parallel.costmodel import CostModel
from repro.parallel.partitioner import blockset_skew
from repro.parallel.metrics import ExecutionMetrics, StageCost
from repro.relational.database import Database
from repro.relational.types import row_size
from repro.sql import algebra
from repro.sql.executor import (
    Table,
    group_table,
    join_tables,
    run as ra_run,
    sort_rows,
)


def _table_bytes(table: Table) -> int:
    return sum(row_size(r) for r in table.rows)


def _table_values(table: Table) -> int:
    return len(table.rows) * len(table.attrs)


class _CounterProbe:
    """Snapshot/diff of the CALLING THREAD's cluster counters.

    A query executes on one thread, and the node counters are
    thread-sharded, so diffing the thread's own shards attributes
    exactly this query's I/O to its stages — even while the query
    service runs other queries on other threads against the same nodes.
    """

    def __init__(self, cluster: KVCluster) -> None:
        self.cluster = cluster
        self._last = self._snapshot()

    def _snapshot(self) -> NodeCounters:
        return self.cluster.thread_counters()

    def delta(self) -> NodeCounters:
        now = self._snapshot()
        diff = NodeCounters(
            gets=now.gets - self._last.gets,
            hits=now.hits - self._last.hits,
            puts=now.puts - self._last.puts,
            deletes=now.deletes - self._last.deletes,
            values_read=now.values_read - self._last.values_read,
            values_written=now.values_written - self._last.values_written,
            bytes_out=now.bytes_out - self._last.bytes_out,
            bytes_in=now.bytes_in - self._last.bytes_in,
            round_trips=now.round_trips - self._last.round_trips,
        )
        self._last = now
        return diff


class _CacheProbe:
    """Snapshot/diff of the calling thread's block-cache hit/miss shard
    (cache may be ``None``, in which case every delta is zero)."""

    def __init__(self, cache) -> None:
        self.cache = cache
        self._hits, self._misses = self._snapshot()

    def _snapshot(self) -> Tuple[int, int]:
        if self.cache is None:
            return 0, 0
        stats = self.cache.thread_stats()
        return stats.hits, stats.misses

    def delta(self) -> Tuple[int, int]:
        hits, misses = self._snapshot()
        diff = (hits - self._hits, misses - self._misses)
        self._hits, self._misses = hits, misses
        return diff


class _IndexStatsProbe:
    """Snapshot/diff of an index manager's probe/posting counters
    (manager may be ``None``, in which case every delta is zero)."""

    def __init__(self, indexes) -> None:
        self.indexes = indexes
        self._probes, self._postings = self._snapshot()

    def _snapshot(self) -> Tuple[int, int]:
        if self.indexes is None:
            return 0, 0
        return self.indexes.stats.snapshot()

    def delta(self) -> Tuple[int, int]:
        probes, postings = self._snapshot()
        diff = (probes - self._probes, postings - self._postings)
        self._probes, self._postings = probes, postings
        return diff


class _SnapshotProbe:
    """Snapshot/diff of the calling thread's MVCC overlay shard
    (cluster without an attached overlay: every delta is zero)."""

    def __init__(self, cluster: KVCluster) -> None:
        self.versions = cluster.versions
        self._reads, self._skipped = self._snapshot()

    def _snapshot(self) -> Tuple[int, int]:
        if self.versions is None:
            return 0, 0
        stats = self.versions.thread_stats()
        return stats.overlay_reads, stats.versions_skipped

    def delta(self) -> Tuple[int, int]:
        reads, skipped = self._snapshot()
        diff = (reads - self._reads, skipped - self._skipped)
        self._reads, self._skipped = reads, skipped
        return diff

    def epoch(self) -> int:
        """The calling thread's pinned epoch (-1 = latest-state read)."""
        if self.versions is None:
            return -1
        epoch = self.versions.read_epoch()
        return -1 if epoch is None else epoch

    def finish(self, metrics: ExecutionMetrics) -> None:
        """Stamp the query's snapshot metadata onto its metrics."""
        metrics.snapshot_epoch = self.epoch()
        overlay_reads, versions_skipped = self.delta()
        if overlay_reads:
            # the overlay's client-side reads cost zero #get / round
            # trips; surfaced as their own stage so breakdowns show
            # how much of the query the version chains answered
            metrics.add_stage(
                StageCost(
                    "snapshot overlay",
                    overlay_reads=overlay_reads,
                    versions_skipped=versions_skipped,
                )
            )


class BaselineEngine:
    """Fetch-all SQL-over-NoSQL evaluation over a TaaV store (§7.1).

    With an index manager attached, a selection directly above a scan
    leaf is answered through an **index probe → multi_get** access path
    when a usable secondary index exists — the conventional engine's
    only escape from fetch-all — and the chosen path per alias is
    recorded in :attr:`access` for EXPLAIN-style inspection.
    """

    def __init__(
        self,
        taav: TaaVStore,
        cluster: KVCluster,
        profile: BackendProfile,
        workers: int,
        batch_size: int = 1,
        cache=None,
        indexes=None,
        vectorized: Optional[bool] = None,
    ) -> None:
        self.taav = taav
        self.cluster = cluster
        self.profile = profile
        self.workers = workers
        # 1 = the paper's per-key baseline; >1 models a client that
        # coalesces its scan-driven gets into multi-get round trips
        self.batch_size = batch_size
        # the client-side block cache the TaaV store reads through (only
        # probed here for per-stage hit/miss attribution)
        self.cache = cache
        #: optional repro.index.IndexManager enabling index access paths
        self.indexes = indexes
        #: compiled positional filters/projections instead of per-row
        #: eval dicts; None defers to REPRO_VECTORIZED (PR 10). Storage
        #: counters and simulated cost are identical across modes.
        self.vectorized = resolve_vectorized(vectorized)
        #: alias -> access-path description of the last execute()
        self.access: Dict[str, str] = {}
        # storage service time spreads over the LIVE nodes only —
        # a failed node serves nothing
        self.model = CostModel(profile, workers, cluster.num_live_nodes)

    def execute(
        self, ra_plan: algebra.PlanNode
    ) -> Tuple[Table, ExecutionMetrics]:
        start = time.perf_counter()
        metrics = ExecutionMetrics(
            workers=self.workers,
            storage_nodes=self.cluster.num_live_nodes,
            backend=self.profile.name,
        )
        metrics.add_stage(self.model.job_overhead())
        probe = _CounterProbe(self.cluster)
        cache_probe = _CacheProbe(self.cache)
        snapshot_probe = _SnapshotProbe(self.cluster)
        self.access = {}
        table = self._run(ra_plan, metrics, probe, cache_probe)
        snapshot_probe.finish(metrics)
        metrics.wall_time_ms = (time.perf_counter() - start) * 1000.0
        return table, metrics

    def describe_access(self, ra_plan: algebra.PlanNode) -> Dict[str, str]:
        """Access path per alias, without executing (EXPLAIN)."""
        out: Dict[str, str] = {}

        def walk(node: algebra.PlanNode) -> None:
            if isinstance(node, algebra.SelectNode) and isinstance(
                node.child, algebra.ScanNode
            ):
                scan = node.child
                choice = self._choose_index(scan, node.predicate)
                out[scan.alias] = (
                    f"{scan.relation}: index probe ({choice.describe()}) "
                    f"-> multi_get"
                    if choice is not None
                    else f"{scan.relation}: taav scan (fetch-all)"
                )
                return
            if isinstance(node, algebra.ScanNode):
                out[node.alias] = f"{node.relation}: taav scan (fetch-all)"
                return
            for child in node.children():
                walk(child)

        walk(ra_plan)
        return out

    # -- recursive walker -------------------------------------------------------

    def _run(
        self,
        node: algebra.PlanNode,
        metrics: ExecutionMetrics,
        probe: _CounterProbe,
        cache_probe: _CacheProbe,
    ) -> Table:
        if isinstance(node, algebra.ScanNode):
            return self._scan(node, metrics, probe, cache_probe)
        if isinstance(node, algebra.SelectNode):
            if isinstance(node.child, algebra.ScanNode):
                fetched = self._index_scan(
                    node.child, node.predicate, metrics, probe, cache_probe
                )
                if fetched is not None:
                    return fetched
            child = self._run(node.child, metrics, probe, cache_probe)
            rows = self._filter_rows(node.predicate, child.attrs, child.rows)
            metrics.add_stage(
                self.model.compute_stage("select", _table_values(child))
            )
            return Table(child.attrs, rows)
        if isinstance(node, algebra.ProjectNode):
            child = self._run(node.child, metrics, probe, cache_probe)
            table = self._project(node, child)
            metrics.add_stage(
                self.model.compute_stage("project", _table_values(child))
            )
            return table
        if isinstance(node, (algebra.JoinNode, algebra.CrossNode)):
            left = self._run(node.left, metrics, probe, cache_probe)
            right = self._run(node.right, metrics, probe, cache_probe)
            equi = node.equi if isinstance(node, algebra.JoinNode) else []
            residual = (
                node.residual if isinstance(node, algebra.JoinNode) else None
            )
            out = join_tables(left, right, equi, residual)
            shuffle = _table_bytes(left) + _table_bytes(right)
            metrics.add_stage(
                self.model.shuffle_stage(
                    "join",
                    shuffle,
                    _table_values(left)
                    + _table_values(right)
                    + _table_values(out),
                )
            )
            return out
        if isinstance(node, algebra.GroupByNode):
            child = self._run(node.child, metrics, probe, cache_probe)
            out = group_table(child, node.keys, node.key_names, node.aggs)
            metrics.add_stage(
                self.model.shuffle_stage(
                    "group-by", _table_bytes(child), _table_values(child)
                )
            )
            return out
        if isinstance(node, algebra.DistinctNode):
            child = self._run(node.child, metrics, probe, cache_probe)
            seen = set()
            rows = []
            for row in child.rows:
                if row not in seen:
                    seen.add(row)
                    rows.append(row)
            metrics.add_stage(
                self.model.shuffle_stage(
                    "distinct", _table_bytes(child), _table_values(child)
                )
            )
            return Table(child.attrs, rows)
        if isinstance(node, algebra.OrderByNode):
            child = self._run(node.child, metrics, probe, cache_probe)
            rows = sort_rows(child, node.keys)
            metrics.add_stage(
                self.model.shuffle_stage(
                    "order-by", _table_bytes(child), _table_values(child)
                )
            )
            return Table(child.attrs, rows)
        if isinstance(node, algebra.LimitNode):
            child = self._run(node.child, metrics, probe, cache_probe)
            return Table(child.attrs, child.rows[: node.limit])
        if isinstance(node, algebra.UnionNode):
            left = self._run(node.left, metrics, probe, cache_probe)
            right = self._run(node.right, metrics, probe, cache_probe)
            metrics.add_stage(
                self.model.compute_stage(
                    "union", _table_values(left) + _table_values(right)
                )
            )
            return Table(left.attrs, left.rows + right.rows)
        if isinstance(node, algebra.DifferenceNode):
            from collections import Counter

            left = self._run(node.left, metrics, probe, cache_probe)
            right = self._run(node.right, metrics, probe, cache_probe)
            remaining = Counter(right.rows)
            rows = []
            for row in left.rows:
                if remaining.get(row, 0) > 0:
                    remaining[row] -= 1
                else:
                    rows.append(row)
            metrics.add_stage(
                self.model.shuffle_stage(
                    "difference",
                    _table_bytes(left) + _table_bytes(right),
                    _table_values(left) + _table_values(right),
                )
            )
            return Table(left.attrs, rows)
        if isinstance(node, algebra.TableNode):
            return node.table  # type: ignore[return-value]
        raise ExecutionError(
            f"baseline engine: unsupported node {type(node).__name__}"
        )

    def _filter_rows(self, predicate, attrs, rows) -> List:
        """σ over table rows; compiled positional closure when vectorized.

        The compiled filter returns exactly what ``predicate.eval`` would
        per row; expressions outside the compilable subset fall back to
        the eval path, so the knob never changes results.
        """
        if self.vectorized:
            try:
                fn = compile_row(predicate, tuple(attrs))
            except CompileError:
                pass
            else:
                return [r for r in rows if fn(r)]
        return [
            r for r in rows if predicate.eval(dict(zip(attrs, r)))
        ]

    def _choose_index(self, scan: algebra.ScanNode, predicate):
        """The index path a selection-over-scan admits, if any."""
        from repro.index.selection import choose_from_conjuncts
        from repro.sql import ast

        if self.indexes is None or scan.relation not in self.taav:
            return None
        return choose_from_conjuncts(
            ast.conjuncts(predicate), scan.relation, scan.alias, self.indexes
        )

    def _index_scan(
        self,
        scan: algebra.ScanNode,
        predicate,
        metrics: ExecutionMetrics,
        probe: _CounterProbe,
        cache_probe: _CacheProbe,
    ) -> Optional[Table]:
        """Serve σ(scan) through an index probe; ``None`` when no index
        applies (the caller falls back to fetch-all + filter)."""
        choice = self._choose_index(scan, predicate)
        if choice is None:
            return None
        idx_probe = _IndexStatsProbe(self.indexes)
        if choice.is_equality:
            pks = self.indexes.lookup_eq(
                scan.relation, choice.attr, choice.eq_values
            )
        else:
            pks = self.indexes.lookup_range(
                scan.relation,
                choice.attr,
                lo=choice.lo,
                hi=choice.hi,
                lo_strict=choice.lo_strict,
                hi_strict=choice.hi_strict,
            )
        taav = self.taav.relation(scan.relation)
        fetched: List = []
        step = max(1, self.batch_size)
        for start in range(0, len(pks), step):
            for row in taav.multi_get(pks[start:start + step]):
                if row is not None:
                    fetched.append(row)
        attrs = [
            f"{scan.alias}.{a}" for a in taav.schema.attribute_names
        ]
        # the index answered the chosen conjunct exactly; the FULL
        # predicate is still applied so the other conjuncts hold too
        rows = self._filter_rows(predicate, attrs, fetched)
        delta = probe.delta()
        hits, misses = cache_probe.delta()
        probes, postings = idx_probe.delta()
        metrics.add_stage(
            self.model.index_probe_stage(
                f"index-scan {scan.relation}.{choice.attr}",
                gets=delta.gets,
                values=delta.values_read,
                bytes_out=delta.bytes_out,
                round_trips=delta.round_trips,
                index_probes=probes,
                index_postings=postings,
                cache_hits=hits,
                cache_misses=misses,
            )
        )
        metrics.add_stage(
            self.model.compute_stage(
                "select", len(fetched) * len(attrs)
            )
        )
        self.access[scan.alias] = (
            f"{scan.relation}: index probe ({choice.describe()}) "
            f"-> multi_get"
        )
        return Table(attrs, rows)

    def _scan(
        self,
        node: algebra.ScanNode,
        metrics: ExecutionMetrics,
        probe: _CounterProbe,
        cache_probe: _CacheProbe,
    ) -> Table:
        self.access[node.alias] = (
            f"{node.relation}: taav scan (fetch-all)"
        )
        relation = self.taav.relation(node.relation).fetch_all(
            batch_size=self.batch_size
        )
        delta = probe.delta()
        hits, misses = cache_probe.delta()
        table = Table(
            [f"{node.alias}.{a}" for a in relation.schema.attribute_names],
            list(relation.rows),
        )
        metrics.add_stage(
            self.model.fetch_stage(
                f"scan {node.relation}",
                gets=delta.gets,
                values=delta.values_read,
                bytes_out=delta.bytes_out,
                round_trips=delta.round_trips,
                cache_hits=hits,
                cache_misses=misses,
            )
        )
        return table

    def _project(self, node: algebra.ProjectNode, child: Table) -> Table:
        from repro.sql import ast

        names = [name for name, _ in node.items]
        exprs = [expr for _, expr in node.items]
        if all(isinstance(e, ast.Column) for e in exprs):
            positions = [child.position(e.name) for e in exprs]  # type: ignore[attr-defined]
            rows = [tuple(r[p] for p in positions) for r in child.rows]
            return Table(names, rows)
        if self.vectorized:
            try:
                fns = [compile_row(e, tuple(child.attrs)) for e in exprs]
            except CompileError:
                pass
            else:
                rows = [tuple(fn(r) for fn in fns) for r in child.rows]
                return Table(names, rows)
        rows = []
        for row in child.rows:
            env = dict(zip(child.attrs, row))
            rows.append(tuple(e.eval(env) for e in exprs))
        return Table(names, rows)


class ZidianEngine:
    """Interleaved parallel execution of KBA plans (§7.2)."""

    def __init__(
        self,
        baav: BaaVStore,
        taav: Optional[TaaVStore],
        cluster: KVCluster,
        profile: BackendProfile,
        workers: int,
        batch_size: int = DEFAULT_BATCH_SIZE,
        cache=None,
        indexes=None,
        vectorized: Optional[bool] = None,
    ) -> None:
        self.baav = baav
        self.taav = taav
        self.cluster = cluster
        self.profile = profile
        self.workers = workers
        self.batch_size = batch_size
        # the client-side block cache the stores read through (only
        # probed here for per-stage hit/miss attribution)
        self.cache = cache
        #: optional repro.index.IndexManager serving IndexProbe leaves
        self.indexes = indexes
        # storage service time spreads over the LIVE nodes only —
        # a failed node serves nothing
        self.model = CostModel(profile, workers, cluster.num_live_nodes)
        # each worker partition coalesces its own probe batches; the
        # vectorized knob (None -> REPRO_VECTORIZED) swaps the per-node
        # handlers for compiled columnar kernels. The per-operator walk
        # below is kept either way so each stage is metered separately —
        # stage structure, simulated cost and storage counters are
        # mode-invariant (PR 10).
        self.ctx = ExecContext(
            baav,
            taav,
            batch_size=batch_size,
            batch_partitions=workers,
            indexes=indexes,
            vectorized=vectorized,
        )
        self.vectorized = self.ctx.vectorized

    def execute(
        self, plan: ZidianPlan, database_for_top: Optional[Database] = None
    ) -> Tuple[Table, ExecutionMetrics]:
        """Run the KBA core in the interleaved model, then the RA top."""
        start = time.perf_counter()
        metrics = ExecutionMetrics(
            workers=self.workers,
            storage_nodes=self.cluster.num_live_nodes,
            backend=self.profile.name,
        )
        metrics.add_stage(self.model.job_overhead())
        probe = _CounterProbe(self.cluster)
        cache_probe = _CacheProbe(self.cache)
        snapshot_probe = _SnapshotProbe(self.cluster)
        self._idx_probe = _IndexStatsProbe(self.indexes)
        result = self._run(plan.root, metrics, probe, cache_probe)

        table = Table(result.attrs, list(result.expand()))
        final_plan = substitute_table(plan.ra_plan, plan.replace_node, table)
        # The RA top (order/limit/final projection) over the small result:
        top = ra_run(final_plan, database_for_top or _EMPTY_DB)
        metrics.add_stage(
            self.model.compute_stage("top", _table_values(table))
        )
        snapshot_probe.finish(metrics)
        metrics.wall_time_ms = (time.perf_counter() - start) * 1000.0
        return top, metrics

    # -- recursive walker ------------------------------------------------------

    def _run(
        self,
        node: kp.KBANode,
        metrics: ExecutionMetrics,
        probe: _CounterProbe,
        cache_probe: _CacheProbe,
    ) -> BlockSet:
        inputs = [
            self._run(c, metrics, probe, cache_probe)
            for c in node.children()
        ]
        result = execute_node(node, self.ctx, inputs)
        delta = probe.delta()
        cache_hits, cache_misses = cache_probe.delta()

        if isinstance(node, kp.Constant):
            pass
        elif isinstance(node, kp.Extend):
            # interleaving: repartition the intermediate by the target's
            # key distribution, then fetch only the needed blocks
            child_bytes = inputs[0].size_bytes()
            metrics.add_stage(
                self.model.fetch_stage(
                    f"extend {node.kv_name}",
                    gets=delta.gets,
                    values=delta.values_read,
                    bytes_out=delta.bytes_out,
                    repartition_bytes=child_bytes,
                    round_trips=delta.round_trips,
                    cache_hits=cache_hits,
                    cache_misses=cache_misses,
                )
            )
        elif isinstance(node, kp.IndexProbe):
            probes, postings = self._idx_probe.delta()
            metrics.add_stage(
                self.model.index_probe_stage(
                    f"index-probe {node.relation}.{node.attr}",
                    gets=delta.gets,
                    values=delta.values_read,
                    bytes_out=delta.bytes_out,
                    round_trips=delta.round_trips,
                    index_probes=probes,
                    index_postings=postings,
                    cache_hits=cache_hits,
                    cache_misses=cache_misses,
                )
            )
        elif isinstance(node, (kp.ScanKV, kp.TaaVScan, kp.StatsGroup)):
            label = (
                f"scan {node.kv_name}"
                if isinstance(node, (kp.ScanKV, kp.StatsGroup))
                else f"taav-scan {node.relation}"
            )
            metrics.add_stage(
                self.model.fetch_stage(
                    label,
                    gets=delta.gets,
                    values=delta.values_read,
                    bytes_out=delta.bytes_out,
                    round_trips=delta.round_trips,
                    cache_hits=cache_hits,
                    cache_misses=cache_misses,
                )
            )
        elif isinstance(node, (kp.SelectK, kp.ProjectK, kp.CopyK, kp.Shift)):
            metrics.add_stage(
                self.model.compute_stage(
                    type(node).__name__.lower(), inputs[0].num_values()
                )
            )
        elif isinstance(node, (kp.JoinK, kp.UnionK, kp.DifferenceK)):
            shuffle = sum(i.size_bytes() for i in inputs)
            values = sum(i.num_values() for i in inputs) + result.num_values()
            stage = self.model.shuffle_stage("joink", shuffle, values)
            stage.skew = max(
                blockset_skew(i, self.workers) for i in inputs
            )
            metrics.add_stage(stage)
        elif isinstance(node, kp.GroupK):
            stage = self.model.shuffle_stage(
                "groupk", inputs[0].size_bytes(), inputs[0].num_values()
            )
            stage.skew = blockset_skew(result, self.workers)
            metrics.add_stage(stage)
        else:
            metrics.add_stage(
                self.model.compute_stage(
                    type(node).__name__.lower(),
                    sum(i.num_values() for i in inputs),
                )
            )
        return result


class _EmptyDatabase:
    """Placeholder database for RA tops that only touch TableNodes."""

    def relation(self, name: str):
        raise ExecutionError(
            f"RA top unexpectedly scanned base relation {name!r}"
        )


_EMPTY_DB = _EmptyDatabase()
