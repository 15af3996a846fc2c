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

import operator
import time
from typing import Dict, Optional, Tuple

from repro.baav.store import BaaVStore
from repro.core.plangen import ZidianPlan, substitute_table
from repro.errors import ExecutionError
from repro.kba import plan as kp
from repro.kba.blockset import BlockSet
from repro.kba.compile import compile_row
from repro.kba.executor import (
    DEFAULT_BATCH_SIZE,
    ExecContext,
    execute_node,
)
from repro.kv.backends import BackendProfile
from repro.kv.cluster import KVCluster
from repro.kv.taav import TaaVStore
from repro.parallel.costmodel import CostModel
from repro.parallel.partitioner import (
    blockset_skew,
    partition_blockset,
    skew_factor,
)
from repro.parallel.metrics import ExecutionMetrics, StageCost
from repro.relational.database import Database
from repro.relational.types import row_size
from repro.sql import algebra, ast
from repro.sql.executor import Table, run as ra_run, run_node


def _table_bytes(table: Table) -> int:
    return sum(row_size(r) for r in table.rows)


def _table_values(table: Table) -> int:
    return len(table.rows) * len(table.attrs)


class _IOProbe:
    """The CALLING THREAD's I/O counters, read stage by stage.

    A query executes on one thread, and the node counters, the
    block-cache hit/miss stats, the index probe/posting stats and the
    MVCC overlay stats are all thread-sharded, so the thread's own
    shards attribute exactly this query's I/O to its stages — even
    while the query service runs other queries on other threads against
    the same nodes. The probe gathers those live shards once per query
    (zeroing the node shards: the query's prologue) and each stage reads
    them directly: only this thread mutates them, so a read takes no
    lock and copies nothing. A membership change mid-query (a new
    placement generation) gathers the node shards again. A missing
    cache, index manager or overlay reads as zeros.
    """

    __slots__ = (
        "started", "cluster", "versions", "_generation", "_nodes",
        "_cache", "_index", "_overlay_stats", "_last", "_overlay",
    )

    def __init__(self, cluster: KVCluster, cache, indexes) -> None:
        self.started = time.perf_counter()
        self.cluster = cluster
        self._generation, self._nodes = cluster.thread_shards(reset=True)
        self._cache = () if cache is None else cache.thread_shards()
        self._index = None if indexes is None else indexes.thread_shard()
        self.versions = cluster.versions
        self._overlay_stats = (
            None if self.versions is None else self.versions.thread_shard()
        )
        self._last = self._snapshot()
        self._overlay = self._overlay_snapshot()

    def _snapshot(self) -> Tuple[int, ...]:
        """The thread's totals so far, in the positional order of
        ``CostModel.fetch_stage``."""
        cluster = self.cluster
        if cluster.placement_generation != self._generation:
            self._generation, self._nodes = cluster.thread_shards()
        gets = values = out = trips = 0
        for shard in self._nodes:
            gets += shard.gets
            values += shard.values_read
            out += shard.bytes_out
            trips += shard.round_trips
        hits = misses = probes = postings = 0
        for stats in self._cache:
            hits += stats.hits
            misses += stats.misses
        index = self._index
        if index is not None:
            probes, postings = index.probes, index.postings
        return gets, values, out, trips, hits, misses, probes, postings

    def delta(self) -> Tuple[int, ...]:
        """The I/O since the previous call (runs once per plan node)."""
        now, last = self._snapshot(), self._last
        self._last = now
        return tuple(map(operator.sub, now, last))

    def _overlay_snapshot(self) -> Tuple[int, int]:
        stats = self._overlay_stats
        if stats is None:
            return 0, 0
        return stats.overlay_reads, stats.versions_skipped

    def finish(self, metrics: ExecutionMetrics) -> ExecutionMetrics:
        """Stamp the query's snapshot metadata and wall time onto its
        metrics."""
        epoch = None if self.versions is None else self.versions.read_epoch()
        # the calling thread's pinned epoch (-1 = latest-state read)
        metrics.snapshot_epoch = -1 if epoch is None else epoch
        reads, skipped = self._overlay_snapshot()
        overlay_reads = reads - self._overlay[0]
        if overlay_reads:
            # the overlay's client-side reads cost zero #get / round
            # trips; surfaced as their own stage so breakdowns show
            # how much of the query the version chains answered
            metrics.add_stage(
                StageCost(
                    "snapshot overlay",
                    overlay_reads=overlay_reads,
                    versions_skipped=skipped - self._overlay[1],
                )
            )
        metrics.wall_time_ms = (time.perf_counter() - self.started) * 1000.0
        return metrics


class _Engine:
    """What the two strategies share: the storage handles, the cost
    model and the metering frame around one query."""

    def __init__(
        self,
        taav: Optional[TaaVStore],
        cluster: KVCluster,
        profile: BackendProfile,
        workers: int,
        batch_size: int = 1,
        cache=None,
        indexes=None,
        vectorized: bool = False,
    ) -> None:
        self.taav = taav
        self.cluster = cluster
        self.profile = profile
        self.workers = workers
        # keys coalesced per multi-get round trip (1 = per-key gets, the
        # paper's baseline client)
        self.batch_size = batch_size
        # the client-side block cache the stores read through (only
        # probed here for per-stage hit/miss attribution)
        self.cache = cache
        #: optional repro.index.IndexManager enabling index access paths
        self.indexes = indexes
        #: columnar kernels instead of row-at-a-time KBA handlers
        #: (PR 10). Stage structure, storage counters and simulated cost
        #: are identical across modes.
        self.vectorized = vectorized
        # storage service time spreads over the LIVE nodes only —
        # a failed node serves nothing
        self.model = CostModel(profile, workers, cluster.num_live_nodes)

    def _begin(self) -> Tuple[ExecutionMetrics, _IOProbe]:
        """A query's metrics (job overhead charged) and its I/O probe."""
        probe = _IOProbe(self.cluster, self.cache, self.indexes)
        metrics = ExecutionMetrics(
            workers=self.workers,
            storage_nodes=self.cluster.num_live_nodes,
            backend=self.profile.name,
        )
        metrics.add_stage(self.model.job_overhead())
        return metrics, probe


def _access_path(relation: str, choice) -> str:
    """EXPLAIN text of a scan leaf served by index ``choice`` (or not)."""
    if choice is None:
        return f"{relation}: taav scan (fetch-all)"
    return f"{relation}: index probe ({choice.describe()}) -> multi_get"


def _predicate_of(node: algebra.PlanNode) -> Optional[ast.Expr]:
    return node.predicate if isinstance(node, algebra.SelectNode) else None


#: RA operator -> (stage name, repartitions its inputs among workers?);
#: operators not listed (limit, table leaves) are free
_RA_STAGES = {
    algebra.SelectNode: ("select", False),
    algebra.ProjectNode: ("project", False),
    algebra.UnionNode: ("union", False),
    algebra.JoinNode: ("join", True),
    algebra.CrossNode: ("join", True),
    algebra.GroupByNode: ("group-by", True),
    algebra.DistinctNode: ("distinct", True),
    algebra.OrderByNode: ("order-by", True),
    algebra.DifferenceNode: ("difference", True),
}


class BaselineEngine(_Engine):
    """Fetch-all SQL-over-NoSQL evaluation over a TaaV store (§7.1).

    With an index manager attached, a selection directly above a scan
    leaf is answered through an **index probe → multi_get** access path
    when a usable secondary index exists — the conventional engine's
    only escape from fetch-all — and the chosen path per alias is
    recorded in :attr:`access` for EXPLAIN-style inspection.
    """

    #: alias -> access-path description of the last execute()
    access: Dict[str, str]

    def execute(
        self, ra_plan: algebra.PlanNode
    ) -> Tuple[Table, ExecutionMetrics]:
        metrics, probe = self._begin()
        self.access = {}
        table = self._run(ra_plan, metrics, probe)
        return table, probe.finish(metrics)

    def describe_access(self, ra_plan: algebra.PlanNode) -> Dict[str, str]:
        """Access path per alias, without executing (EXPLAIN)."""
        out: Dict[str, str] = {}
        self._describe(ra_plan, None, out)
        return out

    def _describe(
        self,
        node: algebra.PlanNode,
        above: Optional[ast.Expr],
        out: Dict[str, str],
    ) -> None:
        if isinstance(node, algebra.ScanNode):
            choice = self._choose_index(node, above)
            out[node.alias] = _access_path(node.relation, choice)
        for child in node.children():
            self._describe(child, _predicate_of(node), out)

    # -- recursive walker -------------------------------------------------------

    def _run(
        self,
        node: algebra.PlanNode,
        metrics: ExecutionMetrics,
        probe: _IOProbe,
        above: Optional[ast.Expr] = None,
    ) -> Table:
        """Metered walk: scans fetch from the TaaV store, every other
        operator is the reference executor's, priced by ``_RA_STAGES``.

        ``above`` is the predicate of the selection directly over
        ``node``: an index may answer one of its conjuncts exactly; the
        selection still applies the FULL predicate to what was fetched.
        """
        if isinstance(node, algebra.ScanNode):
            return self._scan(node, above, metrics, probe)
        inputs = [
            self._run(child, metrics, probe, _predicate_of(node))
            for child in node.children()
        ]
        out = run_node(node, inputs, compile_row)
        if type(node) not in _RA_STAGES:
            return out
        name, shuffles = _RA_STAGES[type(node)]
        values = sum(_table_values(t) for t in inputs)
        if name == "join":
            values += _table_values(out)
        if shuffles:
            shuffle = sum(_table_bytes(t) for t in inputs)
            stage = self.model.shuffle_stage(name, shuffle, values)
        else:
            stage = self.model.compute_stage(name, values)
        metrics.add_stage(stage)
        return out

    def _choose_index(self, scan: algebra.ScanNode, predicate):
        """The index path a selection-over-scan admits, if any."""
        from repro.index.selection import choose_from_conjuncts

        if predicate is None or self.indexes is None or scan.relation not in self.taav:
            return None
        return choose_from_conjuncts(
            ast.conjuncts(predicate), scan.relation, scan.alias, self.indexes
        )

    def _scan(
        self,
        scan: algebra.ScanNode,
        predicate,
        metrics: ExecutionMetrics,
        probe: _IOProbe,
    ) -> Table:
        """Fetch a scan leaf: through an index probe → ``multi_get``
        when the selection directly above it (``predicate``) admits one,
        else the whole relation."""
        choice = self._choose_index(scan, predicate)
        taav = self.taav.relation(scan.relation)
        self.access[scan.alias] = _access_path(scan.relation, choice)
        if choice is None:
            name = f"scan {scan.relation}"
            rows = list(taav.fetch_all(batch_size=self.batch_size).rows)
        else:
            name = f"index-scan {scan.relation}.{choice.attr}"
            pks = self.indexes.lookup(scan.relation, choice)
            rows = []
            step = max(1, self.batch_size)
            for start in range(0, len(pks), step):
                for row in taav.multi_get(pks[start:start + step]):
                    if row is not None:
                        rows.append(row)
        metrics.add_stage(self.model.fetch_stage(name, *probe.delta()))
        attrs = [f"{scan.alias}.{a}" for a in taav.schema.attribute_names]
        return Table(attrs, rows)


class ZidianEngine(_Engine):
    """Interleaved parallel execution of KBA plans (§7.2)."""

    def __init__(
        self,
        baav: BaaVStore,
        taav: Optional[TaaVStore],
        cluster: KVCluster,
        profile: BackendProfile,
        workers: int,
        batch_size: int = DEFAULT_BATCH_SIZE,
        **shared,
    ) -> None:
        super().__init__(taav, cluster, profile, workers, batch_size, **shared)
        self.baav = baav
        # each worker partition coalesces its own probe batches; the
        # vectorized knob swaps the per-node handlers for compiled
        # columnar kernels. The per-operator walk below is kept either
        # way so each stage is metered separately — stage structure,
        # simulated cost and storage counters are mode-invariant (PR 10).
        self.ctx = ExecContext(
            baav,
            taav,
            batch_size=batch_size,
            batch_partitions=workers,
            indexes=self.indexes,
            vectorized=self.vectorized,
        )

    def execute(
        self, plan: ZidianPlan, database_for_top: Optional[Database] = None
    ) -> Tuple[Table, ExecutionMetrics]:
        """Run the KBA core in the interleaved model, then the RA top."""
        metrics, probe = self._begin()
        result = self._run(plan.root, metrics, probe)

        table = Table(result.attrs, list(result.expand()))
        final_plan = substitute_table(plan.ra_plan, plan.replace_node, table)
        # The RA top (order/limit/final projection) over the small result:
        top = ra_run(final_plan, database_for_top or _EMPTY_DB)
        metrics.add_stage(
            self.model.compute_stage("top", _table_values(table))
        )
        return top, probe.finish(metrics)

    # -- recursive walker ------------------------------------------------------

    def _run(
        self,
        node: kp.KBANode,
        metrics: ExecutionMetrics,
        probe: _IOProbe,
    ) -> BlockSet:
        inputs = [self._run(c, metrics, probe) for c in node.children()]
        result = execute_node(node, self.ctx, inputs)
        delta = probe.delta()
        model = self.model
        if isinstance(node, kp.Constant):
            return result
        if isinstance(node, kp.Extend):
            # interleaving: repartition the intermediate by the target's
            # key distribution, then fetch only the needed blocks
            stage = model.fetch_stage(
                f"extend {node.kv_name}",
                *delta,
                repartition_bytes=inputs[0].size_bytes(),
            )
        elif isinstance(node, kp.IndexProbe):
            stage = model.fetch_stage(
                f"index-probe {node.relation}.{node.attr}", *delta
            )
        elif isinstance(node, (kp.ScanKV, kp.StatsGroup)):
            stage = model.fetch_stage(f"scan {node.kv_name}", *delta)
        elif isinstance(node, kp.TaaVScan):
            stage = model.fetch_stage(f"taav-scan {node.relation}", *delta)
        elif isinstance(node, (kp.JoinK, kp.UnionK, kp.DifferenceK)):
            # one walk per input: the per-worker byte vector the skew
            # is read off sums to the bytes the shuffle ships
            partitions = [partition_blockset(i, self.workers) for i in inputs]
            shuffle = sum(map(sum, partitions))
            values = sum(i.num_values() for i in inputs) + result.num_values()
            stage = model.shuffle_stage("joink", shuffle, values)
            stage.skew = max(map(skew_factor, partitions))
        elif isinstance(node, kp.GroupK):
            stage = model.shuffle_stage(
                "groupk", inputs[0].size_bytes(), inputs[0].num_values()
            )
            stage.skew = blockset_skew(result, self.workers)
        else:
            # the block-local operators: σ, π, copy, shift (all unary)
            stage = model.compute_stage(
                type(node).__name__.lower(), inputs[0].num_values()
            )
        metrics.add_stage(stage)
        return result


class _EmptyDatabase:
    """Placeholder database for RA tops that only touch TableNodes."""

    def relation(self, name: str):
        raise ExecutionError(
            f"RA top unexpectedly scanned base relation {name!r}"
        )


_EMPTY_DB = _EmptyDatabase()
