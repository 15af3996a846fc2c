"""Execution metrics: the quantities the paper's evaluation reports.

``time`` (simulated ms), ``#data`` (values accessed), ``#get`` (get
invocations) and ``comm`` (bytes shipped) — exactly the columns of
Table 2 — plus a per-stage breakdown for debugging and the ablations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import List, Tuple


@dataclass
class StageCost:
    """Cost of one plan stage (operator) in the parallel model.

    ``skew`` is the observed max/mean partition ratio of the stage's
    shuffle (1.0 = the even split §7.2 assumes; the cost model divides
    evenly per the paper, so skew is recorded, not priced).
    """

    name: str
    time_ms: float = 0.0
    comm_bytes: int = 0
    gets: int = 0
    values: int = 0
    skew: float = 1.0
    #: client↔node RPCs carrying the gets (== gets when unbatched)
    round_trips: int = 0
    #: block-cache lookups served locally (zero round trips, zero #get)
    cache_hits: int = 0
    #: block-cache lookups that fell through to the storage nodes
    cache_misses: int = 0
    #: bytes migrated between nodes by rebalancing (churn, not queries)
    rebalance_bytes: int = 0
    #: secondary-index entries probed (posting lists / buckets fetched)
    index_probes: int = 0
    #: posting entries read while serving those probes
    index_postings: int = 0
    #: WAL write barriers the stage's puts paid (0 = volatile cluster)
    fsyncs: int = 0
    #: reads served from the MVCC overlay instead of the base (zero
    #: #get — the snapshot's client-side version chains answered them)
    overlay_reads: int = 0
    #: newer versions walked past to reach the snapshot-visible one
    versions_skipped: int = 0

    def __str__(self) -> str:
        out = (
            f"{self.name}: {self.time_ms:.2f}ms, comm={self.comm_bytes}B, "
            f"gets={self.gets}, values={self.values}"
        )
        if self.round_trips and self.round_trips != self.gets:
            out += f", round_trips={self.round_trips}"
        if self.cache_hits or self.cache_misses:
            out += f", cache={self.cache_hits}/{self.cache_hits + self.cache_misses}"
        if self.rebalance_bytes:
            out += f", rebalance={self.rebalance_bytes}B"
        if self.index_probes:
            out += (
                f", idx={self.index_probes}p/{self.index_postings}e"
            )
        if self.fsyncs:
            out += f", fsyncs={self.fsyncs}"
        if self.overlay_reads:
            out += (
                f", overlay={self.overlay_reads}r/"
                f"{self.versions_skipped}skip"
            )
        if self.skew > 1.001:
            out += f", skew={self.skew:.2f}"
        return out


@dataclass
class ExecutionMetrics:
    """Aggregated metrics of one query execution."""

    sim_time_ms: float = 0.0
    wall_time_ms: float = 0.0
    n_get: int = 0
    n_round_trips: int = 0
    data_values: int = 0
    comm_bytes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    rebalance_bytes: int = 0
    index_probes: int = 0
    index_postings: int = 0
    fsyncs: int = 0
    #: the commit epoch this query's snapshot was pinned at (-1 = no
    #: snapshot: MVCC off, or an unpinned latest-state read)
    snapshot_epoch: int = -1
    #: reads the MVCC overlay served instead of the base state
    overlay_reads: int = 0
    #: newer versions skipped to reach the snapshot-visible one
    versions_skipped: int = 0
    #: dead versions reclaimed by the GC this query's unpin triggered
    gc_reclaimed: int = 0
    stages: List[StageCost] = field(default_factory=list)
    workers: int = 1
    storage_nodes: int = 1
    backend: str = ""

    def add_stage(self, stage: StageCost) -> None:
        """Append ``stage`` and add its counters to the query's totals
        (written out below from ``_STAGE_TOTALS``)."""
        raise NotImplementedError

    @property
    def sim_time_s(self) -> float:
        return self.sim_time_ms / 1000.0

    @property
    def cache_hit_rate(self) -> float:
        """Block-cache hits over lookups; 0.0 when no cache was consulted."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def merge(self, other: "ExecutionMetrics") -> None:
        for name in _COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        # compound sides share one pinned epoch; max() also does the
        # right thing when only one side ran under a snapshot
        self.snapshot_epoch = max(
            self.snapshot_epoch, other.snapshot_epoch
        )
        self.stages.extend(other.stages)

    def summary(self) -> str:
        out = (
            f"time={self.sim_time_s:.3f}s #get={self.n_get} "
            f"#rt={self.n_round_trips} "
            f"#data={self.data_values} comm={self.comm_bytes / 1e6:.3f}MB "
            f"(wall={self.wall_time_ms:.1f}ms, p={self.workers})"
        )
        if self.cache_hits or self.cache_misses:
            out += f" cache={self.cache_hit_rate:.0%}"
        if self.index_probes:
            out += f" idx={self.index_probes}p/{self.index_postings}e"
        if self.snapshot_epoch >= 0:
            out += f" epoch={self.snapshot_epoch}"
        if self.overlay_reads:
            out += (
                f" overlay={self.overlay_reads}r/"
                f"{self.versions_skipped}skip"
            )
        return out

    def breakdown(self) -> str:
        return "\n".join(str(s) for s in self.stages)


#: what merge() sums and mean_metrics() averages: every field of
#: ExecutionMetrics but the ones describing the run
_COUNTERS = tuple(
    f.name
    for f in fields(ExecutionMetrics)
    if f.name
    not in ("snapshot_epoch", "stages", "workers", "storage_nodes", "backend")
)
#: StageCost fields whose total carries the paper's column name instead
_STAGE_SOURCE = {
    "sim_time_ms": "time_ms",
    "n_get": "gets",
    "n_round_trips": "round_trips",
    "data_values": "values",
}
#: (total, StageCost field) pairs add_stage() accumulates — a counter
#: that exists on both dataclasses is summed with no further edit
_STAGE_TOTALS = tuple(
    (name, _STAGE_SOURCE.get(name, name))
    for name in _COUNTERS
    if _STAGE_SOURCE.get(name, name) in StageCost.__dataclass_fields__
)


def _stage_fold(pairs: Tuple[Tuple[str, str], ...]):
    """``add_stage`` as straight-line code over ``pairs`` — the way
    :func:`repro.tally.tally` writes ``add``: no ``getattr``/``setattr``
    per field, and the same additions in the same order as a loop over
    the pairs (so the float clock sums bit for bit alike)."""
    lines = ["def add_stage(self, stage):", "    self.stages.append(stage)"]
    for total, source in pairs:
        lines += [
            f"    amount = stage.{source}",
            "    if amount:",
            f"        self.{total} += amount",
        ]
    namespace: dict = {"__name__": __name__}
    exec("\n".join(lines), namespace)
    fold = namespace["add_stage"]
    fold.__qualname__ = "ExecutionMetrics.add_stage"
    fold.__doc__ = ExecutionMetrics.add_stage.__doc__
    return fold


setattr(ExecutionMetrics, "add_stage", _stage_fold(_STAGE_TOTALS))


def mean_metrics(metrics: List[ExecutionMetrics]) -> ExecutionMetrics:
    """Element-wise mean, for averaging over a query set."""
    if not metrics:
        return ExecutionMetrics()
    out = ExecutionMetrics(
        workers=metrics[0].workers,
        storage_nodes=metrics[0].storage_nodes,
        backend=metrics[0].backend,
    )
    n = len(metrics)
    for name in _COUNTERS:
        total = sum(getattr(m, name) for m in metrics)
        # times (float fields) average exactly, counts round down
        is_time = isinstance(getattr(out, name), float)
        setattr(out, name, total / n if is_time else total // n)
    return out
