"""The parallel cost model (§7).

Plans run operator by operator ("stages"); within a stage, storage work is
spread over the storage nodes, computation and network transfer over the
``p`` workers of the SQL layer. Simulated stage time is

    storage service + network transfer + per-worker compute + overhead

and simulated query time is the sum over stages plus the job start-up
overhead of the backend stack. This realizes the paper's
``T_par = T_comm + T_comp`` with the non-skew assumption of §7.2 (work
divides evenly by ``p``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.kv.backends import BackendProfile
from repro.parallel.metrics import StageCost


@dataclass
class CostModel:
    """Converts counted work into simulated milliseconds."""

    profile: BackendProfile
    workers: int
    storage_nodes: int

    def job_overhead(self) -> StageCost:
        return StageCost("job-overhead", time_ms=self.profile.job_overhead_ms)

    def fetch_stage(
        self,
        name: str,
        gets: int,
        values: int,
        bytes_out: int,
        round_trips: Optional[int] = None,
        cache_hits: int = 0,
        cache_misses: int = 0,
        index_probes: int = 0,
        index_postings: int = 0,
        repartition_bytes: int = 0,
    ) -> StageCost:
        """A stage that reads from the storage layer.

        The counters come first, in the order the engines' I/O probe
        reports them (``fetch_stage(name, *probe.delta())``).

        ``repartition_bytes`` is intermediate data shuffled to align with
        the storage partitioning first (the interleaved ∝ of §7.2).
        ``round_trips`` is the number of client↔node RPCs that carried
        the ``gets``; when omitted, every get is its own round trip (the
        unbatched baseline, identical to the old cost).

        ``cache_hits``/``cache_misses`` record block-cache traffic: hits
        are served on the SQL-layer side of the network, so they cost
        zero storage time, zero round trips and zero transfer — they
        simply never appear in the counted ``gets``/``values``/``bytes``.

        ``index_probes``/``index_postings`` mark an index-probe access
        stage (posting/bucket fetches plus the follow-up keyed
        ``multi_get`` of the matching tuples). Index entries are ordinary
        KV pairs, so their gets/values/bytes are already inside the
        counted totals and priced like any other read — the probe/posting
        counts are surfaced for the evaluation tables (index round-trips
        and posting-list sizes), not priced twice.
        """
        profile = self.profile
        if round_trips is None:
            round_trips = gets
        storage = profile.batched_get_cost_ms(
            round_trips, gets, values
        ) / max(1, self.storage_nodes)
        links = max(1, min(self.workers, self.storage_nodes))
        transfer = profile.transfer_ms(bytes_out, links=links)
        shuffle = profile.transfer_ms(repartition_bytes, links=self.workers)
        compute = profile.compute_ms(values) / max(1, self.workers)
        return StageCost(
            name,
            time_ms=storage + transfer + shuffle + compute
            + profile.stage_overhead_ms,
            comm_bytes=bytes_out + repartition_bytes,
            gets=gets,
            values=values,
            round_trips=round_trips,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            index_probes=index_probes,
            index_postings=index_postings,
        )

    def shuffle_stage(
        self, name: str, shuffle_bytes: int, values: int
    ) -> StageCost:
        """A stage that repartitions data among workers, then computes."""
        profile = self.profile
        transfer = profile.transfer_ms(shuffle_bytes, links=self.workers)
        compute = profile.compute_ms(values) / max(1, self.workers)
        return StageCost(
            name,
            time_ms=transfer + compute + profile.stage_overhead_ms,
            comm_bytes=shuffle_bytes,
            values=0,
        )

    def compute_stage(self, name: str, values: int) -> StageCost:
        """A purely local stage (selection, projection on partitions)."""
        profile = self.profile
        compute = profile.compute_ms(values) / max(1, self.workers)
        return StageCost(name, time_ms=compute, values=0)

    def rebalance_stage(
        self,
        name: str,
        keys_moved: int,
        bytes_moved: int,
        round_trips: int,
    ) -> StageCost:
        """A membership-churn stage: key ranges migrating between nodes.

        Migration is node-to-node bulk transfer: each moved key costs its
        marginal put on the receiving node, each synced peer one round
        trip, and the bytes cross the storage network's parallel links.
        Used by the elasticity/failover benchmarks to price the
        ``rebalance_*`` counters the cluster charges during churn.
        """
        profile = self.profile
        storage = profile.batched_put_cost_ms(
            round_trips, keys_moved, 0
        ) / max(1, self.storage_nodes)
        transfer = profile.transfer_ms(
            bytes_moved, links=max(1, self.storage_nodes)
        )
        return StageCost(
            name,
            time_ms=storage + transfer,
            comm_bytes=bytes_moved,
            round_trips=round_trips,
            rebalance_bytes=bytes_moved,
        )

    def write_stage(
        self,
        name: str,
        puts: int,
        values: int,
        bytes_in: int,
        round_trips: Optional[int] = None,
        fsyncs: int = 0,
    ) -> StageCost:
        """A stage that writes to the storage layer.

        ``fsyncs`` is the number of WAL write barriers the durable
        nodes paid for these puts (0 for a volatile cluster; the
        workloads diff ``KVCluster.wal_stats()`` around the writes).
        Barriers run on the storage nodes in parallel, so the cost
        divides by ``storage_nodes`` like the put service time — group
        commit shows up as fewer fsyncs, not a cheaper barrier.
        """
        profile = self.profile
        if round_trips is None:
            round_trips = puts
        storage = (
            profile.batched_put_cost_ms(round_trips, puts, values)
            + profile.fsync_cost_ms(fsyncs)
        ) / max(1, self.storage_nodes)
        links = max(1, min(self.workers, self.storage_nodes))
        transfer = profile.transfer_ms(bytes_in, links=links)
        return StageCost(
            name,
            time_ms=storage + transfer,
            comm_bytes=bytes_in,
            round_trips=round_trips,
            fsyncs=fsyncs,
        )
