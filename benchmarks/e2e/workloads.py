"""The four workloads of the end-to-end benchmark, and how each is built.

Every workload runs the same stack — AIRCA loaded into a
``ZidianSystem`` fronted by a ``QueryService`` — and differs only in the
op list a pass replays and in the deployment knobs (transport,
durability, writer). ``README.md`` says why each exists and what it is
predicted *not* to show.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.relational.database import Database
from repro.service import QueryService, Session
from repro.systems import ZidianSystem
from repro.workloads import airca
from repro.workloads.traffic import QueryClass, airca_traffic_mix

HERE = os.path.dirname(os.path.abspath(__file__))
#: scratch space for WAL data directories; inside the benchmark's own
#: directory because a run may write nowhere else
TMP_DIR = os.path.join(HERE, ".tmp")

#: AIRCA size: scale 4.0 = 1 600 FLIGHT / 949 DELAY rows over 7 relations
#: (ISSUE 12 asked for 6.0; cut so that three set-ups plus the measured
#: window of every driver run fit the driver's time budget, see README)
DATASET_SCALE = 4.0
SMOKE_SCALE = 1.0
DATASET_SEED = 31
INDEXES = ("FLIGHT.tail_id", "FLIGHT.arr_delay:ordered")
WORKERS = 2
STORAGE_NODES = 4
MAX_QUEUED = 8


@dataclass(frozen=True)
class Workload:
    """One workload: deployment knobs plus the op list of a pass."""

    name: str
    why: str
    transport: str
    durable: bool
    #: reader ops per pass (full / smoke)
    ops: int
    smoke_ops: int
    make_ops: Callable[[Database, random.Random, int], List[str]]
    #: seconds between two due writes of the open-loop writer (None = no writer)
    write_interval_s: Optional[float] = None


def _stratified(
    mix: Sequence[QueryClass], rng: random.Random, count: int
) -> List[str]:
    """``count`` ops in which every class has exactly its share, shuffled.

    Drawing the class of each op would let the share of the slow classes
    drift from seed to seed, and a tail percentile that sits where two
    classes meet would drift with it; the seed should vary the parameters,
    not the mix. Shares are rounded by largest remainder.
    """
    total = sum(klass.weight for klass in mix)
    exact = [klass.weight * count / total for klass in mix]
    quotas = [int(share) for share in exact]
    by_remainder = sorted(
        range(len(mix)), key=lambda i: (quotas[i] - exact[i], i)
    )
    for i in by_remainder[: count - sum(quotas)]:
        quotas[i] += 1
    ops = [
        klass.make_sql(rng) for klass, quota in zip(mix, quotas) for _ in range(quota)
    ]
    rng.shuffle(ops)
    return ops


def _template_classes(
    names: Sequence[str], weight: float, db: Database
) -> List[QueryClass]:
    """One class per template, sharing ``weight`` equally."""

    def sampler(name: str) -> Callable[[random.Random], str]:
        template = airca.TEMPLATES[name]
        return lambda rng: template.format(**airca.sample_params(db, rng)).strip()

    return [QueryClass(name, weight / len(names), sampler(name)) for name in names]


def scanfree_ops(db: Database, rng: random.Random, count: int) -> List[str]:
    """Keyed point reads, index probes, narrow ranges and q1-q6 instances."""
    mix = airca_traffic_mix(db, point=0.60, index=0.15, range_=0.10, scan=0.0)
    mix += _template_classes(airca.SCAN_FREE_TEMPLATES, 0.15, db)
    return _stratified(mix, rng, count)


def analytic_ops(db: Database, rng: random.Random, count: int) -> List[str]:
    """q7-q12 in equal shares, a fresh parameter draw per op."""
    mix = _template_classes(airca.NON_SCAN_FREE_TEMPLATES, 1.0, db)
    return _stratified(mix, rng, count)


def mixed_ops(db: Database, rng: random.Random, count: int) -> List[str]:
    """The full traffic mix: point .70 / index .12 / range .12 / scan .06."""
    return _stratified(airca_traffic_mix(db), rng, count)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "scanfree_local",
            "the paper's target case: bounded scan-free plans, a handful of gets; "
            "sql, core and service do most of the work, kv little",
            transport="local",
            durable=False,
            ops=1200,
            smoke_ops=60,
            make_ops=scanfree_ops,
        ),
        Workload(
            "analytic_local",
            "q7-q12 scans, joins and aggregates over whole relations: kv scan, "
            "decode, kba operators and metering do the work, planning under 5 %",
            transport="local",
            durable=False,
            ops=72,
            smoke_ops=12,
            make_ops=analytic_ops,
        ),
        Workload(
            "analytic_socket",
            "the analytic_local op list with 4 node processes: the difference "
            "is the transport cost, and pushdown-style changes only show here",
            transport="socket",
            durable=False,
            ops=72,
            smoke_ops=12,
            make_ops=analytic_ops,
        ),
        Workload(
            "mixed_rw_wal",
            "full read mix under an open-loop DELAY writer (20/s) with WAL group "
            "fsync: a read-side gain that taxes the write path, or the reverse, shows",
            transport="local",
            durable=True,
            ops=1200,
            smoke_ops=60,
            make_ops=mixed_ops,
            write_interval_s=0.05,
        ),
    )
}


class Deployment:
    """A loaded system behind a service, plus what must be cleaned up."""

    def __init__(self, workload: Workload, smoke: bool = False) -> None:
        self.workload = workload
        self.data_dir: Optional[str] = None
        self.system: Optional[ZidianSystem] = None
        self.service: Optional[QueryService] = None
        try:
            self.db = airca.generate_airca(
                scale=SMOKE_SCALE if smoke else DATASET_SCALE, seed=DATASET_SEED
            )
            durability: Dict[str, object] = {"durability": "off"}
            if workload.durable:
                os.makedirs(TMP_DIR, exist_ok=True)
                self.data_dir = tempfile.mkdtemp(prefix="wal-", dir=TMP_DIR)
                durability = {
                    "durability": "wal",
                    "data_dir": self.data_dir,
                    "fsync_policy": "group",
                }
            # every knob the environment could flip (REPRO_KV_TRANSPORT,
            # REPRO_KV_DURABILITY, REPRO_VECTORIZED, REPRO_MVCC) is pinned
            self.system = ZidianSystem(
                workers=WORKERS,
                storage_nodes=STORAGE_NODES,
                indexes=INDEXES,
                transport=workload.transport,
                vectorized=False,
                **durability,
            )
            self.system.load(self.db, airca.airca_baav_schema())
            self.service = QueryService(
                self.system, max_workers=WORKERS, max_queued=MAX_QUEUED, mvcc=True
            )
        except BaseException:
            self.close()
            raise

    def open_session(self, client: str) -> Session:
        assert self.service is not None
        return self.service.open_session(client=client)

    def node_pids(self) -> List[int]:
        """Pids of the storage-node processes (empty on the local transport)."""
        assert self.system is not None
        stats = self.system.cluster.server_stats()
        return [node["pid"] for node in stats.values()]

    def close(self) -> None:
        """Stop the pool, reap node processes, remove the data directory."""
        try:
            if self.service is not None:
                self.service.close(close_system=True)
            elif self.system is not None:
                self.system.close()
        finally:
            self.service = self.system = None
            if self.data_dir is not None:
                shutil.rmtree(self.data_dir, ignore_errors=True)
                self.data_dir = None
                try:
                    os.rmdir(TMP_DIR)
                except OSError:
                    pass  # another run still has a data directory there

    def __enter__(self) -> "Deployment":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
