"""Closed-loop multi-client traffic driver for the query service.

The paper's claim — scan-free plans bound per-query KV work — matters at
scale only if many clients can issue those bounded queries at once. This
module drives a :class:`~repro.service.QueryService` with a closed loop
of N clients (each waits for its answer, thinks, then issues the next
query), a Zipf-skewed mix over point / index / range / scan query
classes, and an optional writer stream, and reports throughput plus
p50/p95/p99 latency.

Two execution modes, one report shape:

* :meth:`TrafficDriver.run` — **virtual-time** mode. A discrete-event
  loop replays the closed loop on a simulated clock: every query is
  *really executed* (exact answers, exact counters) at its dispatch
  instant, its service time is the calibrated simulated cost
  (``metrics.sim_time_ms``), and worker occupancy / the bounded
  admission queue follow the service's own ``max_workers`` /
  ``max_queued`` knobs. Deterministic, seedable, and the basis of the
  scaling benchmark — wall-parallelism in CPython would measure the
  GIL, not the architecture, exactly like the repo's other simulated
  timings (see DESIGN substitutions in the README).
* :meth:`TrafficDriver.run_threads` — **real-thread** mode. N OS
  threads hammer the service's actual pool, admission control and
  locks; latencies are wall-clock. This is the correctness screw-press
  the stress tests and the mixed read/write benchmark phase use.

Both report a :class:`TrafficReport` (overall + per-class percentiles,
shed counts, writer accounting).
"""

from __future__ import annotations

import heapq
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ServiceOverloadedError
from repro.locks import make_lock
from repro.relational.database import Database

#: (relation, inserted rows, deleted rows) produced by an update sampler
Update = Tuple[str, List[tuple], List[tuple]]


# --------------------------------------------------------------------------
# sampling helpers
# --------------------------------------------------------------------------


def zipf_sampler(
    n: int, alpha: float = 1.2
) -> Callable[[random.Random], int]:
    """A sampler of ranks ``0..n-1`` with Zipf(alpha) popularity."""
    if n <= 0:
        raise ValueError("need a positive universe")
    weights = [1.0 / (rank + 1) ** alpha for rank in range(n)]
    ranks = list(range(n))

    def sample(rng: random.Random) -> int:
        return rng.choices(ranks, weights=weights, k=1)[0]

    return sample


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample (0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = max(
        0, min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    )
    return sorted_values[rank]


# --------------------------------------------------------------------------
# workload description
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class QueryClass:
    """One class of the query mix: a weight and a SQL sampler."""

    name: str
    weight: float
    make_sql: Callable[[random.Random], str]


@dataclass(frozen=True)
class UpdateStream:
    """The writer client: samples a Δ, thinks ``think_ms`` between Δs."""

    make_update: Callable[[random.Random, int], Update]
    think_ms: float = 1.0


@dataclass
class QuerySample:
    """One completed (or shed) closed-loop interaction."""

    klass: str
    issued_ms: float
    wait_ms: float = 0.0
    service_ms: float = 0.0
    shed: bool = False

    @property
    def latency_ms(self) -> float:
        return self.wait_ms + self.service_ms


@dataclass
class ClassReport:
    """Latency digest of one query class."""

    completed: int = 0
    shed: int = 0
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0
    mean_service_ms: float = 0.0


@dataclass
class TrafficReport:
    """What the closed loop measured."""

    mode: str
    clients: int
    workers: int
    completed: int = 0
    shed: int = 0
    duration_ms: float = 0.0
    wall_s: float = 0.0
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0
    per_class: Dict[str, ClassReport] = field(default_factory=dict)
    updates_applied: int = 0
    update_p99_ms: float = 0.0

    @property
    def throughput_qps(self) -> float:
        """Completed queries per second of (simulated or wall) time."""
        if self.duration_ms <= 0:
            return 0.0
        return self.completed / (self.duration_ms / 1000.0)

    def summary(self) -> str:
        return (
            f"[{self.mode}] {self.clients} clients / {self.workers} workers: "
            f"{self.completed} queries in {self.duration_ms / 1000.0:.2f}s "
            f"-> {self.throughput_qps:.1f} q/s, "
            f"p50={self.p50_ms:.2f}ms p95={self.p95_ms:.2f}ms "
            f"p99={self.p99_ms:.2f}ms, shed={self.shed}, "
            f"updates={self.updates_applied}"
        )


def _digest(
    samples: List[QuerySample], updates: List[float]
) -> Tuple[float, float, float, Dict[str, ClassReport], float]:
    done = sorted(s.latency_ms for s in samples if not s.shed)
    per_class: Dict[str, ClassReport] = {}
    for name in sorted({s.klass for s in samples}):
        latencies = sorted(
            s.latency_ms for s in samples
            if s.klass == name and not s.shed
        )
        services = [
            s.service_ms for s in samples
            if s.klass == name and not s.shed
        ]
        per_class[name] = ClassReport(
            completed=len(latencies),
            shed=sum(1 for s in samples if s.klass == name and s.shed),
            p50_ms=percentile(latencies, 0.50),
            p95_ms=percentile(latencies, 0.95),
            p99_ms=percentile(latencies, 0.99),
            mean_service_ms=(
                sum(services) / len(services) if services else 0.0
            ),
        )
    update_p99 = percentile(sorted(updates), 0.99)
    return (
        percentile(done, 0.50),
        percentile(done, 0.95),
        percentile(done, 0.99),
        per_class,
        update_p99,
    )


# --------------------------------------------------------------------------
# the driver
# --------------------------------------------------------------------------


class TrafficDriver:
    """Closed-loop driver over a :class:`~repro.service.QueryService`."""

    def __init__(
        self,
        service,
        mix: Sequence[QueryClass],
        clients: int = 8,
        think_ms: float = 0.5,
        update_stream: Optional[UpdateStream] = None,
        seed: int = 1234,
    ) -> None:
        if not mix:
            raise ValueError("need at least one query class")
        if clients <= 0:
            raise ValueError("need at least one client")
        self.service = service
        self.mix = list(mix)
        self.clients = clients
        self.think_ms = think_ms
        self.update_stream = update_stream
        self.seed = seed

    def _pick_class(self, rng: random.Random) -> QueryClass:
        return rng.choices(
            self.mix, weights=[c.weight for c in self.mix], k=1
        )[0]

    @staticmethod
    def _written(cluster) -> Tuple[int, int]:
        """The calling thread's puts and values written, over every node."""
        shards = cluster.thread_shards()[1]
        return (
            sum(shard.puts for shard in shards),
            sum(shard.values_written for shard in shards),
        )

    def _update_service_ms(self, apply: Callable[[], None]) -> float:
        """Apply a Δ and price it with the calibrated write cost."""
        system = self.service.system
        cluster = getattr(system, "cluster", None)
        profile = getattr(system, "profile", None)
        if cluster is None or profile is None:
            apply()
            return 0.1
        before = self._written(cluster)
        apply()
        after = self._written(cluster)
        puts = after[0] - before[0]
        values = after[1] - before[1]
        nodes = max(1, cluster.num_live_nodes)
        return profile.put_cost_ms(puts, values) / nodes

    # -- virtual-time closed loop -----------------------------------------

    def run(self, queries_per_client: int = 25,
            updates: int = 0) -> TrafficReport:
        """Discrete-event closed loop on the simulated clock.

        Every dispatched query really executes (on the calling thread,
        via the service's synchronous path) and contributes its
        simulated service time; ``max_workers`` virtual workers and the
        ``max_queued`` admission bound shape waiting and shedding
        exactly like the live service would. The writer stream follows
        the service's concurrency-control mode:

        * **MVCC on** (``service.mvcc``, the PR 9 default): writes
          commit concurrently with snapshot reads — the Δ applies at
          its event instant, occupies no query worker, and never gates
          dispatch, so reader p99 stays flat under a sustained writer.
        * **MVCC off**: the legacy writer-preferring exclusive lock is
          modeled faithfully — a pending write first waits for the
          in-flight queries to drain (new dispatches queue behind it),
          then blocks every query for its service time, so the
          reported p99 includes the read/write stall the lock causes.
        """
        rng = random.Random(self.seed)
        workers = self.service.max_workers
        max_queued = self.service.max_queued
        mvcc = bool(getattr(self.service, "mvcc", False))
        start_wall = time.perf_counter()
        sessions = [
            self.service.open_session(client=f"client-{i}")
            for i in range(self.clients)
        ]
        writer_session = (
            self.service.open_session(client="writer")
            if self.update_stream and updates > 0
            else None
        )

        samples: List[QuerySample] = []
        update_latencies: List[float] = []
        busy = 0
        queue: deque = deque()  # (enqueue_ms, client, klass, sql)
        remaining = [queries_per_client] * self.clients
        updates_left = updates if writer_session is not None else 0
        #: simulated instant a pending write was requested (None = no
        #: writer waiting for the exclusive lock)
        write_requested: Optional[float] = None
        #: queries are blocked until this instant while a write holds
        #: the exclusive lock
        write_until = 0.0
        events: List[Tuple[float, int, str, int]] = []
        seq = 0

        def push(at_ms: float, kind: str, client: int) -> None:
            nonlocal seq
            heapq.heappush(events, (at_ms, seq, kind, client))
            seq += 1

        for client in range(self.clients):
            # staggered arrivals so the loop does not start in lockstep
            push(rng.uniform(0.0, self.think_ms), "issue", client)
        if updates_left:
            push(self.update_stream.think_ms, "write", -1)
        now = 0.0

        def can_dispatch(at_ms: float) -> bool:
            if mvcc:
                # snapshot reads never wait on the writer: a free
                # worker is the only admission condition
                return busy < workers
            return (
                busy < workers
                and write_requested is None
                and at_ms >= write_until
            )

        def dispatch(at_ms: float, client: int, klass: QueryClass,
                     sql: str, enqueued_ms: float) -> None:
            nonlocal busy
            result = sessions[client].execute(sql)
            service_ms = max(1e-6, result.metrics.sim_time_ms)
            samples.append(
                QuerySample(
                    klass=klass.name,
                    issued_ms=enqueued_ms,
                    wait_ms=at_ms - enqueued_ms,
                    service_ms=service_ms,
                )
            )
            busy += 1
            push(at_ms + service_ms, "complete", client)

        def drain_queue(at_ms: float) -> None:
            while queue and can_dispatch(at_ms):
                enq_ms, q_client, q_klass, q_sql = queue.popleft()
                dispatch(at_ms, q_client, q_klass, q_sql, enq_ms)

        def apply_write_now(at_ms: float) -> None:
            """MVCC mode: the Δ commits concurrently with the readers.

            No drain, no gate — the write's latency is just its own
            service time, and the next Δ is scheduled after it.
            """
            nonlocal updates_left
            updates_left -= 1
            index = updates - updates_left - 1
            relation, inserts, deletes = self.update_stream.make_update(
                rng, index
            )
            write_ms = self._update_service_ms(
                lambda: writer_session.apply_updates(
                    relation, inserts, deletes
                )
            )
            update_latencies.append(write_ms)
            if updates_left > 0:
                push(
                    at_ms + write_ms + self.update_stream.think_ms,
                    "write", -1,
                )

        def start_write(at_ms: float) -> None:
            """The exclusive lock is granted: apply the Δ for real."""
            nonlocal write_requested, write_until, updates_left
            requested = write_requested
            write_requested = None
            updates_left -= 1
            index = updates - updates_left - 1
            relation, inserts, deletes = self.update_stream.make_update(
                rng, index
            )
            write_ms = self._update_service_ms(
                lambda: writer_session.apply_updates(
                    relation, inserts, deletes
                )
            )
            write_until = at_ms + write_ms
            update_latencies.append((at_ms - requested) + write_ms)
            push(write_until, "write-done", -1)

        while events:
            now, _, kind, client = heapq.heappop(events)
            if kind == "issue":
                if remaining[client] <= 0:
                    continue
                remaining[client] -= 1
                klass = self._pick_class(rng)
                sql = klass.make_sql(rng)
                if can_dispatch(now):
                    dispatch(now, client, klass, sql, now)
                elif len(queue) < max_queued:
                    # waits for a worker — or behind the writer, which
                    # has preference over new readers
                    queue.append((now, client, klass, sql))
                else:
                    # shed: the client backs off a think time and the
                    # interaction counts as refused, like the live
                    # service raising ServiceOverloadedError
                    samples.append(
                        QuerySample(
                            klass=klass.name, issued_ms=now, shed=True
                        )
                    )
                    remaining[client] += 1
                    push(now + max(self.think_ms, 0.05), "issue", client)
            elif kind == "complete":
                busy -= 1
                if write_requested is not None and busy == 0:
                    start_write(now)
                else:
                    drain_queue(now)
                if remaining[client] > 0:
                    push(now + self.think_ms, "issue", client)
            elif kind == "write":
                if updates_left <= 0:
                    continue
                if mvcc:
                    apply_write_now(now)
                    continue
                write_requested = now
                if busy == 0 and now >= write_until:
                    start_write(now)
            elif kind == "write-done":
                drain_queue(now)
                if updates_left > 0:
                    push(
                        now + self.update_stream.think_ms, "write", -1
                    )

        for session in sessions:
            session.close()
        if writer_session is not None:
            writer_session.close()

        p50, p95, p99, per_class, upd_p99 = _digest(
            samples, update_latencies
        )
        return TrafficReport(
            mode="virtual",
            clients=self.clients,
            workers=workers,
            completed=sum(1 for s in samples if not s.shed),
            shed=sum(1 for s in samples if s.shed),
            duration_ms=now,
            wall_s=time.perf_counter() - start_wall,
            p50_ms=p50,
            p95_ms=p95,
            p99_ms=p99,
            per_class=per_class,
            updates_applied=len(update_latencies),
            update_p99_ms=upd_p99,
        )

    # -- real-thread closed loop ------------------------------------------

    def run_threads(self, queries_per_client: int = 20,
                    updates: int = 0) -> TrafficReport:
        """Drive the live pool with real client threads (wall latency).

        Shed interactions (the service's admission control pushing
        back) are counted and the client retries the same query after a
        think-time backoff, so every client eventually completes its
        budget — which is what lets the integrity checks after a run
        assert exact counts.
        """
        samples: List[QuerySample] = []
        update_latencies: List[float] = []
        samples_lock = make_lock("traffic.samples_lock")
        start_wall = time.perf_counter()

        def client_loop(client: int) -> None:
            rng = random.Random(self.seed + 7919 * (client + 1))
            session = self.service.open_session(client=f"client-{client}")
            try:
                for _ in range(queries_per_client):
                    klass = self._pick_class(rng)
                    sql = klass.make_sql(rng)
                    while True:
                        issued = (
                            time.perf_counter() - start_wall
                        ) * 1000.0
                        try:
                            t0 = time.perf_counter()
                            session.submit(sql).result()
                            elapsed = (time.perf_counter() - t0) * 1000.0
                        except ServiceOverloadedError:
                            with samples_lock:
                                samples.append(
                                    QuerySample(
                                        klass=klass.name,
                                        issued_ms=issued,
                                        shed=True,
                                    )
                                )
                            time.sleep(self.think_ms / 1000.0)
                            continue
                        with samples_lock:
                            samples.append(
                                QuerySample(
                                    klass=klass.name,
                                    issued_ms=issued,
                                    service_ms=elapsed,
                                )
                            )
                        break
                    if self.think_ms:
                        time.sleep(self.think_ms / 1000.0)
            finally:
                session.close()

        def writer_loop() -> None:
            rng = random.Random(self.seed - 1)
            session = self.service.open_session(client="writer")
            try:
                for index in range(updates):
                    relation, inserts, deletes = (
                        self.update_stream.make_update(rng, index)
                    )
                    t0 = time.perf_counter()
                    session.apply_updates(relation, inserts, deletes)
                    with samples_lock:
                        update_latencies.append(
                            (time.perf_counter() - t0) * 1000.0
                        )
                    if self.update_stream.think_ms:
                        time.sleep(self.update_stream.think_ms / 1000.0)
            finally:
                session.close()

        threads = [
            threading.Thread(target=client_loop, args=(i,), daemon=True)
            for i in range(self.clients)
        ]
        if self.update_stream is not None and updates > 0:
            threads.append(
                threading.Thread(target=writer_loop, daemon=True)
            )
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        wall_s = time.perf_counter() - start_wall
        p50, p95, p99, per_class, upd_p99 = _digest(
            samples, update_latencies
        )
        return TrafficReport(
            mode="threads",
            clients=self.clients,
            workers=self.service.max_workers,
            completed=sum(1 for s in samples if not s.shed),
            shed=sum(1 for s in samples if s.shed),
            duration_ms=wall_s * 1000.0,
            wall_s=wall_s,
            p50_ms=p50,
            p95_ms=p95,
            p99_ms=p99,
            per_class=per_class,
            updates_applied=len(update_latencies),
            update_p99_ms=upd_p99,
        )


# --------------------------------------------------------------------------
# canned AIRCA mix (point / index / range / scan + a DELAY writer)
# --------------------------------------------------------------------------


def airca_traffic_mix(
    db: Database,
    point: float = 0.70,
    index: float = 0.12,
    rng_alpha: float = 1.2,
    range_: float = 0.12,
    scan: float = 0.06,
) -> List[QueryClass]:
    """The benchmark mix over AIRCA: Zipf-skewed keyed point reads,
    non-key index probes, narrow ranges, and the occasional aggregate
    scan. Weights are the class mix shares."""
    flights = db.relation("FLIGHT").rows
    n_flights = len(flights)
    tails = sorted({row[4] for row in flights})
    flight_rank = zipf_sampler(n_flights, rng_alpha)
    tail_rank = zipf_sampler(len(tails), rng_alpha)

    def point_sql(rng: random.Random) -> str:
        fid = flight_rank(rng) + 1
        return (
            "select F.arr_delay, F.dep_delay, F.distance "
            f"from FLIGHT F where F.flight_id = {fid}"
        )

    def index_sql(rng: random.Random) -> str:
        tail = tails[tail_rank(rng)]
        return (
            "select F.flight_id, F.arr_delay "
            f"from FLIGHT F where F.tail_id = {tail}"
        )

    def range_sql(rng: random.Random) -> str:
        lo = round(rng.uniform(40.0, 70.0), 1)
        hi = round(lo + rng.uniform(3.0, 8.0), 1)
        return (
            "select F.flight_id, F.arr_delay from FLIGHT F "
            f"where F.arr_delay >= {lo} and F.arr_delay < {hi}"
        )

    def scan_sql(rng: random.Random) -> str:
        distance = rng.randrange(1000, 3000)
        return (
            "select count(*) as n, avg(F.arr_delay) as avg_delay "
            f"from FLIGHT F where F.distance > {distance}"
        )

    mix = [
        QueryClass("point", point, point_sql),
        QueryClass("index", index, index_sql),
        QueryClass("range", range_, range_sql),
        QueryClass("scan", scan, scan_sql),
    ]
    return [c for c in mix if c.weight > 0]


def airca_delay_writer(
    db: Database, think_ms: float = 0.5, rng_alpha: float = 1.2
) -> Tuple[UpdateStream, List[int]]:
    """A DELAY-inserting writer stream for AIRCA.

    Returns the stream plus the (growing) list of delay ids it has
    inserted, so a benchmark can assert afterwards that every write
    survived exactly once (no lost or duplicated writes).
    """
    delay_schema = db.relation("DELAY").schema
    n_metrics = len(delay_schema.attributes) - 5
    flights = db.relation("DELAY").rows
    base_id = max((row[0] for row in flights), default=0) + 1
    n_flights = len(db.relation("FLIGHT").rows)
    flight_rank = zipf_sampler(n_flights, rng_alpha)
    inserted: List[int] = []

    def make_update(rng: random.Random, index: int) -> Update:
        delay_id = base_id + index
        flight_id = flight_rank(rng) + 1
        row = (
            delay_id,
            flight_id,
            rng.choice(("CARRIER", "WEATHER", "NAS")),
            round(rng.uniform(5.0, 120.0), 1),
            rng.randrange(1, 5),
        ) + tuple(
            round(rng.uniform(0.0, 100.0), 2) for _ in range(n_metrics)
        )
        inserted.append(delay_id)
        return "DELAY", [row], []

    return UpdateStream(make_update, think_ms=think_ms), inserted
