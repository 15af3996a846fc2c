"""One benchmark run: set up, check answers, replay passes, compute metrics.

:func:`run` is what ``run.py --workload W`` calls. It builds the
workload's deployment (several times, for a median ``setup_s``), checks
every distinct SQL string against the reference engine *outside* the
timed window (which also warms the system up), replays the seeded op
list in measured passes until ``seconds`` of measuring are spent, and
returns the metrics: end-to-end ones from the faster half of every op's
untraced replays (``trace=False``), or per-layer ones from rounds of
untraced / traced / vectorized passes (``trace=True``).

Load is a **closed loop of one client thread** calling
``Session.execute``; ``mixed_rw_wal`` adds one **open-loop writer**
thread whose writes are due every ``write_interval_s`` and are timed
from their due time. The clock is ``time.perf_counter`` (wall).
"""

from __future__ import annotations

import gc
import os
import random
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.relational.compare import bag_equal
from repro.sql.executor import execute as reference_execute
from repro.sql.planner import plan_sql
from repro.workloads.traffic import airca_delay_writer, percentile

from . import trace as tracing
from .workloads import WORKLOADS, Deployment, Workload

#: set-ups per end-to-end run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: measured passes an end-to-end run makes at least: an op needs a few
#: replays before the faster half of them says anything, and 4 passes of the
#: shortest op list (72) keep 144 latencies, so that ten lie beyond p90
MIN_PASSES = 4
#: rounds a per-layer run makes at least
MIN_ROUNDS = 2

#: exact per-query counters summed from ``QueryResult.metrics``
COUNTERS = (
    "sim_time_ms",
    "n_get",
    "n_round_trips",
    "data_values",
    "comm_bytes",
    "index_probes",
    "overlay_reads",
    "versions_skipped",
    "gc_reclaimed",
)

#: span names whose self time a reader op can spend; their per-op sum over
#: the root span is ``trace.coverage_share``
READ_LAYERS = (
    "service.execute",
    "systems.execute",
    "sql.parse",
    "sql.bind",
    "core.plan",
    "core.decide",
    "parallel.execute",
    "parallel.skew",
    "kba.operators",
    "kba.size_bytes",
    "baav.fetch",
    "kv.taav.fetch",
    "kv.codec.decode",
    "kv.cluster.read",
    "kv.cluster.scan",
    "kv.remote.rpc",
    "index.lookup",
)


def supported_tail(samples: int) -> float:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for q in (0.99, 0.95, 0.90, 0.75):
        if samples * (1.0 - q) >= 10:
            return q
    return 0.5


@dataclass
class WriteLog:
    """What the open-loop writer did during one pass (seconds)."""

    latencies: List[float] = field(default_factory=list)  # from the due time
    lateness: List[float] = field(default_factory=list)  # start - due
    attempted: int = 0
    failed: int = 0


@dataclass
class PassResult:
    seconds: float
    latencies: List[float]
    attempted: int
    failed: int
    counters: Dict[str, float]
    writes: Optional[WriteLog] = None

    @property
    def qps(self) -> float:
        return len(self.latencies) / self.seconds


class Writer:
    """Open-loop DELAY inserter: one write due every ``interval_s``."""

    def __init__(self, deployment: Deployment, interval_s: float, seed: int) -> None:
        self.interval_s = interval_s
        self.session = deployment.open_session("writer")
        self.rng = random.Random(seed ^ 0x5EED)
        self.stream, _ = airca_delay_writer(deployment.db)
        self.next_index = 0
        #: delay ids of acknowledged inserts, for the post-run check
        self.acked: List[int] = []

    def run(
        self, stop: threading.Event, log: WriteLog, tracer: Optional[tracing.Tracer]
    ) -> None:
        clock = time.perf_counter
        begin = clock()
        sent = 0
        while True:
            due = begin + sent * self.interval_s
            wait = due - clock()
            if stop.wait(wait) if wait > 0 else stop.is_set():
                return
            started = clock()
            relation, inserts, deletes = self.stream.make_update(
                self.rng, self.next_index
            )
            if tracer is not None:
                tracer.set_op(("w", self.next_index))
            self.next_index += 1
            sent += 1
            log.attempted += 1
            try:
                self.session.apply_updates(relation, inserts, deletes)
            except ReproError:
                log.failed += 1
                continue
            log.latencies.append(clock() - due)
            log.lateness.append(started - due)
            self.acked.append(inserts[0][0])


class Runner:
    """Replays one seeded op list against one deployment."""

    def __init__(self, deployment: Deployment, seed: int, smoke: bool) -> None:
        workload = deployment.workload
        self.deployment = deployment
        self.session = deployment.open_session("reader")
        count = workload.smoke_ops if smoke else workload.ops
        self.ops = workload.make_ops(deployment.db, random.Random(seed), count)
        self.expected: Dict[str, int] = {}
        self.base_delays = len(deployment.db.relation("DELAY").rows)
        self.writer: Optional[Writer] = None
        if workload.write_interval_s is not None:
            self.writer = Writer(deployment, workload.write_interval_s, seed)

    def check_answers(self) -> Tuple[int, int]:
        """Compare every distinct SQL string with the reference engine.

        Runs before any write, outside the timed window; records each
        answer's row count for the in-pass check. Returns (checked, wrong).
        """
        db = self.deployment.db
        wrong = 0
        for sql in dict.fromkeys(self.ops):
            plan, _ = plan_sql(sql, db.schema)
            reference = reference_execute(plan, db)
            answer = self.session.execute(sql).relation
            self.expected[sql] = len(reference.rows)
            if not bag_equal(reference, answer):
                wrong += 1
        return len(self.expected), wrong

    def check_writes(self) -> Tuple[int, int]:
        """After the last pass: every acknowledged insert is there once."""
        if self.writer is None:
            return 0, 0
        acked = self.writer.acked
        count = self.session.execute("select count(*) as n from DELAY D").rows
        wrong = int(count != [(self.base_delays + len(acked),)])
        if acked:
            found = self.session.execute(
                f"select D.delay_id from DELAY D where D.delay_id >= {min(acked)}"
            ).rows
            wrong += int(sorted(row[0] for row in found) != sorted(acked))
        return 2, wrong

    def run_pass(self, tracer: Optional[tracing.Tracer] = None) -> PassResult:
        """One closed-loop replay of the op list (plus the writer, if any)."""
        gc.collect()
        stop = threading.Event()
        log = thread = None
        if self.writer is not None:
            log = WriteLog()
            thread = threading.Thread(
                target=self.writer.run, args=(stop, log, tracer), daemon=True
            )
            thread.start()
        execute = self.session.execute
        expected = self.expected
        clock = time.perf_counter
        latencies: List[float] = []
        metrics = []
        failed = 0
        begin = clock()
        try:
            for index, sql in enumerate(self.ops):
                if tracer is not None:
                    tracer.set_op(("r", index))
                start = clock()
                try:
                    result = execute(sql)
                    rows = len(result.rows)
                except ReproError:
                    # keeps latencies[i] the latency of ops[i]; the run fails
                    latencies.append(clock() - start)
                    failed += 1
                    continue
                latencies.append(clock() - start)
                if rows != expected[sql]:
                    failed += 1
                metrics.append(result.metrics)
            seconds = clock() - begin
        finally:
            stop.set()
            if thread is not None:
                thread.join()
        counters = {
            name: sum(getattr(m, name) for m in metrics) for name in COUNTERS
        }
        return PassResult(seconds, latencies, len(self.ops), failed, counters, log)


@dataclass
class Outcome:
    """What one run hands back to ``run.py``."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    samples: Dict[str, object]
    node_pids: List[int]
    spans: List[list]


def _server_load(deployment: Deployment) -> Tuple[int, float]:
    """(requests served, CPU ms burnt) by the node processes so far.

    (0, 0.0) on the local transport: there are no node processes.
    """
    assert deployment.system is not None
    ticks = os.sysconf("SC_CLK_TCK")
    requests = 0
    cpu_ms = 0.0
    for node in deployment.system.cluster.server_stats().values():
        requests += node["requests"]
        with open(f"/proc/{node['pid']}/stat", encoding="ascii") as stat:
            # fields 14/15 (utime, stime) counted after the ")" of comm
            fields = stat.read().rpartition(")")[2].split()
        cpu_ms += (int(fields[11]) + int(fields[12])) * 1000.0 / ticks
    return requests, cpu_ms


def _layer_metrics(
    profile: tracing.Profile,
    untraced: PassResult,
    traced: PassResult,
    vectorized: PassResult,
    server_load: Tuple[int, float],
    wal: Dict[str, int],
) -> Dict[str, float]:
    """Per-layer metrics of one round (ms are means per reader op / write).

    ``server_load`` is what the node processes served and burnt during the
    traced pass (requests, CPU ms), ``wal`` what the logs grew by.
    """
    ops = max(1, len(traced.latencies))
    writes = max(1, len(traced.writes.latencies)) if traced.writes else 1

    def read_ms(name: str) -> float:
        return profile.self_s["r"].get(name, 0.0) * 1e3 / ops

    def write_ms(name: str) -> float:
        return profile.self_s["w"].get(name, 0.0) * 1e3 / writes

    root_ms = profile.root_s["r"] * 1e3 / ops
    counters = traced.counters
    return {
        "service.overhead_ms": read_ms("service.execute"),
        "systems.execute_self_ms": read_ms("systems.execute"),
        "sql.parse_ms": read_ms("sql.parse"),
        "sql.bind_ms": read_ms("sql.bind"),
        # Zidian.plan as a caller sees it: M1 checks (decide) + M2 plan
        "core.plan_ms": read_ms("core.plan") + read_ms("core.decide"),
        "core.decide_ms": read_ms("core.decide"),
        "parallel.execute_self_ms": read_ms("parallel.execute"),
        "parallel.skew_ms": read_ms("parallel.skew"),
        "parallel.sim_ms_per_query": counters["sim_time_ms"] / ops,
        "kba.operators_self_ms": read_ms("kba.operators"),
        "kba.size_bytes_ms": read_ms("kba.size_bytes"),
        "kba.vectorized_speedup": vectorized.qps / untraced.qps,
        "baav.fetch_self_ms": read_ms("baav.fetch"),
        "baav.maintain_ms": write_ms("baav.maintain"),
        "kv.taav.fetch_self_ms": read_ms("kv.taav.fetch"),
        "kv.codec.decode_ms": read_ms("kv.codec.decode"),
        "kv.cluster.read_ms": read_ms("kv.cluster.read"),
        "kv.cluster.scan_ms": read_ms("kv.cluster.scan"),
        "kv.cluster.write_ms": write_ms("kv.cluster.write"),
        "kv.gets_per_query": counters["n_get"] / ops,
        "kv.round_trips_per_query": counters["n_round_trips"] / ops,
        "kv.values_per_query": counters["data_values"] / ops,
        "kv.comm_bytes_per_query": counters["comm_bytes"] / ops,
        "kv.remote.rpc_ms": read_ms("kv.remote.rpc"),
        "kv.remote.rpcs_per_query": profile.calls["r"].get("kv.remote.rpc", 0) / ops,
        "kv.server.requests_per_query": server_load[0] / ops,
        "kv.server.cpu_ms_per_query": server_load[1] / ops,
        "kv.wal.append_ms": write_ms("kv.wal.append"),
        "kv.wal.fsyncs_per_write": wal["fsyncs"] / writes,
        "kv.wal.bytes_per_write": wal["bytes"] / writes,
        "mvcc.commit_ms": write_ms("mvcc.commit"),
        "mvcc.overlay_reads_per_query": counters["overlay_reads"] / ops,
        "mvcc.versions_skipped_per_query": counters["versions_skipped"] / ops,
        "mvcc.gc_reclaimed": counters["gc_reclaimed"],
        "index.lookup_ms": read_ms("index.lookup"),
        "index.probes_per_query": counters["index_probes"] / ops,
        "index.maintain_ms": write_ms("index.maintain"),
        "trace.coverage_share": sum(map(read_ms, READ_LAYERS)) / root_ms,
        "trace.overhead_share": 1.0 - traced.qps / untraced.qps,
    }


def _writer_metrics(passes: Sequence[PassResult]) -> Dict[str, float]:
    """Generator health and write latency over the untraced passes."""
    logs = [p.writes for p in passes if p.writes is not None]
    latencies = sorted(x for log in logs for x in log.latencies)
    lateness = sorted(x for log in logs for x in log.lateness)
    if not latencies:
        return dict.fromkeys(
            (
                "writer.write_p50_ms",
                "writer.write_p95_ms",
                "writer.lateness_ms",
                "writer.achieved_per_s",
            ),
            0.0,
        )
    return {
        "writer.write_p50_ms": percentile(latencies, 0.50) * 1e3,
        "writer.write_p95_ms": percentile(latencies, 0.95) * 1e3,
        "writer.lateness_ms": percentile(lateness, 0.50) * 1e3,
        "writer.achieved_per_s": len(latencies) / sum(p.seconds for p in passes),
    }


def undisturbed(passes: Sequence[PassResult]) -> List[float]:
    """The faster half of every op's latencies, pooled and sorted (seconds).

    Every pass replays the same op list, so op ``i`` has one latency per
    pass. The host this runs on stalls the program for milliseconds at a
    time (shared cores) and never speeds it up, and a stall is much shorter
    than a pass: it lands on a few ops of every pass, which is why dropping
    whole passes does not steady a tail percentile and dropping each op's
    slower replays does. The rule is the same on both sides of a comparison.
    """
    keep = (len(passes) + 1) // 2
    kept: List[float] = []
    for replays in zip(*(p.latencies for p in passes)):
        kept += sorted(replays)[:keep]
    kept.sort()
    return kept


def _end_to_end(passes: Sequence[PassResult], setups: Sequence[float]):
    kept = undisturbed(passes)
    metrics = {
        "setup_s": statistics.median(setups),
        # one closed-loop client spends its time inside execute(): the rate
        # it completes queries at when nothing outside the program stalls it
        "qps": len(kept) / sum(kept),
        "p50_ms": percentile(kept, 0.50) * 1e3,
        "p90_ms": percentile(kept, 0.90) * 1e3,
        # ru_maxrss is KiB on Linux: the client process's high-water mark
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "passes": len(passes),
        "latencies_kept_per_op": (len(passes) + 1) // 2,
        "latencies_kept": len(kept),
        "qps_per_pass": [round(p.qps, 3) for p in passes],
    }
    return metrics, samples


def _per_layer(runner: Runner, seconds: float):
    """Rounds of untraced / traced / vectorized passes -> per-layer medians."""
    deployment = runner.deployment
    system = deployment.system
    assert system is not None and deployment.service is not None
    tracer = tracing.Tracer()
    rounds: List[Dict[str, float]] = []
    untraced_passes: List[PassResult] = []
    all_passes: List[PassResult] = []
    spans: List[list] = []
    began = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - began < seconds:
        untraced = runner.run_pass()
        tracer.clear()
        load_before = _server_load(deployment)
        wal_before = system.cluster.wal_stats()
        with tracer.installed():
            traced = runner.run_pass(tracer)
        wal_after = system.cluster.wal_stats()
        load_after = _server_load(deployment)
        system.vectorized = True
        try:
            vectorized = runner.run_pass()
        finally:
            system.vectorized = False
        all_passes += [untraced, traced, vectorized]
        untraced_passes.append(untraced)
        spans = tracer.spans()
        rounds.append(
            _layer_metrics(
                tracing.aggregate(spans),
                untraced,
                traced,
                vectorized,
                (load_after[0] - load_before[0], load_after[1] - load_before[1]),
                {key: wal_after[key] - wal_before[key] for key in wal_after},
            )
        )
    metrics = {
        name: statistics.median(r[name] for r in rounds) for name in rounds[0]
    }
    pooled = sorted(x for p in untraced_passes for x in p.latencies)
    tail = supported_tail(len(pooled))
    metrics["reader.p99_ms"] = percentile(pooled, 0.99) * 1e3
    metrics.update(_writer_metrics(untraced_passes))
    stats = deployment.service.stats()
    metrics["service.shed"] = stats.shed
    metrics["service.peak_queued"] = stats.peak_queued
    samples = {
        "rounds": len(rounds),
        "reader_ops_untraced": len(pooled),
        "highest_supported_percentile": int(round(tail * 100)),
    }
    return metrics, samples, all_passes, spans


def _require_no_shims() -> None:
    left = tracing.patched_targets()
    if left:
        raise RuntimeError(f"timing shims still installed: {left}")


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
) -> Outcome:
    """One benchmark run of workload ``name`` (see the module docstring)."""
    workload: Workload = WORKLOADS[name]
    _require_no_shims()
    setups: List[float] = []
    # per-layer runs do not report setup_s: one set-up is enough there
    repeats = 1 if trace or smoke else SETUP_REPEATS
    deployment = None
    for _ in range(repeats):
        if deployment is not None:
            deployment.close()
        gc.collect()
        start = time.perf_counter()
        deployment = Deployment(workload, smoke)
        setups.append(time.perf_counter() - start)
    assert deployment is not None
    with deployment:
        runner = Runner(deployment, seed, smoke)
        node_pids = deployment.node_pids()
        # doubles as the warm-up: every distinct statement runs once, untimed
        checked, wrong = runner.check_answers()
        passes: List[PassResult] = []
        spans: List[list] = []
        if trace:
            # one untimed pass, so that the first round's ratios compare
            # passes that are equally warm
            passes.append(runner.run_pass())
            metrics, samples, measured, spans = _per_layer(runner, seconds)
            passes += measured
        else:
            began = time.perf_counter()
            while len(passes) < MIN_PASSES or time.perf_counter() - began < seconds:
                passes.append(runner.run_pass())
            metrics, samples = _end_to_end(passes, setups)
        write_checks, lost = runner.check_writes()
    _require_no_shims()
    attempted = checked + write_checks
    failed = wrong + lost
    for result in passes:
        attempted += result.attempted
        failed += result.failed
        if result.writes is not None:
            attempted += result.writes.attempted
            failed += result.writes.failed
    samples["ops_per_pass"] = len(runner.ops)
    samples["distinct_sql"] = checked
    return Outcome(metrics, attempted, failed, samples, node_pids, spans)
