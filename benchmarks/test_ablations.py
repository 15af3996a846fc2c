"""Ablations (ours): isolate the design choices DESIGN.md calls out.

A1 block compression on/off; A2 block statistics fast path on/off;
A3 block split threshold sweep; A4 interleaved vs fetch-all execution of
the same KBA plan (the §7.2 strategy vs the strawman it replaces).
"""


from harness import (
    baav_schema_for,
    build_pair,
    dataset,
    fmt,
    mean,
    publish,
    queries_for,
    render_table,
    run_queries,
)

from repro.relational import bag_equal
from repro.systems import ZidianSystem

SCALE_UNITS = 8
BACKEND = "hbase"


def test_a1_compression(once):
    """Block compression (§8.2(1)) on a narrow, small-domain KV schema.

    Compression dedupes identical value rows within a block, so it pays
    on schemas whose value attributes have small active domains — the
    "many attributes of MOT ... have small active domains" observation of
    Exp-1. A wide schema containing a unique id never dedupes; this
    ablation uses a narrow test-profile schema keyed by station.
    """

    def run():
        from repro.baav import BaaVSchema, KVSchema
        from repro.workloads.mot import TEST

        db = dataset("mot", SCALE_UNITS)
        narrow = BaaVSchema([
            KVSchema("test_profile", TEST, ["station_id"],
                     ["result", "test_type", "test_class"]),
        ])
        station = sorted(db.relation("TEST").distinct_values("station_id"))[0]
        sql = (
            "select T.result, count(*) as n from TEST T "
            f"where T.station_id = {station} group by T.result"
        )
        out = {}
        for compress in (True, False):
            zidian = ZidianSystem(
                BACKEND, workers=8, storage_nodes=4, compress=compress,
                keep_taav=False, use_stats=False,
            )
            zidian.load(db, narrow)
            out[compress] = (
                zidian.store.instance("test_profile").size_bytes(),
                zidian.execute(sql),
            )
        return out

    out = once(run)
    rows = [
        [name, fmt(out[flag][0] / 1e6), fmt(out[flag][1].metrics.data_values),
         fmt(out[flag][1].metrics.sim_time_ms / 1000)]
        for name, flag in (("compressed", True), ("raw", False))
    ]
    publish(
        "ablation_a1_compression",
        render_table(
            "Ablation A1 (repro): block compression, narrow MOT schema",
            ["layout", "store (MB)", "#data", "time (s)"],
            rows,
        ),
    )
    assert bag_equal(out[True][1].relation, out[False][1].relation)
    # small active domain: big dedupe in storage and data accessed
    assert out[True][0] < out[False][0] / 3
    assert out[True][1].metrics.data_values < (
        out[False][1].metrics.data_values / 2
    )


def test_a2_block_stats(once):
    """The §8.2(2) statistics fast path on whole-instance group-bys.

    Uses TPC-H's lineitem-by-suppkey instance: blocks of hundreds of
    tuples, where four statistics per attribute replace the whole block.
    (On tiny blocks the sidecar is as big as the data and the path does
    not pay — the degree dependence is the point of the ablation.)
    """
    sql = (
        "select L.suppkey, sum(L.quantity) as q, avg(L.discount) as d "
        "from LINEITEM L group by L.suppkey"
    )

    def run():
        db = dataset("tpch", SCALE_UNITS)
        baav = baav_schema_for("tpch")
        out = {}
        for use_stats in (True, False):
            zidian = ZidianSystem(
                BACKEND, workers=8, storage_nodes=4, use_stats=use_stats
            )
            zidian.load(db, baav)
            out[use_stats] = zidian.execute(sql)
        return out

    out = once(run)
    rows = [
        [label, fmt(out[flag].metrics.data_values),
         fmt(out[flag].metrics.sim_time_ms / 1000)]
        for label, flag in (("stats", True), ("rows", False))
    ]
    publish(
        "ablation_a2_block_stats",
        render_table(
            "Ablation A2 (repro): per-block statistics fast path",
            ["path", "#data", "time (s)"],
            rows,
        ),
    )
    assert bag_equal(out[True].relation, out[False].relation)
    assert out[True].metrics.data_values < out[False].metrics.data_values / 5
    assert out[True].metrics.sim_time_ms < out[False].metrics.sim_time_ms


def test_a3_split_threshold(once):
    """Oversized-block splitting: more segments, same answers."""
    def run():
        db = dataset("tpch", 4)
        baav = baav_schema_for("tpch")
        sql = (
            "select L.orderkey, L.extendedprice from LINEITEM L, ORDERS O "
            "where L.orderkey = O.orderkey and O.custkey = 7"
        )
        out = {}
        for threshold in (10_000, 64, 8):
            zidian = ZidianSystem(
                BACKEND, workers=8, storage_nodes=4,
                split_threshold=threshold,
            )
            zidian.load(db, baav)
            out[threshold] = zidian.execute(sql)
        return out

    out = once(run)
    rows = [
        [str(t), fmt(r.metrics.n_get), fmt(r.metrics.sim_time_ms / 1000)]
        for t, r in sorted(out.items(), reverse=True)
    ]
    publish(
        "ablation_a3_split_threshold",
        render_table(
            "Ablation A3 (repro): block split threshold sweep, TPC-H",
            ["threshold (tuples)", "#get", "time (s)"],
            rows,
        ),
    )
    answers = list(out.values())
    for other in answers[1:]:
        assert bag_equal(answers[0].relation, other.relation)
    # smaller threshold -> more segments -> at least as many gets
    assert out[8].metrics.n_get >= out[10_000].metrics.n_get


def test_a4_interleaving(once):
    """Interleaved ∝ vs the fetch-all baseline on the same queries."""
    def run():
        db = dataset("mot", SCALE_UNITS)
        baav = baav_schema_for("mot")
        queries = [
            (label, sql)
            for label, sql in queries_for("mot", db)
            if label in ("q1", "q2", "q3", "q4", "q5", "q6")
        ]
        base, zidian = build_pair(db, baav, BACKEND, workers=8)
        return run_queries(base, zidian, queries)

    runs = once(run)
    rows = [
        [r.label, fmt(r.base.comm_bytes / 1e6),
         fmt(r.zidian.comm_bytes / 1e6), f"{r.speedup:.0f}x"]
        for r in runs
    ]
    publish(
        "ablation_a4_interleaving",
        render_table(
            "Ablation A4 (repro): fetch-all vs interleaved ∝ "
            "(scan-free MOT queries)",
            ["query", "fetch-all comm (MB)", "interleaved comm (MB)",
             "speedup"],
            rows,
        ),
    )
    for r in runs:
        # Proposition 7: interleaving keeps communication bounded
        assert r.zidian.comm_bytes < r.base.comm_bytes / 10, r.label


def test_a5_storage_engine(once):
    """Mem vs LSM node engines: same answers, same counters.

    The middleware is engine-agnostic (§1 [3]: "without the need to hack
    into the systems or change their underlying KV storage"): logical
    gets/values/comm are identical on both engines; only the physical
    write path differs (flushes/compactions visible in the LSM stats).
    """

    def run():
        from repro.baav import BaaVStore
        from repro.core import Zidian
        from repro.kba import ExecContext, execute
        from repro.kv import KVCluster
        from repro.parallel.engine import Executable
        from repro.sql.executor import Table

        db = dataset("mot", 4)
        baav = baav_schema_for("mot")
        sql = queries_for("mot", db)[0][1]  # q1: bounded lookup
        out = {}
        for engine in ("mem", "lsm"):
            cluster = KVCluster(4, engine=engine)
            store = BaaVStore.map_database(db, baav, cluster)
            zidian = Zidian(db.schema, baav, store)
            plan, _ = zidian.plan(sql)
            cluster.reset_counters()
            blockset = execute(plan.root, ExecContext(store))
            table = Table(blockset.attrs, list(blockset.expand()))
            result = Executable(plan).top(table)
            counters = cluster.total_counters()
            lsm_stats = None
            if engine == "lsm":
                node = next(iter(cluster.nodes.values()))
                lsm_stats = node.store.stats
            out[engine] = (result.rows, counters, lsm_stats)
        return out

    out = once(run)
    rows = [
        [engine, fmt(counters.gets), fmt(counters.values_read),
         str(len(result_rows))]
        for engine, (result_rows, counters, _) in out.items()
    ]
    publish(
        "ablation_a5_storage_engine",
        render_table(
            "Ablation A5 (repro): mem vs LSM storage engine (MOT q1)",
            ["engine", "#get", "#data", "rows"],
            rows,
        ),
    )
    mem_rows, mem_counters, _ = out["mem"]
    lsm_rows, lsm_counters, lsm_stats = out["lsm"]
    assert sorted(map(repr, mem_rows)) == sorted(map(repr, lsm_rows))
    assert mem_counters.gets == lsm_counters.gets
    assert mem_counters.values_read == lsm_counters.values_read
    # the LSM engine actually flushed during the bulk load
    assert lsm_stats is not None and lsm_stats.flushes > 0
